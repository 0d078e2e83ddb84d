"""FiberMatrix.apply, the table product behind the block eigensolver, and the
lazy forms of a fiber: the row table and the dense `entries`.

The product is checked against the dense matrix on random lattices,
potentials, schemes and stacks.  Each route builds only the form it needs:
the dense route never builds the table, the block path never builds the
dense matrix, and the dense fallback after the block path keeps only the
dense matrix.  The product is always the table product.
"""

import numpy as np
import pytest

import bandlab as bl
from bandlab import spectra

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

EPS = np.finfo(float).eps
BLOWUPS = {m: bl.build_blowup(bl.BlowupSpec(m=m, p=m + 0.5, C=1.0)) for m in (0, 1, 2)}
EC_MAX = {1: 400.0, 2: 150.0, 3: 60.0}  # keeps M below about 40
G_RANGE = 12                            # wider than every basis box above

finite = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def fibers(draw):
    """(lat, V, points, Ec, scheme): a stack of 1-3 points whose bases have one
    size (k shifted by reciprocal vectors), complex coefficients some of
    which reach beyond the basis box, or no coefficients at all."""
    d = draw(st.integers(1, 3))
    prim = np.eye(d) * draw(st.floats(0.8, 1.3))
    for i in range(d):
        for j in range(d):
            if i != j:
                prim[i, j] = draw(st.floats(-0.3, 0.3))
    lat = bl.new_lattice(prim)
    gidx = st.tuples(*[st.integers(-G_RANGE, G_RANGE)] * d)
    raw = draw(st.dictionaries(gidx, st.builds(complex, finite, finite), max_size=12))
    if draw(st.booleans()):
        raw[(0,) * d] = complex(draw(finite), draw(finite))
    V = bl.FourierPotential(lattice=lat, coeffs=raw, real_valued=False)
    frac = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    shifts = draw(st.lists(gidx, min_size=0, max_size=2))
    points = (frac + np.array([(0,) * d] + shifts) // 4) @ lat.reciprocal.T
    Ec = draw(st.floats(0.5, EC_MAX[d]))
    tag = draw(st.sampled_from(["uniform", "kdependent", "modified"]))
    scheme = (bl.modified_scheme(BLOWUPS[draw(st.sampled_from([0, 1, 2]))])
              if tag == "modified" else bl.Scheme(tag=tag))
    return lat, V, points, Ec, scheme


@settings(max_examples=150, deadline=None)
@given(fibers(), st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (5,)]))
def test_product_matches_dense_matrix(case, seed, width):
    lat, V, points, Ec, scheme = case
    try:
        fib = bl.assemble(lat, V, points, Ec, scheme)
    except bl.EmptyBasis:
        return
    dense = bl.assemble(lat, V, points, Ec, scheme).entries
    B, M = fib.diagonal.shape
    rng = np.random.default_rng(seed)
    for b in range(B):
        X = rng.normal(size=(M,) + width) + 1j * rng.normal(size=(M,) + width)
        HX = fib.apply(X, b)
        assert HX.shape == X.shape and fib.table is not None
        # each entry sums the diagonal term and at most n coefficient terms
        scale = np.abs(fib.diagonal[b]) + np.abs(fib.coeffs).sum()
        tol = 2 * (len(fib.coeffs) + 2) * EPS * scale * np.max(np.abs(X))
        err = np.abs(HX - dense[b] @ X)
        assert np.all(err <= tol.reshape((M,) + (1,) * len(width)))
        real = rng.normal(size=M)
        assert np.allclose(fib.apply(real, b), dense[b] @ real, rtol=0,
                           atol=2 * (len(fib.coeffs) + 2) * EPS * scale.max() * np.abs(real).max())
    assert "entries" not in vars(fib)


def test_zero_potential_product_is_the_diagonal(lat1d, zero):
    fib = bl.assemble(lat1d, zero, [0.3], 200.0, bl.kdependent_scheme())
    assert fib.table.shape == (0, 1, len(fib)) and fib.coeffs.size == 0
    X = np.arange(2.0 * len(fib)).reshape(-1, 2)
    assert np.array_equal(fib.apply(X), fib.diagonal[:, None] * X)
    assert np.array_equal(fib.entries, np.diag(fib.diagonal).astype(complex))


def test_dense_route_builds_entries_once_and_no_table(lat1d, cosine):
    """The dense route builds `entries` once and never the row table."""
    fib = bl.assemble(lat1d, cosine, [0.3], 200.0, bl.kdependent_scheme())
    sol = bl.eigh(fib, n_lowest=3)
    assert "entries" in vars(fib) and "table" not in vars(fib)
    H = fib.entries
    assert fib.entries is H and np.array_equal(sol.values, np.linalg.eigvalsh(H)[:3])
    assert "table" not in vars(fib)


def cubic_fiber(k_fracs, Ec=400.0):
    """k-dependent fibers of a cubic potential with complex coefficients, M >= 200."""
    lat = bl.new_lattice(np.eye(3))
    V = bl.synth_power_law(lat, t=2.1, gmax=1, seed=4, amplitude=5.0)
    coeffs = {g: c * np.exp(0.7j * sum(g)) for g, c in V.coeffs.items()}
    V = bl.FourierPotential(lattice=lat, coeffs=coeffs, real_valued=False)
    points = np.asarray(k_fracs) @ lat.reciprocal.T
    return lambda: bl.assemble(lat, V, points, Ec, bl.kdependent_scheme())


@pytest.mark.parametrize("member", [0, 1])
def test_product_does_not_depend_on_the_dense_matrix(member):
    """apply(X) is the table product to the bit, whether or not `entries` was
    built first (M = 386: the dense product differs in the last bits)."""
    make = cubic_fiber([[0.1, 0.2, 0.3], [1.1, 0.2, -0.7]])
    plain, dense = make(), make()
    dense.entries  # built before the first product
    X = np.random.default_rng(0).normal(size=(len(plain), 4))
    assert len(plain) == 386
    assert np.array_equal(dense.apply(X, member), plain.apply(X, member))


@pytest.mark.parametrize("k_fracs", [[0.1, 0.2, 0.3], [[0.1, 0.2, 0.3], [1.1, 0.2, -0.7]]])
def test_block_path_solves_a_fiber_without_its_dense_matrix(k_fracs, block_calls):
    make = cubic_fiber(k_fracs)
    fib = make()
    n = len(fib)
    assert n >= max(spectra._BLOCK_MIN_ORDER, spectra._BLOCK_MIN_RATIO * (4 + spectra._BLOCK_GUARD))
    sol = bl.eigh(fib, n_lowest=4)
    assert all(block_calls) and np.all(sol.bounds <= 1e-10)  # block path
    assert "entries" not in vars(fib) and "table" in vars(fib)
    H = make().entries
    for got, member in zip(np.atleast_2d(sol.values), H.reshape(-1, n, n)):
        want = bl.eigh(member, n_lowest=4).values
        assert np.all(np.abs(got - want) <= 1e-10 * (1.0 + np.abs(want)))
        assert np.all(np.abs(got - np.linalg.eigvalsh(member)[:4]) <= 1e-10 * (1.0 + np.abs(got)))


def test_iteration_cap_on_a_fiber_falls_back_to_its_dense_matrix(monkeypatch, block_calls):
    make = cubic_fiber([0.1, 0.2, 0.3])
    monkeypatch.setattr(spectra, "_BLOCK_MAX_ITER", 1)
    fib = make()
    capped = bl.eigh(fib, n_lowest=4)
    assert block_calls == [False]  # dense path
    assert "entries" in vars(fib) and "table" not in vars(fib)  # built for the block, then dropped
    assert np.array_equal(capped.values, np.linalg.eigvalsh(make().entries)[:4])
