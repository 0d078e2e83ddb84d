"""Property tests: the dense matrix of fiber.assemble against the entry-by-entry sum.

The oracle below is the dictionary double loop the library used before the
potential block became integer-array code.  Both must give the same basis
and the same matrix, bit for bit, on random lattices, potentials, k-points,
cutoffs and schemes, for a single k and for each member of a (B, d) stack.
"""

import numpy as np
import pytest

import bandlab as bl

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

BLOWUPS = {m: bl.build_blowup(bl.BlowupSpec(m=m, p=m + 0.5, C=1.0)) for m in (0, 1, 2)}
EC_MAX = {1: 400.0, 2: 150.0, 3: 60.0}  # keeps M below about 40
G_RANGE = 12                            # wider than every basis box above


def oracle(lat, V, k, Ec, scheme):
    """Entry-by-entry potential block, then the same Hermitian part and diagonal."""
    basis = bl.enumerate_basis(lat, k, Ec, scheme.basis_mode)
    M = len(basis)
    H = np.zeros((M, M), dtype=complex)
    pos = {g: i for i, g in enumerate(basis)}
    for dg, c in V.coeffs.items():
        for j, g in enumerate(basis):
            i = pos.get(tuple(gi + di for gi, di in zip(g, dg)))
            if i is not None:
                H[i, j] += c
    H = 0.5 * (H + H.conj().T)
    kin = bl.kinetic_values(lat, k, basis)
    if scheme.tag == "modified":
        x = np.sqrt(kin / Ec)
        diag = np.where(x <= 0.5, kin, 0.0)
        steep = x > 0.5
        if steep.any():
            diag[steep] = Ec * scheme.blowup.eval(x[steep])
    else:
        diag = kin
    H[np.diag_indices(M)] += diag
    return basis, H


def old_identity_check(lat, V, k, Ec):
    """project_modified_identity_check with its former dictionary lookup."""
    inner = bl.assemble(lat, V, k, Ec, bl.kdependent_scheme())
    big = bl.assemble(lat, V, k, 4.0 * Ec, bl.modified_scheme(BLOWUPS[1]))
    where = {g: i for i, g in enumerate(big.basis)}
    idx = np.array([where[g] for g in inner.basis])
    sub = big.entries[np.ix_(idx, idx)]
    return float(np.max(np.abs(sub - inner.entries)))


finite = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def cases(draw):
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
    kind = draw(st.sampled_from(["real", "complex", "raw"]))
    if kind == "real":
        entries = [e for g, c in raw.items()
                   for e in ((g, c), (tuple(-v for v in g), np.conj(c)))]
        V = bl.potential_from_coeffs(lat, entries, real_valued=True)
    elif kind == "complex":
        V = bl.potential_from_coeffs(lat, list(raw.items()), real_valued=False)
    else:  # a hand-built map keeps signed zeros that potential_from_coeffs drops
        V = bl.FourierPotential(lattice=lat, coeffs=raw, real_valued=False)
    frac = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    k = lat.reciprocal @ frac
    Ec = draw(st.floats(0.5, EC_MAX[d]))
    tag = draw(st.sampled_from(["uniform", "kdependent", "modified"]))
    scheme = (bl.modified_scheme(BLOWUPS[draw(st.sampled_from([0, 1, 2]))])
              if tag == "modified" else bl.Scheme(tag=tag))
    return lat, V, k, Ec, scheme


# Signed zeros in a conjugate pair: writing c instead of adding it to 0 would
# leave -0.0 in both entries, which the Hermitian step then keeps.
LAT1 = bl.new_lattice([[1.0]])
SIGNED_ZEROS = bl.FourierPotential(
    lattice=LAT1, coeffs={(1,): complex(-0.0, -0.0), (-1,): complex(-0.0, 0.0)},
    real_valued=False)


@settings(max_examples=200, deadline=None)
@given(cases())
@hypothesis.example((LAT1, SIGNED_ZEROS, np.array([0.3]), 25.0, bl.kdependent_scheme()))
# A subnormal coefficient: halving its conjugate must give -0.0, as the oracle's does.
@hypothesis.example((LAT1, bl.potential_from_coeffs(LAT1, [((1,), 5e-324j)], real_valued=False),
                     np.array([0.0]), 20.0, bl.uniform_scheme()))
def test_scatter_matches_entrywise_sum(case):
    lat, V, k, Ec, scheme = case
    try:
        basis, H = oracle(lat, V, k, Ec, scheme)
    except bl.EmptyBasis:
        with pytest.raises(bl.EmptyBasis):
            bl.assemble(lat, V, k, Ec, scheme)
        return
    fib = bl.assemble(lat, V, k, Ec, scheme)
    assert fib.basis == basis
    assert all(type(c) is int for g in fib.basis for c in g)
    assert np.array_equal(fib.entries, H)
    assert fib.entries.tobytes() == H.tobytes()


@st.composite
def stacked_cases(draw):
    """cases() with a (B, d) stack of k: the drawn k, copies shifted by
    reciprocal vectors (equal basis size) and other random points."""
    lat, V, k, Ec, scheme = draw(cases())
    d = lat.dim
    shifts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=3))
    fracs = draw(st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3 * d))
    others = np.array(fracs[: len(fracs) // d * d]).reshape(-1, d) @ lat.reciprocal.T
    points = np.vstack([k, k + np.array(shifts) @ lat.reciprocal.T, others])
    return lat, V, points, Ec, scheme


@settings(max_examples=150, deadline=None)
@given(stacked_cases())
def test_stacked_gather_matches_entrywise_sum(case):
    lat, V, points, Ec, scheme = case
    sizes = bl.lattice._basis_sizes(lat, Ec, np.zeros_like(points) if scheme.tag == "uniform"
                                    else points)
    members = np.flatnonzero(sizes == sizes[0])
    if sizes[0] == 0:
        with pytest.raises(bl.EmptyBasis):
            bl.assemble(lat, V, points[members], Ec, scheme)
        return
    fib = bl.assemble(lat, V, points[members], Ec, scheme)
    for b, i in enumerate(members):
        basis, H = oracle(lat, V, points[i], Ec, scheme)
        assert list(map(tuple, fib.coords[b].tolist())) == basis
        assert fib.entries[b].tobytes() == H.tobytes()  # signed zeros too


@settings(max_examples=40, deadline=None)
@given(cases())
def test_identity_check_matches_dict_lookup(case):
    lat, V, k, Ec, _ = case
    try:
        want = old_identity_check(lat, V, k, Ec)
    except bl.EmptyBasis:
        return
    assert bl.project_modified_identity_check(lat, V, k, Ec) == want
