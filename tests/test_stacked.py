"""Stacked k-set solves: fiber.assemble and spectra.eigh on stacks of k-points.

compute_bands assembles and solves the k-points of equal basis size as
stacks.  Every member of a stack must equal its own single-k assembly and
its own per-matrix solve, bit for bit, and compute_bands must equal the
per-k loop it replaced, which is kept below as the oracle.
"""

import re

import numpy as np
import pytest

import bandlab as bl
from bandlab import spectra
from bandlab.lattice import _basis_sizes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

BLOWUPS = {m: bl.build_blowup(bl.BlowupSpec(m=m, p=m + 0.5, C=1.0)) for m in (0, 1, 2)}
EC_MAX = {1: 400.0, 2: 150.0, 3: 60.0}  # keeps M below about 40
G_RANGE = 12                            # wider than every basis box above
HEX = np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])


def per_k_bands(lat, V, kset, Ec, scheme, n_bands):
    """compute_bands as the loop over k it was before stacks: one assemble and
    one eigh per k, raising at the first offending k in k order."""
    energies = np.empty((len(kset), n_bands))
    for i, k in enumerate(kset.points):
        fib = bl.assemble(lat, V, k, Ec, scheme)
        if len(fib) < n_bands:
            raise bl.BandCountExceedsBasis(
                f"{n_bands} bands requested but only {len(fib)} plane waves "
                f"at k={k} (Ec={Ec:g})")
        energies[i] = bl.eigh(fib.entries, n_lowest=n_bands).values
    return energies


finite = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def stacks(draw):
    """(lat, V, points, Ec, scheme) with 1-8 random points, some far apart
    (different G-boxes), some shifted by a reciprocal vector."""
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
    if draw(st.booleans()):
        V = bl.potential_from_coeffs(lat, list(raw.items()), real_valued=False)
    else:  # a hand-built map keeps signed zeros that potential_from_coeffs drops
        V = bl.FourierPotential(lattice=lat, coeffs=raw, real_valued=False)
    n = draw(st.integers(1, 8))
    fracs = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n * d, max_size=n * d)))
    fracs = fracs.reshape(n, d)
    if draw(st.booleans()):  # k + G has the same k-dependent basis size
        fracs = np.vstack([fracs, fracs[0] + np.array(draw(gidx)) // 4])
    points = fracs @ lat.reciprocal.T
    Ec = draw(st.floats(0.5, EC_MAX[d]))
    tag = draw(st.sampled_from(["uniform", "kdependent", "modified"]))
    scheme = (bl.modified_scheme(BLOWUPS[draw(st.sampled_from([0, 1, 2]))])
              if tag == "modified" else bl.Scheme(tag=tag))
    return lat, V, points, Ec, scheme


# Signed zeros in a conjugate pair, as in tests/test_assembly.py.
LAT1 = bl.new_lattice([[1.0]])
SIGNED_ZEROS = bl.FourierPotential(
    lattice=LAT1, coeffs={(1,): complex(-0.0, -0.0), (-1,): complex(-0.0, 0.0)},
    real_valued=False)


@settings(max_examples=200, deadline=None)
@given(stacks())
@hypothesis.example((LAT1, SIGNED_ZEROS, np.array([[0.3], [-2.9], [0.3 + 4 * np.pi]]), 25.0,
                     bl.kdependent_scheme()))
def test_stacked_assemble_matches_single_k(case):
    lat, V, points, Ec, scheme = case
    singles = []
    for k in points:
        try:
            singles.append(bl.assemble(lat, V, k, Ec, scheme))
        except bl.EmptyBasis:
            singles.append(None)
    sizes = [-1 if f is None else len(f) for f in singles]
    # the largest group of points with one basis size, in k order
    M = max(set(sizes), key=lambda s: (sizes.count(s), s))
    members = [i for i, s in enumerate(sizes) if s == M]
    if M < 0:
        with pytest.raises(bl.EmptyBasis):
            bl.assemble(lat, V, points[members], Ec, scheme)
        return
    fib = bl.assemble(lat, V, points[members], Ec, scheme)
    assert fib.entries.shape == (len(members), M, M)
    assert fib.coords.shape == (len(members), M, lat.dim)
    assert len(fib) == len(fib.basis) == M
    for b, i in enumerate(members):
        assert np.array_equal(fib.coords[b], singles[i].coords)
        assert fib.entries[b].tobytes() == singles[i].entries.tobytes()  # signed zeros too
    assert fib.basis == list(zip(*(singles[i].basis for i in members)))
    if len(set(sizes)) > 1 and min(sizes) > 0:
        with pytest.raises(ValueError, match="differ in size"):
            bl.assemble(lat, V, points, Ec, scheme)


def test_single_k_is_the_one_member_stack(hex2d):
    V = bl.synth_power_law(hex2d, t=2.1, gmax=4, seed=2)
    k = hex2d.reciprocal @ np.array([0.21, -0.37])
    single = bl.assemble(hex2d, V, k, 80.0, bl.modified_scheme(BLOWUPS[1]))
    stack = bl.assemble(hex2d, V, k[None], 80.0, bl.modified_scheme(BLOWUPS[1]))
    assert single.entries.shape == stack.entries.shape[1:]
    assert single.entries.tobytes() == stack.entries[0].tobytes()
    assert np.array_equal(single.coords, stack.coords[0])
    assert len(single) == len(stack)


# ---------------------------------------------------------------- eigh


def grid2d_k131():
    """The grid2d seed-1 fiber at k index 131 (M = 114, diagonal up to 2e8),
    which _graded_mask declines, and its grid neighbours of the same order."""
    lat = bl.new_lattice(HEX)
    V = bl.synth_power_law(lat, t=2.1, gmax=6, seed=1)
    scheme = bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))
    points = bl.uniform_grid(lat, 12).points
    sizes = _basis_sizes(lat, 800.0, points)
    same = [131] + [i for i in np.flatnonzero(sizes == sizes[131]) if i != 131][:3]
    return bl.assemble(lat, V, points[same], 800.0, scheme).entries


def graded_member(M, rng):
    """A matrix _graded_mask accepts: two diagonal entries 1e12 above the rest."""
    G = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    H = (G + G.conj().T) / 4.0
    H[np.diag_indices(M)] = np.linspace(0.0, 30.0, M)
    H[M - 1, M - 1] = H[M - 2, M - 2] = 1e12
    return H


def block_member(rng, M, spread, dtype):
    """A matrix of order M on the block path: a random Hermitian part of norm
    about 1 on a diagonal spread over [0, spread].  The narrower the spread,
    the closer the low bands and the more block iterations they take."""
    G = rng.normal(size=(M, M)) + (1j * rng.normal(size=(M, M)) if dtype == complex else 0.0)
    H = (G + G.conj().T) / (2.0 * np.sqrt(2.0 * M))
    H[np.diag_indices(M)] = spread * rng.uniform(0.0, 1.0, M) ** (2.0 / 3.0)
    return H


def assert_members_equal(stack, n_lowest):
    """eigh on the stack against eigh on each member: values and bounds to
    the bit."""
    sol = bl.eigh(stack, n_lowest=n_lowest)
    singles = [bl.eigh(H, n_lowest=n_lowest) for H in stack]
    assert sol.values.shape == (len(stack), n_lowest)
    assert sol.bounds.shape == (len(stack),)
    for b, one in enumerate(singles):
        assert sol.values[b].tobytes() == one.values.tobytes()
        assert sol.bounds[b].tobytes() == one.bounds.tobytes()
    return sol


def test_stacked_eigh_on_grid2d_members():
    stack = grid2d_k131()
    assert not spectra._graded_mask(stack[:1])[0].any()
    assert np.max(np.real(stack[0].diagonal())) > 1e8
    assert_members_equal(stack, 4)


def test_stacked_eigh_mixes_graded_and_plain_members():
    rng = np.random.default_rng(5)
    stack = grid2d_k131()
    stack[1] = graded_member(stack.shape[1], rng)
    assert spectra._graded_mask(stack[1:2])[0].any()
    for n_lowest in (1, 4, 40):
        assert_members_equal(stack, n_lowest)


def test_stacked_eigh_on_block_path_members(block_calls):
    rng = np.random.default_rng(7)
    M = spectra._BLOCK_MIN_ORDER + 40
    stack = np.stack([block_member(rng, M, 40.0, complex) for _ in range(3)])
    sol = assert_members_equal(stack, 4)
    assert block_calls == [True] * 6 and np.all(sol.bounds <= 1e-10)  # stack, then singles


@pytest.mark.parametrize("dtype", [complex, float])
def test_stacked_eigh_mixes_block_and_fallback_members(monkeypatch, block_calls, dtype):
    """A stack on the block path whose middle member falls back to the dense
    route: every member still gets its own single-matrix result.  The outer
    members converge within 6-7 block iterations and the middle one needs
    15-19, so a cap of 14 sends only the middle one to the dense route."""
    rng = np.random.default_rng(8)
    M = spectra._BLOCK_MIN_ORDER + 40
    stack = np.stack([block_member(rng, M, spread, dtype) for spread in (40.0, 4.0, 40.0)])
    monkeypatch.setattr(spectra, "_BLOCK_MAX_ITER", 14)
    assert [spectra._eigh_block(H, 4) is None for H in stack] == [False, True, False]
    block_calls.clear()
    sol = assert_members_equal(stack, 4)
    assert block_calls == [True, False, True] * 2  # stack, then singles
    assert sol.bounds[0] <= 1e-10 and sol.bounds[2] <= 1e-10  # block eigenvalue bounds


def test_each_member_reports_its_bound(block_calls):
    """The grid2d k = 131 fiber, solved by a plain dense eigvalsh below the
    split, cannot meet 1e-10; a split member can; so can a block member."""
    rng = np.random.default_rng(5)
    stack = grid2d_k131()
    stack[1] = graded_member(stack.shape[1], rng)
    sol = bl.eigh(stack, n_lowest=4)
    assert sol.bounds.shape == (4,)
    assert sol.bounds[0] > 1e-10 and sol.bounds[1] <= 1e-10
    for b in (0, 1):
        assert sol.bounds[b].tobytes() == bl.eigh(stack[b], n_lowest=4).bounds.tobytes()
    one = bl.eigh(block_member(rng, spectra._BLOCK_MIN_ORDER + 40, 40.0, complex), n_lowest=4)
    assert block_calls == [True] and one.bounds <= 1e-10  # block path


def outcome(fn):
    """The values of a solve, or the type of the solver failure it raised."""
    try:
        return fn().values.tobytes()
    except bl.SolverFailure as exc:
        return type(exc)


def test_stacked_eigh_non_finite_member_fails_as_alone():
    stack = grid2d_k131()
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[2, 5, 5] = bad
        with pytest.raises(bl.SolverFailure):
            bl.eigh(broken[2], n_lowest=4)
        with pytest.raises(bl.SolverFailure):
            bl.eigh(broken, n_lowest=4)
    # off the diagonal LAPACK may fail or return nan; the stack does what the
    # member does alone
    for i, j in ((0, 7), (1, 2)):
        broken = stack.copy()
        broken[3, i, j] = broken[3, j, i] = np.nan
        alone = outcome(lambda: bl.eigh(broken[3], n_lowest=4))
        if alone is bl.SolverFailure:
            assert outcome(lambda: bl.eigh(broken, n_lowest=4)) is bl.SolverFailure
        else:
            assert bl.eigh(broken, n_lowest=4).values[3].tobytes() == alone


def test_stacked_eigh_accepts_a_stacked_fiber_matrix(lat1d, cosine):
    fib = bl.assemble(lat1d, cosine, np.array([[0.1], [0.2], [0.3]]), 100.0,
                      bl.kdependent_scheme())
    assert np.array_equal(bl.eigh(fib, n_lowest=3).values, bl.eigh(fib.entries, 3).values)


# ------------------------------------------------------------ compute_bands


@st.composite
def band_cases(draw):
    d = draw(st.integers(1, 2))
    lat = bl.new_lattice(np.eye(1) if d == 1 else HEX)
    V = bl.synth_power_law(lat, t=2.1, gmax=draw(st.integers(1, 5)),
                           seed=draw(st.integers(0, 9)),
                           amplitude=draw(st.floats(0.5, 50.0)))
    Ec = draw(st.floats(20.0, 200.0 if d == 1 else 60.0))
    if draw(st.booleans()):
        kset = bl.uniform_grid(lat, draw(st.integers(2, 7)))
    else:  # a path across rank flips
        a, b = (lat.reciprocal @ np.array(draw(st.lists(st.floats(-1.0, 1.0),
                                                         min_size=d, max_size=d)))
                for _ in range(2))
        kset = bl.kpath(lat, [("A", a), ("B", b)], draw(st.integers(1, 60)))
    tag = draw(st.sampled_from(["uniform", "kdependent", "modified"]))
    scheme = (bl.modified_scheme(BLOWUPS[draw(st.sampled_from([0, 1, 2]))])
              if tag == "modified" else bl.Scheme(tag=tag))
    return lat, V, kset, Ec, scheme, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(band_cases(), st.sampled_from([1, 2**10, 2**14, 2**30]))
def test_compute_bands_matches_per_k_loop(case, budget):
    lat, V, kset, Ec, scheme, n_bands = case
    want = raised(lambda: per_k_bands(lat, V, kset, Ec, scheme, n_bands))
    if want is None:
        want = per_k_bands(lat, V, kset, Ec, scheme, n_bands).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_STACK_BUDGET", budget)  # one member per stack up to one per size
        for threads in (1, 2):
            got = raised(lambda: bl.compute_bands(lat, V, kset, Ec, scheme, n_bands,
                                                  threads=threads))
            if got is None:
                got = bl.compute_bands(lat, V, kset, Ec, scheme, n_bands,
                                       threads=threads).energies.tobytes()
            assert got == want


def test_compute_bands_over_rank_flips_in_stacks(lat1d):
    V = bl.synth_power_law(lat1d, t=1.55, gmax=8, seed=7, amplitude=48000.0)
    scheme = bl.modified_scheme(BLOWUPS[2])
    ts = np.linspace(-0.5, 0.5, 401) * 2.0 * np.pi
    kset = bl.KPointSet(points=ts[:, None], kind="path")
    sizes = _basis_sizes(lat1d, 750.0, kset.points)
    assert np.count_nonzero(np.diff(sizes)) >= 2  # several rank flips
    chunks = spectra._chunks(sizes, V.hermitian_coeffs[0].shape[0], 2,
                             lat1d.fractional(kset.points.T).T)
    assert max(map(len, chunks)) > 1
    assert sorted(np.concatenate(chunks).tolist()) == list(range(len(kset)))
    for idx in chunks:
        assert np.all(sizes[idx] == sizes[idx[0]]) and np.all(np.diff(idx) > 0)
    want = per_k_bands(lat1d, V, kset, 750.0, scheme, 2)
    for threads in (1, 2):
        got = bl.compute_bands(lat1d, V, kset, 750.0, scheme, 2, threads=threads)
        assert got.energies.tobytes() == want.tobytes()


def raised(fn):
    """(type, message) of the band-count or empty-basis error fn raises, or None."""
    try:
        fn()
    except (bl.BandCountExceedsBasis, bl.EmptyBasis) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("Ec, n_bands", [(40.0, 7), (60.0, 10), (20.0, 3), (3.0, 1),
                                         (5.0, 1), (8.0, 2), (0.0, 1), (-1.0, 2)])
def test_compute_bands_errors_name_the_first_offending_k(hex2d, Ec, n_bands):
    V = bl.synth_power_law(hex2d, t=2.1, gmax=2, seed=3)
    nodes = [("A", hex2d.reciprocal @ [0.2, 0.1]), ("B", hex2d.reciprocal @ [0.5, 0.0]),
             ("C", [0.0, 0.0]), ("D", hex2d.reciprocal @ [1 / 3, 1 / 3])]
    path = bl.kpath(hex2d, nodes, 6)
    want = raised(lambda: per_k_bands(hex2d, V, path, Ec, bl.kdependent_scheme(), n_bands))
    assert want is not None
    got = raised(lambda: bl.compute_bands(hex2d, V, path, Ec, bl.kdependent_scheme(), n_bands))
    assert got == want


def test_first_offending_k_is_not_the_smallest_basis(hex2d):
    """On this path the first short basis is not the smallest one, so grouping
    by size must not decide which k the error names."""
    nodes = [("A", [0.0, 0.0]), ("B", hex2d.reciprocal @ [0.5, 0.0]),
             ("C", hex2d.reciprocal @ [1 / 3, 1 / 3])]
    path = bl.kpath(hex2d, nodes, 6)
    sizes = _basis_sizes(hex2d, 40.0, path.points)
    first = np.flatnonzero(sizes < 7)[0]
    assert sizes[first] > sizes.min()
    with pytest.raises(bl.BandCountExceedsBasis, match=re.escape(f"k={path.points[first]}")):
        bl.compute_bands(hex2d, bl.potential_from_coeffs(hex2d, []), path, 40.0,
                         bl.kdependent_scheme(), 7)


# ------------------------------------------------ several schemes on one k-set


@st.composite
def grouped_cases(draw):
    """band_cases with a list of distinct schemes in random order, with or
    without the uniform one; or, when `block` is drawn, a 3D cell whose
    k-dependent bases are large enough for eigh to try the block path, on
    a +-k pair and one more point."""
    tags = draw(st.permutations(["uniform", "kdependent", "modified"]))
    tags = tags[:draw(st.integers(1, 3))]
    blowup = BLOWUPS[draw(st.sampled_from([0, 1, 2]))]
    schemes = [bl.modified_scheme(blowup) if tag == "modified" else bl.Scheme(tag=tag)
               for tag in tags]
    block = draw(st.booleans())
    if not block:
        lat, V, kset, Ec, _, n_bands = draw(band_cases())
        return lat, V, kset, Ec, schemes, n_bands, False
    lat = bl.new_lattice(np.eye(3))
    V = bl.synth_power_law(lat, t=2.1, gmax=1, seed=draw(st.integers(0, 9)),
                           amplitude=draw(st.floats(0.5, 20.0)))
    fracs = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=6, max_size=6)))
    fracs = np.vstack([fracs[:3], -fracs[:3], fracs[3:]])
    kset = bl.KPointSet(points=fracs @ lat.reciprocal.T, kind="path")
    return lat, V, kset, draw(st.floats(300.0, 340.0)), schemes, draw(st.integers(1, 4)), True


def tagged_energies(fn):
    """(scheme tag, energies as bytes) of each band structure fn returns, or
    the (type, message) of the band-count or empty-basis error it raises."""
    try:
        return [(b.scheme.tag, b.energies.tobytes()) for b in fn()]
    except (bl.BandCountExceedsBasis, bl.EmptyBasis) as exc:
        return type(exc), str(exc)


@settings(max_examples=30, deadline=None)
@given(grouped_cases(), st.sampled_from([1, 2**10, 2**30]))
def test_grouped_solve_matches_compute_bands_per_scheme(case, budget):
    """_band_structures gives each scheme, in the given order, the bits
    compute_bands gives it alone, with one or two threads and for any stack
    budget; an error is the one the first failing scheme raises alone."""
    lat, V, kset, Ec, schemes, n_bands, block = case
    if block:  # every k-dependent basis, and the uniform one (k = 0)
        sizes = _basis_sizes(lat, Ec, np.vstack([kset.points, np.zeros(3)]))
        assert all(spectra._tries_block(int(M), n_bands) for M in sizes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_STACK_BUDGET", budget)
        alone = [tagged_energies(lambda: [bl.compute_bands(lat, V, kset, Ec, scheme, n_bands)])
                 for scheme in schemes]
        errors = [a for a in alone if isinstance(a, tuple)]
        want = errors[0] if errors else [a[0] for a in alone]
        for threads in (1, 2):
            assert tagged_energies(lambda: spectra._band_structures(
                lat, V, kset, Ec, schemes, n_bands, threads)) == want
