"""Property tests of the paper's claims about the three schemes.

* The blow-up G dominates x^2 on the same variational space, so the
  modified fiber matrix dominates the k-dependent one and every modified
  band lies at or above the k-dependent band.
* The k-dependent and modified schemes are periodic in k: the basis at
  k + G is the basis at k shifted by -G, with the same kinetic values up
  to the rounding of k + G, so E_n(k + G) = E_n(k).
* The k-dependent bases are nested in the cutoff, so the fiber matrix at
  Ec1 is a principal submatrix of the one at Ec2 > Ec1, and by Cauchy
  interlacing E_n(k; Ec2) <= E_n(k; Ec1).
* Restriction identity: every plane wave with 0.5*|k+G|^2 < Ec has blow-up
  argument below 1/2 at cutoff 4 Ec, where the modified dispersion is the
  plain kinetic value, so the 4 Ec modified matrix restricted to the Ec
  basis is the k-dependent matrix at Ec, bit for bit.

Each comparison allows the eigenvalue bounds the two solves report.
"""

import numpy as np
import pytest

import bandlab as bl

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

HEX = np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])


@st.composite
def cases(draw):
    d = draw(st.integers(1, 2))
    lat = bl.new_lattice(np.eye(1) if d == 1 else HEX)
    V = bl.synth_power_law(lat, t=2.1, gmax=draw(st.integers(1, 4)),
                           seed=draw(st.integers(0, 9)), amplitude=draw(st.floats(0.5, 50.0)))
    m = draw(st.integers(0, 3))
    spec = bl.BlowupSpec(m=m, p=draw(st.floats(m + 0.05, m + 3.0)),
                         a=draw(st.floats(0.55, 0.95)))
    k = lat.reciprocal @ np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d)))
    Ec = draw(st.floats(20.0, 300.0 if d == 1 else 80.0))
    return lat, V, spec, k, Ec, draw(st.integers(1, 4))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cases())
def test_modified_bands_at_or_above_kdependent(case):
    lat, V, spec, k, Ec, n_bands = case
    try:
        fn = bl.build_blowup(spec)
    except (bl.DominationViolated, bl.IllPosedSpec):
        hypothesis.assume(False)
    kdep = bl.assemble(lat, V, k, Ec, bl.kdependent_scheme())
    mod = bl.assemble(lat, V, k, Ec, bl.modified_scheme(fn))
    assert np.array_equal(kdep.coords, mod.coords)  # one variational space
    n = min(n_bands, len(kdep))
    low, high = bl.eigh(kdep, n_lowest=n), bl.eigh(mod, n_lowest=n)
    # each bound carries the nominal eps ||H|| of a LAPACK solve, whose
    # backward error is a small multiple of M eps ||H||
    tol = len(kdep) * (low.bounds + high.bounds)
    assert np.all(high.values >= low.values - tol)


def tolerance(M, *solutions):
    """The bounds of the solutions compared, times the order M of the larger
    fiber: each bound carries the nominal eps ||H|| of a LAPACK solve, whose
    backward error is a small multiple of M eps ||H||."""
    return M * sum(sol.bounds for sol in solutions)


@st.composite
def lattices(draw):
    """A random 1D or 2D lattice: a scaled identity with random shear."""
    d = draw(st.integers(1, 2))
    prim = np.eye(d) * draw(st.floats(0.8, 1.3))
    if d == 2:
        prim[0, 1], prim[1, 0] = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.3, 0.3))
    return bl.new_lattice(prim)


@st.composite
def periodic_cases(draw):
    lat = draw(lattices())
    d = lat.dim
    V = bl.synth_power_law(lat, t=2.1, gmax=draw(st.integers(1, 4)),
                           seed=draw(st.integers(0, 9)), amplitude=draw(st.floats(0.5, 50.0)))
    m = draw(st.integers(0, 3))
    spec = bl.BlowupSpec(m=m, p=draw(st.floats(m + 0.05, m + 3.0)),
                         a=draw(st.floats(0.55, 0.95)))
    k = lat.reciprocal @ np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    G = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    Ec = draw(st.floats(20.0, 300.0 if d == 1 else 80.0))
    return lat, V, spec, k, G, Ec, draw(st.integers(1, 4))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(periodic_cases())
def test_kdependent_and_modified_bands_are_periodic(case):
    lat, V, spec, k, G, Ec, n_bands = case
    try:
        fn = bl.build_blowup(spec)
    except (bl.DominationViolated, bl.IllPosedSpec):
        hypothesis.assume(False)
    for scheme in (bl.kdependent_scheme(), bl.modified_scheme(fn)):
        here = bl.assemble(lat, V, k, Ec, scheme)
        there = bl.assemble(lat, V, k + lat.gvector(G), Ec, scheme)
        # a plane wave within rounding of the cutoff sphere may be kept at
        # one point and dropped at the other
        hypothesis.assume(len(here) == len(there))
        rows = {h: j for j, h in enumerate(map(tuple, there.coords))}
        perm = [rows.get(tuple(h - np.array(G))) for h in here.coords]
        assert None not in perm  # the basis at k + G is the one at k shifted by -G
        n = min(n_bands, len(here))
        a, b = bl.eigh(here, n_lowest=n), bl.eigh(there, n_lowest=n)
        # the potential entries agree exactly, and the diagonals up to the
        # rounding of k + G, which the blow-up magnifies near the cutoff (a
        # kinetic value 2 ulps off gave a blow-up entry 306 ulps off at
        # x = 0.91, p = 4); by Weyl the eigenvalues then differ by at most
        # the largest diagonal change
        off = ~np.eye(len(here), dtype=bool)
        assert np.array_equal(here.entries[off], there.entries[np.ix_(perm, perm)][off])
        change = np.abs(here.diagonal - there.diagonal[perm])
        assert np.all(change <= 1e-9 * (1.0 + np.abs(here.diagonal)))
        assert np.all(np.abs(a.values - b.values) <= change.max() + tolerance(len(here), a, b))


@st.composite
def cutoff_pairs(draw):
    lat = draw(lattices())
    d = lat.dim
    V = bl.synth_power_law(lat, t=2.1, gmax=draw(st.integers(1, 4)),
                           seed=draw(st.integers(0, 9)), amplitude=draw(st.floats(0.5, 50.0)))
    k = lat.reciprocal @ np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d)))
    Ec = draw(st.floats(20.0, 150.0 if d == 1 else 40.0))
    return lat, V, k, Ec, Ec * draw(st.floats(1.0, 4.0)), draw(st.integers(1, 4))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cutoff_pairs())
def test_kdependent_bands_decrease_with_the_cutoff(case):
    lat, V, k, Ec1, Ec2, n_bands = case
    small = bl.assemble(lat, V, k, Ec1, bl.kdependent_scheme())
    large = bl.assemble(lat, V, k, Ec2, bl.kdependent_scheme())
    n = min(n_bands, len(small))
    coarse, fine = bl.eigh(small, n_lowest=n), bl.eigh(large, n_lowest=n)
    assert np.all(fine.values <= coarse.values + tolerance(len(large), coarse, fine))


@st.composite
def restriction_cases(draw):
    """A random 1-3D lattice, a complex potential with coefficients some of
    which reach beyond either basis box, a random k and cutoff, and a
    blow-up spec (not every one builds)."""
    d = draw(st.integers(1, 3))
    prim = np.eye(d) * draw(st.floats(0.8, 1.3))
    for i in range(d):
        for j in range(d):
            if i != j:
                prim[i, j] = draw(st.floats(-0.3, 0.3))
    lat = bl.new_lattice(prim)
    finite = st.floats(-5.0, 5.0, allow_nan=False)
    gidx = st.tuples(*[st.integers(-12, 12)] * d)
    raw = draw(st.dictionaries(gidx, st.builds(complex, finite, finite), max_size=12))
    V = bl.potential_from_coeffs(lat, list(raw.items()), real_valued=False)
    k = lat.reciprocal @ np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    Ec = draw(st.floats(0.5, {1: 100.0, 2: 40.0, 3: 15.0}[d]))
    m = draw(st.integers(0, 3))
    spec = bl.BlowupSpec(m=m, p=draw(st.floats(m, m + 3.0, exclude_min=True)),
                         C=draw(st.sampled_from([None, 1.0, 4.0])), a=draw(st.floats(0.55, 0.95)))
    return lat, V, k, Ec, spec


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(restriction_cases())
def test_modified_matrix_restricts_to_the_kdependent_one(case):
    lat, V, k, Ec, spec = case
    try:
        fn = bl.build_blowup(spec)
    except (bl.DominationViolated, bl.IllPosedSpec):
        hypothesis.assume(False)
    try:
        inner = bl.assemble(lat, V, k, Ec, bl.kdependent_scheme())
    except bl.EmptyBasis:
        hypothesis.assume(False)
    big = bl.assemble(lat, V, k, 4.0 * Ec, bl.modified_scheme(fn))
    rows = {g: i for i, g in enumerate(big.basis)}
    idx = [rows[g] for g in inner.basis]  # the inner basis lies in the outer one
    assert big.entries[np.ix_(idx, idx)].tobytes() == inner.entries.tobytes()
