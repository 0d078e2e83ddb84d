"""Property tests: the basis sizes and the one basis pass of compute_bands
against one enumeration per k.

The oracle of lattice._basis_sizes is the per-point loop that the rank-flip
scans and the regularity probe used before the vectorized counter; an empty
basis counts 0.  The bases that compute_bands slices from its one pass over
the k-set must equal the pass on each k alone (basis_at), element for
element, although that pass reads every k from one G-box sized for the
whole set, and its kinetic values, from which compute_bands builds every
diagonal, must equal kinetic_values of each basis to the bit.
Cutoffs are drawn at random and also exactly at a kinetic value
0.5*|k+G|^2, where the strict cutoff inequality decides.
"""

import numpy as np
import pytest

import bandlab as bl
from bandlab import spectra
from bandlab.lattice import _bases, _basis_sizes
from conftest import basis_at

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

EC_MAX = {1: 400.0, 2: 150.0, 3: 60.0}


def oracle(lat, Ec, points):
    counts = []
    for k in points:
        try:
            counts.append(len(basis_at(lat, k, Ec)))
        except bl.EmptyBasis:
            counts.append(0)
    return np.array(counts)


@st.composite
def cases(draw):
    d = draw(st.integers(1, 3))
    prim = np.eye(d) * draw(st.floats(0.8, 1.3))
    for i in range(d):
        for j in range(d):
            if i != j:
                prim[i, j] = draw(st.floats(-0.3, 0.3))
    lat = bl.new_lattice(prim)
    n = draw(st.integers(1, 8))
    fracs = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n * d, max_size=n * d)))
    points = fracs.reshape(n, d) @ lat.reciprocal.T
    if draw(st.booleans()):
        Ec = draw(st.floats(-1.0, EC_MAX[d]))
    else:
        # a cutoff equal to the kinetic value of some G at one of the points
        k = points[draw(st.integers(0, n - 1))]
        g = draw(st.tuples(*[st.integers(-3, 3)] * d))
        Ec = float(bl.kinetic_values(lat, k, [g])[0])
    return lat, Ec, points


@settings(max_examples=300, deadline=None)
@given(cases())
def test_basis_sizes_match_per_point_loop(case):
    lat, Ec, points = case
    got = _basis_sizes(lat, Ec, points)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle(lat, Ec, points))


def test_basis_sizes_in_chunks(hex2d):
    # 1200 points against a G-box of several hundred vectors: several chunks
    ts = np.linspace(-1.0, 1.0, 1200)
    points = ts[:, None] * hex2d.reciprocal[:, 0] + 0.3 * hex2d.reciprocal[:, 1]
    got = _basis_sizes(hex2d, 2000.0, points)
    assert np.array_equal(got, oracle(hex2d, 2000.0, points))
    assert np.unique(got).size > 1


def test_basis_sizes_nonpositive_cutoff(lat1d):
    points = np.array([[0.0], [1.0]])
    assert np.array_equal(_basis_sizes(lat1d, 0.0, points), [0, 0])
    assert np.array_equal(_basis_sizes(lat1d, -3.0, points), [0, 0])


@st.composite
def ksets(draw):
    """cases() with both basis modes and, at times, copies of a point
    shifted by reciprocal vectors, some far out (a larger G-box)."""
    lat, Ec, points = draw(cases())
    d = lat.dim
    shifts = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d), max_size=3))
    if shifts:
        points = np.vstack([points, points[0] + np.array(shifts) @ lat.reciprocal.T])
    return lat, Ec, points, draw(st.sampled_from(["uniform", "kdependent"]))


@settings(max_examples=300, deadline=None)
@given(ksets())
def test_one_pass_bases_match_single_point_passes(case):
    lat, Ec, points, mode = case
    want = []
    for k in points:
        try:
            want.append(basis_at(lat, k, Ec, mode))
        except bl.EmptyBasis:
            want.append(None)
    got = {}
    assemble = spectra.assemble

    def recorded(lat, V, k, Ec, scheme, *, _basis, _diag):
        for kb, basis in zip(k, _basis):
            got.setdefault(kb.tobytes(), []).append(list(map(tuple, basis.tolist())))
        return assemble(lat, V, k, Ec, scheme, _basis=_basis, _diag=_diag)

    scheme = bl.kdependent_scheme() if mode == "kdependent" else bl.uniform_scheme()
    V = bl.potential_from_coeffs(lat, [])
    kset = bl.KPointSet(points=points, kind="path")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "assemble", recorded)
        if any(basis is None for basis in want):
            with pytest.raises(bl.EmptyBasis):
                bl.compute_bands(lat, V, kset, Ec, scheme, 1)
            return
        bl.compute_bands(lat, V, kset, Ec, scheme, 1)
    for k, basis in zip(points, want):
        assert got[k.tobytes()][0] == basis
    assert sum(map(len, got.values())) == len(points)


def per_point_kinetic(lat, Ec, points, mode="kdependent"):
    """The kinetic values of the one basis pass and kinetic_values of each
    point's basis, both as a list of per-point byte strings."""
    box, rows, sizes, kin = _bases(lat, Ec, points, mode)
    at = np.split(np.arange(len(rows)), np.cumsum(sizes)[:-1])
    return ([kin[i].tobytes() for i in at],
            [bl.kinetic_values(lat, k, box[rows[i]]).tobytes() for k, i in zip(points, at)])


@settings(max_examples=300, deadline=None)
@given(ksets())
def test_one_pass_kinetic_values_match_kinetic_values(case):
    """In both modes: the uniform basis is the one of k = 0 at every point,
    but its kinetic values are those of each point's own k."""
    lat, Ec, points, mode = case
    if Ec <= 0:
        return  # no basis, no kinetic values: _bases raises EmptyBasis
    got, want = per_point_kinetic(lat, Ec, points, mode)
    assert got == want
    if mode == "uniform":
        box, rows, sizes, _ = _bases(lat, Ec, points, mode)
        basis = basis_at(lat, None, Ec, mode)
        assert np.all(sizes == len(basis))
        assert box[rows].tolist() == [list(g) for g in basis] * len(points)


@pytest.mark.parametrize("dim", [2, 3])
def test_one_plane_wave_kinetic_value(dim):
    """A basis of a single plane wave reads its G vector as the box does,
    from BLAS's matrix-matrix product: the matrix-vector product that numpy
    takes for one row rounds differently for several of these k, whose
    nearest G has large integer coordinates."""
    rng = np.random.default_rng(dim)
    lat = bl.new_lattice(np.eye(dim) + rng.uniform(-0.3, 0.3, (dim, dim)))
    for k in rng.uniform(-40.0, 40.0, (40, dim)):
        kin = np.sort(bl.kinetic_values(lat, k, basis_at(lat, k, 60.0)))
        Ec = 0.5 * (kin[0] + kin[1])  # between the two lowest: one plane wave
        got, want = per_point_kinetic(lat, Ec, k[None])
        assert len(got[0]) == 8 and got == want
