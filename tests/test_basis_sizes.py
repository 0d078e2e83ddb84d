"""Property tests: lattice._basis_sizes against one _basis_coords call per k.

The oracle is the per-point loop that the rank-flip scans, the regularity
probe and basis_cardinality_bounds used before the vectorized counter; an
empty basis counts 0.  Cutoffs are drawn at random and also exactly at a
kinetic value 0.5*|k+G|^2, where the strict cutoff inequality decides.
"""

import numpy as np
import pytest

import bandlab as bl
from bandlab.lattice import _basis_coords, _basis_sizes

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

EC_MAX = {1: 400.0, 2: 150.0, 3: 60.0}


def oracle(lat, Ec, points):
    counts = []
    for k in points:
        try:
            counts.append(_basis_coords(lat, k, Ec).shape[0])
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
