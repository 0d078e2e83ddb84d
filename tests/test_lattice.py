import numpy as np
import pytest

import bandlab as bl
from bandlab.cli import _digest
from bandlab.lattice import _bases, _basis_sizes
from conftest import basis_at

TWO_PI = 2.0 * np.pi


def test_new_lattice_1d(lat1d):
    assert lat1d.dim == 1
    assert lat1d.reciprocal[0, 0] == pytest.approx(TWO_PI, rel=1e-15)
    assert lat1d.cell_volume == 1.0


def test_new_lattice_cubic():
    lat = bl.new_lattice(np.eye(3))
    assert np.array_equal(lat.reciprocal, TWO_PI * np.eye(3))
    assert lat.cell_volume == pytest.approx(1.0)


def test_hexagonal_duality(hex2d):
    # defining relations a_i . b_j = 2 pi delta_ij
    gram = hex2d.primitive.T @ hex2d.reciprocal
    assert np.allclose(gram, TWO_PI * np.eye(2), rtol=0, atol=TWO_PI * 1e-12)
    bz_volume = abs(np.linalg.det(hex2d.reciprocal))
    assert bz_volume * hex2d.cell_volume == pytest.approx(TWO_PI**2, rel=1e-12)


def test_singular_lattice_rejected():
    with pytest.raises(bl.SingularLattice):
        bl.new_lattice([[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("primitive", [[[np.nan]], [[np.inf]], [[1.0, 0.0], [0.0, -np.inf]]])
def test_non_finite_lattice_rejected(primitive):
    """Rejected before the determinant: [[nan]] gave NaN volumes (after a
    RuntimeWarning, an error under this suite) and [[inf]] a zero reciprocal
    basis."""
    with pytest.raises(ValueError, match="primitive matrix must be finite"):
        bl.new_lattice(primitive)


def test_basis_k0_cosine_shell(lat1d):
    # |2 pi| < sqrt(50) keeps g = +-1, |4 pi| is out
    assert basis_at(lat1d, [0.0], 25.0) == [(0,), (-1,), (1,)]


def test_basis_at_zone_edge(lat1d):
    # g = 0 and g = -1 tie at pi^2/2; lexicographic order breaks the tie
    assert basis_at(lat1d, [np.pi], 25.0) == [(-1,), (0,)]


def test_basis_degenerate_cutoff(lat1d):
    box, rows, sizes, _ = _bases(lat1d, 1e-9, np.array([[0.0], [np.pi]]))
    assert sizes.tolist() == [1, 0] and box[rows].tolist() == [[0]]


@pytest.mark.parametrize("k, Ec, largest", [
    ([0.5], np.nan, "3.14159"), ([0.5], np.inf, "3.14159"), ([np.nan], 25.0, "nan"),
    ([-np.inf], 25.0, "inf"),
])
@pytest.mark.parametrize("mode", ["kdependent", "uniform"])
def test_basis_needs_finite_cutoff_and_k(lat1d, k, Ec, largest, mode):
    """One check in the G-box sizing serves every basis pass; it raised
    'cannot convert float NaN to integer', or an OverflowError for inf."""
    points = np.array([[np.pi], k])
    match = rf"Ec={Ec:g} and largest \|k\| {largest}"
    with pytest.raises(ValueError, match=match):
        _bases(lat1d, Ec, points, mode)
    with pytest.raises(ValueError, match=match):
        _basis_sizes(lat1d, Ec, points)


def test_uniform_mode_ignores_k(lat1d):
    ref = basis_at(lat1d, [0.0], 25.0, mode="uniform")
    for k in (0.3, np.pi, 2.9, -1.7):
        assert basis_at(lat1d, [k], 25.0, mode="uniform") == ref


def test_shift_by_reciprocal_keeps_frequencies(lat1d):
    """k and k+G select the same plane-wave frequencies, relabeled."""
    for k in (0.0, 0.35, -1.2):
        b0 = basis_at(lat1d, [k], 25.0)
        b1 = basis_at(lat1d, [k + TWO_PI], 25.0)
        kin0 = np.sort(bl.kinetic_values(lat1d, [k], b0))
        kin1 = np.sort(bl.kinetic_values(lat1d, [k + TWO_PI], b1))
        assert np.allclose(kin0, kin1, rtol=0, atol=1e-12)


def test_cardinality_monotone_in_ec(lat1d):
    sizes = [len(basis_at(lat1d, [0.7], ec))
             for ec in (5.0, 10.0, 25.0, 50.0, 100.0, 200.0)]
    assert sizes == [1, 1, 3, 3, 5, 7]
    assert sizes == sorted(sizes)


def test_enumeration_deterministic(lat1d):
    a = basis_at(lat1d, [0.61], 180.0)
    b = basis_at(lat1d, [0.61], 180.0)
    assert a == b and a is not b


def test_enumeration_box_not_truncating(lat1d, hex2d):
    """The candidate box must be large enough: compare with a brute scan."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        k, ec = rng.uniform(-10, 10), rng.uniform(0.5, 400.0)
        got = set(basis_at(lat1d, [k], ec))
        brute = {(g,) for g in range(-200, 201)
                 if 0.5 * (k + TWO_PI * g) ** 2 < ec}
        assert got == brute
    k2 = rng.uniform(-2, 2, size=2)
    got = set(basis_at(hex2d, k2, 40.0))
    brute = set()
    for g1 in range(-30, 31):
        for g2 in range(-30, 31):
            gv = hex2d.gvector((g1, g2))
            if 0.5 * np.sum((k2 + gv) ** 2) < 40.0:
                brute.add((g1, g2))
    assert got == brute


def test_cardinality_bounds(lat1d):
    sizes = _basis_sizes(lat1d, 25.0, bl.uniform_grid(lat1d, 101).points)
    assert (sizes.min(), sizes.max()) == (2, 3)


def test_cardinality_bounds_all_empty(lat1d):
    assert _basis_sizes(lat1d, 1e-9, np.array([[3.0], [np.pi]])).tolist() == [0, 0]


def test_kpath_interpolation(lat1d):
    path = bl.kpath(lat1d, [("G", [0.0]), ("X", [np.pi])], 4)
    assert np.allclose(path.points[:, 0], [0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi])
    assert path.labels == {0: "G", 4: "X"}
    assert path.kind == "path"


def test_kpath_minimal(lat1d):
    path = bl.kpath(lat1d, [("A", [0.0]), ("B", [1.0])], 1)
    assert len(path) == 2


def test_kpath_hexagonal_count(hex2d):
    b = hex2d.reciprocal
    nodes = [("G", [0.0, 0.0]), ("M", 0.5 * b[:, 0]),
             ("K", (b[:, 0] + b[:, 1]) / 3.0), ("G", [0.0, 0.0])]
    path = bl.kpath(hex2d, nodes, 7)
    assert len(path) == 3 * 7 + 1


def test_uniform_grid_1d(lat1d):
    grid = bl.uniform_grid(lat1d, 4)
    fracs = sorted(lat1d.fractional(k)[0] for k in grid.points)
    assert np.allclose(fracs, [-0.5, -0.25, 0.0, 0.25])
    assert grid.kind == "grid"


def test_uniform_grid_gamma_only(lat1d):
    grid = bl.uniform_grid(lat1d, 1)
    assert len(grid) == 1 and np.allclose(grid.points, 0.0)


def test_uniform_grid_2d_unique(hex2d):
    grid = bl.uniform_grid(hex2d, 3)
    assert len(grid) == 9
    fracs = {tuple(np.round(hex2d.fractional(k), 12)) for k in grid.points}
    assert len(fracs) == 9


def test_lattice_dict_roundtrip(hex2d):
    again = bl.new_lattice(hex2d.to_dict()["primitive"])
    assert np.array_equal(again.primitive, hex2d.primitive)
    d = _digest(hex2d.to_dict())
    assert d == _digest(again.to_dict()) and len(d) == 12
