import numpy as np
import pytest

import bandlab as bl
from bandlab.cli import _solve_bands as solve_bands

PI2_TWICE = 19.739208802178717238

# cosine 3x3 fiber at k=0, Ec=25: roots of the characteristic polynomial
# evaluated at 50-digit precision
COS3_GROUND = -0.10080637450070416176
COS3_TOP = 19.840015176679421399

# graded test matrices, eigenvalues at 50-digit precision
GRADED2_LOW = 0.999998999999999999
GRADED3_LOW = -0.09615099722957857187
GRADED3_MID = 5.09615099714912857187


def test_eigh_diagonal():
    vals = bl.eigh(np.diag([0.0, PI2_TWICE, PI2_TWICE])).values
    assert np.array_equal(vals, [0.0, PI2_TWICE, PI2_TWICE])


def test_eigh_two_level():
    vals = bl.eigh(np.array([[0.0, 1.0], [1.0, 0.0]])).values
    assert np.allclose(vals, [-1.0, 1.0], rtol=0, atol=1e-15)


def test_eigh_cosine_fiber(lat1d, cosine):
    fib = bl.assemble(lat1d, cosine, [0.0], 25.0, bl.kdependent_scheme())
    vals = bl.eigh(fib).values      # FiberMatrix accepted directly
    assert vals[0] == pytest.approx(COS3_GROUND, abs=1e-14)
    assert vals[1] == pytest.approx(PI2_TWICE, abs=1e-14)
    assert vals[2] == pytest.approx(COS3_TOP, abs=1e-14)
    assert vals[0] < 0.0            # level repulsion pushes the ground state down


def test_eigh_truncation_consistent(lat1d, cosine):
    fib = bl.assemble(lat1d, cosine, [0.4], 200.0, bl.kdependent_scheme())
    full = bl.eigh(fib).values
    two = bl.eigh(fib, n_lowest=2).values
    assert np.array_equal(two, full[:2])


def test_eigh_integer_and_float32_matrices_in_double():
    """Integer and float32 matrices are solved in double precision: the
    values of a float32 matrix match those of its double copy to the bit."""
    sol = bl.eigh(np.array([[2, 1], [1, 2]]))
    assert sol.values.dtype == np.float64
    assert np.allclose(sol.values, [1.0, 3.0], rtol=0, atol=1e-15)
    H = np.array([[2.0, 0.1], [0.1, 1.0]], dtype=np.float32)
    assert bl.eigh(H).values.tobytes() == np.linalg.eigvalsh(H.astype(float)).tobytes()


def test_eigh_bad_count():
    with pytest.raises(ValueError):
        bl.eigh(np.eye(3), n_lowest=4)


def test_eigh_graded_two_by_two():
    """Plain dense solves lose the low eigenvalue at eps * norm(H); the
    Schur reduction keeps it at working precision."""
    H = np.array([[1.0, 1e3], [1e3, 1e12]])
    low = bl.eigh(H, n_lowest=1).values[0]
    assert low == pytest.approx(GRADED2_LOW, abs=5e-15)


def test_eigh_graded_three_by_three():
    H = np.array([[0.0, 0.7, 40.0], [0.7, 5.0, -3.0], [40.0, -3.0, 2e13]])
    vals = bl.eigh(H, n_lowest=2).values
    assert vals[0] == pytest.approx(GRADED3_LOW, abs=1e-12)
    assert vals[1] == pytest.approx(GRADED3_MID, abs=1e-12)


def test_eigh_graded_matches_plain_when_benign():
    # moderate grading: both paths are accurate, results must agree
    rng = np.random.default_rng(2)
    A = rng.normal(size=(6, 6))
    H = (A + A.T) / 2 + np.diag([0, 0, 0, 0, 1e9, 2e9])
    graded = bl.eigh(H, n_lowest=3).values
    plain = np.linalg.eigvalsh(H)[:3]
    # plain dense accuracy is eps * norm(H) ~ 4e-7 here
    assert np.allclose(graded, plain, rtol=0, atol=2e-6)


def test_graded_split_scale_matches_off_diagonal_max():
    """The split sees max |H - diag(H)|: nan, and so no split, when a
    diagonal entry is not finite."""
    from bandlab.spectra import _graded_mask

    def _graded_split(H):
        steep = np.flatnonzero(_graded_mask(H[None])[0][0])
        return steep if steep.size else None

    def reference(H):
        d = np.real(np.diag(H))
        with np.errstate(invalid="ignore"):  # inf - inf on the diagonal is the intended nan
            off = H - np.diag(np.diag(H))
        scale = max(1.0, float(np.max(np.abs(off))))
        steep = d > 1e8 * scale
        if not steep.any() or np.all(steep) or np.max(d[~steep]) > 1e-2 * np.min(d[steep]):
            return None
        return np.nonzero(steep)[0]

    # |off-diagonal| = 100, so 5e9 is steep only when the scale falls back to 1
    for top in (1e3, 5e9, 1e13, np.inf, np.nan):
        H = np.full((5, 5), 60.0 + 80.0j)
        H[np.tril_indices(5, -1)] = 60.0 - 80.0j
        H[np.diag_indices(5)] = [0.0, 1.0, 2.0, 5e9, top]
        got, want = _graded_split(H), reference(H)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


def test_free_electron_bands_fold(lat1d, zero):
    grid = bl.uniform_grid(lat1d, 64)
    bands = bl.compute_bands(lat1d, zero, grid, 200.0, bl.kdependent_scheme(), 1)
    k = grid.points[:, 0]
    dist = np.abs(k - 2 * np.pi * np.round(k / (2 * np.pi)))
    assert np.max(np.abs(bands.energies[:, 0] - 0.5 * dist**2)) <= 1e-12


def test_band_rows_ascending(lat1d, cosine):
    bands = bl.compute_bands(lat1d, cosine, bl.uniform_grid(lat1d, 8), 200.0,
                             bl.kdependent_scheme(), 5)
    assert bands.n_bands == 5
    assert np.all(np.diff(bands.energies, axis=1) >= 0)


def test_band_count_exceeds_basis(lat1d, cosine):
    with pytest.raises(bl.BandCountExceedsBasis, match="k="):
        bl.compute_bands(lat1d, cosine, bl.uniform_grid(lat1d, 8), 25.0,
                         bl.kdependent_scheme(), 10)


def test_compute_bands_rejects_bad_threads_and_empty_kset(lat1d, cosine):
    path = bl.kpath(lat1d, [("A", [0.0]), ("B", [1.0])], 4)
    for threads in (0, -5):
        with pytest.raises(ValueError, match="threads"):
            bl.compute_bands(lat1d, cosine, path, 25.0, bl.kdependent_scheme(), 1,
                             threads=threads)
    empty = bl.KPointSet(points=np.empty((0, 1)), kind="path")
    with pytest.raises(ValueError, match="empty"):
        bl.compute_bands(lat1d, cosine, empty, 25.0, bl.kdependent_scheme(), 1)


def test_threading_schedule_independent(lat1d, cosine):
    grid = bl.uniform_grid(lat1d, 12)
    serial = bl.compute_bands(lat1d, cosine, grid, 150.0, bl.kdependent_scheme(), 3)
    threaded = bl.compute_bands(lat1d, cosine, grid, 150.0, bl.kdependent_scheme(), 3,
                                threads=4)
    assert np.array_equal(serial.energies, threaded.energies)


def test_band_metadata(lat1d, cosine):
    """The run record that goes with a band solve names the potential and the
    scheme, and a k-dependent run carries no blow-up spec."""
    bands, record = solve_bands({"ec": 25.0, "nbands": 2}, lat1d, cosine,
                                bl.kdependent_scheme(), bl.uniform_grid(lat1d, 4))
    assert record["potential_digest"] == cosine.digest()
    assert record["scheme"] == "kdependent"
    assert (record["Ec"], record["n_bands"]) == (bands.Ec, bands.n_bands) == (25.0, 2)
    assert "blowup" not in record


def test_band_metadata_holds_the_resolved_blowup_spec(lat1d, cosine):
    fn = bl.build_blowup(bl.BlowupSpec(m=1, p=1.5))  # C chosen automatically
    _, record = solve_bands({"ec": 25.0, "nbands": 2}, lat1d, cosine,
                            bl.modified_scheme(fn), bl.uniform_grid(lat1d, 4))
    assert record["scheme"] == "modified"
    assert record["blowup"] == {"m": 1, "p": 1.5, "C": fn.spec.C, "a": 0.75, "msmooth": 1}
    assert record["blowup"]["C"] is not None


def test_library_builds_no_run_record(lat1d, monkeypatch):
    """build_blowup never sweeps the junctions, and compute_bands serializes
    neither the lattice, the potential nor the blow-up spec: run records and
    the junction check are built only where they are read."""
    def refuse(*args):
        raise AssertionError("a run record was built")

    monkeypatch.setattr(bl.BlowupFunction, "junction_mismatch", property(refuse))
    for cls in (bl.Lattice, bl.FourierPotential, bl.BlowupSpec):
        monkeypatch.setattr(cls, "to_dict", refuse)
    fn = bl.build_blowup(bl.BlowupSpec(m=1, p=1.5))
    V = bl.potential_from_coeffs(lat1d, [((1,), 1.0), ((-1,), 1.0)])  # no digest yet
    for scheme in (bl.kdependent_scheme(), bl.modified_scheme(fn)):
        bands = bl.compute_bands(lat1d, V, bl.uniform_grid(lat1d, 4), 25.0, scheme, 2)
        assert bands.energies.shape == (4, 2)


def test_galerkin_monotonicity_nested_cutoffs(lat1d, cosine):
    """Raising Ec enlarges the space for the uniform and k-dependent
    schemes, so every eigenvalue can only move down."""
    for scheme in (bl.uniform_scheme(), bl.kdependent_scheme()):
        for k in (0.0, 0.35, -1.2):
            prev = None
            for ec in (25.0, 50.0, 100.0, 200.0):
                vals = bl.eigh(bl.assemble(lat1d, cosine, [k], ec, scheme),
                               n_lowest=2).values
                if prev is not None:
                    assert np.all(vals <= prev + 1e-10)
                prev = vals


def nan_coupled(M):
    """diag(1, ..., M) with a nan coupling between the first two plane waves."""
    H = np.diag(np.arange(1.0, M + 1.0))
    H[0, 1] = H[1, 0] = np.nan
    return H


@pytest.mark.parametrize("in_stack", [False, True])
@pytest.mark.parametrize("M, n_lowest", [(3, None), (240, 4)])  # dense path; block path
def test_non_finite_member_fails(M, n_lowest, in_stack):
    """A nan entry fails the solve, alone or in a stack: no nan values, and
    no finite bound next to them."""
    H = nan_coupled(M)
    if in_stack:
        H = np.stack([np.diag(np.arange(1.0, M + 1.0)), H])
    with pytest.raises(bl.SolverFailure):
        bl.eigh(H, n_lowest=n_lowest)


@pytest.mark.parametrize("scheme", ["uniform", "kdependent", "modified"])
@pytest.mark.parametrize("Ec, node", [(np.nan, 0.5), (np.inf, 0.5), (25.0, np.nan)])
def test_compute_bands_needs_finite_cutoff_and_k(lat1d, cosine, blowup_std, scheme, Ec, node):
    """A NaN cutoff or path node raised 'cannot convert float NaN to integer'
    (the uniform scheme's NaN node a SolverFailure), and an infinite cutoff
    an OverflowError; each is now a ValueError naming both."""
    schemes = {"uniform": bl.uniform_scheme(), "kdependent": bl.kdependent_scheme(),
               "modified": bl.modified_scheme(blowup_std)}
    path = bl.kpath(lat1d, [("G", [0.0]), ("X", [node])], 4)
    with pytest.raises(ValueError, match=f"got Ec={Ec:g} and largest"):
        bl.compute_bands(lat1d, cosine, path, Ec, schemes[scheme], 1)
