import re

import numpy as np
import pytest

import bandlab as bl
from bandlab import analysis, spectra
from bandlab.fiber import kdependent_scheme
from bandlab.lattice import _basis_sizes
from bandlab.spectra import BandStructure


@pytest.fixture(scope="module")
def rough(lat1d):
    # barely-H^1 potential, the regime where the three schemes separate
    return bl.synth_power_law(lat1d, t=1.55, gmax=8, seed=7)


def test_convergence_study_reference_is_uniform(lat1d, cosine, monkeypatch):
    """The reference is the uniform scheme at ec_reference on the study's
    own k-set, solved first, for the band asked for; the ladder then runs
    the study's scheme."""
    grid = bl.uniform_grid(lat1d, 4)
    calls = []
    solve = analysis._band_structures

    def recorded(lat, V, kset, Ec, schemes, n_bands, threads=1):
        calls.append((kset, Ec, [scheme.tag for scheme in schemes], n_bands))
        return solve(lat, V, kset, Ec, schemes, n_bands, threads)

    monkeypatch.setattr(analysis, "_band_structures", recorded)
    bl.convergence_study(lat1d, cosine, 2, grid, [50.0, 25.0], [bl.kdependent_scheme()], 400.0)
    assert calls == [(grid, 400.0, ["uniform"], 2), (grid, 25.0, ["kdependent"], 2),
                     (grid, 50.0, ["kdependent"], 2)]
    ref = bl.compute_bands(lat1d, cosine, grid, 400.0, bl.uniform_scheme(), 2)
    study = bl.convergence_study(lat1d, cosine, 2, grid, [25.0, 50.0],
                                 [bl.kdependent_scheme()], 400.0)["kdependent"]
    bands = bl.compute_bands(lat1d, cosine, grid, 25.0, bl.kdependent_scheme(), 2)
    assert study.errors[0] == np.mean(np.abs(bands.energies[:, 1] - ref.energies[:, 1]))


@pytest.mark.parametrize("ladder, ec_reference, band_index, field", [
    ([25.0], 800.0, 1, "ec_ladder"), ([], 800.0, 1, "ec_ladder"),
    ([25.0, 100.0], 799.0, 1, "ec_reference"), ([25.0, 100.0], float("nan"), 1, "ec_reference"),
    ([25.0, 100.0], 800.0, 0, "band_index"),
])
def test_convergence_study_checks_before_any_solve(lat1d, cosine, monkeypatch, ladder,
                                                    ec_reference, band_index, field):
    def solve(*args, **kwargs):
        raise AssertionError("compute_bands was called")

    monkeypatch.setattr(analysis, "compute_bands", solve)
    monkeypatch.setattr(analysis, "_band_structures", solve)
    with pytest.raises(ValueError, match=f"'{field}'"):
        bl.convergence_study(lat1d, cosine, band_index, bl.uniform_grid(lat1d, 4), ladder,
                             [bl.kdependent_scheme()], ec_reference)


def test_convergence_study_basic(lat1d, cosine):
    grid = bl.uniform_grid(lat1d, 8)
    study = bl.convergence_study(lat1d, cosine, 1, grid, [25.0, 50.0, 100.0],
                                 [bl.kdependent_scheme()], 800.0, r_potential=1.6)["kdependent"]
    assert np.all(np.diff(study.ec_ladder) > 0)
    assert np.all(study.errors >= 0)
    assert np.all(np.diff(study.errors) < 0)
    assert study.predicted_rate == pytest.approx(1.6 + 1.0 - 0.25)
    assert study.r_potential == 1.6
    assert study.fitted_rate_full > 0


def test_convergence_study_no_declared_order(lat1d, cosine):
    grid = bl.uniform_grid(lat1d, 4)
    study = bl.convergence_study(lat1d, cosine, 1, grid, [25.0, 100.0],
                                 [bl.kdependent_scheme()], 800.0)["kdependent"]
    assert study.r_potential is None and study.predicted_rate is None


def test_convergence_study_needs_headroom(lat1d, cosine):
    grid = bl.uniform_grid(lat1d, 4)
    with pytest.raises(ValueError):
        bl.convergence_study(lat1d, cosine, 1, grid, [25.0, 100.0],
                             [bl.kdependent_scheme()], 400.0)


def test_convergence_study_clamps_exact_entries(lat1d, zero):
    # free electrons are represented exactly: every error hits the floor
    grid = bl.uniform_grid(lat1d, 4)
    study = bl.convergence_study(lat1d, zero, 1, grid, [100.0, 200.0, 400.0],
                                 [bl.kdependent_scheme()], 3200.0)["kdependent"]
    assert np.all(study.clamped)
    assert np.all(study.errors == 1e-16)


def test_band_derivative_trace_flat(lat1d):
    grid = bl.kpath(lat1d, [("A", [0.0]), ("B", [1.0])], 10)
    bands = BandStructure(kset=grid, energies=np.full((11, 1), 2.5), scheme=kdependent_scheme())
    assert np.allclose(bl.band_derivative_trace(bands, 1, 1), 0.0)
    assert np.allclose(bl.band_derivative_trace(bands, 1, 2), 0.0)


def test_band_derivative_trace_quadratic(lat1d, zero):
    # interior of the first zone: band 1 is k^2/2, derivatives k and 1
    path = bl.kpath(lat1d, [("A", [-2.0]), ("B", [2.0])], 40)
    bands = bl.compute_bands(lat1d, zero, path, 200.0, bl.kdependent_scheme(), 1)
    k = path.points[:, 0]
    d1 = bl.band_derivative_trace(bands, 1, 1)
    d2 = bl.band_derivative_trace(bands, 1, 2)
    assert np.max(np.abs(d1 - k)) <= 1e-8
    assert np.max(np.abs(d2 - 1.0)) <= 1e-6


def test_band_derivative_trace_guards(lat1d, zero):
    short = bl.kpath(lat1d, [("A", [0.0]), ("B", [1.0])], 3)
    bands = bl.compute_bands(lat1d, zero, short, 200.0, bl.kdependent_scheme(), 1)
    with pytest.raises(bl.TooFewPoints):
        bl.band_derivative_trace(bands, 1, 1)
    path = bl.kpath(lat1d, [("A", [0.0]), ("B", [1.0])], 10)
    ok = bl.compute_bands(lat1d, zero, path, 200.0, bl.kdependent_scheme(), 1)
    with pytest.raises(ValueError):
        bl.band_derivative_trace(ok, 1, 3)


def test_regularity_probe_validation(lat1d, rough):
    spec = bl.BlowupSpec(m=0, p=0.5, C=1.0)
    with pytest.raises(ValueError):
        bl.regularity_probe(lat1d, rough, 750.0, spec, 1, 1, [1e-2, 5e-3])
    with pytest.raises(ValueError):
        bl.regularity_probe(lat1d, rough, 750.0, spec, 1, 1, [1e-2, 6e-3, 3e-3])
    with pytest.raises(ValueError):
        bl.regularity_probe(lat1d, rough, 750.0, spec, 1, 3,
                            [1e-2, 5e-3, 2.5e-3])
    for deltas in ([1e-2, 5e-3, 0.0], [-1e-2, -5e-3, -2.5e-3], [np.inf, 1e-2, 5e-3]):
        with pytest.raises(ValueError, match="'deltas' must be > 0"):
            bl.regularity_probe(lat1d, rough, 750.0, spec, 1, 1, deltas)


def test_regularity_probe_needs_finite_cutoff(lat1d, rough):
    spec = bl.BlowupSpec(m=0, p=0.5, C=1.0)
    with pytest.raises(ValueError, match="got Ec=nan and largest"):
        bl.regularity_probe(lat1d, rough, float("nan"), spec, 1, 1, [1e-2, 5e-3, 2.5e-3])


def test_regularity_probe_scan_needs_a_rank_flip(lat1d, rough):
    """Without a center the probe scans one reciprocal period for a flip.
    Every scan passes k = 0, where G = 0 clears any positive cutoff, so only
    a cutoff that selects no plane wave leaves the whole period flat."""
    spec = bl.BlowupSpec(m=0, p=0.5, C=1.0)
    for Ec in (0.0, -1.0):
        with pytest.raises(bl.NoBasisChangeOnPath, match="no basis rank change within one period"):
            bl.regularity_probe(lat1d, rough, Ec, spec, 1, 1, [1e-2, 5e-3, 2.5e-3])


def test_regularity_probe_needs_rank_flip(lat1d, rough, monkeypatch):
    """Mesh widths above twice the 0.15 halfwidth leave each mesh the probe
    center alone, so no mesh sees the flip the scan found there."""
    def solve(*args, **kwargs):
        raise AssertionError("compute_bands was called")

    monkeypatch.setattr(analysis, "compute_bands", solve)
    spec = bl.BlowupSpec(m=0, p=0.5, C=1.0)
    with pytest.raises(bl.NoBasisChangeOnPath, match="within 0.15 of the probe center"):
        bl.regularity_probe(lat1d, rough, 25.0, spec, 1, 1, [4.0, 2.0, 1.0])


LADDER = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


@pytest.fixture(scope="module")
def wells(lat1d):
    # deep wells, as in criterion 6: the verdicts differ across the tail orders
    return bl.synth_power_law(lat1d, t=1.55, gmax=8, seed=7, amplitude=48000.0)


@pytest.fixture
def solves(monkeypatch):
    """The k-point count of every compute_bands call the analysis module makes."""
    calls = []
    solve = analysis.compute_bands

    def recorded(lat, V, kset, *args, **kwargs):
        calls.append(len(kset))
        return solve(lat, V, kset, *args, **kwargs)

    monkeypatch.setattr(analysis, "compute_bands", recorded)
    return calls


def test_regularity_probe_solves_the_ladder_once(lat1d, wells, solves):
    # 31 + 61 + 121 + 241 mesh points, every coarse one also a point of the finest
    bl.regularity_probe(lat1d, wells, 750.0, bl.BlowupSpec(m=1, p=1.5, C=1.0), 1, 1, LADDER)
    assert solves == [241]


def per_mesh_probe(lat, V, Ec, spec, order, deltas, halfwidth=0.15):
    """regularity_probe written as one solve per mesh, centred on the first
    rank flip of a 2001-point scan over one period."""
    direction = lat.reciprocal[:, 0] / np.linalg.norm(lat.reciprocal[:, 0])
    period = float(np.linalg.norm(lat.reciprocal[:, 0]))
    ts = np.linspace(-period / 2.0, period / 2.0, 2001)
    first = np.flatnonzero(np.diff(_basis_sizes(lat, Ec, ts[:, None] * direction)))[0]
    center = np.zeros(lat.dim) + 0.5 * (ts[first] + ts[first + 1]) * direction
    scheme = bl.modified_scheme(bl.build_blowup(spec))
    peaks, change_points = [], None
    for delta in deltas:
        n = int(round(halfwidth / delta))
        offsets = (np.arange(2 * n + 1) - n) * delta
        points = center + offsets[:, None] * direction
        flips = np.flatnonzero(np.diff(_basis_sizes(lat, Ec, points)))
        bands = bl.compute_bands(lat, V, bl.KPointSet(points=points, kind="path"), Ec,
                                 scheme, 1)
        trace = bl.band_derivative_trace(bands, 1, order)
        near = np.zeros(trace.size, dtype=bool)
        for i in flips:
            near[max(0, i - 5):i + 6] = True
        peaks.append(np.max(np.abs(trace[near])))
        if change_points is None:
            change_points = center + (0.5 * (offsets[flips] + offsets[flips + 1]))[:, None] \
                * direction
    p1, p2, p3 = peaks[-3:]
    unbounded = (p3 > p2 > p1) and (p3 >= 1.5 * p1)
    return np.array(peaks), "UnboundedDerivative" if unbounded else "BoundedDerivative", \
        change_points


@pytest.mark.parametrize("deltas, union", [(LADDER, 241), ([1e-2, 4e-3, 1e-3], 303)])
@pytest.mark.parametrize("m, p, order", [(0, 0.5, 1), (1, 1.5, 1), (1, 1.5, 2), (2, 2.5, 2)])
def test_regularity_probe_matches_a_solve_per_mesh(lat1d, wells, solves, deltas, union, m, p,
                                                    order):
    """Reading every mesh from the union solve changes no bit of the result.
    The ladder 1e-2, 4e-3, 1e-3 is not nested: 1e-2 is not a power-of-2
    multiple of 1e-3, and two of its offsets are no offset of the finest
    mesh, so the union holds 303 points where that mesh has 301."""
    spec = bl.BlowupSpec(m=m, p=p, C=1.0)
    probe = bl.regularity_probe(lat1d, wells, 750.0, spec, 1, order, deltas)
    assert solves == [union]
    peaks, verdict, change_points = per_mesh_probe(lat1d, wells, 750.0, spec, order, deltas)
    assert np.array_equal(probe.peaks, peaks)
    assert probe.verdict == verdict
    assert np.array_equal(probe.change_points, change_points)


def test_regularity_probe_checks_every_mesh_before_solving(lat1d, wells, monkeypatch):
    """A coarse mesh that misses the rank flip fails the probe before any k
    is solved, though a finer one sees it: within the 0.15 halfwidth the
    meshes of width 1 and 0.5 hold only the probe center, while the 0.25
    mesh (offsets 0, +-0.25) straddles the flip at the center."""
    def solve(*args, **kwargs):
        raise AssertionError("compute_bands was called")

    monkeypatch.setattr(analysis, "compute_bands", solve)
    with pytest.raises(bl.NoBasisChangeOnPath, match="within 0.15 of the probe center"):
        bl.regularity_probe(lat1d, wells, 750.0, bl.BlowupSpec(m=1, p=1.5, C=1.0), 1, 1,
                            [1.0, 0.5, 0.25])


def test_regularity_probe_counts_mesh_points_before_solving(lat1d, wells, monkeypatch):
    """The 0.15 halfwidth leaves the 0.12 mesh 3 points, too few for the
    5-point stencils: the probe fails before any k is solved."""
    def solve(*args, **kwargs):
        raise AssertionError("compute_bands was called")

    monkeypatch.setattr(analysis, "compute_bands", solve)
    with pytest.raises(bl.TooFewPoints, match="mesh width 0.12 leaves 3 points"):
        bl.regularity_probe(lat1d, wells, 750.0, bl.BlowupSpec(m=1, p=1.5, C=1.0), 1, 1,
                            [0.12, 0.06, 0.03])


def test_periodicity_report(lat1d, cosine, blowup_std):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-np.pi, np.pi, size=(10, 1))
    report = bl.periodicity_report(
        lat1d, cosine, 25.0,
        [bl.uniform_scheme(), bl.kdependent_scheme(), bl.modified_scheme(blowup_std)],
        samples, [(1,)])
    assert report["uniform"] > 1e-3
    assert report["kdependent"] <= 1e-9
    assert report["modified"] <= 1e-9


def test_periodicity_free_electrons(lat1d, zero):
    samples = np.linspace(-2.0, 2.0, 7)[:, None]
    report = bl.periodicity_report(lat1d, zero, 25.0, [bl.kdependent_scheme()],
                                   samples, [(1,)])
    assert report["kdependent"] <= 1e-12


def test_cell_scan_zero_potential(lat1d, blowup_std):
    """At V = 0 every occupied state sits deep inside the cutoff, so the
    modified and k-dependent energies per volume agree identically."""
    scan = bl.energy_vs_cell_parameter(
        lambda a: bl.new_lattice([[a]]),
        lambda lat: bl.potential_from_coeffs(lat, []),
        50.0, [bl.kdependent_scheme(), bl.modified_scheme(blowup_std)],
        np.linspace(0.95, 1.05, 11), n_electrons=1.0, grid_n=8, n_bands=3)
    kd = scan.energies["kdependent"]
    mod = scan.energies["modified"]
    assert np.array_equal(kd, mod)
    assert set(scan.second_differences) == {"kdependent", "modified"}
    assert scan.second_differences["kdependent"] == scan.second_differences["modified"]


def test_cell_scan_needs_uniform_ladder(lat1d, blowup_std):
    with pytest.raises(ValueError):
        bl.energy_vs_cell_parameter(
            lambda a: bl.new_lattice([[a]]),
            lambda lat: bl.potential_from_coeffs(lat, []),
            50.0, [bl.kdependent_scheme()], [0.9, 1.0, 1.3],
            n_electrons=1.0, grid_n=4, n_bands=2)


def test_cell_scan_needs_a_nonzero_step(lat1d):
    """A ladder of equal cells would divide the second differences by 0."""
    with pytest.raises(ValueError, match="nonzero step"):
        bl.energy_vs_cell_parameter(
            lambda a: bl.new_lattice([[a]]),
            lambda lat: bl.potential_from_coeffs(lat, []),
            50.0, [bl.kdependent_scheme()], [1.0, 1.0, 1.0],
            n_electrons=1.0, grid_n=4, n_bands=2)


@pytest.mark.parametrize("study", ["periodicity", "cellscan"])
def test_schemes_must_be_distinct_and_present(lat1d, zero, study):
    """Both studies key their results by scheme tag: two modified schemes
    with different blow-ups would collapse into one entry holding the
    second's numbers, and an empty list would give an empty study."""
    two = [bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5))),
           bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=2, p=2.5)))]

    def run(schemes):
        if study == "periodicity":
            return bl.periodicity_report(lat1d, zero, 25.0, schemes, [[0.1]], [(1,)])
        return bl.energy_vs_cell_parameter(
            lambda a: bl.new_lattice([[a]]), lambda lat: bl.potential_from_coeffs(lat, []),
            50.0, schemes, [0.95, 1.0, 1.05], n_electrons=1.0, grid_n=8, n_bands=3)

    with pytest.raises(ValueError, match="repeat the tag modified"):
        run(two)
    with pytest.raises(ValueError, match="empty"):
        run([])
    with pytest.raises(ValueError, match="repeat the tag kdependent"):
        run(iter([bl.kdependent_scheme(), two[0], bl.kdependent_scheme()]))
    run(iter([bl.kdependent_scheme(), two[0]]))  # a one-pass iterable is read once


@pytest.mark.parametrize("shifts", [[], [(0,)], [(1,), (0,)], np.zeros((1, 1), dtype=int)])
def test_periodicity_needs_nonzero_shifts(lat1d, cosine, shifts):
    """No shift, or a zero one, compares each k with itself: the report read
    0.0 for every scheme and called the uniform scheme exactly periodic."""
    with pytest.raises(ValueError, match="'shifts'"):
        bl.periodicity_report(lat1d, cosine, 25.0, [bl.uniform_scheme()], [[0.1]], shifts)


def test_cell_scan_enumerates_each_cell_once(blowup_std, monkeypatch):
    """The k-dependent and modified schemes share each cell's basis pass."""
    cells = []
    bases = spectra._bases

    def recorded(lat, Ec, points, mode):
        cells.append(lat.primitive[0, 0])
        return bases(lat, Ec, points, mode)

    monkeypatch.setattr(spectra, "_bases", recorded)
    a_values = np.linspace(0.95, 1.05, 5)
    bl.energy_vs_cell_parameter(
        lambda a: bl.new_lattice([[a]]),
        lambda lat: bl.synth_power_law(lat, t=2.1, gmax=3, seed=1),
        50.0, [bl.kdependent_scheme(), bl.modified_scheme(blowup_std)], a_values,
        n_electrons=1.0, grid_n=8, n_bands=3)
    assert cells == pytest.approx(a_values)


def written_out_study(lat, V, band_index, kset, ladder, scheme, ec_reference):
    """convergence_study for one scheme as a plain loop: (errors, clamped,
    upper-half rate, full-ladder rate)."""
    col = band_index - 1
    ref = bl.compute_bands(lat, V, kset, ec_reference, bl.uniform_scheme(),
                           band_index).energies[:, col]
    ladder = np.sort(ladder)
    errors = np.array([np.mean(np.abs(bl.compute_bands(lat, V, kset, ec, scheme,
                                                       band_index).energies[:, col] - ref))
                       for ec in ladder])
    clamped = errors <= 0.0
    errors = np.where(clamped, 1e-16, errors)
    rates = []
    for idx in (slice(min(ladder.size // 2, ladder.size - 2), None), slice(None)):
        rates.append(None if np.all(clamped[idx]) else
                     float(-np.polyfit(np.log(ladder[idx]), np.log(errors[idx]), 1)[0]))
    return errors.tobytes(), clamped.tolist(), rates[0], rates[1]


@pytest.mark.parametrize("potential", ["rough", "zero"])
def test_convergence_study_of_two_schemes(lat1d, blowup_std, potential, monkeypatch):
    """Two schemes in one study: each study is bit for bit the per-scheme
    loop, and the uniform reference is solved once for both."""
    V = (bl.synth_power_law(lat1d, t=2.1, gmax=12, seed=1) if potential == "rough"
         else bl.potential_from_coeffs(lat1d, []))
    grid = bl.uniform_grid(lat1d, 8)
    ladder = [500.0, 125.0, 250.0]
    schemes = [bl.kdependent_scheme(), bl.modified_scheme(blowup_std)]
    want = {s.tag: written_out_study(lat1d, V, 1, grid, ladder, s, 4000.0) for s in schemes}
    calls = []
    solve = analysis._band_structures

    def recorded(lat, V, kset, Ec, schemes, n_bands, threads=1):
        calls.append((Ec, [scheme.tag for scheme in schemes]))
        return solve(lat, V, kset, Ec, schemes, n_bands, threads)

    monkeypatch.setattr(analysis, "_band_structures", recorded)
    studies = bl.convergence_study(lat1d, V, 1, grid, ladder, schemes, 4000.0)
    assert list(studies) == ["kdependent", "modified"]
    got = {tag: (s.errors.tobytes(), s.clamped.tolist(), s.fitted_rate, s.fitted_rate_full)
           for tag, s in studies.items()}
    assert got == want
    assert calls == [(4000.0, ["uniform"])] + [(ec, ["kdependent", "modified"])
                                               for ec in (125.0, 250.0, 500.0)]


def test_convergence_study_checks_schemes_before_any_solve(lat1d, cosine, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(analysis, "_band_structures", solve)
    grid = bl.uniform_grid(lat1d, 4)
    for schemes, message in (([], "empty"),
                             ([bl.kdependent_scheme()] * 2, "repeat the tag kdependent")):
        with pytest.raises(ValueError, match=message):
            bl.convergence_study(lat1d, cosine, 1, grid, [25.0, 50.0], schemes, 800.0)


def per_shift_report(lat, V, Ec, schemes, samples, shifts, n_bands):
    """periodicity_report as a loop over schemes and shifts, one k-set each."""
    def energies(points, scheme):
        kset = bl.KPointSet(points=points, kind="path")
        return bl.compute_bands(lat, V, kset, Ec, scheme, n_bands).energies

    report = {}
    for scheme in schemes:
        base = energies(samples, scheme)
        report[scheme.tag] = max(
            float(np.max(np.abs(energies(samples + lat.gvector(shift), scheme) - base)))
            for shift in shifts)
    return report


@pytest.mark.parametrize("dim", [1, 2])
def test_periodicity_report_is_one_solve(lat1d, hex2d, blowup_std, dim, monkeypatch):
    """The samples and every shifted copy are one k-set: one grouped solve,
    and the report of the per-shift loop, bit for bit (dense sizes only)."""
    lat = lat1d if dim == 1 else hex2d
    V = bl.synth_power_law(lat, t=2.1, gmax=4, seed=2)
    Ec, shifts = (100.0, [(1,), (-2,)]) if dim == 1 else (60.0, [(1, 0), (0, 1), (1, -1)])
    fracs = np.random.default_rng(5).uniform(-0.5, 0.5, size=(12, dim))
    samples = fracs @ lat.reciprocal.T
    schemes = [bl.uniform_scheme(), bl.kdependent_scheme(), bl.modified_scheme(blowup_std)]
    want = per_shift_report(lat, V, Ec, schemes, samples, shifts, 3)
    calls = []
    solve = analysis._band_structures

    def recorded(*args):
        calls.append(len(args[2]))
        return solve(*args)

    monkeypatch.setattr(analysis, "_band_structures", recorded)
    got = bl.periodicity_report(lat, V, Ec, schemes, samples, shifts, n_bands=3)
    assert calls == [12 * (1 + len(shifts))]
    assert list(got) == list(want)
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
    assert got["uniform"] > 1e-6


@pytest.mark.parametrize("n_electrons, error", [
    (float("nan"), "n_electrons must be positive"), (0.0, "n_electrons must be positive"),
    (3.5, "n_electrons=3.5 needs 28 states per grid but only 24 were computed (3 bands)"),
])
def test_cell_scan_checks_the_electron_count_before_any_solve(monkeypatch, n_electrons, error):
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(analysis, "_band_structures", solve)
    with pytest.raises(ValueError, match=re.escape(error)):
        bl.energy_vs_cell_parameter(
            lambda a: bl.new_lattice([[a]]), lambda lat: bl.potential_from_coeffs(lat, []),
            50.0, [bl.kdependent_scheme()], [0.95, 1.0, 1.05], n_electrons=n_electrons,
            grid_n=8, n_bands=3)
