"""End-to-end acceptance gates.

Each test exercises one headline capability at its stated tolerance and
prints a single pass/fail line, so a full run reads as a checklist.  The
configurations are small enough for a laptop but large enough that the
qualitative claims (periodicity, operator ordering, convergence rates,
derivative blow-up, cell-parameter smoothness) actually bind.
"""

import warnings

import numpy as np
import pytest

import bandlab as bl

TWO_PI = 2.0 * np.pi


def _criterion(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _fold(k):
    return np.abs(k - TWO_PI * np.round(k / TWO_PI))


def test_criterion_1_free_electron_exactness(lat1d, zero):
    path = bl.kpath(lat1d, [("G", [0.0]), ("X", [np.pi])], 100)   # 101 points
    bands = bl.compute_bands(lat1d, zero, path, 200.0, bl.kdependent_scheme(), 1)
    exact = 0.5 * _fold(path.points[:, 0]) ** 2
    dev = float(np.max(np.abs(bands.energies[:, 0] - exact)))
    _criterion(1, "free-electron band exact", dev <= 1e-10)


def test_criterion_2_projection_identity(lat1d, cosine):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        k = [rng.uniform(-np.pi, np.pi)]
        ec = rng.uniform(10.0, 300.0)
        dev = bl.project_modified_identity_check(lat1d, cosine, k, ec)
        scale = float(np.abs(
            bl.assemble(lat1d, cosine, k, ec, bl.kdependent_scheme()).entries).max())
        worst = max(worst, dev / (1e-12 * scale))
    _criterion(2, "inner-block projection identity", worst <= 1.0)


def test_criterion_3_periodicity(lat1d, cosine, blowup_std):
    rng = np.random.default_rng(3)
    samples = rng.uniform(-np.pi, np.pi, size=(50, 1))
    report = bl.periodicity_report(
        lat1d, cosine, 25.0,
        [bl.uniform_scheme(), bl.kdependent_scheme(), bl.modified_scheme(blowup_std)],
        samples, [(1,)])
    ok = (report["kdependent"] <= 1e-9 and report["modified"] <= 1e-9
          and report["uniform"] > 1e-3)
    _criterion(3, "band periodicity by scheme", ok)


def test_criterion_4_operator_ordering(lat1d, cosine, blowup_std):
    rng = np.random.default_rng(4)
    mod_vs_kdep = np.inf
    vs_reference = np.inf
    for _ in range(20):
        k = [rng.uniform(-np.pi, np.pi)]
        kdep = bl.eigh(bl.assemble(lat1d, cosine, k, 100.0, bl.kdependent_scheme())).values
        mod = bl.eigh(bl.assemble(lat1d, cosine, k, 100.0,
                                  bl.modified_scheme(blowup_std))).values
        ref = bl.eigh(bl.assemble(lat1d, cosine, k, 6400.0, bl.uniform_scheme()),
                      n_lowest=len(kdep)).values
        mod_vs_kdep = min(mod_vs_kdep, float(np.min(mod - kdep)))
        for discrete in (kdep, mod):
            vs_reference = min(vs_reference, float(np.min(discrete - ref)))
    ok = mod_vs_kdep >= -1e-10 and vs_reference >= -1e-8
    _criterion(4, "variational ordering of eigenvalues", ok)


def test_criterion_5_convergence_rate(lat1d, blowup_std):
    V = bl.synth_power_law(lat1d, t=2.1, gmax=12, seed=1)
    grid = bl.uniform_grid(lat1d, 24)
    ladder = [125.0, 250.0, 500.0, 1000.0, 2000.0]
    r = 2.1 - 0.5
    rates = {}
    for scheme in (bl.kdependent_scheme(), bl.modified_scheme(blowup_std)):
        study = bl.convergence_study(lat1d, V, 1, grid, ladder, scheme, 32000.0,
                                     r_potential=r)
        rates[scheme.tag] = study.fitted_rate_full
    floor = (r + 0.75) - 0.3
    ok = (rates["kdependent"] >= floor and rates["modified"] >= floor
          and abs(rates["kdependent"] - rates["modified"]) <= 0.3)
    _criterion(5, "cutoff convergence rate", ok)


# deep wells make the rank-flip response of the low bands visible
@pytest.fixture(scope="module")
def regularity_verdicts(lat1d):
    V = bl.synth_power_law(lat1d, t=1.55, gmax=8, seed=7, amplitude=48000.0)
    deltas = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    verdicts = {}
    for m, p in ((0, 0.5), (1, 1.5), (2, 2.5)):
        spec = bl.BlowupSpec(m=m, p=p, C=1.0)
        for order in (1, 2):
            probe = bl.regularity_probe(lat1d, V, 750.0, spec, 1, order, deltas)
            verdicts[(p, order)] = probe.verdict
    return verdicts


def test_criterion_6_regularity_ladder(regularity_verdicts):
    v = regularity_verdicts
    ok = (v[(0.5, 1)] == "UnboundedDerivative"
          and v[(1.5, 1)] == "BoundedDerivative"
          and v[(1.5, 2)] == "UnboundedDerivative"
          and v[(2.5, 2)] == "BoundedDerivative")
    _criterion(6, "derivative blow-up vs tail order", ok)


def test_criterion_6b_verdicts_monotone_in_p(regularity_verdicts):
    # once a tail order yields a bounded derivative, larger p stays bounded
    for order in (1, 2):
        bounded = [regularity_verdicts[(p, order)] == "BoundedDerivative"
                   for p in (0.5, 1.5, 2.5)]
        assert bounded == sorted(bounded)


def test_criterion_7_fermi_idos_oracles(lat1d, zero):
    bands = bl.compute_bands(lat1d, zero, bl.uniform_grid(lat1d, 400), 200.0,
                             bl.kdependent_scheme(), 1)
    mu = bl.fermi_level(bands, 1.0).mu
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bl.TruncationWarning)
        energy = bl.idoe(bands, mu)
    ok = abs(mu - np.pi**2 / 2.0) <= 0.05 and abs(energy - np.pi**2 / 6.0) <= 0.01
    _criterion(7, "Fermi level and filled-band energy", ok)


def test_criterion_8_cell_parameter_smoothness(hex2d):
    a_values = np.linspace(0.95, 1.05, 50)
    unit = hex2d.primitive

    def make_lattice(a):
        return bl.new_lattice(a * unit)

    def make_potential(lat):
        return bl.synth_power_law(lat, t=2.2, gmax=3, seed=5, amplitude=400.0)

    # the cutoff must sit where the basis rank actually flips along the ladder
    grid_counts = {bl.basis_cardinality_bounds(make_lattice(a), 100.0,
                                               bl.uniform_grid(make_lattice(a), 6))
                   for a in a_values}
    assert len(grid_counts) > 1

    fn = bl.build_blowup(bl.BlowupSpec(m=2, p=2.5, C=1.0))
    scan = bl.energy_vs_cell_parameter(
        make_lattice, make_potential, 100.0,
        [bl.kdependent_scheme(), bl.modified_scheme(fn)],
        a_values, n_electrons=1.0, grid_n=6, n_bands=4)
    kd = scan.second_differences["kdependent"]
    mod = scan.second_differences["modified"]
    _criterion(8, "cell-parameter energy smoothness", kd >= 5.0 * mod)
