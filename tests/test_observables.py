import warnings

import numpy as np
import pytest

import bandlab as bl
from bandlab.fiber import kdependent_scheme
from bandlab.observables import _check_filling
from bandlab.spectra import BandStructure

PI_SQ_HALF = 0.5 * np.pi**2


def _flat_bands(lat, value, nk=8, n_bands=1):
    grid = bl.uniform_grid(lat, nk)
    energies = np.full((nk, n_bands), value, dtype=float)
    return BandStructure(kset=grid, energies=energies, scheme=kdependent_scheme())


@pytest.fixture(scope="module")
def free_bands(lat1d, zero):
    return bl.compute_bands(lat1d, zero, bl.uniform_grid(lat1d, 400), 200.0,
                            bl.kdependent_scheme(), 1)


@pytest.fixture(scope="module")
def cosine_bands(lat1d, cosine):
    return bl.compute_bands(lat1d, cosine, bl.uniform_grid(lat1d, 16), 200.0,
                            bl.kdependent_scheme(), 2)


def test_idos_below_everything(cosine_bands):
    mu = cosine_bands.energies.min() - 1.0
    assert bl.idos(cosine_bands, mu) == 0.0
    assert bl.idoe(cosine_bands, mu) == 0.0


def test_idos_above_everything(cosine_bands):
    mu = cosine_bands.energies.max() + 1.0
    with pytest.warns(bl.TruncationWarning):
        assert bl.idos(cosine_bands, mu) == cosine_bands.n_bands


def test_flat_band_idoe(lat1d):
    bands = _flat_bands(lat1d, 3.25)
    with pytest.warns(bl.TruncationWarning):
        assert bl.idoe(bands, 4.0) == 3.25
        assert bl.idos(bands, 4.0) == 1.0


def test_free_electron_filling(free_bands):
    with pytest.warns(bl.TruncationWarning):
        n = bl.idos(free_bands, PI_SQ_HALF)
    assert abs(n - 1.0) <= 2.0 / len(free_bands.kset)


def test_free_electron_energy(free_bands):
    # (1/2pi) int_{-pi}^{pi} k^2/2 dk = pi^2/6
    with pytest.warns(bl.TruncationWarning):
        e = bl.idoe(free_bands, PI_SQ_HALF)
    assert e == pytest.approx(np.pi**2 / 6.0, abs=1e-4)


def test_idos_requires_grid(lat1d, cosine):
    path = bl.kpath(lat1d, [("G", [0.0]), ("X", [np.pi])], 8)
    bands = bl.compute_bands(lat1d, cosine, path, 25.0, bl.kdependent_scheme(), 2)
    with pytest.raises(ValueError):
        bl.idos(bands, 1.0)


def test_idos_nondecreasing(cosine_bands):
    mus = np.linspace(cosine_bands.energies.min() - 0.5,
                      cosine_bands.energies.max() + 0.5, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bl.TruncationWarning)
        vals = [bl.idos(cosine_bands, mu) for mu in mus]
    assert np.all(np.diff(vals) >= 0)
    # idoe is monotone once the spectrum is nonnegative
    shift = cosine_bands.energies.min()
    shifted = BandStructure(kset=cosine_bands.kset, energies=cosine_bands.energies - shift,
                            scheme=cosine_bands.scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bl.TruncationWarning)
        evals = [bl.idoe(shifted, mu) for mu in mus - shift]
    assert np.all(np.diff(evals) >= 0)


def test_fermi_level_free_electrons(free_bands):
    level = bl.fermi_level(free_bands, 1.0)
    # band 1 fills completely: the level sits at the top of the band, and
    # the k = -pi grid point makes that exactly pi^2/2
    assert level.mu == PI_SQ_HALF
    assert abs(level.mu - PI_SQ_HALF) <= 0.05


def test_fermi_level_insulating_gap(cosine_bands):
    level = bl.fermi_level(cosine_bands, 1.0)
    e1_top = cosine_bands.energies[:, 0].max()
    e2_bottom = cosine_bands.energies[:, 1].min()
    assert level.lower == e1_top and level.upper == e2_bottom
    assert level.upper > level.lower  # a gap
    assert level.mu == 0.5 * (e1_top + e2_bottom)
    assert level.upper - level.lower == pytest.approx(e2_bottom - e1_top)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bl.TruncationWarning)
        assert bl.idos(cosine_bands, level.mu) == 1.0
        # bracket contract
        assert bl.idos(cosine_bands, level.lower - 1e-9) <= 1.0


def test_fermi_level_fractional_filling(free_bands):
    # idos jumps over N = 1/2: the jump energy is returned, bracket degenerate
    level = bl.fermi_level(free_bands, 0.5)
    assert level.lower == level.upper == level.mu  # no gap
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", bl.TruncationWarning)
        assert bl.idos(free_bands, level.mu) >= 0.5


def test_fermi_level_unreachable(cosine_bands):
    with pytest.raises(bl.UnreachableFilling):
        bl.fermi_level(cosine_bands, cosine_bands.n_bands + 0.5)


def test_fermi_level_positive_count(cosine_bands):
    with pytest.raises(ValueError):
        bl.fermi_level(cosine_bands, 0.0)


def test_fermi_level_nan_count(cosine_bands):
    with pytest.raises(ValueError, match="n_electrons must be positive"):
        bl.fermi_level(cosine_bands, float("nan"))


def test_fermi_level_converges_with_cutoff(lat1d, cosine, blowup_std):
    """Both discrete Fermi levels approach the reference level as the
    cutoff grows."""
    grid = bl.uniform_grid(lat1d, 16)
    ref = bl.compute_bands(lat1d, cosine, grid, 1600.0, bl.uniform_scheme(), 2)
    mu_ref = bl.fermi_level(ref, 1.0).mu
    for scheme in (bl.kdependent_scheme(), bl.modified_scheme(blowup_std)):
        diffs = []
        for ec in (25.0, 50.0, 100.0, 200.0):
            bands = bl.compute_bands(lat1d, cosine, grid, ec, scheme, 2)
            diffs.append(abs(bl.fermi_level(bands, 1.0).mu - mu_ref))
        assert all(d2 <= d1 + 1e-15 for d1, d2 in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-4 < diffs[0]


@pytest.mark.parametrize("mu", [float("nan"), np.float64("nan")])
@pytest.mark.parametrize("average", [bl.idos, bl.idoe])
def test_nan_level_raises(cosine_bands, average, mu):
    """A NaN level compared false everywhere and read 0.0."""
    with pytest.raises(ValueError, match="mu must be a number or [+]-inf, got nan"):
        average(cosine_bands, mu)


def test_infinite_levels_stay_valid(cosine_bands):
    assert bl.idos(cosine_bands, -np.inf) == 0.0 and bl.idoe(cosine_bands, -np.inf) == 0.0
    with pytest.warns(bl.TruncationWarning):
        assert bl.idos(cosine_bands, np.inf) == 2.0


def test_filling_check_is_the_fermi_level_rule():
    """_check_filling, which callers run before a solve, rejects exactly the
    counts fermi_level rejects, with the same error, on every grid of 1-9
    points and 1-4 bands, at the edges of the rule and beyond."""
    lat = bl.new_lattice([[1.0]])

    def error(fn):
        try:
            fn()
        except ValueError as exc:
            return type(exc), str(exc)
        return None

    for nk in range(1, 10):
        for n_bands in range(1, 5):
            energies = np.sort(np.random.default_rng(nk).standard_normal((nk, n_bands)), axis=1)
            bands = BandStructure(kset=bl.uniform_grid(lat, nk), energies=energies,
                                  scheme=kdependent_scheme())
            for n_electrons in (np.nan, -np.inf, -1.0, 0.0, 5e-324, 0.5, 1.0, n_bands - 0.5,
                                n_bands, n_bands + 0.5e-9 / nk, n_bands + 2e-9 / nk,
                                n_bands + 0.5, np.inf):
                want = error(lambda: bl.fermi_level(bands, n_electrons))
                assert error(lambda: _check_filling(n_electrons, n_bands, nk)) == want
                assert (want is None) == bool(n_electrons > 0 and
                                              n_electrons * nk <= n_bands * nk + 1e-9)
