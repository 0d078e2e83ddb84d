import json

import numpy as np
import pytest

import bandlab as bl
from bandlab.cli import _build_potential, main


def test_zero_potential(lat1d, zero):
    assert zero.coeffs == {}


def test_broken_hermitian_symmetry(lat1d):
    with pytest.raises(bl.BrokenHermitianSymmetry):
        bl.potential_from_coeffs(lat1d, [((1,), 1j)], real_valued=True)


def test_duplicate_entries_summed(lat1d, cosine):
    V = bl.potential_from_coeffs(lat1d, [((1,), 0.5), ((1,), 0.5), ((-1,), 1.0)])
    assert V.coeffs == cosine.coeffs


def test_synth_deterministic(lat1d):
    a = bl.synth_power_law(lat1d, t=2.1, gmax=3, seed=9)
    b = bl.synth_power_law(lat1d, t=2.1, gmax=3, seed=9)
    assert a.coeffs == b.coeffs
    assert a.coeffs != bl.synth_power_law(lat1d, t=2.1, gmax=3, seed=10).coeffs


def test_save_load_roundtrip(tmp_path, lat1d):
    """A potential saved by `potential synth` reads back through the CLI's
    potential-file reader with every coefficient bit."""
    V = bl.synth_power_law(lat1d, t=1.8, gmax=5, seed=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": lat1d.to_dict(), "out": str(tmp_path)}))
    assert main(["potential", "synth", "--config", str(cfg),
                 "--t", "1.8", "--gmax", "5", "--seed", "4"]) == 0
    W = _build_potential({"potential": {"file": str(tmp_path / "potential.json")}}, lat1d)
    assert W.coeffs == V.coeffs
    assert W.real_valued == V.real_valued
    assert W.digest() == V.digest()


def test_synth_magnitude_law(lat1d):
    V = bl.synth_power_law(lat1d, t=2.1, gmax=3, seed=9, amplitude=2.0)
    assert (0,) not in V.coeffs
    assert V.real_valued
    for g, c in V.coeffs.items():
        gnorm = np.linalg.norm(lat1d.gvector(g))
        assert abs(c) == pytest.approx(2.0 * gnorm**-2.1, rel=1e-14)
        assert V.coeffs[tuple(-v for v in g)] == np.conj(c)


def test_synth_empty_box(lat1d):
    assert bl.synth_power_law(lat1d, t=2.1, gmax=0, seed=1).coeffs == {}


def test_synth_needs_summable_tail(lat1d):
    with pytest.raises(ValueError):
        bl.synth_power_law(lat1d, t=0.5, gmax=3, seed=1)


@pytest.mark.parametrize("kwargs, field", [
    (dict(t=float("nan")), "t"),
    (dict(t=2.1, amplitude=float("inf")), "amplitude"),
    (dict(t=2.1, amplitude=float("nan")), "amplitude"),
    (dict(t=2.1, amplitude=1e308), "amplitude"),   # |G| < 1: the draw overflows
    (dict(t=400.0), "amplitude"),                  # |G|^(-t) overflows
    (dict(t=2.1, gmax=0, amplitude=float("inf")), "amplitude"),
])
def test_synth_rejects_non_finite_coefficients(kwargs, field):
    """A draw raises ValueError naming the argument before any coefficient
    is built, with no RuntimeWarning (which this suite turns into an error)."""
    lat = bl.new_lattice([[100.0]])
    with pytest.raises(ValueError, match=f"{field}="):
        bl.synth_power_law(lat, seed=1, **{"gmax": 2} | kwargs)


def test_g_index_must_be_integral(lat1d, cosine):
    with pytest.raises(ValueError, match=r"entry 1: G-index \(-1.5,\) must be 1 integers"):
        bl.potential_from_coeffs(lat1d, [((1,), 1.0), ((-1.5,), 1.0)])
    with pytest.raises(ValueError, match=r"entry 0: G-index \(1.0, 0.5\) must be 2 integers"):
        bl.potential_from_coeffs(bl.new_lattice(np.eye(2)), [([1, 0.5], 1.0)], real_valued=False)
    # integral values of any type keep working
    for g in ((1.0,), np.array([1]), np.int64(1), (np.int64(1),), [1.0]):
        assert bl.potential_from_coeffs(lat1d, [(g, 1.0), ((-1,), 1.0)]).coeffs == cosine.coeffs


def test_coefficient_arrays_cached(hex2d):
    """hermitian_coeffs, the one array form of the coefficients, is built once
    per potential and read-only, also for the zero potential."""
    for V in (bl.synth_power_law(hex2d, t=2.2, gmax=2, seed=4), bl.potential_from_coeffs(hex2d, [])):
        idx, vals = V.hermitian_coeffs
        assert V.hermitian_coeffs[0] is idx and V.hermitian_coeffs[1] is vals
        assert not idx.flags.writeable and not vals.flags.writeable
        assert idx.shape == (len(vals), 2)


def test_hermitian_coeffs(hex2d, lat1d):
    V = bl.synth_power_law(hex2d, t=2.2, gmax=2, seed=4)
    idx, vals = V.hermitian_coeffs
    assert V.hermitian_coeffs[0] is idx
    assert not idx.flags.writeable and not vals.flags.writeable
    # a real-valued map is its own Hermitian part: 0.5 * (c + c) == c
    assert dict(zip(map(tuple, idx.tolist()), vals.tolist())) == V.coeffs
    lone = bl.potential_from_coeffs(lat1d, [((2,), 1.0 + 3.0j)], real_valued=False)
    idx, vals = lone.hermitian_coeffs
    assert idx.tolist() == [[-2], [2]]
    assert vals.tolist() == [0.5 - 1.5j, 0.5 + 1.5j]
    empty = bl.potential_from_coeffs(hex2d, [])
    assert empty.hermitian_coeffs[0].shape == (0, 2)


HEX = np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])


@pytest.mark.parametrize("primitive, args, digest", [
    (0.95 * HEX, dict(t=2.2, gmax=3, seed=5, amplitude=400.0), "a2cfc4a1cfe9"),
    (1.0 * HEX, dict(t=2.2, gmax=3, seed=5, amplitude=400.0), "90feb1d831de"),
    (1.05 * HEX, dict(t=2.2, gmax=3, seed=5, amplitude=400.0), "67a87ad5bbee"),
    (np.eye(3), dict(t=2.1, gmax=1, seed=1, amplitude=5.0), "4c6e8a47b3ca"),
    (np.eye(1), dict(t=1.55, gmax=8, seed=7, amplitude=48000.0), "b60a94025f8c"),
    (HEX, dict(t=2.1, gmax=6, seed=1), "387ad1106c9e"),
])
def test_synth_digest_pinned(primitive, args, digest):
    """The benchmark and test potentials keep every coefficient bit: each G's
    phase from its own generator, |G| from the arithmetic of
    norm(lat.gvector(G))."""
    assert bl.synth_power_law(bl.new_lattice(primitive), **args).digest() == digest


def test_broken_partner_check_names_each_offender(hex2d):
    entries = [((1, 0), 1.0 + 1.0j), ((-1, 0), 1.0 + 1.0j),   # partner not conjugate
               ((0, 2), 2.0), ((0, 0), 0.5j),                  # no partner; c[0] not real
               ((1, 1), 3.0 - 1.0j), ((-1, -1), 3.0 + 1.0j)]   # a proper pair
    with pytest.raises(bl.BrokenHermitianSymmetry) as info:
        bl.potential_from_coeffs(hex2d, entries)
    assert "[(-1, 0), (0, 0), (0, 2), (1, 0)]" in str(info.value)
    # a mismatch within 1e-12 of max(1, |c|) passes
    bl.potential_from_coeffs(hex2d, [((0, 1), 1e3), ((0, -1), 1e3 + 1e-10j)])
