import numpy as np
import pytest

import bandlab as bl


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


def test_save_load_roundtrip(tmp_path, lat1d):
    V = bl.synth_power_law(lat1d, t=1.8, gmax=5, seed=4)
    path = tmp_path / "v.json"
    bl.save_potential(V, path)
    W = bl.load_potential(path)
    assert W.coeffs == V.coeffs
    assert W.real_valued == V.real_valued
    assert W.digest() == V.digest()


def test_save_load_complex_roundtrip(tmp_path, lat1d):
    V = bl.potential_from_coeffs(lat1d, [((1,), 0.25 - 1.5j)], real_valued=False)
    path = tmp_path / "v.json"
    bl.save_potential(V, path)
    assert bl.load_potential(path).coeffs == V.coeffs


def test_coefficient_arrays_cached(hex2d):
    V = bl.synth_power_law(hex2d, t=2.2, gmax=2, seed=4)
    assert V.coeff_indices is V.coeff_indices and V.coeff_values is V.coeff_values
    assert [tuple(g) for g in V.coeff_indices.tolist()] == list(V.coeffs)
    assert V.coeff_values.tolist() == list(V.coeffs.values())
    assert not V.coeff_indices.flags.writeable and not V.coeff_values.flags.writeable
    empty = bl.potential_from_coeffs(hex2d, [])
    assert empty.coeff_indices.shape == (0, 2) and empty.coeff_values.shape == (0,)


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
