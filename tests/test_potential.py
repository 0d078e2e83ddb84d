import json
import math

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


@pytest.mark.parametrize("n", [float("nan"), float("inf"), -float("inf")])
def test_g_index_must_be_finite(lat1d, n):
    with pytest.raises(ValueError, match=rf"entry 0: G-index \({n},\) must be 1 integers"):
        bl.potential_from_coeffs(lat1d, [((n,), 1.0)], real_valued=False)


@pytest.mark.parametrize("real_valued", [True, False])
@pytest.mark.parametrize("c", [complex(x, 0.0) for x in (float("nan"), float("inf"), -float("inf"))]
                         + [complex(0.0, x) for x in (float("nan"), float("inf"), -float("inf"))])
def test_coefficient_must_be_finite(lat1d, c, real_valued):
    """A NaN or infinite part is a plain ValueError naming the entry, raised
    before the partner check, which a NaN gap would pass."""
    entries = [((1,), 1.0), ((-1,), c), ((1,), 0.5)]
    message = r"^entry 1: coefficient at G-index \(-1,\) is not finite"
    with pytest.raises(ValueError, match=message) as info:
        bl.potential_from_coeffs(lat1d, entries, real_valued=real_valued)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("seed", [1.5, -1, np.int64(-1), float("nan"), float("inf"), "1", None])
def test_synth_seed_must_be_a_non_negative_integer(lat1d, seed):
    with pytest.raises(ValueError, match="seed="):
        bl.synth_power_law(lat1d, t=2.1, gmax=2, seed=seed)


def test_synth_integral_seeds_of_any_type(lat1d):
    """An integral seed of any type draws the int seed's potential (seeds of
    several 32-bit words are checked in test_synth_properties.py)."""
    V = bl.synth_power_law(lat1d, t=2.1, gmax=2, seed=1)
    for seed in (np.int64(1), 1.0, np.uint8(1)):
        assert bl.synth_power_law(lat1d, t=2.1, gmax=2, seed=seed).coeffs == V.coeffs


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
    phase from numpy's generator for (seed, G), drawn for all G in one
    batched pass, |G| from the arithmetic of norm(lat.gvector(G))."""
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


def _unique_rows(rows):
    """np.unique(rows, axis=0, return_inverse=True) from one lexsort."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def _array_construction(coeffs, dim):
    """The Hermitian part and the sorted offenders of the partner check, from
    index arrays: a lexsort of the G and their negatives, the plain values
    summed into zeros, and the partner gap measured with np.hypot."""
    rows = np.array(list(coeffs), dtype=np.int64).reshape(-1, dim)
    indices, where = _unique_rows(np.concatenate([rows, -rows]))
    stored = np.array(list(coeffs.values()), dtype=complex)
    plain = np.zeros(indices.shape[0], dtype=complex)
    plain[where[: len(rows)]] += stored
    values = 0.5 * (plain + plain[::-1].conj())
    row = np.full(len(where), -1)
    row[where[: len(rows)]] = np.arange(len(rows))
    partner = row[where[len(rows):]]
    gap = stored[partner] - stored.conj()
    bad = (partner < 0) | (np.hypot(gap.real, gap.imag)
                           > 1e-12 * np.maximum(1.0, np.hypot(stored.real, stored.imag)))
    return indices, values, sorted(map(tuple, rows[bad].tolist()))


try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:
    pass
else:
    # ±0.0, the tolerance itself and the non-finite parts are where a sum
    # into zeros, a strict comparison and a NaN-keeping max show
    _PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-12, 1e3,
                                       float("nan"), float("inf"), -float("inf")]),
                      st.floats(-1e3, 1e3))

    @st.composite
    def _coefficient_maps(draw):
        dim = draw(st.integers(1, 3))
        value = st.builds(complex, _PART, _PART)
        entries = draw(st.lists(st.tuples(st.tuples(*[st.integers(-6, 6)] * dim), value),
                                max_size=8))
        # conjugate partners for every entry or for some, a few of them off by
        # about the tolerance
        picks = draw(st.one_of(st.just(range(len(entries))),
                               st.lists(st.sampled_from(range(len(entries))), max_size=8)
                               if entries else st.just([])))
        for j in picks:
            g, c = entries[j]
            off = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-12, 1e-12j, 1e-9, 1.0]))
            entries.append((tuple(-n for n in g), c.conjugate() + off))
        return bl.new_lattice(np.eye(dim)), entries, draw(st.booleans())

    _LINE = bl.new_lattice(np.eye(1))

    @settings(max_examples=200, deadline=None)
    @given(_coefficient_maps())
    # a gap exactly at the tolerance; a NaN and an infinite part, refused
    # before the partner check
    @example((_LINE, [((1,), 0j), ((-1,), 1e-12 + 0j)], True))
    @example((_LINE, [((1,), complex(float("nan"), 1.0)), ((-1,), complex(0.0, float("inf")))], True))
    def test_coefficient_map_matches_array_construction(case):
        """hermitian_coeffs and the partner check of potential_from_coeffs,
        read from the coefficient dict, agree to the bit with the same
        quantities built from sorted index arrays: the same indices, value
        bytes and read-only flags, and the same offending G among the finite
        entries."""
        lat, entries, real_valued = case
        # a map built directly keeps -0.0 parts; potential_from_coeffs sums
        # duplicates into an empty map, which turns them into 0.0
        direct = dict(entries)
        with np.errstate(all="ignore"):  # inf - inf is fine here
            indices, values, _ = _array_construction(direct, lat.dim)
            idx, vals = bl.FourierPotential(lat, direct, real_valued).hermitian_coeffs
            assert idx.dtype == indices.dtype and idx.shape == indices.shape
            assert idx.tobytes() == indices.tobytes()
            assert vals.dtype == values.dtype and vals.tobytes() == values.tobytes()
            # read-only arrays that own their data, so no writeable base is left
            assert not idx.flags.writeable and not vals.flags.writeable
            assert idx.flags.owndata and vals.flags.owndata
            finite = [(g, c) for g, c in entries
                      if math.isfinite(c.real) and math.isfinite(c.imag)]
            if len(finite) < len(entries):
                # a non-finite coefficient never reaches the partner check,
                # which then runs on the finite entries
                with pytest.raises(ValueError, match="is not finite") as info:
                    bl.potential_from_coeffs(lat, entries, real_valued)
                assert type(info.value) is ValueError
                entries = finite
            summed = bl.potential_from_coeffs(lat, entries, real_valued=False).coeffs
            bad = _array_construction(summed, lat.dim)[2]
            if real_valued and bad:
                with pytest.raises(bl.BrokenHermitianSymmetry) as info:
                    bl.potential_from_coeffs(lat, entries, real_valued=True)
                assert str(info.value).endswith(f"offending G: {bad}")
            else:
                bl.potential_from_coeffs(lat, entries, real_valued)
