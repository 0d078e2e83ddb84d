"""Property tests: the batched phase draw of synth_power_law against numpy's
own generators.

synth_power_law draws the phase of each G from
np.random.default_rng((seed, n_1 + 2^31, ..., n_d + 2^31)).random(), and
computes those doubles for all G at once by replaying SeedSequence and
PCG64.  Both properties compare bits, so a change of numpy's streams, or of
the replay, fails them.  The oracle of the potential is the construction
the batched draw replaced: one generator per G, then potential_from_coeffs.
"""

import itertools

import numpy as np
import pytest

import bandlab as bl
from bandlab.potential import _uniforms

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings


def bits(values):
    return np.asarray(values).view(np.int64).tolist()


@st.composite
def keys(draw):
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-10**4, 10**4), min_size=d, max_size=d),
                         min_size=1, max_size=12))
    return draw(st.integers(0, 2**70)), np.array(rows, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(keys())
def test_batched_draw_matches_default_rng(case):
    seed, rows = case
    u = _uniforms(seed, rows)
    rngs = [np.random.default_rng((seed, *(n + 2**31 for n in row))) for row in rows.tolist()]
    expected = [rng.random() for rng in rngs]
    assert bits(u) == bits(expected)
    assert bits(np.exp(2j * np.pi * u)) == bits([np.exp(2j * np.pi * x) for x in expected])


def per_g_generators(lat, t, gmax, seed, amplitude):
    """synth_power_law as built before the batched draw."""
    entries = []
    for g in itertools.product(range(-gmax, gmax + 1), repeat=lat.dim):
        if g <= (0,) * lat.dim:  # one of each {G, -G} pair, and no G = 0
            continue
        rng = np.random.default_rng((seed, *(n + 2**31 for n in g)))
        c = amplitude * float(np.linalg.norm(lat.gvector(g))) ** (-t) * np.exp(2j * np.pi * rng.random())
        entries += [(g, c), (tuple(-n for n in g), np.conj(c))]
    return bl.potential_from_coeffs(lat, entries, real_valued=True)


@st.composite
def draws(draw):
    d = draw(st.integers(1, 3))
    prim = np.eye(d) * draw(st.floats(0.5, 2.0))
    for i, j in itertools.permutations(range(d), 2):
        prim[i, j] = draw(st.floats(-0.4, 0.4))
    return (bl.new_lattice(prim), draw(st.floats(d / 2 + 0.05, 4.0)),
            draw(st.integers(0, 4)), draw(st.integers(0, 2**70)),
            draw(st.floats(1e-3, 1e3) | st.just(1e-322)))  # 1e-322: some c underflow to +-0


@settings(max_examples=100, deadline=None)
@given(draws())
def test_synth_matches_per_g_generators(case):
    got, expected = bl.synth_power_law(*case), per_g_generators(*case)
    assert list(got.coeffs) == list(expected.coeffs)
    assert list(map(type, got.coeffs.values())) == list(map(type, expected.coeffs.values()))
    assert bits(list(got.coeffs.values())) == bits(list(expected.coeffs.values()))
