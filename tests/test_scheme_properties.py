"""Property test of a paper claim: the blow-up G dominates x^2 on the same
variational space, so the modified fiber matrix dominates the k-dependent
one and every modified band lies at or above the k-dependent band."""

import numpy as np
import pytest

import bandlab as bl

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

HEX = np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])


@st.composite
def cases(draw):
    d = draw(st.integers(1, 2))
    lat = bl.new_lattice(np.eye(1) if d == 1 else HEX)
    V = bl.synth_power_law(lat, t=2.1, gmax=draw(st.integers(1, 4)),
                           seed=draw(st.integers(0, 9)), amplitude=draw(st.floats(0.5, 50.0)))
    m = draw(st.integers(0, 3))
    spec = bl.BlowupSpec(m=m, p=draw(st.floats(m + 0.05, m + 3.0)),
                         a=draw(st.floats(0.55, 0.95)))
    k = lat.reciprocal @ np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d)))
    Ec = draw(st.floats(20.0, 300.0 if d == 1 else 80.0))
    return lat, V, spec, k, Ec, draw(st.integers(1, 4))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cases())
def test_modified_bands_at_or_above_kdependent(case):
    lat, V, spec, k, Ec, n_bands = case
    try:
        fn = bl.build_blowup(spec)
    except (bl.DominationViolated, bl.IllPosedSpec):
        hypothesis.assume(False)
    kdep = bl.assemble(lat, V, k, Ec, bl.kdependent_scheme())
    mod = bl.assemble(lat, V, k, Ec, bl.modified_scheme(fn))
    assert np.array_equal(kdep.coords, mod.coords)  # one variational space
    n = min(n_bands, len(kdep))
    low, high = bl.eigh(kdep, n_lowest=n), bl.eigh(mod, n_lowest=n)
    # each bound carries the nominal eps ||H|| of a LAPACK solve, whose
    # backward error is a small multiple of M eps ||H||
    tol = len(kdep) * (low.bounds + high.bounds)
    assert np.all(high.values >= low.values - tol)
