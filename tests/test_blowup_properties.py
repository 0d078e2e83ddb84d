"""Property test: build_blowup on random specs either refuses the spec or
returns a function whose junction_mismatch and domination_margin properties
and weighted tail hold."""

import numpy as np
import pytest

import bandlab as bl
import bandlab.blowup as blowup_module
from bandlab import BlowupSpec, build_blowup

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def specs(draw):
    m = draw(st.integers(0, 3))
    return BlowupSpec(m=m, p=draw(st.floats(m, m + 3.0, exclude_min=True)),
                      a=draw(st.floats(0.55, 0.95)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(specs())
def test_random_specs_build_valid_or_raise(spec):
    try:
        fn = build_blowup(spec)
    except (bl.DominationViolated, bl.IllPosedSpec):
        return
    assert fn.junction_mismatch <= 1e-10
    assert fn.domination_margin >= -1e-12
    xs = 1.0 - 2.0 ** -np.arange(5, 21)
    weighted = (1.0 - xs) ** spec.m * fn.eval(xs)
    # each step multiplies the weighted tail by 2^(p - m); a spec whose
    # growth rounds away is refused as ill-posed, so every built one grows
    assert np.all(np.diff(weighted) > 0)


@pytest.mark.parametrize("m, p", [(0, 5e-324), (1, float(np.nextafter(1.0, 2.0)))])
def test_p_within_rounding_of_m_is_ill_posed(m, p):
    BlowupSpec(m=m, p=p).validate()  # p > m holds exactly
    with pytest.raises(bl.IllPosedSpec, match="within rounding"):
        build_blowup(BlowupSpec(m=m, p=p))


@st.composite
def _bridge_cases(draw):
    coef = draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8))
    u = draw(st.one_of(st.floats(0.0, 1.0),
                       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).map(np.array)))
    return coef, u


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_bridge_cases())
@hypothesis.example(([0.25, 0.125, 3.0, -7.5], 0.0))
@hypothesis.example(([1.0, -0.0, 0.0, -2.0], np.array([0.0, 1.0])))
def test_bridge_arithmetic_matches_numpy_polynomial(case):
    """The blow-up bridge's own Horner and derivative steps repeat numpy's
    Polynomial to the bit, for every derivative order up to the degree, at
    scalar and array points of [0, 1]."""
    from numpy.polynomial import Polynomial

    coef, u = case
    reference = Polynomial(coef)
    for order in range(len(coef)):
        want = reference.deriv(order)(u)
        got = blowup_module._horner(blowup_module._derivative(tuple(coef), order), u)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), order
