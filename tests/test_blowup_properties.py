"""Property test: build_blowup on random specs either refuses the spec or
returns a function whose junction_mismatch and domination_margin properties
and weighted tail hold."""

import numpy as np
import pytest

import bandlab as bl
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
