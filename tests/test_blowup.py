import numpy as np
import pytest

import bandlab as bl
import bandlab.blowup as blowup_module
from bandlab import BlowupSpec, build_blowup

# independently evaluated tail values, C (1-x)^(-p) at p = 3/2
TAIL_AT_09 = 31.62277660168379332
TAIL_AT_0999 = 31622.77660168379332
TAIL_D1_AT_09 = 474.3416490252568998


def test_spec_validation():
    with pytest.raises(bl.IllPosedSpec):
        BlowupSpec(m=1, p=0.5).validate()       # p <= m
    with pytest.raises(bl.IllPosedSpec):
        BlowupSpec(m=1, p=1.0).validate()
    with pytest.raises(bl.IllPosedSpec):
        BlowupSpec(m=-1, p=0.5).validate()
    with pytest.raises(bl.IllPosedSpec):
        BlowupSpec(m=0, p=0.5, a=0.5).validate()
    with pytest.raises(bl.IllPosedSpec):
        BlowupSpec(m=0, p=0.5, C=-2.0).validate()
    with pytest.raises(bl.IllPosedSpec):
        BlowupSpec(m=2, p=2.5, msmooth=1).validate()


@pytest.mark.parametrize("spec, field", [
    (dict(m=1, p=float("nan")), "p"), (dict(m=1, p=float("inf")), "p"),
    (dict(m=1, p=1.5, C=float("nan")), "C"), (dict(m=1, p=1.5, C=float("inf")), "C"),
    (dict(m=1.5, p=2.5), "m"), (dict(m=1, p=2.5, msmooth=1.5), "msmooth"),
])
def test_non_finite_or_fractional_spec_names_its_field(spec, field):
    """A NaN or infinite p or C, or a fractional m or msmooth, is an
    IllPosedSpec naming the field, not a DominationViolated about the
    samples or a TypeError from the bridge."""
    with pytest.raises(bl.IllPosedSpec, match=rf"^(tail constant )?{field}\b"):
        build_blowup(BlowupSpec(**spec))


def test_build_rejects_ill_posed():
    with pytest.raises(bl.IllPosedSpec):
        build_blowup(BlowupSpec(m=1, p=0.5, C=1.0))


def test_quadratic_regions_exact():
    fn = build_blowup(BlowupSpec(m=0, p=0.5, C=1.0))
    assert fn.eval(0.3) == 0.09
    assert fn.eval(1.5) == 2.25
    assert fn.eval(0.0) == 0.0
    assert fn.eval(-0.3) == 0.09


def test_bridge_matches_quadratic_at_half(blowup_std):
    assert blowup_std.eval(0.5) == pytest.approx(0.25, rel=1e-13)
    assert blowup_std.eval_derivative(0.5, 1) == pytest.approx(1.0, rel=1e-10)
    assert blowup_std.eval_derivative(0.25, 1) == 0.5


def test_tail_values(blowup_std):
    assert blowup_std.eval(0.9) == pytest.approx(TAIL_AT_09, rel=1e-14)
    assert blowup_std.eval(0.999) == pytest.approx(TAIL_AT_0999, rel=1e-14)
    assert blowup_std.eval(0.99) < blowup_std.eval(0.999)
    assert blowup_std.eval_derivative(0.9, 1) == pytest.approx(TAIL_D1_AT_09, rel=1e-14)


def test_singular_at_one(blowup_std):
    with pytest.raises(bl.SingularArgument):
        blowup_std.eval(1.0)
    with pytest.raises(bl.SingularArgument):
        blowup_std.eval(-1.0)


def test_order_too_high(blowup_std):
    with pytest.raises(bl.OrderTooHigh):
        blowup_std.eval_derivative(0.3, 2)


def _prime_allocator(shape) -> None:
    """Allocate and free a few arrays of a sentinel value and this shape, so
    that memory numpy hands out next holds the sentinel, not NaN by chance."""
    blocks = [np.full(shape, 7.0) for _ in range(8)]
    del blocks


@pytest.fixture(scope="module")
def blowup_m3():
    return build_blowup(BlowupSpec(m=3, p=3.5))


@pytest.mark.parametrize("x", [
    float("nan"), np.float64("nan"), np.array(float("nan")), np.full(4, np.nan),
    np.full(64, -np.nan),
])
def test_nan_input_gives_nan(blowup_m3, x):
    """NaN matches no piece of G, so every order returns NaN, not the stale
    contents of an uninitialized output."""
    for order in range(blowup_m3.spec.m + 1):
        _prime_allocator(np.shape(x))
        assert np.all(np.isnan(blowup_m3.eval_derivative(x, order)))


def test_nan_entries_leave_the_finite_ones_alone(blowup_m3):
    finite = np.array([0.3, -0.6, 0.7, 0.9, -2.0, 0.0])
    mixed = np.full(2 * finite.size, np.nan)
    mixed[::2] = finite
    for order in range(blowup_m3.spec.m + 1):
        _prime_allocator(mixed.shape)
        got = blowup_m3.eval_derivative(mixed, order)
        assert np.all(np.isnan(got[1::2]))
        assert got[::2].tobytes() == blowup_m3.eval_derivative(finite, order).tobytes()


@pytest.mark.parametrize("m,p", [(0, 0.5), (1, 1.5), (2, 2.5)])
def test_domination_random_sampling(m, p):
    fn = build_blowup(BlowupSpec(m=m, p=p, C=1.0))
    xs = np.random.default_rng(17).uniform(0.5, 1.0, size=10**5)
    xs = xs[xs < 1.0]
    assert np.min(fn.eval(xs) - xs**2) >= 0.0


@pytest.mark.parametrize("m,p", [(0, 0.5), (1, 1.5), (2, 2.5), (2, 4.0)])
def test_junction_smoothness(m, p):
    # finite differences reach 1e-4 relative agreement up to m = 2; beyond
    # that the bridge coefficients make the check exceed double precision
    fn = build_blowup(BlowupSpec(m=m, p=p, C=1.0))
    assert fn.junction_mismatch <= 1e-4
    assert fn.domination_margin >= -1e-12


def central_fd(fn, x0: float, j: int, h: float) -> float:
    """Central j-th difference with binomial weights at offsets (j/2 - i) h."""
    if j == 0:
        return fn.eval(x0)
    total = 0.0
    binom = 1.0
    for i in range(j + 1):
        total += (-1.0) ** i * binom * fn.eval(x0 + (j / 2.0 - i) * h)
        binom = binom * (j - i) / (i + 1)
    return total / h**j


def fd_junction_mismatch(fn) -> float:
    """Worst relative gap between central differences and eval_derivative
    at the junctions, over derivative orders 0..m.

    The step starts at 1e-5 and adapts in both directions: high orders
    need a coarser step before rounding noise wins.  Derivatives of order
    m+1 jump at the junctions, which leaves an O(h) term in the plain
    central stencil; the paired evaluation at h and h/2 extrapolates it
    away.
    """
    steps = 1e-5 * 2.0 ** np.arange(-8, 13)
    worst = 0.0
    for x0 in (0.5, fn.spec.a):
        for j in range(fn.spec.m + 1):
            exact = fn.eval_derivative(x0, j)
            best = np.inf
            for h in steps:
                coarse = central_fd(fn, x0, j, h)
                fine = central_fd(fn, x0, j, h / 2.0)
                for fd in (coarse, 2.0 * fine - coarse):
                    best = min(best, abs(fd - exact) / max(1.0, abs(exact)))
            worst = max(worst, best)
    return worst


@pytest.mark.parametrize("m,p", [(0, 0.5), (1, 1.5), (2, 2.5), (2, 4.0)])
def test_finite_differences_agree_at_junctions(m, p):
    # an independent cross-check of the exact junction_mismatch: difference quotients
    # see only G's values, never the bridge coefficients
    fn = build_blowup(BlowupSpec(m=m, p=p, C=1.0))
    assert fd_junction_mismatch(fn) <= 1e-4
    assert fn.junction_mismatch <= 1e-12


@pytest.mark.parametrize("m,p", [(0, 0.5), (1, 1.5), (2, 2.5), (2, 4.0)])
def test_record_catches_a_perturbed_bridge(monkeypatch, m, p):
    # raising one coefficient by 1e-6 of itself keeps G >= x^2 on the bridge,
    # so the build succeeds and only junction_mismatch can see the fault
    exact = blowup_module._bridge_polynomial
    for i in range(2 * m + 2):
        def perturbed(spec, C, i=i):
            coef = list(exact(spec, C))
            coef[i] += 1e-6 * abs(coef[i])
            return tuple(coef)
        monkeypatch.setattr(blowup_module, "_bridge_polynomial", perturbed)
        fn = build_blowup(BlowupSpec(m=m, p=p, C=1.0))
        assert fn.junction_mismatch > 1e-8, i


@pytest.mark.parametrize("m,p", [(0, 0.5), (1, 1.5), (2, 2.5)])
def test_weighted_blowup_increases(m, p):
    fn = build_blowup(BlowupSpec(m=m, p=p, C=1.0))
    xs = 1.0 - 2.0 ** -np.arange(5, 21)
    weighted = (1.0 - xs) ** m * fn.eval(xs)
    assert np.all(np.diff(weighted) > 0)


def test_auto_tail_constant():
    fn = build_blowup(BlowupSpec(m=1, p=1.5))
    assert fn.spec.C == 1.0
    assert np.log2(fn.spec.C) == int(np.log2(fn.spec.C))


def test_domination_violated_for_small_c():
    with pytest.raises(bl.DominationViolated):
        build_blowup(BlowupSpec(m=0, p=0.5, C=0.05))


def test_msmooth_bridge_keeps_low_order():
    # junctions can be made C^6 while the certified order stays m=0
    fn = build_blowup(BlowupSpec(m=0, p=0.5, C=1.0, msmooth=6))
    assert fn.domination_margin >= -1e-12
    with pytest.raises(bl.OrderTooHigh):
        fn.eval_derivative(0.3, 1)


def test_spec_serialization():
    assert BlowupSpec(m=1, p=1.5, C=1.0).to_dict() == {
        "m": 1, "p": 1.5, "C": 1.0, "a": 0.75, "msmooth": 1}
    assert BlowupSpec(m=0, p=0.5, C=2.0, msmooth=6).to_dict()["msmooth"] == 6

