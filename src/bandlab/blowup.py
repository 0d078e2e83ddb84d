"""Blow-up reshaping of the plane-wave kinetic profile.

The modified scheme replaces the dispersion x^2 by a function G that agrees
with x^2 on [0, 1/2] and on [1, inf), but diverges as x -> 1^- so that plane
waves about to leave the variational space become energetically inaccessible.
The realization used here is piecewise:

    x^2                     on [0, 1/2]
    bridge polynomial       on (1/2, a)
    C * (1 - x)^(-p)        on [a, 1)

extended evenly to x < 0.  The bridge is the Hermite interpolant matching
derivatives 0..msmooth of x^2 at 1/2 and of the tail at a, so the junctions
are C^msmooth.  The order parameter m certifies the achievable band
regularity; it requires p > m, otherwise (1-x)^m * G(x) would stay bounded
near 1 and the construction loses its purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import _whole


class IllPosedSpec(ValueError):
    """Blow-up parameters violate the construction's preconditions."""


class DominationViolated(ValueError):
    """G(x) >= x^2 fails somewhere on (1/2, 1)."""


class SingularArgument(ValueError):
    """Evaluation exactly at |x| = 1, where the tail diverges."""


class OrderTooHigh(ValueError):
    """Derivative order exceeds the certified smoothness order m."""


_DOMINATION_SAMPLES = 10**4
_AUTO_C_LADDER = [float(2**j) for j in range(0, 41)]


@dataclass(frozen=True)
class BlowupSpec:
    m: int
    p: float
    C: float | None = None   # None: smallest power of two passing domination
    a: float = 0.75
    msmooth: int | None = None  # junction smoothness order, defaults to m

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "p": self.p,
            "C": self.C,
            "a": self.a,
            "msmooth": self.m if self.msmooth is None else self.msmooth,
        }

    def validate(self) -> None:
        """IllPosedSpec naming the first field out of range.  The comparisons
        are written so that a NaN fails them."""
        for name in ("m", "msmooth"):
            value = getattr(self, name)
            if value is not None and not _whole(value):
                raise IllPosedSpec(f"{name} must be an integer, got {value!r}")
        if self.m < 0:
            raise IllPosedSpec(f"m must be >= 0, got {self.m}")
        if not self.p < math.inf:
            raise IllPosedSpec(f"p must be a finite number, got {self.p:g}")
        if not self.p > self.m:
            raise IllPosedSpec(
                f"p={self.p:g} <= m={self.m}: the weighted tail (1-x)^m G(x) "
                "would not diverge"
            )
        if not 0.5 < self.a < 1.0:
            raise IllPosedSpec(f"junction a must lie in (1/2, 1), got {self.a:g}")
        if self.C is not None and not 0 < self.C < math.inf:
            raise IllPosedSpec(f"tail constant C must be positive and finite, got {self.C:g}")
        if self.msmooth is not None and self.msmooth < self.m:
            raise IllPosedSpec(
                f"msmooth={self.msmooth} < m={self.m} cannot match enough derivatives"
            )


def _square_derivative(x, order: int):
    """order-th derivative of x^2; order 0 is the value."""
    return math.perm(2, order) * x ** (2 - order) if order <= 2 else 0.0


def _tail_derivative(C: float, p: float, x, order: int):
    """order-th derivative of C*(1-x)^(-p); order 0 is the value."""
    factor = C * float(np.prod(p + np.arange(order)))
    return factor * (1.0 - x) ** (-p - order)


def _horner(coef, u):
    """sum_i coef[i] u^i by Horner's rule, in the operation order of numpy's
    polyval, so a value equals Polynomial(coef)(u) to the bit for u >= 0."""
    value = coef[-1] + u * 0
    for c in coef[-2::-1]:
        value = c + value * u
    return value


def _derivative(coef, order: int) -> np.ndarray:
    """Coefficients of the order-th derivative, as numpy's polyder computes
    them (order below len(coef))."""
    c = np.asarray(coef, dtype=float)
    for _ in range(order):
        c = c[1:] * np.arange(1, len(c))
    return c


def _bridge_polynomial(spec: BlowupSpec, C: float) -> tuple:
    """Hermite interpolant on [1/2, a] in the scaled variable u=(x-1/2)/(a-1/2),
    as its coefficients, lowest degree first."""
    M = spec.m if spec.msmooth is None else spec.msmooth
    s = spec.a - 0.5
    degree = 2 * M + 1
    A = np.zeros((degree + 1, degree + 1))
    rhs = np.zeros(degree + 1)
    for j in range(M + 1):
        # q^(j)(0) = j! c_j   and   q^(j)(1) = sum_i i!/(i-j)! c_i
        A[j, j] = math.factorial(j)
        A[M + 1 + j] = [math.perm(i, j) for i in range(degree + 1)]
        rhs[j] = s**j * _square_derivative(0.5, j)
        rhs[M + 1 + j] = s**j * _tail_derivative(C, spec.p, spec.a, j)
    return tuple(np.linalg.solve(A, rhs).tolist())


@dataclass(frozen=True)
class BlowupFunction:
    spec: BlowupSpec          # with the resolved tail constant
    bridge: tuple             # coefficients in u = (x - 1/2)/(a - 1/2)

    def eval(self, x):
        """G(x) for scalar or array input; even in x."""
        return self.eval_derivative(x, 0)

    def eval_derivative(self, x, order: int):
        """order-th derivative (order <= m); even extension to x < 0."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order > self.spec.m:
            raise OrderTooHigh(
                f"order {order} exceeds the certified smoothness m={self.spec.m}"
            )
        arr = np.asarray(x, dtype=float)
        y = np.abs(arr)
        if np.any(y == 1.0):
            raise SingularArgument("G is singular at |x| = 1")
        sign = np.where(arr < 0, (-1.0) ** order, 1.0)
        out = np.full_like(y, np.nan)  # NaN input matches no piece
        quad = (y <= 0.5) | (y > 1.0)
        out[quad] = _square_derivative(y[quad], order)
        mid = (y > 0.5) & (y < self.spec.a)
        s = self.spec.a - 0.5
        out[mid] = _horner(_derivative(self.bridge, order), (y[mid] - 0.5) / s) / s**order
        tail = (y >= self.spec.a) & (y < 1.0)
        out[tail] = _tail_derivative(self.spec.C, self.spec.p, y[tail], order)
        out = sign * out
        return float(out) if arr.ndim == 0 else out

    @property
    def domination_margin(self) -> float:
        """Least G(x) - x^2 over 10^4 samples of (1/2, 1)."""
        xs = np.linspace(0.5, 1.0, _DOMINATION_SAMPLES + 1, endpoint=False)[1:]
        return float(np.min(self.eval(xs) - xs**2))

    @property
    def junction_mismatch(self) -> float:
        """Worst relative gap, over orders 0..m, between the bridge's end
        derivatives and eval_derivative at x = 1/2 and x = a, where it takes
        the quadratic and tail branches that assembly calls."""
        s = self.spec.a - 0.5
        junctions = np.array([0.5, self.spec.a])
        worst = 0.0
        for j in range(self.spec.m + 1):
            ends = _horner(_derivative(self.bridge, j), np.array([0.0, 1.0])) / s**j
            want = self.eval_derivative(junctions, j)
            worst = max(worst, float(np.max(np.abs(ends - want) / np.maximum(1.0, np.abs(want)))))
        return worst


def _weighted_tail_grows(fn: BlowupFunction) -> bool:
    """Whether (1 - x)^m G(x) increases strictly on x = 1 - 2^-j for sixteen
    consecutive j from j = 5, or from the first j with x in the tail [a, 1).

    In the tail the weighted value is C 2^(j (p - m)), so each step
    multiplies it by 2^(p - m): p > m is the divergence that p certifies,
    and for p within rounding of m that factor rounds to 1 and the growth
    cannot be seen in double precision.
    """
    first = max(5, math.ceil(-math.log2(1.0 - fn.spec.a)))
    xs = 1.0 - 2.0 ** -np.arange(first, first + 16)
    return bool(np.all(np.diff((1.0 - xs) ** fn.spec.m * fn.eval(xs)) > 0))


def build_blowup(spec: BlowupSpec) -> BlowupFunction:
    """Construct and validate the piecewise blow-up function for a spec.

    With spec.C = None, the smallest tail constant in 1, 2, 4, ... passing
    the sampled domination check is selected.  An explicit C that fails
    domination raises DominationViolated.  A spec whose weighted tail
    (1 - x)^m G(x) does not grow strictly in double precision, p within
    rounding of m, raises IllPosedSpec.  The junction match is not checked
    here: read the junction_mismatch property for it.
    """
    spec.validate()
    candidates = [spec.C] if spec.C is not None else _AUTO_C_LADDER
    for C in map(float, candidates):
        fn = BlowupFunction(spec=replace(spec, C=C), bridge=_bridge_polynomial(spec, C))
        if fn.domination_margin >= -1e-12:
            if not _weighted_tail_grows(fn):
                raise IllPosedSpec(
                    f"p={spec.p:.17g} is within rounding of m={spec.m}: the weighted tail "
                    "(1-x)^m G(x) does not grow in double precision"
                )
            return fn
    raise DominationViolated(
        f"G(x) >= x^2 fails on (1/2, 1) for m={spec.m}, p={spec.p:g}, "
        f"a={spec.a:g}" + (f", C={spec.C:g}" if spec.C is not None else "")
    )
