"""Hermitian eigensolves and band structures over k-point sets.

`eigh` is the one place that picks the solver, per matrix:

* block   : order M >= _BLOCK_MIN_ORDER (measured crossover, 200) and few
            bands, i.e. n_lowest + _BLOCK_GUARD <= M // _BLOCK_MIN_RATIO (at
            M = 377, 701 and 1085 block and dense take the same time when
            the block holds about M / 16 vectors); _tries_block is that
            test, for eigh and for the stacks of compute_bands alike.  A
            numpy LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) with the
            diagonal preconditioner 1 / (|diag(H) - theta| + 1).  It only
            multiplies H by thin blocks, so H is never copied, and it is
            accurate on graded matrices too: a blown-up diagonal entry D
            enters the low bands only through |B|^2 / D.  Once the first
            guard column shows a gap, only it and the requested pairs take
            search directions; the other guard vectors ride along in every
            Rayleigh-Ritz step.
* graded  : otherwise, when a few diagonal entries sit 1e8 times above the
            off-diagonal scale, a stacked Schur route: one eigvalsh of the
            Schur complement S(0) for all bands of all such members of a
            stack, each value with a checked Weyl bound; only the pairs
            whose bound exceeds 1e-10 take fixed-point steps.
* dense   : otherwise, one LAPACK eigvalsh of the whole matrix, shared
            by the plain members of a stack.

Every solve returns one output, EigenSolution(values, bounds): the lowest
eigenvalues of each member and an absolute error bound per member.  The
block path bounds by min(||R||_F^2 / eta, max ||r_i||) (see _ritz_bound),
the graded route by its Weyl or contraction bound, each plus 16 eps times a
norm of the matrix its LAPACK eigensolve works on (_LAPACK_ROUNDING), and a
plain dense solve by that rounding term alone.

The block path stops when every requested pair has relative residual
||Hx - theta x|| / (1 + |theta|) <= 1e-10, or as soon as the quadratic
eigenvalue bound ||R||_F^2 / eta, with the gap eta read from the first guard
column, is <= 1e-10 (an eigenvalue error is quadratic in the residual).
H @ X follows the Ritz rotations instead of being recomputed, and each
column carries a bound on its drift from an explicit product, the
rotations' rounding (after Duersch, Shao, Yang and Gu, SIAM J. Sci.
Comput. 40, 2018).  A stop is taken as it stands when the
rule still holds with every residual norm widened by that drift and by
||X^H X - I|| max|theta|, and the reported bounds use the widened norms;
otherwise it is confirmed on an explicit H @ X.  A cold start is unit
vectors on the smallest diagonal entries plus a random block passed twice
through the preconditioner.  If the block path does not stop within
_BLOCK_MAX_ITER iterations, the member goes through the graded/dense route
instead, in one dense call with every other member of its stack the block
path did not serve.

Time reversal: H(-k) = conj(P H(k) P^T), with P mapping G to -G, in all
three schemes (the fiber uses the Hermitian part of the potential, and its
diagonal depends on |k + G| alone).  So the final Ritz block X of k, mapped
by G -> -G and conjugated, spans the lowest invariant subspace at -k.  In a
stacked fiber, member b starts from conj(X_{b-1}[rows]) instead of the cold
start when k_b = -k_{b-1} within _PAIR_TOL and every -G of member b is a row
of member b - 1; every other member starts cold.  The warm start is only a
start: the member is solved and checked like any other, with its own
Rayleigh-Ritz values and its own bound, and a poor start just costs
iterations.  compute_bands puts each k of a block-path size next to its
partner -k in a 2-member stack, so the partner usually takes one table
product: the first Rayleigh-Ritz step already meets the stop rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fiber import FiberMatrix, Scheme, _diagonal, _rows, assemble
from .lattice import EmptyBasis, KPointSet, Lattice, _bases
from .potential import FourierPotential


class SolverFailure(RuntimeError):
    """No eigenvalues with a finite error bound: a matrix with a nan or inf
    entry, a LAPACK failure, or a Schur fixed point that does not meet its
    bound."""


class BandCountExceedsBasis(ValueError):
    """More bands requested than plane waves available at some k."""


@dataclass(frozen=True)
class EigenSolution:
    values: np.ndarray  # ascending, multiplicities counted; (B, n) for a stack
    bounds: np.ndarray  # (B,) eigenvalue error bound per member; 0-d for one


_RESIDUAL_TOL = 1e-10
_EPS = np.finfo(float).eps
# LAPACK's eigenvalue error in units of eps ||A|| (Gershgorin), measured
# against 40-digit references: up to 5.6 on dense matrices of order 2-8 and
# 6.7 on Schur complements of order 2-6; the order-114 grid2d fiber below the
# graded split is 3 off the Schur reference.  It does not grow with the
# order, so every LAPACK eigensolve's bound carries this fixed multiple.
_LAPACK_ROUNDING = 16
_BLOCK_MIN_ORDER = 200  # block solver from this order on (measured crossover)
_BLOCK_MIN_RATIO = 16   # ... while its block holds at most M // 16 vectors (measured tie)
_BLOCK_GUARD = 4        # extra vectors, so clusters at the band edge converge
_BLOCK_MAX_ITER = 200   # beyond this the matrix goes through the dense path
_DRIFT_ROUNDING = 2     # margin on the K eps rounding bound of a Ritz rotation
_SKEW_TOL = 1e-12       # a stop skips the confirming product only while ||X^H X - I|| <= this
_PAIR_TOL = 1e-9        # k and k' are partners when k + k' is 0 within this
_STACK_BUDGET = 2**15   # index entries B * M * (M + n_coef) of one stacked solve (measured)


def _cholesky_qr(V: np.ndarray) -> np.ndarray:
    """Orthonormal columns V L^-H, with L L^H = V^H V."""
    return V @ np.linalg.inv(np.linalg.cholesky(V.conj().T @ V)).conj().T


def _orthonormal_complement(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Columns of V made orthogonal to the orthonormal X, then orthonormal.

    Projection and Cholesky-QR run twice: the second pass removes what the
    first Cholesky factor amplified when V was ill-conditioned.  Zero columns
    (a search direction that vanished exactly) are dropped.
    """
    norms = np.linalg.norm(V, axis=0)
    V = V[:, norms > 0] / norms[norms > 0]
    for _ in range(2):
        V = _cholesky_qr(V - X @ (X.conj().T @ V))
    return V


def _rayleigh_ritz(S: np.ndarray, AS: np.ndarray, drift: np.ndarray, count: int):
    """The lowest `count` Ritz pairs of H on the orthonormal columns of S, given
    AS = H @ S up to a column drift ||AS_j - H S_j|| <= drift_j: (values,
    coefficients C, S @ C, AS @ C, and the drift bound of AS @ C).

    The rotation carries the drift over as drift @ |C| and adds its own
    rounding, at most K eps sum_i ||AS_i|| |C_ij| for K columns (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.5), times
    _DRIFT_ROUNDING."""
    G = S.conj().T @ AS
    theta, C = np.linalg.eigh(0.5 * (G + G.conj().T))
    C = C[:, :count]
    # column norms from real squares: np.linalg.norm(AS, axis=0) makes two
    # complex copies of AS, which put cubic3d peak RSS 0.5 MiB higher
    norms = np.sqrt(np.sum(AS.real**2 + AS.imag**2, axis=0))
    rounding = _DRIFT_ROUNDING * AS.shape[1] * _EPS * norms
    return theta[:count], C, S @ C, AS @ C, (drift + rounding) @ np.abs(C)


def _ritz_bound(theta: np.ndarray, norms: np.ndarray, take: int, slack: float = 0.0) -> float:
    """Error bound of the lowest `take` Ritz values theta (ascending, from an
    orthonormal block with residual norms `norms`, one guard column at least):
    min(beta, max ||r_i||) + rounding over the `take` pairs.

    beta = ||R_take||_F^2 / eta is the quadratic residual bound (Kato,
    J. Phys. Soc. Japan 4, 334, 1949; Mathias, SIAM J. Matrix Anal. Appl. 19,
    1998), with the gap eta = theta_{take+1} - ||r_{take+1}|| - theta_take
    read from the first guard column; beta is +inf when eta <= 0, e.g. when
    `take` cuts a degenerate multiplet.  It holds for Rayleigh quotients; a
    `slack` >= |theta_i - x_i^H H x_i| (a drifted H @ X, a skew X) adds to it
    and comes off the gap.  Both terms assume that no eigenvalue
    was missed: none lies below theta_{take+1} - ||r_{take+1}|| beyond the
    `take` found.  rounding = _LAPACK_ROUNDING eps max|theta| covers the
    Rayleigh-Ritz eigh.
    """
    rounding = _LAPACK_ROUNDING * _EPS * np.max(np.abs(theta))
    eta = theta[take] - norms[take] - theta[take - 1] - slack
    beta = np.sum(norms[:take] ** 2) / eta + slack if eta > 0 else np.inf
    return float(min(beta, np.max(norms[:take]))) + rounding


def _tries_block(n: int, take: int) -> bool:
    """Whether eigh tries the block solver for the lowest `take` pairs of a
    matrix of order n."""
    return n >= _BLOCK_MIN_ORDER and take + _BLOCK_GUARD <= n // _BLOCK_MIN_RATIO


def _eigh_block(H, take: int, diag: np.ndarray | None = None,
                start: np.ndarray | None = None):
    """Lowest `take` eigenvalues by LOBPCG: (values, eigenvalue bound, final
    Ritz block).

    H is the (M, M) matrix, or, with its real diagonal `diag` given, a
    function X -> H @ X such as a fiber member's table product.

    The block X holds take + _BLOCK_GUARD vectors.  It starts from `start`
    when given (eigh passes a time-reversed partner's final block), and
    otherwise from unit vectors on the smallest diagonal entries plus a
    random block of column norm 0.1, passed twice through the preconditioner
    at theta = min(diag) first, so that it reaches every plane wave but
    sits mostly on the low ones.  Each iteration preconditions the
    residuals of the unconverged columns with 1 / (|diag(H) - theta| + 1),
    orthonormalizes them together with their previous search directions P
    against X (Cholesky-QR), and takes the lowest Ritz pairs of H on X and
    those directions.  While the first guard column shows the gap that
    _ritz_bound reads, theta_take - ||r_take|| > theta_{take-1}, only the
    first take + 1 columns take directions: the other guard columns stay in
    X and in every Rayleigh-Ritz step without directions of their own, as
    in the soft locking of Duersch, Shao, Yang and Gu (SIAM J. Sci. Comput.
    40, 2018).  That keeps the random start's reach into every coset and
    spares H the directions of columns that neither stop rule nor bound
    reads.  Without that gap (early on, or with take inside a multiplet)
    only the residual rule can stop, and its pace rests on the whole block,
    so every unconverged column takes a direction, as it also does when
    the first take + 1 are all below the tolerance but the stop did not
    stand, so that no step is empty.  H multiplies the
    orthonormalized directions, never a tiny vector scaled up, and H @ X
    follows through the Ritz rotations, with a per-column bound on its
    drift from an explicit product (see _rayleigh_ritz).

    It stops once every requested pair has relative residual
    ||r_i|| / (1 + |theta_i|) <= 1e-10, or once the eigenvalue bound of
    _ritz_bound is <= 1e-10: an eigenvalue error is quadratic in the
    residual once a gap is known.  Both rules assume that the block has
    missed no eigenvalue; the random start block guards that.  The stop
    stands when ||X^H X - I|| <= 1e-12 and the rule still holds with each
    ||r_i|| widened by its drift bound and by ||X^H X - I|| max|theta|,
    which _ritz_bound also takes as its slack.  Otherwise X is
    re-orthonormalized and one more Rayleigh-Ritz step on an explicit
    H @ X confirms the stop; the first step is explicit, so a start that is
    already converged stops after one product.  X is re-orthonormalized the
    same way whenever ||X^H X - I|| > 1e-12, stop or not: a skew of 3e-10
    (a nearly dependent search block) holds the residuals of a degenerate
    pair above the tolerance for good.  It returns the values, the
    eigenvalue bound of _ritz_bound over the `take` pairs from the widened
    norms, and the whole final block of take + _BLOCK_GUARD Ritz vectors,
    from which eigh warm-starts a -k partner.
    Returns None instead when that takes more than _BLOCK_MAX_ITER
    iterations, when a residual is not finite, or on a LinAlgError.
    """
    if diag is None:
        H, diag = H.__matmul__, np.real(H.diagonal())
    n, d = diag.shape[0], diag
    nb = take + _BLOCK_GUARD
    if start is None:
        # H and the preconditioner keep every invariant subspace, e.g. the
        # cosets of plane waves a potential on a sublattice does not couple,
        # so each start column gets a component in every plane wave: a fixed
        # random block (fixed seed, so results are reproducible), passed twice
        # through the preconditioner at theta = min(d), so that its mass sits
        # on the low plane waves of every coset, and scaled to column norm 0.1
        Z = np.random.default_rng(0).standard_normal((n, nb)) / ((d - d.min() + 1.0) ** 2)[:, None]
        X = (0.1 / np.linalg.norm(Z, axis=0)) * Z
        X[np.argsort(d, kind="stable")[:nb], np.arange(nb)] += 1.0
    else:
        X = start

    def stops(theta: np.ndarray, norms: np.ndarray, slack: float = 0.0) -> bool:
        return (np.max(norms[:take] / (1.0 + np.abs(theta[:take]))) <= _RESIDUAL_TOL
                or _ritz_bound(theta, norms, take, slack) <= _RESIDUAL_TOL)

    try:
        X = _cholesky_qr(X)
        theta, _, X, AX, drift = _rayleigh_ritz(X, H(X), np.zeros(nb), nb)
        P, explicit = None, True  # explicit: AX is H @ X up to one Rayleigh-Ritz rotation
        for _ in range(_BLOCK_MAX_ITER):
            R = AX - X * theta
            norms = np.linalg.norm(R, axis=0)
            res = norms / (1.0 + np.abs(theta))
            if not np.all(np.isfinite(res)):
                return None
            # a skew X also puts a floor of about ||X^H X - I|| max|theta|
            # under the residuals, so it is re-orthonormalized as for a stop
            skew = np.linalg.norm(X.conj().T @ X - np.eye(nb))
            if skew > _SKEW_TOL or stops(theta, norms):
                # ||H X_j - theta_j X_j|| <= norms_j + drift_j, and a skew X
                # moves each Ritz value by at most ||X^H X - I|| max|theta|
                slack = drift + skew * np.max(np.abs(theta))
                wide, most = norms + slack, np.max(slack[:take + 1])
                if skew <= _SKEW_TOL and stops(theta, wide, most):
                    return theta[:take], _ritz_bound(theta, wide, take, most), X
                if not explicit:
                    X = _cholesky_qr(_cholesky_qr(X))
                    theta, _, X, AX, drift = _rayleigh_ritz(X, H(X), np.zeros(nb), nb)
                    P, explicit = None, True
                    continue
            active = res > _RESIDUAL_TOL
            if np.any(active[:take + 1]) and theta[take] - norms[take] > theta[take - 1]:
                active[take + 1:] = False
            W = R[:, active] / (np.abs(d[:, None] - theta[active]) + 1.0)
            try:
                Q = _orthonormal_complement(W if P is None else np.hstack([W, P[:, active]]), X)
            except np.linalg.LinAlgError:  # nearly dependent: retry without P
                Q = _orthonormal_complement(W, X)
            theta, C, X, AX, drift = _rayleigh_ritz(np.hstack([X, Q]), np.hstack([AX, H(Q)]),
                                                    np.r_[drift, np.zeros(Q.shape[1])], nb)
            P, explicit = Q @ C[nb:], False
    except np.linalg.LinAlgError:
        pass
    return None


_GRADED_RATIO = 1e8  # diagonal entries this far above the rest are split off


def _graded_mask(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, M) mask of the hugely dominant diagonal entries of each member of a
    (B, M, M) stack, all False for a well-scaled member; and the (B,) error
    bound of a plain dense solve of each member: _LAPACK_ROUNDING eps times
    max|d| + (M - 1) * scale, the Gershgorin bound on its norm, which is not
    finite exactly when the member has a non-finite entry.

    A blown-up dispersion produces diagonal entries many orders of magnitude
    above everything else.  A dense solve then carries an absolute error of
    order eps * max(diag) into every eigenvalue, destroying the low bands;
    those entries are handled separately instead.
    """
    B, M = stack.shape[:2]
    d = np.real(np.diagonal(stack, axis1=1, axis2=2))
    # |H - diag(H)| in one real temporary; the diagonal keeps |h - h|, which
    # is nan for a non-finite h, so top is not finite exactly when an entry
    # is not; fmax, like max(1.0, nan), skips a nan
    off = np.abs(stack)
    with np.errstate(invalid="ignore"):  # inf - inf is the intended nan
        off.reshape(B, M * M)[:, :: M + 1] = np.abs(d - d)
    top = off.max(axis=(1, 2))
    scale = np.fmax(1.0, top)
    steep = d > _GRADED_RATIO * scale[:, None]
    # np.maximum keeps a nan, so the bound is not finite where top is not
    bound = _LAPACK_ROUNDING * _EPS * (np.abs(d).max(axis=1) + (M - 1) * np.maximum(1.0, top))
    if not steep.any():
        return steep, bound
    count = np.count_nonzero(steep, axis=1)
    # the mild block must also stay well below the steep entries
    mild_top = np.where(steep, -np.inf, d).max(axis=1)
    steep_low = np.where(steep, d, np.inf).min(axis=1)
    split = (count > 0) & (count < M) & ~(mild_top > 1e-2 * steep_low)
    return steep & split[:, None], bound


def _eigh_schur(stack: np.ndarray, steep: np.ndarray, take: int):
    """Low eigenvalues of graded members, each with the same number of steep
    diagonal entries (mask `steep`), through their Schur complements.

    With H = [[A, B], [B*, D + E]], D the steep diagonal and E the couplings
    among the steep entries, the low eigenvalues are, up to
    ||B||^2 ||E|| / ((D_min - lam) (D_min - lam - ||E||)), the fixed points of
    lam -> eig_i(S(lam)), S(lam) = A - B (D - lam)^-1 B*.  One stacked
    eigvalsh of S(0) serves every band of every member: by Weyl, eig_i(S(0))
    is within ||B||^2 |lam| / (D_min (D_min - lam)) of the fixed point,
    ||B||_F bounding ||B||_2 and ||E||_F bounding ||E||_2.  Only the
    (member, band) pairs whose bound exceeds the residual tolerance iterate,
    stacked; the map contracts with L = ||B||^2 / (D_min - lam)^2, so
    L / (1 - L) |step| bounds the error after a step.  Returns (values,
    bound per member); the bound adds the E term and _LAPACK_ROUNDING eps
    ||S(0)|| (Gershgorin) for the reduced solves.
    """
    G, n = stack.shape[:2]
    order = np.argsort(steep, axis=1, kind="stable")  # mild, then steep, each ascending
    m = n - np.count_nonzero(steep[0])
    members = np.arange(G)[:, None, None]
    mild, top = order[:, :m], order[:, m:]
    A = stack[members, mild[:, :, None], mild[:, None, :]]
    Bc = stack[members, mild[:, :, None], top[:, None, :]]
    Bh = Bc.conj().transpose(0, 2, 1)
    E = stack[members, top[:, :, None], top[:, None, :]]
    D = np.real(np.diagonal(E, axis1=1, axis2=2))
    d_min = D.min(axis=1)[:, None]
    b2 = np.sum(Bc.real**2 + Bc.imag**2, axis=(1, 2))[:, None]  # ||B||_F^2 >= ||B||_2^2
    off = np.abs(E)
    off.reshape(G, -1)[:, :: n - m + 1] = 0.0
    e = np.linalg.norm(off, axis=(1, 2))[:, None]  # ||E||_F of the steep couplings

    def reduced(g, lam: np.ndarray) -> np.ndarray:
        S = (Bc[g] / (D[g] - lam[:, None])[:, None, :]) @ Bh[g]
        return np.subtract(A[g], S, out=S)

    S = reduced(slice(None), np.zeros(G))
    lam = np.linalg.eigvalsh(S)[:, :take]
    gap = d_min - lam
    bound = np.where(gap > 0, b2 * np.abs(lam) / (d_min * gap), np.inf)
    for _ in range(40):
        g, i = np.nonzero(~(bound <= _RESIDUAL_TOL))  # nan fails too
        if not g.size:
            break
        new = np.linalg.eigvalsh(reduced(g, lam[g, i]))[np.arange(g.size), i]
        L = b2[g, 0] / (d_min[g, 0] - new) ** 2
        bound[g, i] = np.where((new < d_min[g, 0]) & (L < 1.0),
                               L / (1.0 - L) * np.abs(new - lam[g, i]), np.inf)
        lam[g, i] = new
    else:
        if np.any(~(bound <= _RESIDUAL_TOL)):
            raise SolverFailure(f"Schur fixed point bound {np.nanmax(bound):.3e} exceeds "
                                f"{_RESIDUAL_TOL:g} after 40 steps")
    gap = d_min - lam
    bound += np.where(gap > e, b2 * e / (gap * (gap - e)), np.inf)
    bound = bound.max(axis=1) + _LAPACK_ROUNDING * _EPS * np.abs(S).sum(axis=2).max(axis=1)
    return lam, bound


def _eigh_dense(stack: np.ndarray, take: int):
    """The dense route on a (B, M, M) stack: (values, eigenvalue bound per
    member).

    Graded members go to _eigh_schur, one call per steep count; the others
    share one LAPACK eigvalsh.  Every member gets what it gets alone, bit for
    bit: a stacked LAPACK call or product computes each member as a single
    one, and a failure in any member fails the stack, as it fails the member.
    A member with a non-finite entry fails.
    """
    B, n = stack.shape[:2]
    steep, bounds = _graded_mask(stack)
    if np.any(~(bounds < np.inf)):
        raise SolverFailure("matrix norm bound is not finite (a nan or inf entry)")
    count = np.count_nonzero(steep, axis=1)
    graded = (count > 0) & (take <= n - count)
    values = np.empty((B, take))
    plain = np.flatnonzero(~graded)
    try:
        if plain.size:
            values[plain] = np.linalg.eigvalsh(stack if plain.size == B else stack[plain])[:, :take]
        if graded.any():
            for c in np.unique(count[graded]):
                idx = np.flatnonzero(graded & (count == c))
                values[idx], bounds[idx] = _eigh_schur(stack[idx], steep[idx], take)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"eigensolver failed: {exc}") from exc
    return values, bounds


def _time_reversed(fib: FiberMatrix, b: int, X: np.ndarray) -> np.ndarray | None:
    """The start block of member b of a stacked fiber, conj(X[rows]) with X
    the final Ritz block of member b - 1 and rows[j] the row of -G_j there;
    None unless |k_b + k_{b-1}| <= _PAIR_TOL max(1, |k_{b-1}|) in every
    coordinate and every -G_j is a row of member b - 1."""
    k_prev, k = fib.k[b - 1], fib.k[b]
    if np.max(np.abs(k + k_prev)) > _PAIR_TOL * max(1.0, np.max(np.abs(k_prev))):
        return None
    coords = fib._stack()
    rows = _rows(coords[b - 1][None], -coords[b][None],
                 np.zeros((1, coords.shape[-1]), dtype=coords.dtype))[0, 0]
    return None if np.any(rows < 0) else X[rows].conj()


def eigh(H, n_lowest: int | None = None) -> EigenSolution:
    """Lowest eigenvalues of a Hermitian matrix, ascending, each member with
    an absolute error bound.

    Accepts a FiberMatrix or a plain Hermitian array.  Large matrices with
    few requested eigenvalues go through the block solver, which applies a
    FiberMatrix from its row table without building its dense `entries`.
    Otherwise, or if that does not converge, ordinary matrices go through a
    dense full solve and get truncated, and strongly graded matrices
    (blown-up kinetic entries far above the rest) are reduced by their
    Schur complements first, because the dense solve alone cannot deliver
    the tolerance for the low bands there.

    A (B, M, M) stack (or a stacked FiberMatrix) gets the same policy member
    by member: the block solver tries each member, and the members it does
    not serve go through one dense route together, where the plain members
    share one LAPACK call and the graded ones one Schur route per steep
    count.  In a stacked FiberMatrix, a block member whose k is the negative
    of the member before starts from that member's time-reversed final block
    (see _time_reversed) when the block path served it; every other member
    gets what it gets alone, bit for bit.  The solution then holds (B, n)
    values and the (B,) bounds.  A single matrix is the B = 1 case, with
    (n,) values and a 0-d bound.
    """
    if isinstance(H, FiberMatrix):
        dims = H.diagonal.shape  # (M,) or (B, M)
    else:
        H = np.asarray(H)
        H = H.astype(np.result_type(H, float), copy=False)  # integers and float32 in double
        dims = H.shape[:-1]
    B, n = math.prod(dims[:-1]), dims[-1]
    take = n if n_lowest is None else int(n_lowest)
    if not 1 <= take <= n:
        raise ValueError(f"n_lowest must be in [1, {n}], got {n_lowest}")
    values, bounds, served = np.empty((B, take)), np.empty(B), np.zeros(B, dtype=bool)
    if _tries_block(n, take):
        last = None  # final Ritz block of member b - 1, when the block path served it
        for b in range(B):
            if isinstance(H, FiberMatrix):
                start = None if last is None else _time_reversed(H, b, last)
                block = _eigh_block(partial(H.apply, member=b), take,
                                    H.diagonal.reshape(B, n)[b], start)
            else:
                block = _eigh_block(H.reshape(B, n, n)[b], take)
            last = None
            if block is not None:
                served[b] = True
                values[b], bounds[b], last = block
    rest = np.flatnonzero(~served)
    if rest.size:
        stack = np.asarray(getattr(H, "entries", H)).reshape(B, n, n)
        values[rest], bounds[rest] = _eigh_dense(stack if rest.size == B else stack[rest], take)
    return EigenSolution(values[0] if len(dims) == 1 else values, bounds.reshape(dims[:-1]))


@dataclass(frozen=True)
class BandStructure:
    lattice: Lattice
    kset: KPointSet
    energies: np.ndarray  # (nk, n_bands), each row ascending
    Ec: float
    scheme: Scheme

    @property
    def n_bands(self) -> int:
        return self.energies.shape[1]


def _chunks(sizes: np.ndarray, n_coef: int, take: int, frac: np.ndarray,
            schemes: int = 1) -> list[np.ndarray]:
    """k indices grouped by basis size M, in ascending M and in k order
    within a size.  Where eigh tries the block path for `take` bands
    (_tries_block), each k forms a 2-member stack with its partner: the first
    later k of the same size whose fractional coordinates `frac` sum with its
    own to 0 within _PAIR_TOL.  A k without one, such as Gamma or a point
    whose partner lies only across a reciprocal vector, is alone.  Elsewhere
    a size is cut into stacks of at most _STACK_BUDGET // (M * (M + n_coef))
    members (one at least), each k counting once per scheme solved on it."""
    order = np.argsort(sizes, kind="stable")
    chunks = []
    for run in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        M = int(sizes[run[0]])
        if _tries_block(M, take):
            f, free = frac[run], np.ones(run.size, dtype=bool)
            for i in range(run.size):
                if free[i]:
                    free[i] = False
                    partner = np.flatnonzero(free & (np.max(np.abs(f + f[i]), axis=1)
                                                     <= _PAIR_TOL))[:1]
                    free[partner] = False
                    chunks.append(run[np.r_[i, partner]])
        else:
            cap = max(1, _STACK_BUDGET // (M * (M + n_coef) * schemes))
            chunks += np.split(run, range(cap, run.size, cap))
    return chunks


def compute_bands(lat: Lattice, V: FourierPotential, kset: KPointSet, Ec: float,
                  scheme: Scheme, n_bands: int, threads: int = 1) -> BandStructure:
    """Solve the fiber problem at every k of the set: the one-scheme call of
    _band_structures, which describes the solve, its errors and its bits."""
    return _band_structures(lat, V, kset, Ec, [scheme], n_bands, threads)[0]


def _band_structures(lat: Lattice, V: FourierPotential, kset: KPointSet, Ec: float,
                     schemes: list, n_bands: int, threads: int = 1) -> list[BandStructure]:
    """compute_bands for each of `schemes` on one k-set, in their order.

    The schemes of one basis mode share the set-up.  One pass over the k-set
    enumerates every basis with its kinetic values (lattice._bases), one
    _diagonal call per scheme turns those into all its kinetic diagonals,
    blow-up included, and one _chunks groups the k-points by basis size.  A
    dense-route stack holds the (scheme, k) members of its k-points, scheme
    after scheme: the k-stack's basis repeated per scheme, each with its
    scheme's diagonal slice, and the stack budget counts every member.
    Where eigh tries the block path, each scheme solves its own +-k pairs,
    so a warm start never crosses schemes.

    Every member is bit-identical to its own single-k solve, except the -k
    partner in a block-path pair: eigh warm-starts it from the first
    member's time-reversed block, and its values lie within its reported
    bound.  If a pair's block solve hits the iteration cap, the dense
    fallback builds `entries` for both members (2 x 16 M^2 bytes).  Raises
    BandCountExceedsBasis naming the first offending k, in k order (for the
    basis mode of the first scheme that has one), when the requested band
    count cannot be represented there, and ValueError for an empty k-set or
    threads < 1; both before any solve.  Rows are written by k index and the
    stacks do not depend on `threads`, so threading never changes the result.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not len(kset):
        raise ValueError("the k-point set is empty")
    points = kset.points
    energies = np.empty((len(schemes), len(kset), n_bands))

    def solve(task) -> None:
        (group, box, rows, starts, diag), members, idx, M = task  # members: positions in group
        ks = np.tile(idx, members.size)  # the k of each member, scheme after scheme
        at = starts[ks, None] + np.arange(M)
        fib = assemble(lat, V, points[ks], Ec, schemes[group[members[0]]], _basis=box[rows[at]],
                       _diag=diag[members.repeat(idx.size)[:, None], at])
        energies[group[members, None], idx] = eigh(fib, n_lowest=n_bands).values.reshape(
            members.size, idx.size, n_bands)

    tasks = []
    for mode in dict.fromkeys(scheme.basis_mode for scheme in schemes):
        group = np.flatnonzero([scheme.basis_mode == mode for scheme in schemes])
        box, rows, sizes, kin = _bases(lat, Ec, points, mode)  # every basis, one pass
        short = np.flatnonzero(sizes < n_bands)
        if short.size:
            k = points[short[0]]
            if sizes[short[0]] == 0:
                raise EmptyBasis(f"no plane wave below Ec={Ec:g} at k={k}")
            raise BandCountExceedsBasis(f"{n_bands} bands requested but only {sizes[short[0]]} "
                                        f"plane waves at k={k} (Ec={Ec:g})")
        # every kinetic diagonal at once, a row per scheme of the group, each
        # written over its own copy of kin
        diag = kin[None] if group.size == 1 else np.tile(kin, (group.size, 1))
        for row, i in zip(diag, group):
            _diagonal(row, Ec, schemes[i])
        setup = (group, box, rows, np.cumsum(sizes) - sizes, diag)
        members = np.arange(group.size)
        for idx in _chunks(sizes, V.hermitian_coeffs[0].shape[0], n_bands,
                           lat.fractional(points.T).T, group.size):
            M = int(sizes[idx[0]])
            tasks += [(setup, m, idx, M) for m in
                      (members[:, None] if _tries_block(M, n_bands) else [members])]
    if threads > 1:
        # imported here: it loads logging and queue, which threads=1 never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(solve, tasks))
    else:
        for task in tasks:
            solve(task)
    return [BandStructure(lattice=lat, kset=kset, energies=e, Ec=float(Ec), scheme=scheme)
            for e, scheme in zip(energies, schemes)]
