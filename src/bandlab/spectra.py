"""Hermitian eigensolves and band structures over k-point sets.

`eigh` is the one place that picks the solver, per matrix:

* block   : order M >= _BLOCK_MIN_ORDER (measured crossover, 200) and few
            bands, i.e. n_lowest + _BLOCK_GUARD <= M // _BLOCK_MIN_RATIO (at
            M = 377, 701 and 1085 block and dense take the same time when
            the block holds about M / 16 vectors).  A numpy LOBPCG (Knyazev,
            SIAM J. Sci. Comput. 23, 2001) with the diagonal preconditioner
            1 / (|diag(H) - theta| + 1).  It only multiplies H by thin
            blocks, so H is never copied, and it is accurate on graded
            matrices too: a blown-up diagonal entry D enters the low bands
            only through |B|^2 / D.
* graded  : otherwise, when a few diagonal entries sit 1e8 times above the
            off-diagonal scale, a stacked Schur route: one eigvalsh of the
            Schur complement S(0) for all bands of all such members of a
            stack, each value with a checked Weyl bound; only the pairs
            whose bound exceeds 1e-10 take fixed-point steps.
* dense   : otherwise, one LAPACK eigvalsh/eigh of the whole matrix, shared
            by the plain members of a stack.

Every member gets an absolute eigenvalue error bound (EigenSolution.bounds):
the block path min(||R||_F^2 / eta, max ||r_i||) (see _ritz_bound) and the
graded route its Weyl or contraction bound, each plus 16 eps times a norm
of the matrix its LAPACK eigensolve works on (_LAPACK_ROUNDING), and a
plain dense solve that rounding term alone.  EigenSolution.residual_bound, the largest
||Hv - lv|| / (1 + |l|), exists only with vectors: it is None whenever no
vectors are kept, on every path.

The block path stops when every requested pair has relative residual
||Hx - theta x|| / (1 + |theta|) <= 1e-10, or, without vectors, as soon as
the quadratic eigenvalue bound ||R||_F^2 / eta, with the gap eta read from
the first guard column, is <= 1e-10 (an eigenvalue error is quadratic in the
residual, a vector's is not).  Either stop is confirmed on an explicit
H @ X from the same product.  If it does not get there within
_BLOCK_MAX_ITER iterations, the member goes through the graded/dense route
instead, in one dense call with every other member of its stack the block
path did not serve.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .fiber import FiberMatrix, Scheme, assemble
from .lattice import KPointSet, Lattice, _basis_coords, _bases, digest_of
from .potential import FourierPotential


class SolverFailure(RuntimeError):
    """Eigensolver did not converge or produced out-of-tolerance residuals."""


class BandCountExceedsBasis(ValueError):
    """More bands requested than plane waves available at some k."""


@dataclass(frozen=True)
class EigenSolution:
    values: np.ndarray            # ascending, multiplicities counted
    vectors: np.ndarray | None    # orthonormal columns, matching order
    residual_bound: float | None  # max ||Hv - lv|| / (1 + |l|); None when no
                                  # vectors are kept
    bounds: np.ndarray            # (B,) eigenvalue error bound per member; 0-d for one


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
_BLOCK_MAX_ITER = 50    # beyond this the matrix goes through the dense path
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


def _rayleigh_ritz(S: np.ndarray, AS: np.ndarray, count: int):
    """The lowest `count` Ritz pairs of H on the orthonormal columns of S, given
    AS = H @ S: (values, coefficients C, S @ C, AS @ C)."""
    G = S.conj().T @ AS
    theta, C = np.linalg.eigh(0.5 * (G + G.conj().T))
    C = C[:, :count]
    return theta[:count], C, S @ C, AS @ C


def _ritz_bound(theta: np.ndarray, norms: np.ndarray, take: int) -> float:
    """Error bound of the lowest `take` Ritz values theta (ascending, from an
    orthonormal block with residual norms `norms`, one guard column at least):
    min(beta, max ||r_i||) + rounding over the `take` pairs.

    beta = ||R_take||_F^2 / eta is the quadratic residual bound (Kato,
    J. Phys. Soc. Japan 4, 334, 1949; Mathias, SIAM J. Matrix Anal. Appl. 19,
    1998), with the gap eta = theta_{take+1} - ||r_{take+1}|| - theta_take
    read from the first guard column; beta is +inf when eta <= 0, e.g. when
    `take` cuts a degenerate multiplet.  Both terms assume that no eigenvalue
    was missed: none lies below theta_{take+1} - ||r_{take+1}|| beyond the
    `take` found.  rounding = _LAPACK_ROUNDING eps max|theta| covers the
    Rayleigh-Ritz eigh.
    """
    rounding = _LAPACK_ROUNDING * _EPS * np.max(np.abs(theta))
    eta = theta[take] - norms[take] - theta[take - 1]
    beta = np.sum(norms[:take] ** 2) / eta if eta > 0 else np.inf
    return float(min(beta, np.max(norms[:take]))) + rounding


def _eigh_block(H, take: int, diag: np.ndarray | None = None, want_vectors: bool = True):
    """Lowest `take` eigenpairs by LOBPCG: (values, vectors or None, residual
    bound, eigenvalue bound).

    H is the (M, M) matrix, or, with its real diagonal `diag` given, a
    function X -> H @ X such as a fiber member's table product.

    The block X holds take + _BLOCK_GUARD vectors and starts from unit
    vectors on the smallest diagonal entries plus a small random block.  Each
    iteration preconditions the residuals of the unconverged columns with
    1 / (|diag(H) - theta| + 1), orthonormalizes them together with the
    previous search directions P against X (Cholesky-QR), and takes the
    lowest Ritz pairs of H on X and those directions.  H multiplies the
    orthonormalized directions, never a tiny vector scaled up, and H @ X
    follows through the Ritz rotations.

    It stops once every requested pair has relative residual
    ||r_i|| / (1 + |theta_i|) <= 1e-10, or, without vectors, once the
    eigenvalue bound of _ritz_bound is <= 1e-10: an eigenvalue error is
    quadratic in the residual once a gap is known, a vector's error is not.
    Both rules assume that the block has missed no eigenvalue; the random
    start block guards that.  Either way X is then re-orthonormalized and
    one more Rayleigh-Ritz step on an explicit H @ X confirms the stop.  It
    returns that eigenvalue bound and the residual bound
    max ||r_i|| / (1 + |theta_i|), both over the `take` pairs.
    Returns None instead when that takes more than _BLOCK_MAX_ITER
    iterations, when a residual is not finite, or on a LinAlgError.
    """
    if diag is None:
        H, diag = H.__matmul__, np.real(H.diagonal())
    n, d = diag.shape[0], diag
    nb = take + _BLOCK_GUARD
    # H and the preconditioner keep every invariant subspace, e.g. the cosets
    # of plane waves a potential on a sublattice does not couple, so each
    # start column gets a component in every plane wave: a fixed random block
    # of column norm about 0.1 (fixed seed, so results are reproducible)
    X = (0.1 / np.sqrt(n)) * np.random.default_rng(0).standard_normal((n, nb))
    X[np.argsort(d, kind="stable")[:nb], np.arange(nb)] += 1.0
    try:
        X = _cholesky_qr(X)
        theta, _, X, AX = _rayleigh_ritz(X, H(X), nb)
        P, explicit = None, True  # explicit: AX is H @ X up to one Rayleigh-Ritz rotation
        for _ in range(_BLOCK_MAX_ITER):
            R = AX - X * theta
            norms = np.linalg.norm(R, axis=0)
            res = norms / (1.0 + np.abs(theta))
            if not np.all(np.isfinite(res)):
                return None
            bound = _ritz_bound(theta, norms, take)
            if np.max(res[:take]) <= _RESIDUAL_TOL or (not want_vectors
                                                       and bound <= _RESIDUAL_TOL):
                if explicit:
                    return (theta[:take], X[:, :take] if want_vectors else None,
                            float(np.max(res[:take])), bound)
                X = _cholesky_qr(_cholesky_qr(X))
                theta, _, X, AX = _rayleigh_ritz(X, H(X), nb)
                P, explicit = None, True
                continue
            active = res > _RESIDUAL_TOL
            W = R[:, active] / (np.abs(d[:, None] - theta[active]) + 1.0)
            try:
                Q = _orthonormal_complement(W if P is None else np.hstack([W, P[:, active]]), X)
            except np.linalg.LinAlgError:  # nearly dependent: retry without P
                Q = _orthonormal_complement(W, X)
            theta, C, X, AX = _rayleigh_ritz(np.hstack([X, Q]), np.hstack([AX, H(Q)]), nb)
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
    count = np.count_nonzero(steep, axis=1)
    # the mild block must also stay well below the steep entries
    mild_top = np.where(steep, -np.inf, d).max(axis=1)
    steep_low = np.where(steep, d, np.inf).min(axis=1)
    split = (count > 0) & (count < M) & ~(mild_top > 1e-2 * steep_low)
    # np.maximum keeps a nan, so the bound is not finite where top is not
    bound = _LAPACK_ROUNDING * _EPS * (np.abs(d).max(axis=1) + (M - 1) * np.maximum(1.0, top))
    return steep & split[:, None], bound


def _eigh_schur(stack: np.ndarray, steep: np.ndarray, take: int, want_vectors: bool):
    """Low eigenpairs of graded members, each with the same number of steep
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
    vectors or None, bound per member); the bound adds the E term and
    _LAPACK_ROUNDING eps ||S(0)|| (Gershgorin) for the reduced solves.
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
    if not want_vectors:
        return lam, None, bound
    # each pair's vector: the i-th eigenvector of S(lam_i) on the mild rows,
    # back-substituted through the whole steep block on the others
    g, i = np.divmod(np.arange(G * take), take)
    vm = np.linalg.eigh(reduced(g, lam[g, i]))[1][np.arange(g.size), :, i]
    shifted = E[g] - lam[g, i][:, None, None] * np.eye(n - m)
    vs = np.linalg.solve(shifted, -(Bh[g] @ vm[:, :, None]))[:, :, 0]
    full = np.concatenate([vm, vs], axis=1)
    vectors = np.empty((G, n, take), dtype=stack.dtype)
    vectors[g[:, None], order[g], i[:, None]] = full / np.linalg.norm(full, axis=1)[:, None]
    return lam, vectors, bound


def _eigh_dense(stack: np.ndarray, take: int, want_vectors: bool):
    """The dense route on a (B, M, M) stack: (values, vectors or None,
    residual bound per member or None, eigenvalue bound per member).

    Graded members go to _eigh_schur, one call per steep count; the others
    share one LAPACK call.  Every member gets what it gets alone, bit for
    bit: a stacked LAPACK call or product computes each member as a single
    one, and a failure in any member fails the stack, as it fails the member.
    A member with a non-finite entry fails; with vectors, the full residual
    ||Hv - lv|| / (1 + |l|) is checked.
    """
    B, n = stack.shape[:2]
    steep, bounds = _graded_mask(stack)
    if np.any(~(bounds < np.inf)):
        raise SolverFailure("matrix norm bound is not finite (a nan or inf entry)")
    count = np.count_nonzero(steep, axis=1)
    graded = (count > 0) & (take <= n - count)
    values = np.empty((B, take))
    vectors = np.empty((B, n, take), dtype=stack.dtype) if want_vectors else None
    plain = np.flatnonzero(~graded)
    try:
        if plain.size:
            sub = stack if plain.size == B else stack[plain]
            if want_vectors:
                vals, vecs = np.linalg.eigh(sub)
                vectors[plain] = vecs[:, :, :take]
            else:
                vals = np.linalg.eigvalsh(sub)
            values[plain] = vals[:, :take]
        for c in np.unique(count[graded]):
            idx = np.flatnonzero(graded & (count == c))
            values[idx], vecs, bounds[idx] = _eigh_schur(stack[idx], steep[idx], take,
                                                         want_vectors)
            if want_vectors:
                vectors[idx] = vecs
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"eigensolver failed: {exc}") from exc
    if not want_vectors:
        return values, None, None, bounds
    res = np.linalg.norm(stack @ vectors - vectors * values[:, None, :], axis=1)
    residuals = np.max(res / (1.0 + np.abs(values)), axis=1)
    if np.any(~(residuals <= _RESIDUAL_TOL)):  # nan fails too
        raise SolverFailure(f"residual bound {np.nanmax(residuals):.3e} exceeds "
                            f"{_RESIDUAL_TOL:g}")
    return values, vectors, residuals, bounds


def eigh(H, n_lowest: int | None = None, want_vectors: bool = False) -> EigenSolution:
    """Lowest eigenpairs of a Hermitian matrix, ascending.

    Accepts a FiberMatrix or a plain Hermitian array.  Large matrices with
    few requested eigenpairs go through the block solver, which applies a
    FiberMatrix from its row table without building its dense `entries`.
    Otherwise, or if that does not converge, ordinary matrices go through a
    dense full solve and get truncated, and strongly graded matrices
    (blown-up kinetic entries far above the rest) are reduced by their
    Schur complements first, because the dense solve alone cannot deliver
    the residual tolerance for the low bands there.

    A (B, M, M) stack (or a stacked FiberMatrix) gets the same policy member
    by member: the block solver tries each member, and the members it does
    not serve go through one dense route together, where the plain members
    share one LAPACK call and the graded ones one Schur route per steep
    count.  The solution then holds (B, n) values, (B, M, n) vectors, the
    (B,) eigenvalue bounds, and, with vectors, the largest member residual
    bound (None without vectors).  A single matrix is the B = 1 case, with
    0-d bounds.
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
    values, bounds, residuals = np.empty((B, take)), np.empty(B), np.empty(B)
    vectors = np.empty((B, n, take), dtype=getattr(H, "dtype", complex)) if want_vectors else None
    served = np.zeros(B, dtype=bool)
    if n >= _BLOCK_MIN_ORDER and take + _BLOCK_GUARD <= n // _BLOCK_MIN_RATIO:
        for b in range(B):
            block = (_eigh_block(partial(H.apply, member=b), take, H.diagonal.reshape(B, n)[b],
                                 want_vectors) if isinstance(H, FiberMatrix)
                     else _eigh_block(H.reshape(B, n, n)[b], take, None, want_vectors))
            if block is not None:
                served[b] = True
                values[b], vecs, residuals[b], bounds[b] = block
                if want_vectors:
                    vectors[b] = vecs
    rest = np.flatnonzero(~served)
    if rest.size:
        stack = np.asarray(getattr(H, "entries", H)).reshape(B, n, n)
        values[rest], vecs, res, bounds[rest] = _eigh_dense(
            stack if rest.size == B else stack[rest], take, want_vectors)
        if want_vectors:
            vectors[rest], residuals[rest] = vecs, res
    residual = float(residuals.max()) if want_vectors else None
    if len(dims) == 1:
        values, vectors = values[0], None if vectors is None else vectors[0]
    return EigenSolution(values, vectors, residual, bounds.reshape(dims[:-1]))


@dataclass(frozen=True)
class BandStructure:
    lattice: Lattice
    kset: KPointSet
    energies: np.ndarray  # (nk, n_bands), each row ascending
    Ec: float
    scheme: Scheme
    metadata: dict = field(default_factory=dict)

    @property
    def n_bands(self) -> int:
        return self.energies.shape[1]


def _chunks(sizes: np.ndarray, n_coef: int) -> list[np.ndarray]:
    """k indices grouped by basis size M, in ascending M and in k order
    within a size, and cut into stacks of at most
    _STACK_BUDGET // (M * (M + n_coef)) members (one at least)."""
    order = np.argsort(sizes, kind="stable")
    chunks = []
    for run in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        M = int(sizes[run[0]])
        cap = max(1, _STACK_BUDGET // (M * (M + n_coef)))
        chunks += np.split(run, range(cap, run.size, cap))
    return chunks


def compute_bands(lat: Lattice, V: FourierPotential, kset: KPointSet, Ec: float,
                  scheme: Scheme, n_bands: int, threads: int = 1) -> BandStructure:
    """Solve the fiber problem at every k of the set.

    The k-points are grouped by basis size and each group is assembled and
    solved as stacks (see _chunks), each member bit-identical to its own
    single-k solve.  Raises BandCountExceedsBasis naming the first offending
    k, in k order, when the requested band count cannot be represented
    there, and ValueError for an empty k-set or threads < 1.  Rows are
    written by k index and the stacks do not depend on `threads`, so
    threading never changes the result.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not len(kset):
        raise ValueError("the k-point set is empty")
    points = kset.points
    energies = np.empty((len(kset), n_bands))
    # every basis from one pass; the uniform basis is the k-dependent one at
    # k = 0, for every k
    box, rows, sizes = _bases(lat, Ec, points if scheme.basis_mode == "kdependent"
                              else np.zeros_like(points))
    short = np.flatnonzero(sizes < n_bands)
    if short.size:
        k = points[short[0]]
        if sizes[short[0]] == 0:
            _basis_coords(lat, k, Ec, scheme.basis_mode)  # raises EmptyBasis for this k
        raise BandCountExceedsBasis(
            f"{n_bands} bands requested but only {sizes[short[0]]} plane waves "
            f"at k={k} (Ec={Ec:g})"
        )
    starts = np.cumsum(sizes) - sizes

    def solve(idx: np.ndarray) -> None:
        basis = box[rows[starts[idx, None] + np.arange(sizes[idx[0]])]]
        fib = assemble(lat, V, points[idx], Ec, scheme, _basis=basis)
        energies[idx] = eigh(fib, n_lowest=n_bands).values

    chunks = _chunks(sizes, V.hermitian_coeffs[0].shape[0])
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(solve, chunks))
    else:
        for idx in chunks:
            solve(idx)

    meta = {
        "lattice_digest": digest_of(lat.to_dict()),
        "potential_digest": V.digest(),
        "Ec": float(Ec),
        "scheme": scheme.tag,
        "n_bands": int(n_bands),
    }
    if scheme.blowup is not None:  # the resolved spec, with its tail constant C
        meta["blowup"] = scheme.blowup.spec.to_dict()
    return BandStructure(lattice=lat, kset=kset, energies=energies, Ec=float(Ec),
                         scheme=scheme, metadata=meta)


def bands_to_csv(bands: BandStructure, path) -> None:
    """CSV with fractional k columns then band columns, full double precision."""
    d = bands.lattice.dim
    header = [f"k_frac_{i + 1}" for i in range(d)] + [
        f"band_{n + 1}" for n in range(bands.n_bands)
    ]
    lines = [",".join(header)]
    for k, row in zip(bands.kset.points, bands.energies):
        frac = bands.lattice.fractional(k)
        cells = [f"{v:.17g}" for v in frac] + [f"{v:.17g}" for v in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
