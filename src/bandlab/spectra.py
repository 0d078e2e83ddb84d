"""Dense Hermitian eigensolves and band structures over k-point sets."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fiber import Scheme, assemble
from .lattice import KPointSet, Lattice, digest_of
from .potential import FourierPotential


class SolverFailure(RuntimeError):
    """Eigensolver did not converge or produced out-of-tolerance residuals."""


class BandCountExceedsBasis(ValueError):
    """More bands requested than plane waves available at some k."""


@dataclass(frozen=True)
class EigenSolution:
    values: np.ndarray            # ascending, multiplicities counted
    vectors: np.ndarray | None    # orthonormal columns, matching order
    residual_bound: float | None  # max ||Hv - lv|| / (1 + |l|) when vectors kept


_GRADED_RATIO = 1e8  # diagonal entries this far above the rest are split off


def _graded_split(H: np.ndarray) -> np.ndarray | None:
    """Indices of hugely dominant diagonal entries, or None if well scaled.

    A blown-up dispersion produces diagonal entries many orders of magnitude
    above everything else.  A dense solve then carries an absolute error of
    order eps * max(diag) into every eigenvalue, destroying the low bands;
    those entries are handled separately instead.
    """
    d = np.real(np.diag(H)).copy()
    # |H - diag(H)| in one real temporary; the diagonal keeps |h - h|, which
    # is nan for a non-finite h
    off = np.abs(H)
    off.flat[:: H.shape[0] + 1] = np.abs(np.diag(H) - np.diag(H))
    scale = max(1.0, float(np.max(off)) if off.size else 0.0)
    steep = d > _GRADED_RATIO * scale
    if not steep.any() or np.all(steep):
        return None
    # the mild block must also stay well below the steep entries
    if np.max(d[~steep]) > 1e-2 * np.min(d[steep]):
        return None
    return np.nonzero(steep)[0]


def _eigh_graded(H: np.ndarray, steep: np.ndarray, take: int, want_vectors: bool):
    """Exact Schur-complement solve for the low eigenpairs of a graded matrix.

    With H = [[A, B], [B*, D]] and D holding the huge diagonal entries, the
    low eigenvalues are the fixed points of lam -> eig_i(A - B (D-lam)^-1 B*).
    All matrices involved are well scaled, so the dense solve on the reduced
    block is accurate; the iteration contracts at rate ||B||^2 / D^2.
    """
    n = H.shape[0]
    mild = np.setdiff1d(np.arange(n), steep)
    A = H[np.ix_(mild, mild)]
    B = H[np.ix_(mild, steep)]
    D = np.real(np.diag(H))[steep]

    def reduced(lam: float) -> np.ndarray:
        return A - (B / (D - lam)) @ B.conj().T

    values = np.empty(take)
    vectors = np.empty((n, take), dtype=H.dtype) if want_vectors else None
    for i in range(take):
        lam = 0.0
        for _ in range(40):
            new = np.linalg.eigvalsh(reduced(lam))[i]
            if abs(new - lam) <= 1e-15 * (1.0 + abs(new)):
                lam = new
                break
            lam = new
        values[i] = lam
        if want_vectors:
            _, vecs = np.linalg.eigh(reduced(lam))
            vm = vecs[:, i]
            vs = -(B.conj().T @ vm) / (D - lam)
            full = np.zeros(n, dtype=H.dtype)
            full[mild], full[steep] = vm, vs
            vectors[:, i] = full / np.linalg.norm(full)
    return values, vectors


def eigh(H: np.ndarray, n_lowest: int | None = None, want_vectors: bool = False) -> EigenSolution:
    """Lowest eigenpairs of a dense Hermitian matrix, ascending.

    Accepts a FiberMatrix or a plain Hermitian array.  Ordinary matrices go
    through a dense full solve and get truncated.  Strongly graded matrices
    (blown-up kinetic entries far above the rest) are reduced by an exact
    Schur complement first, because the dense solve alone cannot deliver the
    residual tolerance for the low bands there.
    """
    H = np.asarray(getattr(H, "entries", H))
    n = H.shape[0]
    take = n if n_lowest is None else int(n_lowest)
    if not 1 <= take <= n:
        raise ValueError(f"n_lowest must be in [1, {n}], got {n_lowest}")
    steep = _graded_split(H)
    try:
        if steep is not None and take <= n - steep.size:
            vals, vecs = _eigh_graded(H, steep, take, want_vectors)
        elif want_vectors:
            vals, vecs = np.linalg.eigh(H)
            vals, vecs = vals[:take], vecs[:, :take]
        else:
            vals, vecs = np.linalg.eigvalsh(H)[:take], None
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"eigensolver failed: {exc}") from exc
    residual = None
    if vecs is not None:
        res = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
        residual = float(np.max(res / (1.0 + np.abs(vals))))
        if residual > 1e-10:
            raise SolverFailure(f"residual bound {residual:.3e} exceeds 1e-10")
    return EigenSolution(values=vals, vectors=vecs, residual_bound=residual)


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


def compute_bands(lat: Lattice, V: FourierPotential, kset: KPointSet, Ec: float,
                  scheme: Scheme, n_bands: int, threads: int = 1) -> BandStructure:
    """Solve the fiber problem at every k of the set.

    Raises BandCountExceedsBasis naming the first offending k when the
    requested band count cannot be represented there.  Rows are written by
    k index, so threading never changes the result.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    nk = len(kset)
    energies = np.empty((nk, n_bands))

    def solve(i: int) -> None:
        fib = assemble(lat, V, kset.points[i], Ec, scheme)
        if len(fib) < n_bands:
            raise BandCountExceedsBasis(
                f"{n_bands} bands requested but only {len(fib)} plane waves "
                f"at k={kset.points[i]} (Ec={Ec:g})"
            )
        energies[i] = eigh(fib.entries, n_lowest=n_bands).values

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(solve, range(nk)))
    else:
        for i in range(nk):
            solve(i)

    meta = {
        "lattice_digest": digest_of(lat.to_dict()),
        "potential_digest": V.digest(),
        "Ec": float(Ec),
        "scheme": scheme.tag,
        "n_bands": int(n_bands),
    }
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
