"""Periodic lattices, reciprocal bases and plane-wave index sets.

Conventions used throughout the package:

* the primitive matrix stores the lattice vectors a_i as columns,
* the reciprocal matrix stores b_j as columns with a_i . b_j = 2*pi*delta_ij,
* a plane-wave frequency G is addressed by its integer coordinates
  (n_1, ..., n_d) with G = sum_i n_i b_i; the tuple of ints is called a
  G-index below,
* plane-wave selection always uses the strict inequality
  0.5*|k+G|^2 < Ec so that the blow-up argument stays inside [0, 1).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

GIndex = tuple  # integer coordinate tuple of a reciprocal lattice vector


class SingularLattice(ValueError):
    """Primitive matrix is numerically singular."""


class EmptyBasis(ValueError):
    """No plane wave satisfies the cutoff inequality."""


@dataclass(frozen=True)
class Lattice:
    dim: int
    primitive: np.ndarray   # (d, d), columns a_i
    reciprocal: np.ndarray  # (d, d), columns b_j
    cell_volume: float
    bz_volume: float

    def gvector(self, g: GIndex) -> np.ndarray:
        """Cartesian reciprocal vector of an integer G-index."""
        return self.reciprocal @ np.asarray(g, dtype=float)

    def fractional(self, k: np.ndarray) -> np.ndarray:
        """Coordinates of Cartesian k in the reciprocal basis."""
        return np.linalg.solve(self.reciprocal, np.asarray(k, dtype=float))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "primitive": self.primitive.tolist()}


def new_lattice(primitive) -> Lattice:
    """Build a Lattice from a d x d primitive matrix (columns = lattice vectors).

    Raises SingularLattice when |det| falls below 1e-14 times the natural
    scale of the matrix (product of column norms).
    """
    P = np.array(primitive, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"primitive matrix must be square, got shape {P.shape}")
    d = P.shape[0]
    det = np.linalg.det(P)
    scale = float(np.prod(np.linalg.norm(P, axis=0)))
    if scale == 0.0 or abs(det) < 1e-14 * scale:
        raise SingularLattice(f"primitive matrix is singular (det={det:g})")
    B = 2.0 * np.pi * np.linalg.inv(P.T)
    vol = abs(det)
    return Lattice(
        dim=d,
        primitive=P,
        reciprocal=B,
        cell_volume=vol,
        bz_volume=(2.0 * np.pi) ** d / vol,
    )


def lattice_from_dict(payload: dict) -> Lattice:
    lat = new_lattice(payload["primitive"])
    if lat.dim != int(payload["dim"]):
        raise ValueError("dim field does not match the primitive matrix")
    return lat


def digest_of(payload: dict) -> str:
    """Short stable digest of a JSON-serializable payload, used in metadata."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class KPointSet:
    points: np.ndarray               # (nk, d) Cartesian reciprocal coordinates
    kind: str                        # "path" or "grid"
    labels: dict = field(default_factory=dict)  # point index -> node label
    mesh_width: float | None = None  # grids only

    def __len__(self) -> int:
        return self.points.shape[0]


def _gbox(lat: Lattice, Ec: float, kmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer coordinates and Cartesian vectors of a G-box that holds every
    G with 0.5*|k+G|^2 < Ec for any |k| <= kmax."""
    # Any selected G satisfies |G| <= sqrt(2 Ec) + |k|; the integer coordinate
    # n_i = row_i(B^-1) . G is then bounded by that radius times the row norm.
    radius = np.sqrt(2.0 * Ec) + kmax
    inv_rows = np.linalg.norm(np.linalg.inv(lat.reciprocal), axis=1)
    bound = int(np.ceil(radius * inv_rows.max()))

    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    coords = np.stack(np.meshgrid(*([rng] * lat.dim), indexing="ij"), axis=-1)
    coords = coords.reshape(-1, lat.dim)
    return coords, coords @ lat.reciprocal.T


def _kinetic_chunks(gvecs: np.ndarray, points: np.ndarray):
    """0.5*|k+G|^2 for every k of the (P, d) points and every G of the (N, d)
    Cartesian box vectors, yielded as (lo, kinetic), kinetic the (step, N)
    values of points[lo:lo + step].

    Each value is the same elementwise arithmetic on the box's G vector,
    whatever the chunk, so a basis does not depend on the points beside it.
    """
    step = max(1, 2**14 // gvecs.shape[0])  # bounds the (step, N, d) temporary
    for lo in range(0, points.shape[0], step):
        shifted = gvecs + points[lo:lo + step, None, :]
        shifted **= 2
        yield lo, 0.5 * np.sum(shifted, axis=2)


def _bases(lat: Lattice, Ec: float, points: np.ndarray):
    """The k-dependent basis of each of the (P, d) points, from one G-box and
    one sort: (box, rows, sizes).

    box holds the (N, d) int64 G-indices of the box and sizes the (P,) basis
    sizes, 0 for an empty basis.  rows holds the int32 box rows of every
    basis, point after point, each basis in enumerate_basis order: by kinetic
    value, then by G-index, which is the order of the box rows.
    """
    if Ec <= 0:
        raise EmptyBasis(f"cutoff Ec={Ec:g} selects no plane wave")
    # the box has at least 3^d rows, so for d > 1 its G vectors always come
    # from BLAS's matrix-matrix product, never the matrix-vector one that
    # rounds differently, and a G gets the same vector in every box
    box, gvecs = _gbox(lat, Ec, np.linalg.norm(points, axis=1).max())
    member, where, kin = [], [], []
    for lo, kinetic in _kinetic_chunks(gvecs, points):
        m, n = np.nonzero(kinetic < Ec)
        member.append(m + lo)
        where.append(n)
        kin.append(kinetic[m, n])
    member, where, kin = (np.concatenate(a) for a in (member, where, kin))
    # nonzero lists each point's rows in box order, which the stable sort
    # keeps among equal kinetic values
    rows = where[np.lexsort((kin, member))].astype(np.int32)
    return box, rows, np.bincount(member, minlength=points.shape[0])


def _basis_coords(lat: Lattice, k, Ec: float, mode: str = "kdependent") -> np.ndarray:
    """The basis of enumerate_basis as an (M, d) int64 array, in the same order.

    k may also be a (B, d) stack of points whose bases all hold M plane waves;
    the result is then (B, M, d), each member equal to its single-k basis.
    """
    if mode not in ("uniform", "kdependent"):
        raise ValueError(f"unknown basis mode {mode!r}")
    k = np.zeros(lat.dim) if k is None else np.asarray(k, dtype=float)
    ks = k.reshape(-1, lat.dim)
    box, rows, counts = _bases(lat, Ec, ks if mode == "kdependent" else np.zeros_like(ks))
    if not counts.all():
        empty = k if k.ndim < 2 else k[np.argmin(counts)]
        raise EmptyBasis(f"no plane wave below Ec={Ec:g} at k={empty}")
    if np.any(counts != counts[0]):
        raise ValueError(f"the bases of a k stack differ in size: {sorted(set(counts.tolist()))}")
    coords = box[rows]
    return coords if k.ndim < 2 else coords.reshape(ks.shape[0], counts[0], lat.dim)


def enumerate_basis(lat: Lattice, k, Ec: float, mode: str = "kdependent") -> list[GIndex]:
    """List the G-indices selected by the cutoff, deterministically ordered.

    mode "kdependent" keeps G with 0.5*|k+G|^2 < Ec, mode "uniform" keeps G
    with 0.5*|G|^2 < Ec.  The result is sorted by the k-dependent kinetic
    value 0.5*|k+G|^2 ascending (0.5*|G|^2 in uniform mode), ties broken by
    lexicographic G-index, so equal inputs give identical lists.
    """
    return list(map(tuple, _basis_coords(lat, k, Ec, mode).tolist()))


def kinetic_values(lat: Lattice, k, basis) -> np.ndarray:
    """0.5*|k+G|^2 for each G-index of a basis (list or (M, d) array), in basis order;
    a (B, 1, d) stack of k with a (B, M, d) stack of bases gives (B, M)."""
    k = np.zeros(lat.dim) if k is None else np.asarray(k, dtype=float)
    gvecs = np.asarray(basis, dtype=float) @ lat.reciprocal.T
    return 0.5 * np.sum((gvecs + k) ** 2, axis=-1)


def _basis_sizes(lat: Lattice, Ec: float, points) -> np.ndarray:
    """k-dependent basis size at each of the (P, d) points, 0 for an empty
    basis: the sizes of _bases, counted without the sort."""
    points = np.asarray(points, dtype=float).reshape(-1, lat.dim)
    counts = np.zeros(points.shape[0], dtype=np.int64)
    if Ec <= 0 or points.shape[0] == 0:
        return counts
    _, gvecs = _gbox(lat, Ec, np.linalg.norm(points, axis=1).max())
    for lo, kinetic in _kinetic_chunks(gvecs, points):
        counts[lo:lo + kinetic.shape[0]] = np.count_nonzero(kinetic < Ec, axis=1)
    return counts


def basis_cardinality_bounds(lat: Lattice, Ec: float, probe_grid: KPointSet) -> tuple[int, int]:
    """(min, max) of the k-dependent basis size over the probe points."""
    counts = _basis_sizes(lat, Ec, probe_grid.points)
    return int(counts.min()), int(counts.max())


def kpath(lat: Lattice, nodes, samples_per_segment: int) -> KPointSet:
    """Piecewise-linear path through Cartesian nodes [(label, vector), ...].

    Every segment contributes samples_per_segment points; shared endpoints
    appear once, so the total count is 1 + segments*samples_per_segment.
    """
    if len(nodes) < 2:
        raise ValueError("a path needs at least two nodes")
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    pts = [np.atleast_1d(np.asarray(v, dtype=float)) for _, v in nodes]
    if any(p.shape != (lat.dim,) for p in pts):
        raise ValueError("node vectors must have the lattice dimension")
    points = [pts[0]]
    labels = {0: nodes[0][0]}
    for a, b, (label, _) in zip(pts[:-1], pts[1:], nodes[1:]):
        for j in range(1, samples_per_segment + 1):
            t = j / samples_per_segment
            points.append((1.0 - t) * a + t * b)
        labels[len(points) - 1] = label
    return KPointSet(points=np.array(points), kind="path", labels=labels)


def uniform_grid(lat: Lattice, n: int) -> KPointSet:
    """Gamma-centered n^d grid, fractional coordinates in [-1/2, 1/2)."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    frac_1d = [(m / n if 2 * m < n else m / n - 1.0) for m in range(n)]
    fracs = np.array(list(itertools.product(frac_1d, repeat=lat.dim)))
    points = fracs @ lat.reciprocal.T
    width = float(np.linalg.norm(lat.reciprocal, axis=0).min() / n)
    return KPointSet(points=points, kind="grid", mesh_width=width)
