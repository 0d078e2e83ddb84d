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

import itertools
from dataclasses import dataclass, field

import numpy as np


def _whole(value) -> bool:
    """Whether value is an int or a numpy integer, and not a bool: the test of
    every count argument, such as a grid size or a band count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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

    def gvector(self, g) -> np.ndarray:
        """Cartesian reciprocal vector of an integer G-index."""
        return self.reciprocal @ np.asarray(g, dtype=float)

    def fractional(self, k: np.ndarray) -> np.ndarray:
        """Coordinates of Cartesian k in the reciprocal basis."""
        return np.linalg.solve(self.reciprocal, np.asarray(k, dtype=float))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "primitive": self.primitive.tolist()}


def new_lattice(primitive) -> Lattice:
    """Build a Lattice from a d x d primitive matrix (columns = lattice vectors).

    Raises ValueError for a matrix that is not square or holds a NaN or
    infinite entry, and SingularLattice when |det| falls below 1e-14 times
    the natural scale of the matrix (product of column norms).
    """
    P = np.array(primitive, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"primitive matrix must be square, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise ValueError(f"primitive matrix must be finite, got {P.tolist()}")
    det = np.linalg.det(P)
    scale = float(np.prod(np.linalg.norm(P, axis=0)))
    if scale == 0.0 or abs(det) < 1e-14 * scale:
        raise SingularLattice(f"primitive matrix is singular (det={det:g})")
    B = 2.0 * np.pi * np.linalg.inv(P.T)
    return Lattice(dim=P.shape[0], primitive=P, reciprocal=B, cell_volume=abs(det))


@dataclass(frozen=True)
class KPointSet:
    points: np.ndarray               # (nk, d) Cartesian reciprocal coordinates
    kind: str                        # "path" or "grid"
    labels: dict = field(default_factory=dict)  # point index -> node label

    def __len__(self) -> int:
        return self.points.shape[0]


def _gbox(lat: Lattice, Ec: float, points: np.ndarray,
          uniform: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Integer coordinates and Cartesian vectors of a G-box that holds every
    G with 0.5*|k+G|^2 < Ec for each k of the (P, d) points, or with
    0.5*|G|^2 < Ec if `uniform`.  A ValueError names Ec and the largest |k|
    unless both are finite."""
    kmax = np.linalg.norm(points, axis=1).max()
    if not np.isfinite([Ec, kmax]).all():
        raise ValueError(f"a basis needs a finite cutoff and finite k-points, got Ec={Ec:g} "
                         f"and largest |k| {kmax:g}")
    # Any selected G satisfies |G| <= sqrt(2 Ec) + |k|; the integer coordinate
    # n_i = row_i(B^-1) . G is then bounded by that radius times the row norm.
    radius = np.sqrt(2.0 * Ec) + (0.0 if uniform else kmax)
    inv_rows = np.linalg.norm(np.linalg.inv(lat.reciprocal), axis=1)
    bound = int(np.ceil(radius * inv_rows.max()))

    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    coords = np.stack(np.meshgrid(*([rng] * lat.dim), indexing="ij"), axis=-1)
    coords = coords.reshape(-1, lat.dim)
    return coords, _cartesian(lat, coords)


def _cartesian(lat: Lattice, coords) -> np.ndarray:
    """Cartesian vectors of integer G-indices, an (..., d) array of any shape.

    Every vector comes from BLAS's matrix-matrix product over all rows at
    once: a single row would take the matrix-vector product, which rounds
    differently, so it is doubled.  A G thus gets the same vector in every
    box and every basis.
    """
    flat = np.asarray(coords, dtype=float).reshape(-1, lat.dim)
    one = flat.shape[0] == 1
    gvecs = (np.concatenate([flat, flat]) if one else flat) @ lat.reciprocal.T
    return (gvecs[:1] if one else gvecs).reshape(np.shape(coords))


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


def _bases(lat: Lattice, Ec: float, points: np.ndarray, mode: str = "kdependent"):
    """The basis of each of the (P, d) points, from one G-box and one sort:
    (box, rows, sizes, kin).

    Mode "kdependent" keeps the G with 0.5*|k+G|^2 < Ec at each k, mode
    "uniform" the G with 0.5*|G|^2 < Ec.  box holds the (N, d) int64
    G-indices of the box and sizes the (P,) basis sizes, 0 for an empty
    basis.  rows holds the int32 box rows of every basis, point after point,
    each basis sorted by kinetic value, then by G-index, which is the order
    of the box rows, so equal inputs give identical bases.  The uniform
    basis is selected and ordered once, at k = 0, and repeated for every
    point.  kin holds the kinetic value 0.5*|k+G|^2 at the basis's own k of
    each entry of rows, equal to what kinetic_values gives for that basis to
    the bit, in either mode.
    """
    if mode not in ("uniform", "kdependent"):
        raise ValueError(f"unknown basis mode {mode!r}")
    if Ec <= 0:
        raise EmptyBasis(f"cutoff Ec={Ec:g} selects no plane wave")
    uniform = mode == "uniform"
    box, gvecs = _gbox(lat, Ec, points, uniform)
    member, where, kin = [], [], []
    for lo, kinetic in _kinetic_chunks(gvecs, np.zeros((1, lat.dim)) if uniform else points):
        m, n = np.nonzero(kinetic < Ec)
        member.append(m + lo)
        where.append(n)
        kin.append(kinetic[m, n])
    member, where, kin = (np.concatenate(a) for a in (member, where, kin))
    # nonzero lists each point's rows in box order, which the stable sort
    # keeps among equal kinetic values
    order = np.lexsort((kin, member))
    rows = where[order].astype(np.int32)
    if not uniform:
        return box, rows, np.bincount(member, minlength=points.shape[0]), kin[order]
    kin = [kinetic.ravel() for _, kinetic in _kinetic_chunks(gvecs[rows], points)]
    return box, np.tile(rows, points.shape[0]), np.full(points.shape[0], rows.size), \
        np.concatenate(kin)


def kinetic_values(lat: Lattice, k, basis) -> np.ndarray:
    """0.5*|k+G|^2 for each G-index of a basis (list or (M, d) array), in basis order;
    a (B, 1, d) stack of k with a (B, M, d) stack of bases gives (B, M)."""
    return 0.5 * np.sum((_cartesian(lat, basis) + np.asarray(k, dtype=float)) ** 2, axis=-1)


def _basis_sizes(lat: Lattice, Ec: float, points) -> np.ndarray:
    """k-dependent basis size at each of the (P, d) points, 0 for an empty
    basis: the sizes of _bases, counted without the sort."""
    points = np.asarray(points, dtype=float).reshape(-1, lat.dim)
    counts = np.zeros(points.shape[0], dtype=np.int64)
    if Ec <= 0 or points.shape[0] == 0:
        return counts
    _, gvecs = _gbox(lat, Ec, points)
    for lo, kinetic in _kinetic_chunks(gvecs, points):
        counts[lo:lo + kinetic.shape[0]] = np.count_nonzero(kinetic < Ec, axis=1)
    return counts


def kpath(lat: Lattice, nodes, samples_per_segment: int) -> KPointSet:
    """Piecewise-linear path through Cartesian nodes [(label, vector), ...].

    Every segment contributes samples_per_segment points; shared endpoints
    appear once, so the total count is 1 + segments*samples_per_segment.
    """
    if len(nodes) < 2:
        raise ValueError("a path needs at least two nodes")
    if not (_whole(samples_per_segment) and samples_per_segment >= 1):
        raise ValueError(f"samples_per_segment must be >= 1 and an integer, "
                         f"got {samples_per_segment}")
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
    if not (_whole(n) and n >= 1):
        raise ValueError(f"grid size must be >= 1 and an integer, got n={n}")
    frac_1d = [(m / n if 2 * m < n else m / n - 1.0) for m in range(n)]
    fracs = np.array(list(itertools.product(frac_1d, repeat=lat.dim)))
    return KPointSet(points=fracs @ lat.reciprocal.T, kind="grid")
