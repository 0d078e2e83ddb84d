"""Assembly of plane-wave fiber matrices for the three Galerkin schemes.

All three schemes share the potential block: entry (i, j) holds the stored
coefficient at G_i - G_j.  They differ in variational space and kinetic
diagonal:

* uniform      : k-independent space {0.5*|G|^2 < Ec},   diagonal 0.5*|k+G|^2
* kdependent   : space {0.5*|k+G|^2 < Ec},               diagonal 0.5*|k+G|^2
* modified     : same space as kdependent,               diagonal
                 Ec * G_blowup(|k+G| / sqrt(2 Ec))

In the modified scheme the blow-up argument satisfies x < 1 by the strict
cutoff, and whenever x <= 1/2 the diagonal is written as the plain kinetic
value itself: there Ec * G(x) = 0.5*|k+G|^2 exactly, and reusing the same
float makes the restriction identity below hold to the bit.

A fiber keeps its basis, an (M, d) int array of G-indices, its real
diagonal and the potential's couplings: the (n, d) nonzero differences dG
that fit in the basis box, with the values 0.5 * (c[dG] + conj(c[-dG])) of
the potential's cached Hermitian part.  The mean value c[0] joins the
kinetic diagonal.  The two forms a solver uses are built from these on
first access, each only on the route that needs it:

* `entries`, the dense matrix of the graded/dense route: one gather from a
  dense box of the coefficients over every difference of two basis
  G-indices.  The row-major linear index is linear, so entry (i, j) reads
  the box at lin(G_i) - lin(G_j) plus the box center.  The result is
  bit-identical to summing the coefficients entry by entry and then forming
  0.5 * (H + H^H): for fixed (i, j) only dG = G_i - G_j can hit, so H holds
  0 + c at (i, j) and at (j, i), and the cached value is that same
  arithmetic.  A diagonal entry is written as the real number Re c[0] plus
  the kinetic value; the imaginary part of the Hermitian c[0] is
  0.5 * (y - y) = +0 for every finite coefficient.
* `table`, the (n, M) rows i with G_i = G_j + dG_n (-1 outside the basis),
  from one lookup in a dense position table over the integer box.  From it
  FiberMatrix.apply computes H @ X without forming H, which is all the block
  eigensolver needs.  Work and memory are O(n * M), never O(M^2).

So the dense route never builds the table and the block path never builds
the dense matrix.  When the block path gives up on a member, building
`entries` drops the table, so a fiber never keeps both.

A (B, d) stack of k-points whose bases have one size M is assembled in one
pass: one basis enumeration for the B bases (compute_bands passes the
bases it sliced from its one pass over the k-set instead) and one
vectorized diagonal; each lazy form is then built for the B members at
once.  A single k is the B = 1 case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blowup import BlowupFunction, BlowupSpec, build_blowup
from .lattice import Lattice, _basis_coords, kinetic_values
from .potential import FourierPotential


@dataclass(frozen=True)
class Scheme:
    tag: str                            # "uniform" | "kdependent" | "modified"
    blowup: BlowupFunction | None = None

    def __post_init__(self):
        if self.tag not in ("uniform", "kdependent", "modified"):
            raise ValueError(f"unknown scheme tag {self.tag!r}")
        if self.tag == "modified" and self.blowup is None:
            raise ValueError("modified scheme needs a blow-up function")

    @property
    def basis_mode(self) -> str:
        return "uniform" if self.tag == "uniform" else "kdependent"


def uniform_scheme() -> Scheme:
    return Scheme(tag="uniform")


def kdependent_scheme() -> Scheme:
    return Scheme(tag="kdependent")


def modified_scheme(blowup: BlowupFunction) -> Scheme:
    return Scheme(tag="modified", blowup=blowup)


@dataclass(frozen=True)
class FiberMatrix:
    """The fiber matrix H at k, or at each k of a stack, kept as its real
    diagonal and the potential's couplings (dG, coeffs); the dense `entries`
    and the row `table` are built on first access."""

    k: np.ndarray
    Ec: float
    coords: np.ndarray    # (M, d) int64 G-indices in deterministic order; (B, M, d) for a stack
    scheme: Scheme
    diagonal: np.ndarray  # (M,) real diagonal of H, kinetic (or blown-up) plus Re c[0]; (B, M)
    dG: np.ndarray        # (n, d) nonzero differences G_i - G_j that fit in the basis box
    coeffs: np.ndarray    # (n,) Hermitian coefficient values c_n of the dG_n

    @property
    def basis(self) -> list:
        """The G-indices as a list of int tuples, as enumerate_basis returns them.

        For a stack, entry j holds the j-th G-index of every member, as a
        tuple of B tuples, so the list has M entries either way.
        """
        rows = self.coords.tolist()
        if self.coords.ndim == 2:
            return list(map(tuple, rows))
        return [tuple(map(tuple, g)) for g in zip(*rows)]

    def __len__(self) -> int:
        return self.coords.shape[-2]

    def _stack(self) -> np.ndarray:
        return self.coords.reshape(-1, len(self), self.coords.shape[-1])

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense (M, M) complex Hermitian matrix; (B, M, M) for a stack.

        Built on first access by one gather from a dense box of coefficients
        over every difference of two G-indices of the basis: the row-major
        linear index is linear, so entry (i, j) reads the box at
        lin(G_i) - lin(G_j) + lin(center).  A `table` built before is
        dropped, so a fiber does not keep both.
        """
        coords = self._stack()
        B, M = coords.shape[:2]
        span = coords.max(axis=(0, 1)) - coords.min(axis=(0, 1))
        strides = np.cumprod(np.r_[1, 2 * span[:0:-1] + 1])[::-1]  # row-major
        center = span @ strides
        # each (i, j) has one difference G_i - G_j; one no dG reaches keeps
        # its 0, which is what 0.5 * (0 + conj(0)) gives
        box = np.zeros(int(np.prod(2 * span + 1)), dtype=complex)
        box[self.dG @ strides + center] = self.coeffs
        lin = coords @ strides
        index = lin[:, :, None] - lin[:, None, :]
        index += center
        H = box[index]
        H.reshape(B, M * M)[:, :: M + 1] = self.diagonal.reshape(B, M)
        vars(self).pop("table", None)
        return H if self.coords.ndim == 3 else H[0]

    @cached_property
    def table(self) -> np.ndarray:
        """(n, B, M) rows: table[n, b, j] is the i with G_i = G_j + dG_n in
        member b, -1 where there is none.  Built on first access, which is
        the first `apply`."""
        coords = self._stack()
        if not len(self.dG):
            return np.empty((0,) + coords.shape[:2], dtype=np.intp)
        return _rows(coords, coords, self.dG)

    def apply(self, X: np.ndarray, member: int = 0) -> np.ndarray:
        """H @ X for one member of the fiber (0 for a single k), X of shape (M,) or (M, r).

        From the table: (HX)[j] = diagonal[j] X[j] + sum_n conj(c_n) X[table[n, j]],
        because H[j, i] = conj(H[i, j]) = conj(c_n) for i = table[n, j].
        Work is O(n * M * r) and memory O(M * r).  Once `entries` exists,
        its dense product.
        """
        if "entries" in vars(self):
            return self.entries.reshape(-1, len(self), len(self))[member] @ X
        X = np.asarray(X)
        diag = self.diagonal.reshape(-1, len(self))[member]
        out = np.asarray(diag.reshape(diag.shape + (1,) * (X.ndim - 1)) * X, dtype=complex)
        # row -1 of the padded block is zero, for the -1 entries of the table
        padded = np.concatenate([X, np.zeros((1,) + X.shape[1:], dtype=X.dtype)])
        for rows, c in zip(self.table[:, member], self.coeffs.conj()):
            out += c * padded[rows]
        return out


def _rows(basis: np.ndarray, points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Row in member b of `basis` of every points[b, j] + shifts[s], as an
    (n_shift, B, n_point) array holding -1 where that coordinate is not a
    basis row of member b.

    basis (B, M, d) and points (B, n_point, d) are stacks of B members.  A
    dense table over the integer box spanned by all of them, one copy per
    member at offset b times the box size, maps the row-major linear index
    of a coordinate to its basis row.  The linear index is affine, so
    lin(points[b, j] + shifts[s]) = lin(points[b, j]) + shifts[s] . strides
    and no (n_shift, B, n_point, d) array is formed.
    """
    lo = np.minimum(basis.min(axis=(0, 1)), points.min(axis=(0, 1)) + shifts.min(axis=0))
    dims = np.maximum(basis.max(axis=(0, 1)),
                      points.max(axis=(0, 1)) + shifts.max(axis=0)) - lo + 1
    strides = np.cumprod(np.r_[1, dims[:0:-1]])[::-1]  # row-major: last coordinate fastest
    size = int(np.prod(dims))
    offset = size * np.arange(basis.shape[0])[:, None]
    table = np.full(size * basis.shape[0], -1, dtype=np.intp)
    table[(basis - lo) @ strides + offset] = np.arange(basis.shape[1])
    return table[((points - lo) @ strides + offset)[None] + (shifts @ strides)[:, None, None]]


def assemble(lat: Lattice, V: FourierPotential, k, Ec: float, scheme: Scheme, *,
             _basis: np.ndarray | None = None) -> FiberMatrix:
    """Fiber matrix at k for the given scheme and cutoff.

    k may also be a (B, d) stack of points whose bases all hold M plane
    waves.  The result then has (B, M, d) coords, a (B, M) diagonal and
    (B, M, M) entries, built from one basis pass and one diagonal pass; a
    single k is the B = 1 case, and every member equals its own single-k
    matrix to the bit.  `_basis`, the (B, M, d) bases of the points when
    the caller has enumerated them already (compute_bands), skips that pass.
    """
    k = np.zeros(lat.dim) if k is None else np.asarray(k, dtype=float)
    ks = k.reshape(-1, lat.dim)
    if _basis is None:
        _basis = _basis_coords(lat, k, Ec, scheme.basis_mode)
    coords = _basis.reshape(len(ks), -1, lat.dim)

    kin = kinetic_values(lat, ks[:, None, :], coords)  # (B, M)
    if scheme.tag == "modified":
        x = np.sqrt(kin / Ec)  # |k+G| / sqrt(2 Ec)
        diag = np.where(x <= 0.5, kin, 0.0)
        steep = x > 0.5
        if steep.any():
            diag[steep] = Ec * scheme.blowup.eval(x[steep])
    else:
        diag = kin

    dG, c = V.hermitian_coeffs
    # a dG longer than the basis box in some coordinate couples no pair
    near = np.all(np.abs(dG) <= coords.max(axis=(0, 1)) - coords.min(axis=(0, 1)), axis=1)
    if len(dG) % 2:
        # the sorted set is closed under negation, so an odd count puts dG = 0
        # in the middle; c[0] couples each plane wave to itself
        near[len(dG) // 2] = False
        diag = c[len(dG) // 2].real + diag
    if k.ndim < 2:
        coords, diag = coords[0], diag[0]
    return FiberMatrix(k=k, Ec=float(Ec), coords=coords, scheme=scheme, diagonal=diag,
                       dG=dG[near], coeffs=c[near])


_CHECK_BLOWUP = BlowupSpec(m=1, p=1.5, C=1.0)


def project_modified_identity_check(lat: Lattice, V: FourierPotential, k, Ec: float) -> float:
    """Max entry deviation between the restricted 4Ec modified matrix and the
    k-dependent matrix at Ec.

    Every plane wave of the inner space has 0.5*|k+G|^2 < Ec, hence blow-up
    argument below 1/2 in the 4Ec assembly, where the modified dispersion is
    exactly quadratic; the two matrices must therefore agree entry by entry.
    """
    inner = assemble(lat, V, k, Ec, kdependent_scheme())
    big = assemble(lat, V, k, 4.0 * Ec, modified_scheme(build_blowup(_CHECK_BLOWUP)))
    idx = _rows(big.coords[None], inner.coords[None],
                np.zeros((1, lat.dim), dtype=np.int64))[0, 0]
    sub = big.entries[np.ix_(idx, idx)]
    return float(np.max(np.abs(sub - inner.entries))) if len(idx) else 0.0
