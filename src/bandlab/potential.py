"""Fourier-space periodic potentials.

A potential is stored as a sparse map from integer G-indices to complex
coefficients.  `hermitian_coeffs` gives the Hermitian part that the fiber
assembly reads, as sorted index and value arrays built from that map once
per potential and shared by every k of a run.  The stored numbers are the
matrix-element coefficients of the multiplication operator between
normalized plane waves: the fiber assembly reads entry (G', G) directly as
coeffs[G' - G], with no extra volume factor.  In real space they expand
V(x) = sum_G coeffs[G] * e_G(x) with e_G(x) = |cell|^(-1/2) exp(i G.x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import GIndex, Lattice, digest_of


class BrokenHermitianSymmetry(ValueError):
    """Coefficients violate conj-symmetry of a real-valued potential."""


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_inverse=True) of an (n, d) int array,
    from one lexsort: the distinct rows in lexicographic order, and the
    position of each row among them."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


@dataclass(frozen=True)
class FourierPotential:
    lattice: Lattice
    coeffs: dict  # GIndex -> complex
    real_valued: bool

    @cached_property
    def hermitian_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """The coefficient map of the operator's Hermitian part, read-only.

        Returns the sorted (n, d) union of the G-indices and their negatives,
        and values 0.5 * (c[G] + conj(c[-G])) with an absent coefficient
        counted as an exact 0, each term 0 + c as in a zeroed matrix.  Entry
        (i, j) of 0.5 * (H + H^H) for the plain coefficient block H is thus
        the value at G_i - G_j, to the bit.
        """
        given = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, self.lattice.dim)
        indices, where = _unique_rows(np.concatenate([given, -given]))
        plain = np.zeros(indices.shape[0], dtype=complex)
        where = where[: len(given)]
        plain[where] += np.array(list(self.coeffs.values()), dtype=complex)
        # negation reverses the lexicographic order of a set closed under it
        values = 0.5 * (plain + plain[::-1].conj())
        indices.flags.writeable = values.flags.writeable = False
        return indices, values

    def to_dict(self) -> dict:
        items = sorted(self.coeffs.items())
        return {
            "lattice": self.lattice.to_dict(),
            "real_valued": self.real_valued,
            "coeffs": [
                {"g": list(g), "re": float(c.real), "im": float(c.imag)}
                for g, c in items
            ],
        }

    def digest(self) -> str:
        """Short stable digest of to_dict()."""
        return digest_of(self.to_dict())


def potential_from_coeffs(lat: Lattice, entries, real_valued: bool = True) -> FourierPotential:
    """Collect (g_index, coefficient) pairs; duplicate indices are summed.

    A g_index holds lat.dim integral values (1.0 and numpy integers are
    taken, 1.5 raises ValueError naming the entry).
    With real_valued=True every stored G must come with its conjugate partner
    at -G (a missing or mismatched partner raises BrokenHermitianSymmetry).
    """
    coeffs: dict[GIndex, complex] = {}
    for i, (index, c) in enumerate(entries):
        index = index if isinstance(index, tuple) else tuple(np.atleast_1d(index).tolist())
        g = tuple(map(int, index))
        if g != index or len(g) != lat.dim:  # int() truncates 1.5 to 1
            raise ValueError(f"entry {i}: G-index {index} must be {lat.dim} integers")
        coeffs[g] = coeffs.get(g, 0.0 + 0.0j) + complex(c)
    if real_valued and coeffs:
        given = np.array(list(coeffs), dtype=np.int64)
        values = np.array(list(coeffs.values()), dtype=complex)
        # row of -G among the given G, -1 if absent: both sets' positions in
        # their sorted union
        _, where = _unique_rows(np.concatenate([given, -given]))
        row = np.full(len(where), -1)
        row[where[: len(given)]] = np.arange(len(given))
        partner = row[where[len(given):]]
        # np.hypot is the scalar abs of a complex number to the bit; the
        # vectorized np.abs of a complex array is not
        gap = values[partner] - values.conj()
        bad = (partner < 0) | (np.hypot(gap.real, gap.imag)
                               > 1e-12 * np.maximum(1.0, np.hypot(values.real, values.imag)))
        if bad.any():
            raise BrokenHermitianSymmetry(
                "real-valued potential needs conjugate partners; offending G: "
                f"{sorted(map(tuple, given[bad].tolist()))}"
            )
    return FourierPotential(lattice=lat, coeffs=coeffs, real_valued=real_valued)


def _phase(seed: int, g: GIndex) -> complex:
    # one deterministic unit-modulus phase per (seed, G), stable under gmax
    rng = np.random.default_rng((int(seed), *(int(c) + 2**31 for c in g)))
    return np.exp(2j * np.pi * rng.random())


def synth_power_law(lat: Lattice, t: float, gmax: int, seed: int,
                    amplitude: float = 1.0) -> FourierPotential:
    """Real-valued potential with |coeff(G)| = amplitude * |G|^(-t).

    Covers the integer box 0 < max_i|n_i| <= gmax with a deterministic
    phase per (seed, G) and conj-symmetric pairs, so the result is real
    valued.  t > d/2 is required so the coefficients stay summable as the
    box grows.  The zero mode is omitted (it only shifts the spectrum).
    """
    if not t > lat.dim / 2:  # NaN too
        raise ValueError(f"need t > d/2 = {lat.dim / 2:g} for a summable tail, got t={t:g}")
    if gmax < 0:
        raise ValueError("gmax must be >= 0")
    # the box rows in lexicographic order; negation reverses it, so the rows
    # after the center G = 0 are the lexicographically positive
    # representatives of the {G, -G} pairs (gmax = 0 leaves none: the zero
    # potential)
    span = np.arange(-gmax, gmax + 1)
    box = np.stack(np.meshgrid(*([span] * lat.dim), indexing="ij"), axis=-1)
    half = box.reshape(-1, lat.dim)[(2 * gmax + 1) ** lat.dim // 2 + 1:]
    # |G|^2 from one matrix-vector product and one dot product per G, each
    # stacked in one matmul: the arithmetic of norm(lat.gvector(G)) to the bit
    gvecs = lat.reciprocal @ half[:, :, None].astype(float)
    squares = (gvecs.transpose(0, 2, 1) @ gvecs).reshape(-1).tolist()
    # the largest |coefficient| sits at the shortest G, as t > 0; an empty box
    # checks the amplitude alone
    with np.errstate(all="ignore"):
        peak = amplitude * np.sqrt(min(squares, default=1.0)) ** -t
    if not np.isfinite(peak):
        raise ValueError(f"need finite amplitude * |G|^(-t), got amplitude={amplitude:g}, t={t:g}")
    entries = []
    for g, neg, sq in zip(map(tuple, half.tolist()), map(tuple, (-half).tolist()),
                          squares):
        c = amplitude * math.sqrt(sq) ** (-t) * _phase(seed, g)
        entries += [(g, c), (neg, np.conj(c))]
    return potential_from_coeffs(lat, entries, real_valued=True)

