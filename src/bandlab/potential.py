"""Fourier-space periodic potentials.

A potential is stored as a sparse map from integer G-indices to complex
coefficients; `coeff_indices` and `coeff_values` give the same map as an
(n_coef, d) int64 array and an (n_coef,) complex array, built once per
potential and shared by every k of a run; `hermitian_coeffs` gives the
Hermitian part that the fiber assembly reads.  The stored numbers are the
matrix-element coefficients of the multiplication operator between
normalized plane waves: the fiber assembly reads entry (G', G) directly as
coeffs[G' - G], with no extra volume factor.  In real space they expand
V(x) = sum_G coeffs[G] * e_G(x) with e_G(x) = |cell|^(-1/2) exp(i G.x).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .lattice import GIndex, Lattice, digest_of, lattice_from_dict


class BrokenHermitianSymmetry(ValueError):
    """Coefficients violate conj-symmetry of a real-valued potential."""


@dataclass(frozen=True)
class FourierPotential:
    lattice: Lattice
    coeffs: dict  # GIndex -> complex
    real_valued: bool

    @cached_property
    def coeff_indices(self) -> np.ndarray:
        """(n_coef, d) int64 G-indices of the stored coefficients, read-only."""
        out = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, self.lattice.dim)
        out.flags.writeable = False
        return out

    @cached_property
    def coeff_values(self) -> np.ndarray:
        """(n_coef,) complex coefficients in the order of coeff_indices, read-only."""
        out = np.array(list(self.coeffs.values()), dtype=complex)
        out.flags.writeable = False
        return out

    @cached_property
    def hermitian_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """The coefficient map of the operator's Hermitian part, read-only.

        Returns the sorted (n, d) union of the G-indices and their negatives,
        and values 0.5 * (c[G] + conj(c[-G])) with an absent coefficient
        counted as an exact 0, each term 0 + c as in a zeroed matrix.  Entry
        (i, j) of 0.5 * (H + H^H) for the plain coefficient block H is thus
        the value at G_i - G_j, to the bit.
        """
        both = np.concatenate([self.coeff_indices, -self.coeff_indices])
        indices, where = np.unique(both, axis=0, return_inverse=True)
        plain = np.zeros(indices.shape[0], dtype=complex)
        plain[where.reshape(-1)[: len(self.coeffs)]] += self.coeff_values
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
        return digest_of(self.to_dict())


def potential_from_coeffs(lat: Lattice, entries, real_valued: bool = True) -> FourierPotential:
    """Collect (g_index, coefficient) pairs; duplicate indices are summed.

    With real_valued=True every stored G must come with its conjugate partner
    at -G (a missing or mismatched partner raises BrokenHermitianSymmetry).
    """
    coeffs: dict[GIndex, complex] = {}
    for g, c in entries:
        g = tuple(int(v) for v in np.atleast_1d(g))
        if len(g) != lat.dim:
            raise ValueError(f"G-index {g} does not match lattice dimension {lat.dim}")
        coeffs[g] = coeffs.get(g, 0.0 + 0.0j) + complex(c)
    if real_valued:
        bad = []
        for g, c in coeffs.items():
            mirror = tuple(-v for v in g)
            partner = coeffs.get(mirror)
            if partner is None or abs(partner - np.conj(c)) > 1e-12 * max(1.0, abs(c)):
                bad.append(g)
        if bad:
            raise BrokenHermitianSymmetry(
                f"real-valued potential needs conjugate partners; offending G: {sorted(bad)}"
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
    if t <= lat.dim / 2:
        raise ValueError(f"need t > d/2 = {lat.dim / 2:g} for a summable tail, got t={t:g}")
    if gmax < 0:
        raise ValueError("gmax must be >= 0")
    entries = []  # gmax = 0 leaves the box empty: the zero potential
    rng1d = range(-gmax, gmax + 1)
    for g in np.ndindex(*([2 * gmax + 1] * lat.dim)):
        n = tuple(rng1d[i] for i in g)
        if all(v == 0 for v in n):
            continue
        # keep the lexicographically positive representative of each {G, -G} pair
        if n < tuple(-v for v in n):
            continue
        mag = amplitude * float(np.linalg.norm(lat.gvector(n))) ** (-t)
        c = mag * _phase(seed, n)
        entries.append((n, c))
        entries.append((tuple(-v for v in n), np.conj(c)))
    return potential_from_coeffs(lat, entries, real_valued=True)


def potential_from_dict(payload: dict) -> FourierPotential:
    lat = lattice_from_dict(payload["lattice"])
    entries = [
        (tuple(int(v) for v in item["g"]), complex(item["re"], item["im"]))
        for item in payload["coeffs"]
    ]
    return potential_from_coeffs(lat, entries, real_valued=bool(payload["real_valued"]))


def save_potential(V: FourierPotential, path) -> None:
    Path(path).write_text(json.dumps(V.to_dict(), indent=2) + "\n")


def load_potential(path) -> FourierPotential:
    return potential_from_dict(json.loads(Path(path).read_text()))
