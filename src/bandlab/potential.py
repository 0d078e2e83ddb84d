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
        # the stored G and their negatives, in lexicographic order
        union = sorted({*self.coeffs, *(tuple(-n for n in g) for g in self.coeffs)})
        plain = np.array([0j + self.coeffs.get(g, 0j) for g in union], dtype=complex)
        indices = np.array(union or np.zeros((0, self.lattice.dim)), dtype=np.int64)
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


def _integral(x) -> int | None:
    """int(x) if x holds an integral value (1, 1.0, np.int64(1)), else None
    (1.5, NaN, inf, "1"); int() alone truncates 1.5 to 1."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == x else None


def potential_from_coeffs(lat: Lattice, entries, real_valued: bool = True) -> FourierPotential:
    """Collect (g_index, coefficient) pairs; duplicate indices are summed.

    A g_index holds lat.dim integral values (1.0 and numpy integers are
    taken) and its coefficient is finite: an index part 1.5, NaN or inf, or
    a NaN or infinite coefficient, raises ValueError naming the entry.
    With real_valued=True every stored G must come with its conjugate partner
    at -G (a missing or mismatched partner raises BrokenHermitianSymmetry).
    """
    coeffs: dict[GIndex, complex] = {}
    for i, (index, c) in enumerate(entries):
        index = index if isinstance(index, tuple) else tuple(np.atleast_1d(index).tolist())
        g = tuple(map(_integral, index))
        if None in g or len(g) != lat.dim:
            raise ValueError(f"entry {i}: G-index {index} must be {lat.dim} integers")
        c = coeffs[g] = coeffs.get(g, 0.0 + 0.0j) + complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"entry {i}: coefficient at G-index {index} is not finite ({c})")
    if real_valued:
        bad = [g for g, c in coeffs.items()
               if (partner := coeffs.get(tuple(-n for n in g))) is None
               or abs(partner - c.conjugate()) > 1e-12 * max(abs(c), 1.0)]
        if bad:
            raise BrokenHermitianSymmetry(
                f"real-valued potential needs conjugate partners; offending G: {sorted(bad)}")
    return FourierPotential(lattice=lat, coeffs=coeffs, real_valued=real_valued)


def _multipliers(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult^i mod 2^32 for i < n as a uint32 column: the multipliers
    of n successive SeedSequence hashes."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult % 2**32)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence (bit_generator.pyx) and PCG64 constants; NEP 19 keeps
# both bit streams fixed across numpy releases
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = _multipliers(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# seeding steps the state twice and random() once more: with inc = 2 seq + 1
# the state reaches state * M^2 + seq * 2K + K mod 2^128, K = M^2 + M + 1
_PCG_M2 = _PCG_MULT**2 % 2**128
_PCG_K = (_PCG_M2 + _PCG_MULT + 1) % 2**128


def _hashed(v: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of v, one row per multiplier but the last."""
    v = (v ^ mults[:-1]) * mults[1:]
    return v ^ v >> 16


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = _MIX_L * x - _MIX_R * y
    return z ^ z >> 16


def _uniforms(seed: int, rows: np.ndarray) -> np.ndarray:
    """np.random.default_rng((seed, *(n + 2**31 for n in row))).random() for
    each row of an (n, d) int array with entries in [-2^31, 2^31), to the
    bit, in one batched pass over the rows.

    SeedSequence hashes the key's 32-bit words into a pool of 4 words and
    hashes that out into PCG64's 128-bit state and stream; the first double
    is the XSL-RR output of the stepped state, >> 11, times 2^-53.  The hash
    multipliers do not depend on the data, so each hash is one step over all
    rows and all its destination words.
    """
    words = [seed >> 32 * i & 0xFFFFFFFF for i in range((seed.bit_length() + 31) // 32 or 1)]
    entropy = np.concatenate([np.tile(np.array(words)[:, None], len(rows)),
                              rows.T + 2**31]).astype(np.uint32)
    mults = _multipliers(*_HASH_A, 17 + 4 * max(len(entropy) - 4, 0))
    pool = np.zeros((4, len(rows)), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:4]
    pool = _hashed(pool, mults[:5])
    for src in range(4):  # each pool word into the other three
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], mults[4 + 3 * src:8 + 3 * src]))
    for i, word in enumerate(entropy[4:]):  # the words beyond the pool into all four
        pool = _mixed(pool, _hashed(word, mults[16 + 4 * i:21 + 4 * i]))
    state = _hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).astype(np.uint64)
    # little-endian 64-bit words: state high and low, then seq high and low;
    # Python ints hold the 128-bit arithmetic, whose bits above 2^128 no
    # output bit reads
    out = []
    for a, b, c, e in zip(*(state[0::2] | state[1::2] << np.uint64(32)).tolist()):
        x = (a << 64 | b) * _PCG_M2 + (c << 64 | e) * 2 * _PCG_K + _PCG_K
        v = (x >> 64 ^ x) % 2**64
        out.append(((v << 64 | v) >> (x >> 122) % 64 + 11) % 2**53 * 2.0**-53)
    return np.array(out)


def synth_power_law(lat: Lattice, t: float, gmax: int, seed: int,
                    amplitude: float = 1.0) -> FourierPotential:
    """Real-valued potential with |coeff(G)| = amplitude * |G|^(-t).

    Covers the integer box 0 < max_i|n_i| <= gmax with conj-symmetric pairs,
    so the result is real valued.  The phase of G is exp(2 pi i u) with u =
    np.random.default_rng((seed, n_1 + 2^31, ..., n_d + 2^31)).random(), so
    it depends on (seed, G) alone and not on gmax; the u of all G come from
    one batched pass that reproduces numpy's SeedSequence and PCG64 bit
    streams (a change of those streams fails the property test that checks
    each u against default_rng).  t > d/2 is required so the coefficients
    stay summable as the box grows, and seed must be an integer >= 0.  The
    zero mode is omitted (it only shifts the spectrum).
    """
    if not t > lat.dim / 2:  # NaN too
        raise ValueError(f"need t > d/2 = {lat.dim / 2:g} for a summable tail, got t={t:g}")
    if gmax < 0:
        raise ValueError("gmax must be >= 0")
    key = _integral(seed)
    if key is None or key < 0:
        raise ValueError(f"need an integer seed >= 0, got seed={seed!r}")
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
    sizes = np.array([amplitude * math.sqrt(sq) ** (-t) for sq in squares])
    c = sizes * np.exp(2j * np.pi * _uniforms(key, half))
    # G, then -G, per row, so every G has its conjugate partner; 0j + c is
    # the sum into an empty map that potential_from_coeffs forms (it turns
    # -0.0 into 0.0)
    keys = np.stack([half, -half], axis=1).reshape(-1, lat.dim).tolist()
    values = (0j + np.stack([c, c.conj()], axis=1).reshape(-1)).tolist()
    return FourierPotential(lat, dict(zip(map(tuple, keys), values)), real_valued=True)
