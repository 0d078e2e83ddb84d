"""Integrated density of states, integrated energy, and Fermi levels.

All quantities are uniform-grid averages: the integral over one reciprocal
period is replaced by the mean over a Gamma-centered grid, which is the
natural quadrature for periodic integrands.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .spectra import BandStructure


class TruncationWarning(UserWarning):
    """The top computed band reaches below mu; higher bands might contribute."""


class UnreachableFilling(ValueError):
    """Requested electron count exceeds what the computed bands can hold."""


@dataclass(frozen=True)
class GapInfo:
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class FermiLevel:
    mu: float
    lower: float  # edges of the idos plateau the level was placed in
    upper: float
    gap: GapInfo | None


def _require_grid(bands: BandStructure) -> None:
    if bands.kset.kind != "grid":
        raise ValueError("spectral averages need a uniform-grid k-point set")


def _warn_if_truncated(bands: BandStructure, mu: float) -> None:
    if np.any(bands.energies[:, -1] <= mu):
        warnings.warn(
            f"top computed band dips below mu={mu:g}; higher bands may contribute",
            TruncationWarning,
            stacklevel=3,
        )


def idos(bands: BandStructure, mu: float) -> float:
    """States per unit cell at or below mu: mean_k sum_n 1(e_n(k) <= mu)."""
    _require_grid(bands)
    _warn_if_truncated(bands, mu)
    return float(np.mean(np.sum(bands.energies <= mu, axis=1)))


def idoe(bands: BandStructure, mu: float) -> float:
    """Energy per unit cell of states at or below mu."""
    _require_grid(bands)
    _warn_if_truncated(bands, mu)
    occupied = np.where(bands.energies <= mu, bands.energies, 0.0)
    return float(np.mean(np.sum(occupied, axis=1)))


def fermi_level(bands: BandStructure, n_electrons: float) -> FermiLevel:
    """Level mu with idos(mu) = n_electrons, resolved on the grid.

    Grid idos is a right-continuous step function, so the solution set of
    idos(mu) = N is a half-open plateau [e_T, e_next): the returned level is
    its midpoint, with the edges reported (for an insulator they are the gap
    edges).  When the count jumps over N (fractional filling or an exact
    degeneracy) the jump energy itself is returned with a degenerate
    bracket, and when the plateau has no computed state above it (complete
    filling of all bands) the level sits at the top energy.
    """
    _require_grid(bands)
    if n_electrons <= 0:
        raise ValueError("n_electrons must be positive")
    energies = np.sort(bands.energies, axis=None)
    nk = len(bands.kset)
    total = energies.size
    target = n_electrons * nk
    if target > total + 1e-9:
        raise UnreachableFilling(
            f"n_electrons={n_electrons:g} needs {target:g} states per grid "
            f"but only {total} were computed ({bands.n_bands} bands)"
        )
    need = max(1, int(np.ceil(target - 1e-9)))
    e_need = float(energies[need - 1])
    count_at = int(np.searchsorted(energies, e_need, side="right"))
    if abs(count_at - target) <= 1e-9:
        above = energies[count_at:]
        if above.size == 0:
            return FermiLevel(mu=e_need, lower=e_need, upper=e_need, gap=None)
        upper = float(above[0])
        return FermiLevel(
            mu=0.5 * (e_need + upper),
            lower=e_need,
            upper=upper,
            gap=GapInfo(lower=e_need, upper=upper),
        )
    # the step function jumps over the target count at e_need
    return FermiLevel(mu=e_need, lower=e_need, upper=e_need, gap=None)
