"""Convergence, regularity and smoothness studies over the three schemes.

These routines drive the library end to end: they compare truncated spectra
against a large-cutoff reference, trace finite-difference band derivatives
across the points where the k-dependent space changes rank, and scan total
energies along a family of cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blowup import BlowupSpec, build_blowup
from .fiber import modified_scheme, uniform_scheme
from .lattice import KPointSet, Lattice, _basis_sizes, _whole, uniform_grid
from .observables import _check_filling, fermi_level, idoe
from .potential import FourierPotential
from .spectra import BandStructure, _band_structures, compute_bands


class NoBasisChangeOnPath(ValueError):
    """The probe path never crosses a point where the basis changes rank."""


class TooFewPoints(ValueError):
    """Not enough path points for the finite-difference stencils."""


def _check_ladder(ec_ladder, ec_reference: float) -> np.ndarray:
    """The cutoff ladder sorted ascending; a ValueError unless it holds at
    least two cutoffs and the reference cutoff is >= 8x the largest."""
    ladder = np.asarray(sorted(float(e) for e in ec_ladder))
    if ladder.size < 2:
        raise ValueError(f"cutoff ladder 'ec_ladder' needs at least two cutoffs to fit a "
                         f"rate, got {ladder.tolist()}")
    if not ec_reference >= 8.0 * ladder[-1]:  # a NaN reference cutoff too
        raise ValueError(f"reference cutoff 'ec_reference' {ec_reference:g} must be >= 8x "
                         f"the largest ladder cutoff {ladder[-1]:g}")
    return ladder


@dataclass(frozen=True)
class ConvergenceStudy:
    ec_ladder: np.ndarray
    errors: np.ndarray
    clamped: np.ndarray        # entries floored at 1e-16 (exactly converged)
    fitted_rate: float | None       # decay exponent, fit on the upper half ladder
    fitted_rate_full: float | None  # same fit over the whole ladder (diagnostic)
    r_potential: float | None  # declared Sobolev order of the potential
    predicted_rate: float | None


def convergence_study(lat: Lattice, V: FourierPotential, band_index: int, kset: KPointSet,
                      ec_ladder, schemes, ec_reference: float,
                      r_potential: float | None = None, threads: int = 1) -> dict:
    """Error of band `band_index` (1-based) against the uniform scheme at
    cutoff `ec_reference` on the same k-set, per cutoff of the ladder, for
    each of `schemes`: a ConvergenceStudy per scheme tag, in the order of
    `schemes`.

    The ladder, the band index and the schemes (no empty list, no repeated
    tag) are checked before any solve; the reference cutoff must be at
    least 8x the largest ladder cutoff.  The reference is solved once, and
    each cutoff once for every scheme (spectra._band_structures), so each
    study is bit for bit the study of its scheme alone.  The fitted rate is
    the slope magnitude of log(error) versus log(Ec), using only the upper
    half of the ladder where the asymptotic regime has set in; the
    full-ladder fit is kept as a diagnostic.  A fit whose errors are all
    exact (clamped to 1e-16) measures nothing and is None.  The predicted
    rate for a potential of Sobolev order r is r + 1 - d/4.
    """
    ladder = _check_ladder(ec_ladder, ec_reference)
    if not (_whole(band_index) and band_index >= 1):
        raise ValueError(f"'band_index' must be >= 1 and an integer, got {band_index}")
    schemes = _distinct_tags(schemes)
    ref = _band_structures(lat, V, kset, ec_reference, [uniform_scheme()], band_index,
                           threads)[0].energies[:, band_index - 1]
    errors = np.empty((len(schemes), ladder.size))
    for i, ec in enumerate(ladder):
        solved = _band_structures(lat, V, kset, ec, schemes, band_index, threads)
        errors[:, i] = [np.mean(np.abs(b.energies[:, band_index - 1] - ref)) for b in solved]
    clamped = errors <= 0.0
    errors = np.where(clamped, 1e-16, errors)

    def fit(j: int, idx) -> float | None:
        if np.all(clamped[j, idx]):
            return None
        slope = np.polyfit(np.log(ladder[idx]), np.log(errors[j, idx]), 1)[0]
        return float(-slope)

    half = min(ladder.size // 2, ladder.size - 2)  # keep >= 2 points in the fit
    predicted = None if r_potential is None else float(r_potential + 1.0 - lat.dim / 4.0)
    return {scheme.tag: ConvergenceStudy(
        ec_ladder=ladder,
        errors=errors[j],
        clamped=clamped[j],
        fitted_rate=fit(j, slice(half, None)),
        fitted_rate_full=fit(j, slice(None)),
        r_potential=None if r_potential is None else float(r_potential),
        predicted_rate=predicted,
    ) for j, scheme in enumerate(schemes)}


def _uniform_spacing(kset: KPointSet) -> float:
    steps = np.linalg.norm(np.diff(kset.points, axis=0), axis=1)
    h = float(steps[0])
    if h == 0.0 or np.max(np.abs(steps - h)) > 1e-8 * h:
        raise ValueError("finite differences need a uniformly spaced path")
    return h


def band_derivative_trace(bands: BandStructure, band_index: int, order: int) -> np.ndarray:
    """Second-order finite-difference derivative of one band along a path."""
    if bands.kset.kind != "path":
        raise ValueError("derivative traces are defined along paths")
    if not (_whole(order) and order in (1, 2)):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if not (_whole(band_index) and 1 <= band_index <= bands.n_bands):
        raise ValueError(f"band_index {band_index} outside the computed bands")
    f = bands.energies[:, band_index - 1]
    if f.size < 5:
        raise TooFewPoints("need at least 5 path points for the stencils")
    h = _uniform_spacing(bands.kset)
    if order == 1:
        return np.gradient(f, h, edge_order=2)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h**2
    return out


@dataclass(frozen=True)
class RegularityProbe:
    deltas: np.ndarray
    peaks: np.ndarray
    verdict: str              # "UnboundedDerivative" or "BoundedDerivative"
    change_points: np.ndarray  # Cartesian k where the basis rank flips
    band_index: int
    order: int


_PROBE_HALFWIDTH = 0.15  # each mesh spans this far on either side of the probe center


def regularity_probe(lat: Lattice, V: FourierPotential, Ec: float, blowup_spec: BlowupSpec,
                     band_index: int, order: int, deltas, threads: int = 1) -> RegularityProbe:
    """Mesh-refinement study of a finite-difference band derivative.

    The probe center is the first basis-rank flip of a scan over one period
    of the first reciprocal vector.  For each mesh width a straight path
    along that vector, within _PROBE_HALFWIDTH of the center, is solved with
    the modified scheme, and the largest |derivative| within a few stencils
    of any flip is recorded.  The derivative is declared unbounded
    exactly when the peaks of the three finest meshes strictly increase and
    grow by a factor of at least 1.5 overall; a bounded derivative settles
    to the smooth background level instead.

    The meshes are solved together: one compute_bands call over the union
    of their offsets (exact floats, so a nested ladder solves each point
    once), and each mesh reads its rows from it, bit-identical to a solve of
    that mesh alone.  Every mesh must see a rank flip (NoBasisChangeOnPath)
    and hold at least 5 points (TooFewPoints), both checked before the
    solve.
    """
    deltas = np.asarray([float(d) for d in deltas])
    if deltas.size < 3:
        raise ValueError("need at least three mesh widths for a verdict")
    if not np.all((deltas > 0.0) & np.isfinite(deltas)):
        raise ValueError(f"mesh widths 'deltas' must be > 0 and finite, got {deltas.tolist()}")
    if np.any(deltas[:-1] / deltas[1:] < 2.0 - 1e-12):
        raise ValueError("mesh widths must descend by factors >= 2")
    if not (_whole(order) and order in (1, 2)):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if not (_whole(band_index) and band_index >= 1):
        raise ValueError(f"'band_index' must be >= 1 and an integer, got {band_index}")

    # the path runs along the first reciprocal vector
    period = float(np.linalg.norm(lat.reciprocal[:, 0]))
    direction = lat.reciprocal[:, 0] / period
    # scan one reciprocal period for the first rank flip and center there
    ts = np.linspace(-period / 2.0, period / 2.0, 2001)
    found = np.flatnonzero(np.diff(_basis_sizes(lat, Ec, ts[:, None] * direction)))
    if found.size == 0:
        raise NoBasisChangeOnPath("no basis rank change within one period")
    # 0 + x turns a -0.0 component into 0.0, which change_points would print
    center = np.zeros(lat.dim) + 0.5 * (ts[found[0]] + ts[found[0] + 1]) * direction

    counts = np.rint(_PROBE_HALFWIDTH / deltas).astype(int)  # mesh points on each side
    meshes = [(np.arange(2 * n + 1) - n) * delta for n, delta in zip(counts, deltas)]
    offsets, inverse = np.unique(np.concatenate(meshes), return_inverse=True)
    points = center + offsets[:, None] * direction
    sizes = _basis_sizes(lat, Ec, points)
    rows = np.split(inverse, np.cumsum([mesh.size for mesh in meshes[:-1]]))
    flips = [np.flatnonzero(np.diff(sizes[idx])) for idx in rows]
    if any(f.size == 0 for f in flips):
        raise NoBasisChangeOnPath(
            f"no basis rank change within {_PROBE_HALFWIDTH:g} of the probe center"
        )
    if counts.min() < 2:
        raise TooFewPoints(f"mesh width {deltas[counts.argmin()]:g} leaves "
                           f"{2 * counts.min() + 1} points within {_PROBE_HALFWIDTH:g} of the "
                           f"probe center; the stencils need at least 5")
    union = compute_bands(lat, V, KPointSet(points=points, kind="path"), Ec,
                          modified_scheme(build_blowup(blowup_spec)), band_index,
                          threads=threads)
    peaks = np.empty(deltas.size)
    for j, (idx, f) in enumerate(zip(rows, flips)):
        mesh = replace(union, kset=KPointSet(points=points[idx], kind="path"),
                       energies=union.energies[idx])
        trace = band_derivative_trace(mesh, band_index, order)
        near = np.zeros(trace.size, dtype=bool)
        for i in f:
            near[max(0, i - 5):i + 6] = True
        peaks[j] = np.max(np.abs(trace[near]))

    coarse, f = meshes[0], flips[0]  # change points as the coarsest mesh sees them
    p1, p2, p3 = peaks[-3], peaks[-2], peaks[-1]
    unbounded = (p3 > p2 > p1) and (p3 >= 1.5 * p1)
    return RegularityProbe(
        deltas=deltas,
        peaks=peaks,
        verdict="UnboundedDerivative" if unbounded else "BoundedDerivative",
        change_points=center + (0.5 * (coarse[f] + coarse[f + 1]))[:, None] * direction,
        band_index=band_index,
        order=order,
    )


def _distinct_tags(schemes) -> list:
    """The schemes as a list, a ValueError unless it holds at least one and
    their tags, the keys of a per-scheme result, are distinct."""
    schemes = list(schemes)
    tags = [scheme.tag for scheme in schemes]
    if not tags:
        raise ValueError("'schemes' is empty: name at least one scheme")
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ValueError(f"'schemes' repeat the tag {', '.join(repeated)}: the results are "
                         f"keyed by tag, so each tag may appear once")
    return schemes


def periodicity_report(lat: Lattice, V: FourierPotential, Ec: float, schemes,
                       k_samples, shifts, n_bands: int = 1, threads: int = 1) -> dict:
    """Max band deviation between k and k + G over samples, per scheme tag,
    in the order of `schemes`.

    The k-dependent and modified schemes are exactly periodic up to floating
    point noise; the uniform scheme is not, which this report quantifies.
    The samples (an (n, d) array) and every shifted copy are stacked into
    one k-set, solved for every scheme at once: one basis pass per basis
    mode and one set of stacks (spectra._band_structures).  Each copy's
    deviation is read from its slice of that one result.  Raises ValueError
    for an empty scheme list, a repeated tag, or no shift or a zero one
    among `shifts` (a zero shift compares each k with itself).
    """
    schemes = _distinct_tags(schemes)
    shifts = list(shifts)
    if not shifts or not all(np.any(shift) for shift in shifts):
        raise ValueError(f"'shifts' must hold at least one G-shift and no zero one, got "
                         f"{[list(map(int, shift)) for shift in shifts]}")
    pts = np.asarray(k_samples, float)
    copies = np.concatenate([pts] + [pts + lat.gvector(shift) for shift in shifts])
    solved = _band_structures(lat, V, KPointSet(points=copies, kind="path"), Ec, schemes,
                              n_bands, threads)
    blocks = {b.scheme.tag: b.energies.reshape(1 + len(shifts), len(pts), n_bands) for b in solved}
    return {tag: float(np.max(np.abs(e[1:] - e[0]))) for tag, e in blocks.items()}


@dataclass(frozen=True)
class CellScan:
    a_values: np.ndarray
    energies: dict           # scheme tag -> energy per volume, per a
    second_differences: dict  # scheme tag -> max |second difference|


def energy_vs_cell_parameter(make_lattice, make_potential, Ec: float, schemes,
                             a_values, n_electrons: float, grid_n: int,
                             n_bands: int, threads: int = 1) -> CellScan:
    """Occupied energy per volume along a family of cells, per scheme.

    make_lattice(a) and make_potential(lattice) define the family.  The max
    absolute second difference over the uniform a-ladder measures how
    smoothly each scheme responds to the cell parameter; rank changes of the
    k-dependent space show up as jumps here.  Each cell's grid is solved for
    every scheme at once: the schemes that share a basis share one basis
    pass and one set of stacks (spectra._band_structures).  The results are
    keyed by tag in the order of `schemes`.  Raises ValueError for an empty
    scheme list or a repeated tag, and before each cell's solve, fermi_level's
    error for an electron count that is not positive or that n_bands bands
    cannot hold.
    """
    schemes = _distinct_tags(schemes)
    a_values = np.asarray([float(a) for a in a_values])
    if a_values.size < 3:
        raise ValueError("need at least three cell parameters")
    if not (_whole(grid_n) and grid_n >= 1):
        raise ValueError(f"'grid_n' must be >= 1 and an integer, got {grid_n}")
    da = np.diff(a_values)
    if da[0] == 0.0 or np.max(np.abs(da - da[0])) > 1e-9 * abs(da[0]):
        raise ValueError("cell parameter ladder must be uniform with a nonzero step")
    energies = {scheme.tag: np.empty(a_values.size) for scheme in schemes}
    for i, a in enumerate(a_values):
        lat = make_lattice(a)
        V = make_potential(lat)
        grid = uniform_grid(lat, grid_n)
        _check_filling(n_electrons, n_bands, len(grid))  # before the cell's solve
        for bands in _band_structures(lat, V, grid, Ec, schemes, n_bands, threads):
            mu = fermi_level(bands, n_electrons).mu
            energies[bands.scheme.tag][i] = idoe(bands, mu) / lat.cell_volume
    second = {
        tag: float(np.max(np.abs(np.diff(vals, n=2) / da[0] ** 2)))
        for tag, vals in energies.items()
    }
    return CellScan(a_values=a_values, energies=energies, second_differences=second)
