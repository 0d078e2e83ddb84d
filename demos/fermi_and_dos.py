"""Fermi levels and integrated densities on a Monkhorst-style grid.

Free electrons in 1D give closed forms to check against: at one electron
per cell the Fermi level is pi^2/2 and the integrated energy density up to
it is pi^2/6.  Switching on a cosine potential opens a gap at the zone
edge: the Fermi search then reports a plateau [lower, upper] with
upper > lower, whose edges are the gap edges.
"""

import warnings

import numpy as np

import bandlab as bl

lat = bl.new_lattice([[1.0]])
scheme = bl.kdependent_scheme()

# free electrons on a dense grid
free = bl.compute_bands(lat, bl.potential_from_coeffs(lat, []), bl.uniform_grid(lat, 400),
                        200.0, scheme, 1)
report = bl.fermi_level(free, 1.0)
print("free electrons, 400-point grid, 1 electron per cell")
print(f"  fermi level      {report.mu:.10f}   (pi^2/2 = {np.pi ** 2 / 2:.10f})")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always", bl.TruncationWarning)
    energy = bl.idoe(free, report.mu)
print(f"  energy(mu)       {energy:.10f}   (pi^2/6 = {np.pi ** 2 / 6:.10f})")
print(f"  gap width        {report.upper - report.lower:g}   (no computed state above)")
# the band is exactly full, so the counter flags that band 2 could matter
print(f"  library warns:   {caught[0].message}")

# cosine potential: 2 cos(2 pi x) opens a gap of width ~2 at the zone edge
V = bl.potential_from_coeffs(lat, [((1,), 1.0), ((-1,), 1.0)])
cosine = bl.compute_bands(lat, V, bl.uniform_grid(lat, 16), 200.0, scheme, 2)
report = bl.fermi_level(cosine, 1.0)
print("\ncosine potential, 16-point grid, 1 electron per cell (insulator)")
print(f"  valence top      {report.lower:.10f}")
print(f"  conduction floor {report.upper:.10f}")
print(f"  fermi level      {report.mu:.10f}   (gap midpoint)")
print(f"  gap width        {report.upper - report.lower:.10f}")
print(f"  idos at mu       {bl.idos(cosine, report.mu):.1f}   (filled band)")

# half filling lands inside band 1: the level pins to a spectral jump
report = bl.fermi_level(cosine, 0.5)
print("\nsame bands at half filling (metallic)")
print(f"  fermi level      {report.mu:.10f}")
print(f"  plateau edges    [{report.lower:.10f}, {report.upper:.10f}]")
print(f"  idos at mu       {bl.idos(cosine, report.mu):.4f}   (overshoots 0.5 on a jump)")

# integrated densities sweep: staircase in mu, nondecreasing by construction
# (4 bands keep the top computed band above every mu probed, so no warning)
cosine4 = bl.compute_bands(lat, V, bl.uniform_grid(lat, 16), 200.0, scheme, 4)
mus = np.linspace(-1.0, 8.0, 10)
print("\n      mu    idos(mu)    idoe(mu)")
for mu in mus:
    print(f"{mu:8.2f}  {bl.idos(cosine4, mu):9.4f}  {bl.idoe(cosine4, mu):10.5f}")
