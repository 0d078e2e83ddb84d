"""Energy versus cell parameter: where the strict cutoff bites.

Stretching a hexagonal cell at fixed Ec changes which plane waves clear the
cutoff, so the k-dependent total energy jumps every time the basis rank
flips along the scan.  The modified scheme keeps the basis transitions soft
and the curve visibly smoother; the max absolute second difference over a
uniform a-ladder quantifies it.
"""

import numpy as np

import bandlab as bl

HEX = np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])
A_VALUES = np.linspace(0.95, 1.05, 50)
EC = 100.0


def make_lattice(a):
    return bl.new_lattice(a * HEX)


def make_potential(lat):
    return bl.synth_power_law(lat, t=2.2, gmax=3, seed=5, amplitude=400.0)


fn = bl.build_blowup(bl.BlowupSpec(m=2, p=2.5, C=1.0))
schemes = [bl.kdependent_scheme(), bl.modified_scheme(fn)]


def basis_size_range(a):
    """(min, max) of the k-dependent basis size over the cell's 6x6 grid."""
    lat = make_lattice(a)
    V = make_potential(lat)
    sizes = [len(bl.assemble(lat, V, k, EC, schemes[0])) for k in bl.uniform_grid(lat, 6).points]
    return min(sizes), max(sizes)


lo, hi = basis_size_range(A_VALUES[0]), basis_size_range(A_VALUES[-1])
print(f"basis sizes across the 6x6 grid: {lo} at a = {A_VALUES[0]:.2f},"
      f" {hi} at a = {A_VALUES[-1]:.2f}")
print("(the bounds move, so rank flips happen somewhere inside the scan)\n")

scan = bl.energy_vs_cell_parameter(make_lattice, make_potential, EC, schemes,
                                   A_VALUES, n_electrons=1.0, grid_n=6, n_bands=4)

print("       a   E/vol kdependent     E/vol modified")
for i in range(0, A_VALUES.size, 7):
    print(f"{scan.a_values[i]:8.4f}   {scan.energies['kdependent'][i]:16.8f}"
          f"   {scan.energies['modified'][i]:16.8f}")

kd = scan.second_differences["kdependent"]
mod = scan.second_differences["modified"]
print(f"\nmax |second difference| / da^2:")
print(f"  kdependent  {kd:12.4f}")
print(f"  modified    {mod:12.4f}")
print(f"  ratio       {kd / mod:12.1f}x rougher without the modification")
