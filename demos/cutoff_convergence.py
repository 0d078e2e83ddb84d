"""Cutoff convergence of the lowest band on a rough synthetic potential.

The potential's Fourier coefficients decay like |G|^(-2.1), which places it
in H^r for r just under 1.6.  Band-1 errors against a 32000-cutoff reference
should then decay like Ec^-(r + 3/4), and the k-dependent and modified
schemes should share that rate even though the modified constants are worse.
"""

import numpy as np

import bandlab as bl

lat = bl.new_lattice([[1.0]])
V = bl.synth_power_law(lat, t=2.1, gmax=12, seed=1)
R = 2.1 - 0.5

grid = bl.uniform_grid(lat, 24)
ladder = [125.0, 250.0, 500.0, 1000.0, 2000.0]
fn = bl.build_blowup(bl.BlowupSpec(m=1, p=1.5, C=1.0))

print(f"potential: |coeff| ~ |G|^-2.1 (Sobolev order r = {R:.1f}), 24-point grid")
print(f"reference: uniform scheme at Ec = 32000\n")

studies = {}
for scheme in (bl.kdependent_scheme(), bl.modified_scheme(fn)):
    studies[scheme.tag] = bl.convergence_study(
        lat, V, 1, grid, ladder, scheme, 32000.0, r_potential=R)

header = "      Ec" + "".join(f" {tag:>14}" for tag in studies)
print(header)
for i, ec in enumerate(ladder):
    row = f"{ec:8.0f}"
    for study in studies.values():
        row += f" {study.errors[i]:14.3e}"
    print(row)

predicted = next(iter(studies.values())).predicted_rate
print(f"\npredicted rate r + 1 - d/4 = {predicted:.2f}")
for tag, study in studies.items():
    print(f"{tag:>11}: fitted rate {study.fitted_rate_full:.3f}"
          f" (upper-half fit {study.fitted_rate:.3f})")

kd, mod = (studies[t].fitted_rate_full for t in ("kdependent", "modified"))
print(f"\nrate difference between schemes: {abs(kd - mod):.3f}"
      "  (same asymptotics, different constants)")
