"""A tour of the blow-up family C (1-x)^(-p) behind the modified scheme.

Each member agrees with x^2 away from the singular point, dominates x^2 in
between, and diverges as x -> 1^- fast enough that (1-x)^m G(x) still grows
without bound.  Higher p buys smoother bands; the junction order m controls
how many derivatives the piecewise parts share.
"""

import numpy as np

import bandlab as bl

print("member (m, p)   C      junction mismatch   domination margin")
members = {}
for m, p in ((0, 0.5), (1, 1.5), (2, 2.5)):
    fn = bl.build_blowup(bl.BlowupSpec(m=m, p=p))   # C resolved automatically
    members[(m, p)] = fn
    print(f"   ({m}, {p:3.1f})    {fn.spec.C:<5g} {fn.junction_mismatch:15.3e}"
          f" {fn.domination_margin:19.3e}")

fn = members[(1, 1.5)]
print("\nvalues of the (1, 3/2) member:")
for x in (0.0, 0.3, 0.5, 0.6, 0.75, 0.9, 0.99, 0.999, 1.5):
    print(f"   G({x:5.3f}) = {fn.eval(x):.6g}" +
          ("   (= x^2, quadratic region)" if x <= 0.5 or x > 1.0 else ""))

print("\nweighted divergence (1-x)^m G(x) for x -> 1^-:")
xs = 1.0 - 2.0 ** -np.arange(5, 16)
for (m, p), g in members.items():
    w = (1.0 - xs) ** m * g.eval(xs)
    print(f"   (m={m}, p={p:3.1f}): {w[0]:10.4g} -> {w[-1]:10.4g}"
          f"   strictly increasing: {bool(np.all(np.diff(w) > 0))}")

print("\nconstruction guards:")
try:
    bl.build_blowup(bl.BlowupSpec(m=1, p=0.5, C=1.0))
except bl.IllPosedSpec as exc:
    print(f"   p <= m rejected: {exc}")
try:
    bl.build_blowup(bl.BlowupSpec(m=0, p=0.5, C=0.05))
except bl.DominationViolated as exc:
    print(f"   too-small C rejected: {exc}")
