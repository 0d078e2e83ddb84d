"""The four benchmark workloads: inputs, the timed library call, output checks.

Each workload has a `setup` that builds the inputs (lattice, potential,
blow-up and k-set) from a workload seed, a `call` that runs the study the
user waits for, and a `check` that returns the list of problems found in its
output (empty when correct).  `tiny=True` shrinks every workload to a size
that runs in well under a second; the output checks then only test that the
results are finite, because the references and the paper's verdicts hold at
full size only.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

import bandlab as bl

HEX = np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# The benchmark's --seed picks one of SEED_TABLE_SIZE potential seeds per
# workload, starting at the seed the tests and demos use; reference.json
# holds the seed commit's outputs for every entry.
DEFAULT_SEEDS = {"grid2d": 1, "cubic3d": 1, "regularity1d": 7, "cellscan2d": 5}
SEED_TABLE_SIZE = 8

# Energies, mu and idoe must match the stored values to TOL_ENERGY.  The
# seed commit solves matrices below the graded switch (max diagonal under
# 1e8 times the off-diagonal scale) densely, with an error of order
# eps * 1e8 ~ 2e-8; a plain dense solve of the graded grid2d matrices is
# off by 1.4e-5.  1e-6 admits any solver at least as accurate as the seed
# commit and rejects that failure.
TOL_ENERGY = 1e-6


def workload_seed(name: str, seed: int) -> int:
    return DEFAULT_SEEDS[name] + seed % SEED_TABLE_SIZE


def _finite(*arrays) -> list[str]:
    return [] if all(np.all(np.isfinite(a)) for a in arrays) else ["non-finite output"]


class GridWorkload:
    """compute_bands on a uniform grid, then fermi_level(1.0) and idoe."""

    n_bands = 4
    n_electrons = 1.0

    def __init__(self, name, primitive, t, gmax, amplitude, Ec, grid_n, tiny_Ec, tiny_n):
        self.name = name
        self.primitive = primitive
        self.potential_args = {"t": t, "gmax": gmax, "amplitude": amplitude}
        self.sizes = {False: (Ec, grid_n), True: (tiny_Ec, tiny_n)}

    def setup(self, seed: int, tiny: bool) -> dict:
        Ec, n = self.sizes[tiny]
        lat = bl.new_lattice(self.primitive)
        V = bl.synth_power_law(lat, seed=seed, **self.potential_args)
        fn = bl.build_blowup(bl.BlowupSpec(m=1, p=1.5))  # C chosen automatically
        return {"seed": seed, "tiny": tiny, "lat": lat, "V": V, "Ec": Ec,
                "scheme": bl.modified_scheme(fn), "grid": bl.uniform_grid(lat, n)}

    def call(self, s: dict) -> dict:
        bands = bl.compute_bands(s["lat"], s["V"], s["grid"], s["Ec"], s["scheme"],
                                 self.n_bands)
        mu = bl.fermi_level(bands, self.n_electrons).mu
        return {"energies": bands.energies, "mu": mu, "idoe": bl.idoe(bands, mu)}

    def check(self, s: dict, out: dict) -> list[str]:
        problems = _finite(out["energies"], out["mu"], out["idoe"])
        if s["tiny"] or problems:
            return problems
        ref = load_reference()[self.name][str(s["seed"])]
        energies = np.asarray(ref["energies"])
        if out["energies"].shape != energies.shape:
            return [f"energies shape {out['energies'].shape} != {energies.shape}"]
        err = float(np.max(np.abs(out["energies"] - energies)))
        if err > TOL_ENERGY:
            problems.append(f"energies off by {err:.3e} > {TOL_ENERGY:g}")
        if abs(out["mu"] - ref["mu"]) > TOL_ENERGY:
            problems.append(f"mu {out['mu']!r} != reference {ref['mu']!r}")
        # idoe sums at most n_bands occupied energies per k
        if abs(out["idoe"] - ref["idoe"]) > self.n_bands * TOL_ENERGY:
            problems.append(f"idoe {out['idoe']!r} != reference {ref['idoe']!r}")
        return problems


class RegularityWorkload:
    """The criterion-6 ladder: regularity probes for three tail orders and
    derivative orders 1 and 2."""

    name = "regularity1d"
    Ec = 750.0
    ladder = ((0, 0.5), (1, 1.5), (2, 2.5))

    def setup(self, seed: int, tiny: bool) -> dict:
        lat = bl.new_lattice([[1.0]])
        V = bl.synth_power_law(lat, t=1.55, gmax=8, seed=seed, amplitude=48000.0)
        ladder = self.ladder[1:2] if tiny else self.ladder
        deltas = [1e-2, 5e-3, 2.5e-3] if tiny else [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        return {"seed": seed, "tiny": tiny, "lat": lat, "V": V, "deltas": deltas,
                "specs": [bl.BlowupSpec(m=m, p=p, C=1.0) for m, p in ladder]}

    def call(self, s: dict) -> dict:
        verdicts, peaks = {}, []
        for spec in s["specs"]:
            for order in (1, 2):
                probe = bl.regularity_probe(s["lat"], s["V"], self.Ec, spec, 1, order,
                                            s["deltas"])
                verdicts[f"p={spec.p:g},order={order}"] = probe.verdict
                peaks.append(probe.peaks)
        return {"verdicts": verdicts, "peaks": np.concatenate(peaks)}

    def check(self, s: dict, out: dict) -> list[str]:
        problems = _finite(out["peaks"])
        if s["tiny"] or problems:
            return problems
        ref = load_reference()[self.name][str(s["seed"])]["verdicts"]
        return [f"{key}: {out['verdicts'].get(key)} != reference {want}"
                for key, want in ref.items() if out["verdicts"].get(key) != want]


class CellScanWorkload:
    """The criterion-8 scan: energy per volume over hexagonal cells, k-dependent
    against modified, with a new potential on every cell."""

    name = "cellscan2d"

    def setup(self, seed: int, tiny: bool) -> dict:
        fn = bl.build_blowup(bl.BlowupSpec(m=2, p=2.5, C=1.0))
        count, Ec, grid_n = (5, 30.0, 2) if tiny else (50, 100.0, 6)
        return {"seed": seed, "tiny": tiny, "Ec": Ec, "grid_n": grid_n,
                "a_values": np.linspace(0.95, 1.05, count),
                "schemes": [bl.kdependent_scheme(), bl.modified_scheme(fn)]}

    def call(self, s: dict) -> dict:
        seed = s["seed"]

        def make_lattice(a):
            return bl.new_lattice(a * HEX)

        def make_potential(lat):
            return bl.synth_power_law(lat, t=2.2, gmax=3, seed=seed, amplitude=400.0)

        scan = bl.energy_vs_cell_parameter(make_lattice, make_potential, s["Ec"],
                                           s["schemes"], s["a_values"], n_electrons=1.0,
                                           grid_n=s["grid_n"], n_bands=4)
        return {"energies": np.array(list(scan.energies.values())),
                "kdependent": scan.second_differences["kdependent"],
                "modified": scan.second_differences["modified"]}

    def check(self, s: dict, out: dict) -> list[str]:
        problems = _finite(out["energies"])
        if s["tiny"] or problems:
            return problems
        if not out["kdependent"] >= 5.0 * out["modified"]:
            problems.append(f"kdependent second difference {out['kdependent']:.6g} "
                            f"< 5 x modified {out['modified']:.6g}")
        return problems


WORKLOADS = {
    w.name: w for w in (
        GridWorkload("grid2d", HEX, t=2.1, gmax=6, amplitude=1.0, Ec=800.0, grid_n=12,
                     tiny_Ec=100.0, tiny_n=3),
        GridWorkload("cubic3d", np.eye(3), t=2.1, gmax=1, amplitude=5.0, Ec=600.0,
                     grid_n=3, tiny_Ec=60.0, tiny_n=2),
        RegularityWorkload(),
        CellScanWorkload(),
    )
}


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
