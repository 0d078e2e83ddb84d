"""Regenerate perfbench/reference.json: the outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs grid2d, cubic3d and regularity1d at full size for every entry of the
workload seed table and stores energies, mu and idoe, or the verdict ladder.
Run it on the commit whose outputs are the reference, never to make a failing
check pass.  cellscan2d needs no stored values: its check is the paper's
smoothness criterion.
"""

import json

from run import import_library

import_library()

from workloads import REFERENCE_FILE, SEED_TABLE_SIZE, WORKLOADS, workload_seed  # noqa: E402

CRITERION_6 = {"p=0.5,order=1": "UnboundedDerivative", "p=1.5,order=1": "BoundedDerivative",
               "p=1.5,order=2": "UnboundedDerivative", "p=2.5,order=2": "BoundedDerivative"}


def main() -> None:
    reference = {}
    for name in ("grid2d", "cubic3d", "regularity1d"):
        wl = WORKLOADS[name]
        reference[name] = {}
        for i in range(SEED_TABLE_SIZE):
            seed = workload_seed(name, i)
            out = wl.call(wl.setup(seed, tiny=False))
            if name == "regularity1d":
                ladder = all(out["verdicts"][k] == v for k, v in CRITERION_6.items())
                print(f"{name} seed {seed}: criterion-6 ladder {'holds' if ladder else 'differs'}")
                reference[name][str(seed)] = {"verdicts": out["verdicts"]}
            else:
                print(f"{name} seed {seed}: mu {out['mu']!r} idoe {out['idoe']!r}")
                reference[name][str(seed)] = {"energies": out["energies"].tolist(),
                                              "mu": out["mu"], "idoe": out["idoe"]}
    REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
