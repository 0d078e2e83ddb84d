"""The cold import: `import bandlab` loads only what a solve runs.

Each CLI subcommand, demo and benchmark set-up starts a fresh interpreter,
so a module loaded at import is paid on every run.  The library imports
neither hashlib nor json: only the CLI, which digests and writes run
records, loads them.  concurrent.futures loads only for threads > 1, and the
blow-up bridge evaluates its polynomial without numpy.polynomial.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("hashlib", "json", "concurrent.futures", "numpy.polynomial")

SCRIPT = f"""
import sys

import numpy as np

import bandlab as bl

print(sorted(m for m in {DEFERRED!r} if m in sys.modules))
lat = bl.new_lattice(np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]]))
V = bl.synth_power_law(lat, t=2.1, gmax=3, seed=1)
scheme = bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))
grid = bl.uniform_grid(lat, 4)
serial = bl.compute_bands(lat, V, grid, 40.0, scheme, 3, threads=1)
print("concurrent.futures" in sys.modules)
threaded = bl.compute_bands(lat, V, grid, 40.0, scheme, 3, threads=2)
print("concurrent.futures" in sys.modules)
print(serial.energies.tobytes() == threaded.energies.tobytes())
"""


def test_import_defers_what_a_solve_never_runs():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == "[]"                    # none of them at import
    assert out[1:] == ["False",              # nor after a serial solve
                       "True",               # the threaded one loads the pool
                       "True"]               # and returns the same bits
