"""Time one cold set-up of a workload: import bandlab, then build its inputs.

run.py starts this script in a fresh process for every setup_s sample and
reads the two numbers it prints: the seconds, and the host factor from
interpreter units timed just before and just after them in this process
(see yardstick.py).  Usage: setup_probe.py <workload> <seed> <tiny 0|1>
"""

import sys
from pathlib import Path

from yardstick import interp_factor

before = interp_factor()

import time  # noqa: E402

t0 = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bandlab  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), sys.argv[3] == "1")
seconds = time.perf_counter() - t0
print(repr(seconds), repr(0.5 * (before + interp_factor())))
