"""Host speed yardstick: a fixed unit of work timed while the benchmark runs.

The benchmark host is a shared virtual machine.  Each of its vCPUs moves
between speed levels, the slowest seen about twice as slow as the fastest,
in phases of a fraction of a second to minutes, in CPU time as well as wall
time, and the two vCPUs do so independently.  A call that runs in a slow phase is slow whatever the
program does.  The benchmark therefore times a fixed unit of work on the
same vCPU as the program, while the program runs, and divides each measured
time by the host factor: the unit's mean time over its time at the reference
speed.  The result is the time the program would have taken at the
reference speed.

The unit has the instruction mix of the bandlab workloads: interpreter work
(the dict-and-tuple loop of fiber assembly and basis enumeration) and, when
numpy is loaded, scalar numpy updates and a small complex Hermitian
`eigvalsh`, as in spectra.  It uses only Python and numpy, never bandlab, so
a change to the library moves the measured times and not the factor.

This module imports nothing but `time` and `signal` at load, so that
setup_probe.py can time the interpreter unit before it imports numpy.
"""

from __future__ import annotations

import functools
import signal
import time

# Mean seconds of one unit on the reference host (2-vCPU Xeon virtual
# machine at 2.1 GHz, Python 3.11, numpy 2.4 with OpenBLAS pinned to one
# thread) in its fast phase.  They only set the scale of the normalised
# times.
REFERENCE_INTERP_S = 0.00070
REFERENCE_MIXED_S = 0.00050
SAMPLE_INTERVAL_S = 0.05  # two units per 50 ms of a timed call: ~2% overhead
INTERP_REPEATS = 15  # ~10 ms before and after each cold set-up

_BASIS = [(i, j) for i in range(-3, 3) for j in range(-3, 3)]
_SHIFTS = [(i % 7 - 3, (5 * i) % 7 - 3) for i in range(24)]


def interp_unit() -> float:
    """Seconds for the interpreter unit: pure Python, no numpy."""
    t0 = time.perf_counter()
    pos = {g: i for i, g in enumerate(_BASIS)}
    H = [[0j] * len(_BASIS) for _ in _BASIS]
    for n, dg in enumerate(_SHIFTS):
        c = complex(n, 1.0)
        for j, g in enumerate(_BASIS):
            i = pos.get(tuple(gi + di for gi, di in zip(g, dg)))
            if i is not None:
                H[i][j] += c
    return time.perf_counter() - t0


@functools.cache
def _arrays():
    import numpy as np

    rng = np.random.default_rng(20221001)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    return A + A.conj().T, np.zeros((len(_BASIS), len(_BASIS)), dtype=complex)


def mixed_unit() -> float:
    """Seconds for the mixed unit: the interpreter loop writing into a numpy
    array, then a 40x40 complex eigvalsh."""
    import numpy as np

    A, H = _arrays()
    t0 = time.perf_counter()
    pos = {g: i for i, g in enumerate(_BASIS)}
    for n, dg in enumerate(_SHIFTS[:12]):
        c = complex(n, 1.0)
        for j, g in enumerate(_BASIS):
            i = pos.get(tuple(gi + di for gi, di in zip(g, dg)))
            if i is not None:
                H[i, j] += c
    np.linalg.eigvalsh(A)
    return time.perf_counter() - t0


def interp_factor() -> float:
    """Host factor from the mean of INTERP_REPEATS interpreter units."""
    return sum(interp_unit() for _ in range(INTERP_REPEATS)) / INTERP_REPEATS / REFERENCE_INTERP_S


class HostSampler:
    """Times one mixed unit, after an untimed one that warms the caches, every
    SAMPLE_INTERVAL_S of wall time, from a SIGALRM handler in the main thread,
    while the `with` block runs.

    Python runs the handler between bytecodes, so the unit runs on the vCPU
    that runs the program at that moment, and never inside a numpy call; a
    tick that falls in a long LAPACK call waits for it to return.  Each
    sample is therefore weighted by the program time since the previous one,
    so a 200 ms eigensolve counts four times as much as 50 ms of interpreter
    work.  `spent` is the time the handler took, to subtract from the block's
    time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (program seconds, unit seconds)
        self.spent = 0.0

    def __enter__(self) -> HostSampler:
        mixed_unit()  # load numpy's linalg before the first tick
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        mixed_unit()  # warm the caches the program's work evicted
        self.samples.append((t0 - self._last, mixed_unit()))
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def factor(self) -> float:
        """Time-weighted mean unit time over the reference; one extra unit
        when the block was too short for a tick."""
        samples = self.samples or [(1.0, mixed_unit())]
        weight = sum(w for w, _ in samples)
        return sum(w * u for w, u in samples) / weight / REFERENCE_MIXED_S
