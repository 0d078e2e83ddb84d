"""bandlab benchmark: end-to-end metrics per workload, per-layer metrics from a
separate traced run.

    python3 perfbench/run.py                    # all workloads, untraced and traced
    python3 perfbench/run.py --workload grid2d --seed 0 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single caller: each
operation (one workload call, then its output check) starts after the
previous one returned.  An operation fails when it raises or its check
finds a problem.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  A run record
(commit, seeds, cores, BLAS, versions) is printed before it and written
with the metrics to perfbench/out/.

BLAS is pinned to one thread before numpy is imported and the library runs
with its default threads=1: on a 2-vCPU host, default OpenBLAS threading
burned 9.1 s of CPU for 4.4 s of wall time on grid2d, so unpinned numbers
would measure the scheduler instead of the program.

wall_s and setup_s are given at the reference host speed: every call and
every cold set-up is divided by the host factor that yardstick.py measured
on the same vCPU while it ran, because the shared host's vCPUs drift between
speed levels up to about 2x apart.  The plain times are printed and kept in the
out file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from yardstick import HostSampler  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SELF_TIME_MARGIN = 0.01  # traced self times must sum to the traced wall within 1%


class LibraryMissing(RuntimeError):
    """The checkout has no bandlab sources next to the benchmark."""


def import_library():
    """Import bandlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "bandlab" / "__init__.py").is_file():
        raise LibraryMissing(f"no bandlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bandlab

    if Path(bandlab.__file__).resolve().parent != SRC / "bandlab":
        raise LibraryMissing(f"bandlab imported from {bandlab.__file__}, not {SRC}")
    return bandlab


# ---------------------------------------------------------------- run record

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bandlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "threads": blas_threads()}


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, None when not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(bl, name: str, seed: int, wseed: int, seconds: float, trace: int) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": name,
        "seed": seed,
        "workload_seed": wseed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "library_threads": inspect.signature(bl.compute_bands).parameters["threads"].default,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load_average": os.getloadavg(),
    }


# ------------------------------------------------------------------ measuring

def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct, float(np.percentile(values, pct))
    return 50.0, float(np.median(values))


def setup_sample(name: str, wseed: int, tiny: bool) -> tuple[float, float]:
    """Seconds to import bandlab and build the inputs in a fresh process, and
    the host factor that process measured around them."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(wseed), str(int(tiny))],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    seconds, factor = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(factor)


def run_operation(wl, state) -> tuple[float, float, str | None]:
    """One workload call and its check: (call seconds without the host
    sampler's share, host factor during the call, failure or None)."""
    sampler = HostSampler()
    t0 = time.perf_counter()
    try:
        with sampler:
            out = wl.call(state)
        wall = time.perf_counter() - t0 - sampler.spent
        problems = wl.check(state, out)
    except Exception:
        return time.perf_counter() - t0, sampler.factor(), traceback.format_exc()
    return wall, sampler.factor(), "; ".join(problems) or None


def untraced(wl, wseed: int, seconds: float, tiny: bool) -> dict:
    """End-to-end metrics; wall_s and setup_s at the reference host speed."""
    state = wl.setup(wseed, tiny)  # also compiles bytecode before the cold samples
    setups = [setup_sample(wl.name, wseed, tiny) for _ in range(SETUP_SAMPLES)]
    walls, factors, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, factor, failure = run_operation(wl, state)
        walls.append(wall)
        factors.append(factor)
        if failure:
            failures.append(failure)
    norm_walls = [w / f for w, f in zip(walls, factors)]
    norm_setups = [t / f for t, f in setups]
    q1, med, q3 = quartiles(norm_walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": len(walls),
        "failures": failures,
        "metrics": {
            "wall_s": (med, "s"),
            "setup_s": (statistics.median(norm_setups), "s"),
            "peak_rss_mib": (peak, "MiB"),
        },
        "detail": {"wall_s": {"samples": norm_walls, "q1": q1, "median": med, "q3": q3,
                              "plain_samples": walls, "host_factors": factors},
                   "setup_s": {"samples": norm_setups,
                               "plain_samples": [t for t, _ in setups],
                               "host_factors": [f for _, f in setups]}},
    }


def traced(wl, wseed: int, seconds: float, tiny: bool) -> tuple[dict, object]:
    """Half the time untraced, half traced; every operation is set-up, call
    and check, so layers that only work in set-up show up too."""
    from spans import HARNESS, LAYERS, Recorder

    def loop(budget, rec=None):
        walls, failures = [], []
        deadline = time.perf_counter() + budget
        while not walls or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            if rec is None:
                try:
                    state = wl.setup(wseed, tiny)
                    failure = "; ".join(wl.check(state, wl.call(state))) or None
                except Exception:
                    failure = traceback.format_exc()
            else:
                rec.op = len(walls)
                try:
                    with rec.span("bench.operation"):
                        with rec.span("bench.setup"):
                            state = wl.setup(wseed, tiny)
                        with rec.span("bench.call"):
                            out = wl.call(state)
                        with rec.span("bench.check"):
                            failure = "; ".join(wl.check(state, out)) or None
                except Exception:
                    failure = traceback.format_exc()
            walls.append(time.perf_counter() - t0)
            if failure:
                failures.append(failure)
        return walls, failures

    plain_walls, plain_failures = loop(seconds / 2.0)
    rec = Recorder()
    with rec.installed():
        walls, failures = loop(seconds / 2.0, rec)

    a = rec.arrays()
    n = len(walls)
    metrics = {}
    for layer in (*LAYERS, HARNESS):
        mask = a["layers"] == layer
        metrics[f"{layer}.self_s"] = (float(a["self"][mask].sum()) / n, "s")
        if layer != HARNESS:
            metrics[f"{layer}.calls"] = (int(mask.sum()) / n, "count")
            metrics[f"{layer}.failed"] = (int((mask & a["failed"]).sum()) / n, "count")
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain_walls), "s")
    tails = {}
    for key, span in (("fiber.assemble_ms", "fiber.assemble"), ("spectra.eigh_ms", "spectra.eigh")):
        ms = a["dur"][a["names"] == span] * 1e3
        pct, value = tail(ms)
        metrics[f"{key}.p50"] = (float(np.median(ms)), "ms")
        metrics[f"{key}.tail"] = (value, "ms")
        tails[key] = {"samples": int(ms.size), "tail_percentile": pct}

    sizes = np.array([rec.sizes[i] for i in sorted(rec.sizes)], dtype=np.int64)
    size_ops = np.array([rec.ops[i] for i in sorted(rec.sizes)], dtype=np.int64)
    flips = int(np.sum((np.diff(sizes) != 0) & (np.diff(size_ops) == 0)))
    metrics["fiber.basis_size.min"] = (int(sizes.min()), "count")
    metrics["fiber.basis_size.max"] = (int(sizes.max()), "count")
    metrics["fiber.rank_flips"] = (flips / n, "count")
    metrics["fiber.computed_bytes"] = (float(np.sum(16.0 * sizes.astype(float) ** 2)) / n, "B")
    eigh_calls = int(np.sum(a["names"] == "spectra.eigh"))
    lapack_calls = len(rec.lapack_flops)
    metrics["spectra.lapack_calls"] = (lapack_calls / n, "count")
    metrics["spectra.lapack_per_eigh"] = (lapack_calls / eigh_calls, "calls/eigh")
    metrics["spectra.computed_flops"] = (sum(rec.lapack_flops) / n, "flop")

    self_sum = float(a["self"].sum())
    wall_sum = float(sum(walls))
    return {
        "attempted": n + len(plain_walls),
        "failures": plain_failures + failures,
        "metrics": metrics,
        "detail": {
            "untraced_walls": plain_walls,
            "traced_walls": walls,
            "self_time_sum_s": self_sum,
            "traced_wall_sum_s": wall_sum,
            "self_time_margin": SELF_TIME_MARGIN,
            "self_time_within_margin": abs(self_sum - wall_sum) <= SELF_TIME_MARGIN * wall_sum,
            "min_self_time_s": float(a["self"].min()),
            "latency": tails,
            "lapack_calls_total": lapack_calls,
            "eigh_calls_total": eigh_calls,
            "flops_formula": "4/3 n^3 (+2 n^3 with vectors) real flops, x4 for complex",
        },
    }, rec


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Measure one workload; returns the result object with its run record."""
    import workloads

    bl = sys.modules["bandlab"]
    wl = workloads.WORKLOADS[name]
    wseed = workloads.workload_seed(name, seed)
    record = run_record(bl, name, seed, wseed, seconds, trace)
    rec = None
    if trace:
        run, rec = traced(wl, wseed, seconds, tiny)
    else:
        run = untraced(wl, wseed, seconds, tiny)
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"record": record, "result": result, "detail": run["detail"],
         "failures": run["failures"]}, indent=1) + "\n")
    if rec is not None:
        rec.write(OUT / f"{stem}.spans.jsonl.gz")
    return {"result": result, "record": record, "detail": run["detail"],
            "failures": run["failures"]}


def print_report(name: str, report: dict) -> None:
    result, record = report["result"], report["record"]
    print(f"== {name}  seed {record['seed']} (workload seed {record['workload_seed']})"
          f"  trace {record['trace']}")
    detail = report["detail"]
    if "wall_s" in detail:
        wall = detail["wall_s"]
        print(f"   wall_s over {len(wall['samples'])} calls: q1 {wall['q1']:.6g}"
              f"  median {wall['median']:.6g}  q3 {wall['q3']:.6g} s at reference speed;"
              f" plain median {statistics.median(wall['plain_samples']):.6g} s")
    for key, lat in detail.get("latency", {}).items():
        print(f"   {key}.tail is p{lat['tail_percentile']:g} of {lat['samples']} calls")
    for key, metric in result["metrics"].items():
        print(f"   {key:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"   failed {result['failed']} of {result['attempted']} operations")
    for failure in report["failures"]:
        print(f"   FAILED: {failure.strip()}", file=sys.stderr)
    print("record " + json.dumps(record))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process so that
    peak_rss_mib belongs to that workload alone."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].setdefault(name, {}).update(result["metrics"])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(args.workload, report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
