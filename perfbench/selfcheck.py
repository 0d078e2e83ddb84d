"""Self-check of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/selfcheck.py

Fails (exit 1, one line per problem) unless every run
  * emits exactly the metrics BENCHMARK.json names for its mode, each with
    the unit named there,
  * completes its operations without a failure, and
  * for traced runs, has self times that add up to the traced wall time of
    its operations within run.SELF_TIME_MARGIN, with no negative self time.
Takes about half a minute.
"""

import json
import sys

import run

run.import_library()

import workloads  # noqa: E402


def check_run(name: str, trace: int, wanted: dict) -> list[str]:
    report = run.run_workload(name, seed=0, seconds=0.0, trace=trace, tiny=True)
    result, detail = report["result"], report["detail"]
    where = f"{name} trace {trace}"
    problems = [f"{where}: {key} missing" for key in wanted if key not in result["metrics"]]
    problems += [f"{where}: {key} not in BENCHMARK.json"
                 for key in result["metrics"] if key not in wanted]
    problems += [f"{where}: {key} has unit {metric['unit']!r}, BENCHMARK.json says "
                 f"{wanted[key]!r}" for key, metric in result["metrics"].items()
                 if key in wanted and metric["unit"] != wanted[key]]
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} operations "
                        f"failed: {report['failures']}")
    if trace:
        if not detail["self_time_within_margin"]:
            problems.append(f"{where}: self times sum to {detail['self_time_sum_s']:.6f} s, "
                            f"traced wall is {detail['traced_wall_sum_s']:.6f} s")
        if detail["min_self_time_s"] < 0.0:
            problems.append(f"{where}: negative self time {detail['min_self_time_s']:.3g} s")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in workloads.WORKLOADS:
            problems += check_run(name, trace, wanted)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selfcheck: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
