"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload: an untraced run reports every end-to-end metric of
BENCHMARK.json with its unit and no failed operation; a traced run reports
every per-module metric with its unit, its outputs are byte-identical to
the untraced run's, and the module self times plus the benchmark's own
time add up to the traced wall time.  Exits 1 at the first problem.
Takes about a minute.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            workload = cls(workloads.TINY)
            result = run.trace_run(workload, 1) if trace else run.measure(workload, 1, 1.0)
            metrics = result["metrics"]
            for m in wanted:
                if m["name"] not in metrics:
                    problems.append(f"{name} trace={trace}: no metric {m['name']}")
                elif run.unit_of(m["name"]) != m["unit"]:
                    problems.append(f"{name}: {m['name']} has unit {run.unit_of(m['name'])}")
            if set(metrics) != {m["name"] for m in wanted}:
                problems.append(f"{name} trace={trace}: extra metrics "
                                f"{sorted(set(metrics) - {m['name'] for m in wanted})}")
            if result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed operations")
            if trace:
                if not result["traced_identical"]:
                    problems.append(f"{name}: traced outputs differ from untraced ones")
                accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
                if abs(accounted - metrics["trace.wall_s"]) > 0.01 * metrics["trace.wall_s"]:
                    problems.append(f"{name}: self times {accounted:.4f} s do not add up to "
                                    f"the traced wall time {metrics['trace.wall_s']:.4f} s")
            print(f"{name} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
