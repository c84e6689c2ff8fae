"""docalc benchmark: one workload, one process, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload discovery --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it repeats set-up at least three times (``setup_s``
is the median), then runs whole rounds of the workload's operations in a closed
loop until ``--seconds`` would be exceeded, checks every output and
prints the end-to-end metrics.  With ``--trace 1`` it runs one round
untraced and the same round under the tracer, and prints the per-module
metrics instead.  Untraced times are thread CPU time scaled to one
reference machine speed by calibration probes (``calibrate.py``).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The library is
imported from ``src/`` of the checkout; without it the run exits with 2.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # at least; short set-ups repeat until SETUP_SECONDS of set-up time
SETUP_SECONDS = 2.0

END_TO_END = {  # name: unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "round_s": "s",
}

# Names and units the end-to-end metrics carry on each workload, for the report.
LABELS = {
    "discovery": {"ops_per_s": ("trials_per_s", 1.0, "1/s"),
                  "op_p50_ms": ("trial_p50_s", 1e-3, "s"),
                  "op_tail_ms": ("trial_tail_s", 1e-3, "s"),
                  "round_s": ("trials_round_s", 1.0, "s")},
    "id_sweep": {"ops_per_s": ("queries_per_s", 1.0, "1/s"),
                 "op_p50_ms": ("query_p50_us", 1e3, "us"),
                 "op_tail_ms": ("query_tail_us", 1e3, "us"),
                 "round_s": ("sweep_round_s", 1.0, "s")},
    "dcn_mix": {"ops_per_s": ("dcn_ops_per_s", 1.0, "1/s"),
                "op_p50_ms": ("dcn_op_p50_ms", 1.0, "ms"),
                "op_tail_ms": ("dcn_op_tail_ms", 1.0, "ms"),
                "round_s": ("horizon_sweep_s", 1.0, "s")},
}


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, capped
    at p99.9: a handful of rare inputs in one seed's draw otherwise set it.
    Below 21 samples that percentile is at or under the median, so the
    maximum is reported instead."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return s[-1], f"max of {n}"
    beyond = max(10, n // 1000)
    return s[n - beyond - 1], f"p{100 * (n - beyond) / n:.2f} of {n}"


def run_rounds(workload, ops, seconds: float, reference=None, probes=None):
    """Closed loop over whole rounds, at least one, stopping before
    ``seconds`` of wall time would be exceeded.

    Returns per-op times (seconds, by round; -1 for an operation that
    raised), the first round's outputs and their fingerprints, and the
    keys of operations that raised or whose output differs from
    ``reference`` (fingerprints by key; the first round's by default).
    Only the first round's outputs are kept, so memory does not grow with
    the number of rounds.

    Operations are timed in thread CPU time.  The library is one thread
    without I/O, so on an idle machine that is its latency; on a shared
    one it leaves out the time the thread waits descheduled, which would
    otherwise set the run-to-run spread (wall-clock time of a fixed
    0.1 s block of queries had p95/median 1.97 on a shared 2-core VM,
    CPU time 1.14).  With ``probes`` (a running ``calibrate.Probes``)
    each time is scaled to the reference machine speed."""
    times: list[list[float]] = []
    first: dict = {}
    prints: dict = {}
    failed: set = set()
    start = time.perf_counter()
    while True:
        round_times = []
        for op in ops:
            if probes is None:
                t0 = time.thread_time_ns()
            else:
                m0 = probes.mark()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                round_times.append(-1)
                failed.add(op.key)
                print(f"# op {op.key} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            if probes is None:
                round_times.append((time.thread_time_ns() - t0) / 1e9)
            else:
                round_times.append(probes.elapsed(m0))
            out = workload.keep(out)
            fp = workload.fingerprint(out)
            if not times:
                first[op.key] = out
                prints[op.key] = fp
            if fp != (reference or prints).get(op.key):
                failed.add(op.key)
        times.append(round_times)
        elapsed = time.perf_counter() - start
        if elapsed * (len(times) + 1) / len(times) > seconds:
            break
    return times, first, prints, failed


def count_failed(ops, times, failed: set) -> int:
    return sum(1 for r in times for op, t in zip(ops, r) if t < 0 or op.key in failed)


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    import numpy
    import workloads
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit,
        "fixed_seeds": {"discovery_structures": workloads.STRUCTURE_SEED,
                        "dynamic_mechanism": workloads.DYNAMIC_MECHANISM_SEED},
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@contextlib.contextmanager
def frozen_heap():
    """Keep the garbage collector off the workload's inputs while it runs.

    A run holds all of its inputs at once (on ``id_sweep`` 11,946 graphs
    and 149,000 operations, ~750,000 objects), which a user's process
    never does.  Unfrozen, they reach the oldest generation and every
    full collection walks them: 8 of them took 1.6 s of a 10 s round,
    pointer chasing whose speed the calibration probes do not follow.
    Objects the library makes while the operations run are collected as
    usual."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def measure(workload, seed: int, seconds: float) -> dict:
    setup_times = []
    with calibrate.Probes() as probes:
        while len(setup_times) < SETUP_REPEATS or (sum(setup_times) < SETUP_SECONDS
                                                   and len(setup_times) < 25):
            inputs = None
            gc.collect()
            m0 = probes.mark()
            inputs = workload.setup(seed)
            setup_times.append(probes.elapsed(m0))
        ops = workload.ops(inputs)
        with frozen_heap():
            times, first, _prints, failed = run_rounds(workload, ops, seconds, probes=probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed |= workload.check(inputs, first)

    lat = [[r[i] * 1e3 for r in times if r[i] >= 0]
           for i, op in enumerate(ops) if op.kind == workload.latency_kind]
    # an operation's time is its median over the rounds, which drops
    # one-off stalls; the throughput counts every sample
    per_op = [statistics.median(ts) for ts in lat if ts]
    n_samples = sum(len(ts) for ts in lat)
    per_round = [sum(t for op, t in zip(ops, r) if op.kind == workload.round_kind and t >= 0)
                 for r in times]
    tail_ms, tail_note = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": n_samples / (sum(sum(ts) for ts in lat) / 1e3),
        "op_p50_ms": statistics.median(per_op),
        "op_tail_ms": tail_ms,
        "round_s": statistics.median(per_round),
    }
    notes = {"setup_s": f"median of {len(setup_times)}", "ops_per_s": f"{n_samples} ops",
             "op_p50_ms": f"of {len(per_op)} ops x {len(times)} rounds", "op_tail_ms": tail_note,
             "round_s": f"median of {len(times)} rounds", "peak_rss_mb": "fresh process"}
    notes["speed"] = (f"machine ran at {probes.speed():.3f} x the reference speed "
                      f"({len(probes.times)} probes); times above are scaled to it")
    return {"attempted": len(ops) * len(times), "failed": count_failed(ops, times, failed),
            "metrics": metrics, "notes": notes, "rounds": len(times)}


def trace_run(workload, seed: int) -> dict:
    """One round untraced, then the same round traced: per-module counts
    then depend only on the round, never on how many fit in the time."""
    import tracer as tracer_mod
    import workloads

    inputs = workload.setup(seed)
    ops = workload.ops(inputs)
    tracer = tracer_mod.Tracer()
    traced_ops = [type(op)(op.kind, op.key, _bench_span(tracer, op)) for op in ops]
    with frozen_heap():
        t0 = time.perf_counter()
        times_u, first, prints, failed_u = run_rounds(workload, ops, 0)
        wall_u = time.perf_counter() - t0

        tracer.install(workloads)
        try:
            gc.collect()
            t0 = time.perf_counter()
            times_t, _first, _prints, failed_t = run_rounds(workload, traced_ops, 0,
                                                            reference=prints)
            wall_t = time.perf_counter() - t0
        finally:
            tracer.uninstall()
    failed = failed_u | failed_t | workload.check(inputs, first)

    tracer.save(ROOT / "perfbench" / "out" / f"trace_{workload.name}_{seed}.npz")
    metrics = module_metrics(tracer, wall_t)
    metrics["trace.overhead_ratio"] = wall_t / wall_u
    return {"attempted": len(ops) * (len(times_u) + len(times_t)),
            "failed": count_failed(ops, times_u, failed) + count_failed(ops, times_t, failed),
            "metrics": metrics, "notes": {}, "rounds": len(times_t),
            "traced_identical": not (failed_t - failed_u)}


def _bench_span(tracer, op):
    nid = tracer.name_id(f"op:{op.kind}", "bench")
    return lambda: tracer.span(nid, op.call, (), {})


def module_metrics(tracer, wall_t: float) -> dict:
    import tracer as tracer_mod

    self_s, total_s, calls, root_s = tracer.summary()
    idx = {n: i for i, n in enumerate(tracer.names)}

    def tot(name):
        return float(total_s[idx[name]]) if name in idx else 0.0

    def n(name):
        return int(calls[idx[name]]) if name in idx else 0

    c = tracer.counters
    out: dict[str, float] = {}
    for mod in tracer_mod.MODULES + ("bench",):
        ids = [i for i, m in enumerate(tracer.module_of) if m == mod]
        out[f"{mod}.self_s"] = float(sum(self_s[i] for i in ids))
        if mod != "bench":
            out[f"{mod}.calls"] = int(sum(calls[i] for i in ids))
    # the loop between operations is the benchmark's own time too
    out["bench.self_s"] += wall_t - root_s
    d_calls = n("distinguishable_by")
    out.update({
        "alcam.distinguishable_by.calls": d_calls,
        "alcam.verdict_unique_ratio": len(tracer.verdict_keys) / d_calls if d_calls else 0.0,
        "alcam.partition_s": tot("partition_candidates"),
        "alcam.plan_s": tot("minimal_splitting_sets"),
        "alcam.select_s": tot("select_intervention") + tot("select_graphs"),
        "alcam.ci_fallback_s": tot("id_edges") + tot("id_hidden"),
        "alcam.oracle.calls": n("InterventionOracle.query"),
        "factors.Factor.calls": n("Factor"),
        "factors.multiply.s": tot("multiply"),
        "factors.multiply.cells": int(c.get("multiply.cells", 0)),
        "factors.marginalize.s": tot("marginalize"),
        "factors.reorder.calls": n("Factor.reorder"),
        "factors.restrict.calls": n("Factor.restrict"),
        "factors.equal_within.calls": n("equal_within"),
        "factors.bytes_computed": int(c.get("bytes_computed", 0)),
        "scm.joint.calls": n("joint"),
        "scm.joint.s": tot("joint"),
        "scm.joint.cells": int(c.get("joint.cells", 0)),
        "scm.joint.cells_max": int(c.get("joint.cells_max", 0)),
        "scm.oracle_query.calls": n("oracle_query"),
        "scm.ci_test.calls": n("ci_test"),
        "identify.id_effect.calls": n("id_effect"),
        "identify.id_effect.s": tot("id_effect"),
        "identify.evaluate.calls": n("evaluate"),
        "identify.evaluate.s": tot("evaluate"),
        "identify.unidentified_ratio": (c.get("id_effect.unidentified", 0) / n("id_effect")
                                        if n("id_effect") else 0.0),
        "graphs.Admg.calls": n("Admg"),
        "graphs.c_components.calls": n("c_components"),
        "graphs.d_separated.calls": n("d_separated"),
        "graphs.find_hedge.calls": n("find_hedge"),
        "dcn.trajectory.s": tot("trajectory"),
        "dcn.transport.s": tot("transport"),
        "dcn.unrolled_scm.calls": n("unrolled_scm"),
        "dcn.window_slices.max": int(c.get("window_slices.max", 0)),
        "dcn.window_slices.sum": int(c.get("window_slices.sum", 0)),
        "dcn.observational_marginal.calls": n("observational_marginal"),
        "trace.wall_s": wall_t,
    })
    return out


PER_LAYER_UNITS = {  # by the last dotted part of the name; anything else is seconds
    "calls": "count", "cells": "cells", "cells_max": "cells", "bytes_computed": "B",
    "max": "slices", "sum": "slices", "verdict_unique_ratio": "ratio",
    "unidentified_ratio": "ratio", "overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["discovery", "id_sweep", "dcn_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "docalc" / "__init__.py").is_file():
        print(f"error: no docalc sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    workload = workloads.WORKLOADS[args.workload](workloads.FULL)
    run = (trace_run(workload, args.seed) if args.trace
           else measure(workload, args.seed, args.seconds))

    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    labels = LABELS[args.workload]
    for name, value in run["metrics"].items():
        label, scale, unit = labels.get(name, (name, 1.0, unit_of(name)))
        print(f"# {args.workload:9s} {label:34s} {value * scale:14.6g} {unit:6s} "
              f"{run['notes'].get(name, '')}")
    if "speed" in run["notes"]:
        print(f"# {args.workload:9s} {run['notes']['speed']}")
    ratio = run["failed"] / run["attempted"]
    print(f"# {args.workload:9s} {'fail_ratio':34s} {ratio:14.6g} ratio  "
          f"{run['failed']} failed of {run['attempted']} attempted, {run['rounds']} rounds")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
