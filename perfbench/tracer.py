"""Timing wrappers around docalc's public functions, installed from outside.

The tracer replaces each listed function (or method) with a wrapper that
records one span per call: name, start, end and parent span.  A module
function is replaced in every namespace that holds it by name, so both
``docalc.scm.joint`` and the copy ``docalc.alcam`` imported with
``from .scm import joint`` are traced, and calls inside a module go
through the wrapper too.  No file of the library is changed, and
``uninstall`` restores every original object.

Spans live in flat integer arrays while the run lasts (24 bytes each) and
are written to an ``.npz`` file by :meth:`Tracer.save`.  A span's self time
is its duration minus the durations of its direct children; spans nest
because the benchmark is one thread.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

import docalc.alcam as alcam
import docalc.dcn as dcn
import docalc.factors as factors
import docalc.graphs as graphs
import docalc.identify as identify
import docalc.scm as scm

MODULES = ("alcam", "factors", "scm", "identify", "graphs", "dcn")

# (module label, owner, attribute): module-level functions are found by
# identity in every namespace; class attributes are patched on the class.
TRACED = [
    ("alcam", alcam, "alcam_run"),
    ("alcam", alcam, "distinguishable_by"),
    ("alcam", alcam, "power_of_intervention"),
    ("alcam", alcam, "partition_candidates"),
    ("alcam", alcam, "minimal_splitting_sets"),
    ("alcam", alcam, "select_intervention"),
    ("alcam", alcam, "select_graphs"),
    ("alcam", alcam, "id_edges"),
    ("alcam", alcam, "id_hidden"),
    ("alcam", alcam, "enumerate_interventions"),
    ("alcam", alcam.PredictionTable, "prediction"),
    ("alcam", alcam.PredictionTable, "observational_marginal"),
    ("factors", factors.Factor, "__init__"),
    ("factors", factors.Factor, "reorder"),
    ("factors", factors.Factor, "restrict"),
    ("factors", factors, "multiply"),
    ("factors", factors, "marginalize"),
    ("factors", factors, "condition"),
    ("factors", factors, "divide"),
    ("factors", factors, "equal_within"),
    ("scm", scm, "joint"),
    ("scm", scm, "intervene"),
    ("scm", scm, "oracle_query"),
    ("scm", scm, "ci_test"),
    ("scm", scm.InterventionOracle, "query"),
    ("identify", identify, "id_effect"),
    ("identify", identify, "evaluate"),
    ("identify", identify, "effect_factor"),
    ("identify", identify, "pretty"),
    ("graphs", graphs.Admg, "__init__"),
    ("graphs", graphs.Admg, "induced"),
    ("graphs", graphs, "ancestors"),
    ("graphs", graphs, "descendants"),
    ("graphs", graphs, "mutilate"),
    ("graphs", graphs, "topological_order"),
    ("graphs", graphs, "c_components"),
    ("graphs", graphs, "d_separated"),
    ("graphs", graphs, "find_hedge"),
    ("graphs", graphs, "verify_hedge"),
    ("dcn", dcn, "trajectory"),
    ("dcn", dcn, "transport"),
    ("dcn", dcn, "unroll"),
    ("dcn", dcn, "unrolled_scm"),
    ("dcn", dcn, "observational_marginal"),
    ("dcn", dcn, "mechanism_transition"),
    ("dcn", dcn, "initial_distribution"),
    ("dcn", dcn, "step_kernel_matrix"),
    ("dcn", dcn, "dcn_id_static"),
    ("dcn", dcn, "cdcn_id_static"),
    ("dcn", dcn, "dcn_id_dynamic"),
    ("dcn", dcn, "cdcn_id_dynamic"),
]


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return owner.__name__ if attr == "__init__" else f"{owner.__name__}.{attr}"
    return attr


class Tracer:
    """Span recorder plus the argument-derived counters of the per-module
    metrics (cells of a joint, window widths, distinct verdict triples)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.module_of: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.verdict_keys: set[tuple] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str, module: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            self.module_of.append(module)
        return self._name_id[name]

    def span(self, name_id: int, fn, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.span_start[idx] = t0
            self.span_end[idx] = t1

    def _count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def _observe(self, name: str, args, result) -> None:
        """Counters computed from a call's arguments and result."""
        if name in ("multiply", "marginalize", "condition", "divide",
                    "Factor.reorder", "Factor.restrict"):
            cells = int(result.table.size)
            self._count("bytes_computed", 8 * cells)
            if name == "multiply":
                self._count("multiply.cells", cells)
        elif name == "distinguishable_by":
            e, k, l = args[0], args[1], args[2]
            self.verdict_keys.add((e.key(), k, l))
        elif name == "joint":
            m = args[0]
            cells = 1
            for v in m.graph.vars:
                cells *= v.domain
            for e in m.exogenous:
                cells *= e.var.domain
            self._count("joint.cells", cells)
            self.counters["joint.cells_max"] = max(self.counters.get("joint.cells_max", 0), cells)
        elif name == "id_effect":
            if not result.identified:
                self._count("id_effect.unidentified")
        elif name == "unrolled_scm":
            width = args[2] - args[1] + 1
            self._count("window_slices.sum", width)
            self.counters["window_slices.max"] = max(self.counters.get("window_slices.max", 0), width)

    def _wrap(self, fn, name: str, module: str):
        nid = self.name_id(name, module)
        observed = name in _OBSERVED
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(nid, fn, args, kwargs)
            if observed:
                tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, *extra_namespaces) -> None:
        """Wrap every traced function in docalc's modules and in the given
        namespaces (the benchmark's own modules that imported names)."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "docalc" or n.startswith("docalc."))]
        namespaces += extra_namespaces
        for module, owner, attr in TRACED:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(original, _span_name(owner, attr), module)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }

    def summary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Per name: summed self seconds, summed inclusive seconds and
        calls; and the summed seconds of the root spans."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=n) / 1e9
        # inclusive sums assume no traced function reaches itself, which
        # holds for every function in TRACED
        total_s = np.bincount(a["name"], weights=dur, minlength=n) / 1e9
        calls = np.bincount(a["name"], minlength=n)
        return self_s, total_s, calls, float(dur[~nested].sum()) / 1e9

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), modules=np.array(self.module_of),
                 **self.arrays())


_OBSERVED = {"multiply", "marginalize", "condition", "divide", "Factor.reorder",
             "Factor.restrict", "distinguishable_by", "joint", "id_effect", "unrolled_scm"}
