"""Command-line front end.

Subcommands: identify, dsep, discover, dcn, transport.  Exit codes:
0 success, 1 input error (usage errors included), 2 non-identifiable /
non-transportable, 3 promise violation (true graph eliminated), 4
infinite dynamic span.

Outputs are machine-readable (JSON / CSV) with a one-line human summary
on stdout; fixed inputs give byte-identical files (no step is randomized;
``--seed`` is a label echoed into the discover report).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import fileio
from .alcam import CandidateSet, CostModel, InterventionCaps, alcam_run
from .dcn import dynamic_time_span, trajectory, transport
from .errors import (InfiniteSpanError, InvalidInputError, PartialSupportError,
                     PromiseViolationError, UnsupportedModelError, UnsupportedQueryError,
                     UnsupportedTransportError, WindowTooSmallError)
from .graphs import d_separated
from .identify import id_effect, pretty

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_IDENTIFIABLE = 2
EXIT_PROMISE = 3
EXIT_INFINITE_SPAN = 4

# A refusal of the library: (exit code, prefix) by exception type, printed
# to stdout.  The first type that matches wins, so a subclass comes first.
_REFUSALS = {
    PromiseViolationError: (EXIT_PROMISE, "promise violation: "),
    InfiniteSpanError: (EXIT_INFINITE_SPAN, ""),
    UnsupportedTransportError: (EXIT_INPUT, "unsupported transport: "),
    UnsupportedModelError: (EXIT_INPUT, "unsupported model: "),
    PartialSupportError: (EXIT_INPUT, "partial support: "),
    UnsupportedQueryError: (EXIT_NOT_IDENTIFIABLE, ""),
    WindowTooSmallError: (EXIT_NOT_IDENTIFIABLE, ""),
}

_QUERY_RE = re.compile(r"^\s*P\(\s*(?P<y>[^|]+?)\s*\|\s*do\(\s*(?P<x>.*?)\s*\)\s*\)\s*$")
_TOKEN_RE = re.compile(r"^(?P<name>[A-Za-z_][\w]*)(@(?P<t>-?\d+))?(=(?P<val>\d+))?$")


def parse_query(text: str):
    """Parse the ``P(Y|do(X=x))`` mini-grammar.

    Tokens are comma-separated ``name``, ``name=value``, ``name@t`` or
    ``name@t=value``; returns (outcomes, targets) where each entry is
    (name, time-or-None) and targets map to values (default 0).  A target
    named twice is an input error.
    """
    m = _QUERY_RE.match(text)
    if not m:
        raise InvalidInputError(f"cannot parse query {text!r}")
    outcomes = []
    for tok in filter(None, (s.strip() for s in m.group("y").split(","))):
        tm = _TOKEN_RE.match(tok)
        if not tm or tm.group("val") is not None:
            raise InvalidInputError(f"bad outcome token {tok!r}")
        outcomes.append((tm.group("name"), int(tm.group("t")) if tm.group("t") else None))
    targets = {}
    xs = m.group("x")
    for tok in filter(None, (s.strip() for s in xs.split(","))) if xs else ():
        tm = _TOKEN_RE.match(tok)
        if not tm:
            raise InvalidInputError(f"bad target token {tok!r}")
        key = (tm.group("name"), int(tm.group("t")) if tm.group("t") else None)
        if key in targets:
            raise InvalidInputError(f"target {tok!r} is named twice")
        targets[key] = int(tm.group("val")) if tm.group("val") else 0
    return outcomes, targets


def _write_out(path: Optional[str], text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_identify(args: argparse.Namespace) -> int:
    g = fileio.load_graph(args.graph)
    outcomes, targets = parse_query(args.query)
    if any(t is not None for _n, t in list(outcomes) + list(targets)):
        raise InvalidInputError("identify works on a static graph and takes no @slice suffixes; "
                                "use docalc dcn for queries on time slices")
    y = frozenset(n for n, _t in outcomes)
    x = frozenset(n for (n, _t) in targets)
    result = id_effect(g, x, y)
    if result.identified:
        print(pretty(result.expr))
        return EXIT_OK
    h = result.witness
    print("FAIL: hedge "
          f"F={sorted(h.forest_f)} F'={sorted(h.forest_f_prime)} R={sorted(h.roots)}")
    return EXIT_NOT_IDENTIFIABLE


def cmd_dsep(args: argparse.Namespace) -> int:
    g = fileio.load_graph(args.graph)
    z = [s for s in (args.z or "").split(",") if s]
    sep = d_separated(g, args.x.split(","), args.y.split(","), z)
    print("d-separated" if sep else "d-connected")
    return EXIT_OK


def cmd_discover(args: argparse.Namespace) -> int:
    graphs = fileio.load_candidates(args.candidates)
    m_star = fileio.load_model(args.model)
    costs = fileio.load_costs(args.costs) if args.costs else CostModel.unit()
    caps = InterventionCaps()
    if args.caps is not None:
        bounds = args.caps.split(",")
        if len(bounds) != 2:
            raise InvalidInputError(f"--caps takes two bounds, max targets,max observed; "
                                    f"got {args.caps!r}")
        caps = InterventionCaps(*(fileio._int(b, "--caps bound") for b in bounds))
    res = alcam_run(CandidateSet(tuple(graphs)), m_star, costs, caps)
    bound = res.n_candidates - res.n_surviving_before_ci
    report = {
        "seed": args.seed,
        "iterations": res.interventions,
        "ci_tests": [
            {
                "kind": r.kind, "pair": list(r.pair), "do_set": list(r.do_set),
                "multi_value": r.multi_value, "interventions": r.interventions,
                "cost": r.cost, "dependent": r.dependent,
            }
            for r in res.ci_records
        ],
        "final_graph": fileio.graph_to_dict(res.final),
        "n_interventions": res.n_interventions,
        "intervention_bound": bound,
        "bound_satisfied": res.bound_ok,
        "total_cost": res.total_cost,
    }
    _write_out(args.out, fileio.canonical_json(report))
    print(f"discovered graph after {res.n_interventions} interventions, "
          f"{len(res.ci_records)} CI tests (bound {res.n_interventions} <= {bound})")
    return EXIT_OK


def cmd_dcn(args: argparse.Namespace) -> int:
    spec, schedule = fileio.load_dcn_spec(args.spec, args.matrix)
    intervention = None
    if args.query:
        outcomes, targets = parse_query(args.query)
        names = {v.name for v in spec.slice_vars}
        for n, t in outcomes:
            if n not in names:
                raise InvalidInputError(f"outcome {n!r} is not a slice variable")
            if t is not None and not args.t0 <= t <= args.horizon:
                raise InvalidInputError(f"outcome {n}@{t} lies outside slices "
                                        f"{args.t0}..{args.horizon}")
        if targets:
            times = {t for (_n, t) in targets}
            if len(times) != 1 or None in times:
                raise InvalidInputError("dcn interventions need a single time slice, "
                                        "e.g. do(tr1@3=0)")
            t_x = times.pop()
            x = {n: v for (n, _t), v in targets.items()}
            span = dynamic_time_span(spec, x.keys())
            if span.is_infinite:
                print("infinite dynamic time span: the confounder chain from X never ends")
                return EXIT_INFINITE_SPAN
            intervention = (x, t_x)
    series = trajectory(spec, schedule, None, intervention, args.horizon, args.t0)
    _write_out(args.out, fileio.trajectory_csv(series, args.t0, args.full_joint))
    print(f"trajectory over slices {args.t0}..{args.horizon}"
          + (f" with do({intervention[0]}) at t={intervention[1]}" if intervention else ""))
    return EXIT_OK


def cmd_transport(args: argparse.Namespace) -> int:
    spec, schedule = fileio.load_dcn_spec(args.spec, args.matrix)
    tspec = fileio.load_transport(args.transport)
    outcomes, targets = parse_query(args.query)
    y_times = {t for _n, t in outcomes}
    x_times = {t for (_n, t) in targets}
    if len(y_times) != 1 or len(x_times) != 1 or None in y_times | x_times:
        raise InvalidInputError("transport queries need one time slice for the outcome and "
                                "one for the intervention, e.g. P(d@8|do(tr1@3=0))")
    t_y = y_times.pop()
    t_x = x_times.pop()
    x = {n: v for (n, _t), v in targets.items()}
    y = [n for n, _t in outcomes]
    f = transport(spec, tspec, x, t_x, y, t_y, schedule, None, args.t0)
    if f is None:
        print("FAIL: not transportable with the available source experiments")
        return EXIT_NOT_IDENTIFIABLE
    out = {"outcome": list(f.names()), "table": [float(v) for v in np.ravel(f.table)]}
    _write_out(args.out, fileio.canonical_json(out))
    print("transported effect computed")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (an unknown option, a missing
    required one) exit with the input-error code, not argparse's 2, which
    here means "not identifiable"; its subcommand parsers are of this class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="docalc", description="exact discrete causal inference engine")
    ap.add_argument("--seed", type=int, default=0,
                    help="label echoed into the discover report; no step is randomized")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="identify P(Y|do(X)) in a causal graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True, help='e.g. "P(Z|do(X,Y))"')
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("dsep", help="test d-separation")
    p.add_argument("--graph", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default="")
    p.set_defaults(fn=cmd_dsep)

    p = sub.add_parser("discover", help="active learning of the true causal graph")
    p.add_argument("--candidates", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--costs")
    p.add_argument("--caps", help="max targets,max observed (default 2,2)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_discover)

    p = sub.add_parser("dcn", help="post-intervention trajectory of a DCN")
    p.add_argument("--spec", required=True)
    p.add_argument("--matrix", help="transition matrix file (overrides the spec schedule)")
    p.add_argument("--query", help='e.g. "P(d@8|do(tr1@3=0))"; omit for no intervention')
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--full-joint", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dcn)

    p = sub.add_parser("transport", help="transport a causal effect between domains")
    p.add_argument("--spec", required=True, help="target-domain DCN spec")
    p.add_argument("--transport", required=True, help="selection variables + source data")
    p.add_argument("--matrix")
    p.add_argument("--query", required=True, help='e.g. "P(d@8|do(tr1@3=0))"')
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_transport)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # argparse reads "--option=--" as an empty list, not as the string "--"
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"input error: --{name.replace('_', '-')} needs a value", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.fn(args)
    except tuple(_REFUSALS) as ex:
        code, prefix = next(v for t, v in _REFUSALS.items() if isinstance(ex, t))
        print(f"{prefix}{ex}")
        return code
    except (InvalidInputError, OSError, KeyError, json.JSONDecodeError) as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
