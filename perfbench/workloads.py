"""The three benchmark workloads: inputs, operations and correctness checks.

Every workload is a fixed list of operations (one *round*) built from
inputs that ``setup(seed)`` generates.  The runner repeats whole rounds,
so the mix of operations in a run never depends on how fast the program
is.  Operations are zero-argument callables that name library functions
through this module's globals, so the tracer's wrappers see them.

Each workload names the operation kind whose latency the end-to-end
metrics report (``latency_kind``) and the kind whose summed time per
round is ``round_s`` (``round_kind``).  README.md gives the reasons
behind each workload.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from docalc.alcam import CandidateSet, PredictionTable, alcam_run, enumerate_interventions
from docalc.dcn import (DcnMechanism, DcnSpec, SelectionVar, SliceCpt, SliceExo,
                        TransportSpec, cdcn_id_dynamic, cdcn_id_static, classify,
                        dynamic_time_span, mechanism_transition, random_dcn_spec,
                        slice_var_at, step_kernel_matrix, trajectory, transport,
                        unroll, unrolled_scm)
from docalc.factors import TransitionMatrix
from docalc.graphs import Admg, Hedge, Var, find_hedge, verify_hedge
from docalc.identify import effect_factor, id_effect, pretty
from docalc.scm import joint, oracle_query, random_admg, random_scm

GOLDENS = Path(__file__).with_name("goldens.json")
TOL = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str
    key: tuple
    call: Callable[[], object]


@dataclass(frozen=True)
class Size:
    discovery_trials: int = 6
    criterion2_graphs: int = 11946  # the whole criterion-2 set
    id_random_graphs: int = 200
    dcn_random_specs: int = 400
    horizons: tuple[int, ...] = (3, 4, 5)


FULL = Size()
TINY = Size(discovery_trials=2, criterion2_graphs=66, id_random_graphs=4,
            dcn_random_specs=5, horizons=(3, 4))


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


# -- discovery ----------------------------------------------------------------

STRUCTURE_SEED = 5005  # the criterion-5 default seed; fixes the candidate sets


def _perturb(rng: np.random.Generator, g: Admg) -> Admg:
    """One random edge or confounder edit (the criterion-5 generator's)."""
    names = list(g.names())
    edges = set(g.directed)
    confs = set(g.bidirected)
    for _ in range(10):
        op = int(rng.integers(0, 4))
        try:
            if op == 0 and edges:
                e = sorted(edges)[int(rng.integers(len(edges)))]
                return Admg(g.vars, edges - {e}, confs)
            if op == 1:
                a, b = rng.choice(names, 2, replace=False)
                return Admg(g.vars, edges | {(a, b)}, confs)
            if op == 2 and confs:
                c = sorted(confs, key=sorted)[int(rng.integers(len(confs)))]
                return Admg(g.vars, edges, confs - {c})
            if op == 3:
                a, b = sorted(rng.choice(names, 2, replace=False))
                return Admg(g.vars, edges, confs | {frozenset((a, b))})
        except Exception:  # a cyclic edit: draw another
            continue
    return g


def _candidate_structure(rng: np.random.Generator) -> tuple[CandidateSet, Admg]:
    n = int(rng.integers(3, 6))
    true_g = random_admg(rng, n, edge_prob=0.5, max_confounders=2)
    cand = {true_g}
    want = int(rng.integers(2, 13))
    attempts = 0
    while len(cand) < want and attempts < 80:
        base = sorted(cand, key=repr)[int(rng.integers(len(cand)))]
        cand.add(_perturb(rng, base))
        attempts += 1
    graphs = tuple(sorted(cand, key=lambda g: (sorted(g.directed),
                                               sorted(map(sorted, g.bidirected)))))
    return CandidateSet(graphs), true_g


def _generic(cs: CandidateSet, m, true_g: Admg) -> bool:
    """The criterion-5 genericity screen: no prediction or oracle answer
    may come within the band (1e-9, 1e-6) of a coincidence."""
    preds = PredictionTable(cs, joint(m))
    for e in enumerate_interventions(true_g):
        py = preds.observational_marginal(e.observed)
        answers = [preds.prediction(k, e).dist for k in range(len(cs.graphs))]
        answers = [f for f in answers if f is not None]
        oracle = oracle_query(m, e)
        for f in answers + [oracle]:
            if 1e-9 < np.max(np.abs(f.reorder(py.names()).table - py.table)) < 1e-6:
                return False
        for a, b in itertools.combinations(answers, 2):
            if 1e-9 < np.max(np.abs(a.table - b.reorder(a.names()).table)) < 1e-6:
                return False
        for f in answers:
            if 1e-9 < np.max(np.abs(f.table - oracle.reorder(f.names()).table)) < 1e-6:
                return False
    return True


def _structural_log(res) -> list:
    """The intervention log without oracle numbers.  For generic
    parameters it depends only on the candidate set, so it is the same
    for every seed."""
    return [[d["intervention"], d["surviving"]] for d in res.interventions] + [
        [r.kind, list(r.pair), list(r.do_set), r.dependent] for r in res.ci_records
    ] + [repr(res.final)]


class Discovery:
    """Seeded ``alcam_run`` trials from the criterion-5 generator.

    The candidate sets come from the generator at its default seed 5005;
    ``--seed`` draws the true model's parameters, which pass the
    genericity screen during set-up.  Per-trial cost spans 0.2 s to 15 s
    with the candidate set, so a seed-drawn set of a few trials would move
    the throughput far more than any bound; fixing the structures keeps a
    run's work the same while the numbers change with the seed.
    """

    name = "discovery"
    latency_kind = round_kind = "trial"

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int):
        srng = np.random.default_rng(STRUCTURE_SEED)
        prng = np.random.default_rng(seed)
        trials = []
        for _ in range(self.size.discovery_trials):
            cs, true_g = _candidate_structure(srng)
            for _redraw in range(50):
                m = random_scm(prng, true_g)
                if _generic(cs, m, true_g):
                    break
            else:
                raise RuntimeError("no generic parameterization in 50 draws")
            trials.append((cs, m, true_g))
        return {"seed": seed, "trials": trials}

    def ops(self, inputs) -> list[Op]:
        return [Op("trial", (i,), lambda cs=cs, m=m: alcam_run(cs, m))
                for i, (cs, m, _g) in enumerate(inputs["trials"])]

    @staticmethod
    def keep(out):
        return out

    @staticmethod
    def fingerprint(out) -> str:
        return json.dumps([out.interventions, _structural_log(out)], sort_keys=True)

    def check(self, inputs, outputs: dict) -> set:
        gold = load_goldens()["discovery"]
        bad = set()
        for i, (_cs, _m, true_g) in enumerate(inputs["trials"]):
            res = outputs.get((i,))
            ok = (res is not None and res.final == true_g and res.bound_ok
                  and _sha(_structural_log(res)) == gold["structural_log"][i])
            if inputs["seed"] == STRUCTURE_SEED:
                ok = ok and _sha(res.interventions) == gold["log_seed_5005"][i]
            if not ok:
                bad.add((i,))
        return bad


# -- identification sweep ------------------------------------------------------

ID_BLOCK = 66  # criterion-2 graphs per golden digest; 181 blocks cover all 11,946


def criterion2_graphs() -> list[Admg]:
    """Every 4-variable ADMG with at most two bidirected edges (the
    criterion-2 set: 543 DAGs, 11,946 graphs), in a fixed order."""
    names = ["A", "B", "C", "D"]
    variables = [Var(n) for n in names]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    seen: set[frozenset] = set()
    dags = []
    for perm in itertools.permutations(names):
        idx = {n: i for i, n in enumerate(perm)}
        possible = [(a, b) for a in names for b in names if a != b and idx[a] < idx[b]]
        for r in range(len(possible) + 1):
            for combo in itertools.combinations(possible, r):
                if frozenset(combo) not in seen:
                    seen.add(frozenset(combo))
                    dags.append(combo)
    return [Admg(variables, edges, confs)
            for edges in dags for nconf in range(3)
            for confs in itertools.combinations(pairs, nconf)]


def _identify(g: Admg, x: str, y: str):
    """What ``docalc identify`` computes for P(y|do(x)): the result, and
    the printed form when identified."""
    r = id_effect(g, {x}, {y})
    return r.identified, (pretty(r.expr) if r.identified else None), r.witness


class IdSweep:
    """``id_effect`` plus ``pretty`` for every single-variable query on the
    criterion-2 set, plus a seeded draw of 5-7-variable random ADMGs."""

    name = "id_sweep"
    latency_kind = round_kind = "query"

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int):
        fixed = criterion2_graphs()[: self.size.criterion2_graphs]
        rng = np.random.default_rng(seed)
        drawn = [random_admg(rng, int(rng.integers(5, 8)), edge_prob=0.5, max_confounders=2)
                 for _ in range(self.size.id_random_graphs)]
        graphs = [("c2", i, g) for i, g in enumerate(fixed)]
        graphs += [("rnd", i, g) for i, g in enumerate(drawn)]
        order = rng.permutation(len(graphs))
        return {"graphs": [graphs[i] for i in order]}

    def ops(self, inputs) -> list[Op]:
        return [Op("query", (src, i, x, y), lambda g=g, x=x, y=y: _identify(g, x, y))
                for src, i, g in inputs["graphs"]
                for x, y in itertools.permutations(g.names(), 2)]

    @staticmethod
    def keep(out):
        """Plain tuples of strings: a run keeps ~150,000 results, and the
        garbage collector would otherwise rescan them during the loop."""
        identified, text, w = out
        if w is not None:
            w = tuple(tuple(sorted(s)) for s in (w.forest_f, w.forest_f_prime, w.roots))
        return identified, text, w

    @staticmethod
    def fingerprint(out) -> str:
        return repr(out)

    def check(self, inputs, outputs: dict) -> set:
        gold = load_goldens()["id_sweep"]["block_digests"]
        bad = set()
        by_index = {(src, i): g for src, i, g in inputs["graphs"]}
        for (src, i, x, y), (identified, _text, witness) in outputs.items():
            g = by_index[(src, i)]
            if not identified and not verify_hedge(g, {x}, {y}, Hedge(*map(frozenset, witness))):
                bad.add((src, i, x, y))
            if src == "rnd" and identified != (find_hedge(g, {x}, {y}) is None):
                bad.add((src, i, x, y))
        n_fixed = sum(1 for src, _i, _g in inputs["graphs"] if src == "c2")
        for b in range(0, n_fixed // ID_BLOCK):
            keys = [("c2", i, x, y) for i in range(b * ID_BLOCK, (b + 1) * ID_BLOCK)
                    for x, y in itertools.permutations("ABCD", 2)]
            digest = _sha([list(outputs.get(k, (None, None))[:2]) for k in keys])
            if digest != gold[b]:
                bad.update(keys)
        return bad


# -- dynamic causal networks --------------------------------------------------

TRAFFIC_VARS = (Var("tr1"), Var("tr2"), Var("d"))
TRAFFIC = DcnSpec(slice_vars=TRAFFIC_VARS, intra_edges=(("tr1", "d"), ("tr2", "d")),
                  cross_edges=(("d", "tr1", 1), ("d", "tr2", 1)),
                  intra_confounders=(frozenset({"tr1", "tr2"}),))
T1 = TransitionMatrix.from_rows(TRAFFIC_VARS, np.array(
    [[0.0, 0.4, 0.0, 0.3, 0.0, 0.2, 0.0, 0.1]] * 4 + [[0.2, 0.0, 0.0, 0.1, 0.4, 0.0, 0.0, 0.3]] * 4))
T2 = TransitionMatrix.from_rows(TRAFFIC_VARS, np.array(
    [[0.1, 0.0, 0.3, 0.1, 0.2, 0.2, 0.0, 0.1]] * 4 + [[0.0, 0.2, 0.1, 0.0, 0.1, 0.3, 0.3, 0.0]] * 4))
T_STEADY = TransitionMatrix.from_rows(TRAFFIC_VARS, np.array(
    [[0.02, 0.0, 0.03, 0.0, 0.26, 0.13, 0.34, 0.22]] * 4
    + [[0.34, 0.1, 0.24, 0.21, 0.0, 0.02, 0.09, 0.0]] * 4))


def week_schedule(t: int) -> TransitionMatrix:
    """Transition into day t+1: weekend days follow T2."""
    return T2 if (t + 1) % 7 in (5, 6) else T1


def _two_road(tilt: float) -> DcnSpec:
    """The transport demo's two-road mechanism, road 1 tilted by ``tilt``."""
    w = SliceExo("w", (0.4, 0.6), "tr1", "tr2", 0)
    tr1 = SliceCpt("tr1", (), (("d", 1),), ("w",), np.array(
        [[[0.8 - tilt, 0.2 + tilt], [0.5, 0.5]], [[0.3, 0.7], [0.1 + tilt, 0.9 - tilt]]]))
    tr2 = SliceCpt("tr2", (), (("d", 1),), ("w",), np.array(
        [[[0.7, 0.3], [0.4, 0.6]], [[0.45, 0.55], [0.15, 0.85]]]))
    d = SliceCpt("d", ("tr1", "tr2"), (), (), np.array(
        [[[0.9, 0.1], [0.6, 0.4]], [[0.5, 0.5], [0.2, 0.8]]]))
    return DcnSpec(TRAFFIC_VARS, TRAFFIC.intra_edges, TRAFFIC.cross_edges,
                   TRAFFIC.intra_confounders, mechanism=DcnMechanism((tr1, tr2, d), (w,)))


DYNAMIC_MECHANISM_SEED = 2309  # fixes the sweep spec's numbers, so goldens hold


def dynamic_sweep_spec() -> DcnSpec:
    """Within-slice V1->V3; lag-1 V1->V2, V2->V3, V3->V1; hidden confounder
    V2@t <-> V3@t+1.  The sweep queries do(V1@2=1).

    Memory guard: the sweep stops at horizon 5 (about 1 s and 0.5 GB peak
    RSS on a 2-core, 7 GB machine).  Horizon 6 took 19.7 s at 7.2 GB peak
    RSS there, and horizon 7 fails on the window cell cap only after the
    same 20 s and 7.2 GB, because ``scm.joint`` materializes the whole
    unrolled window.  A forward-filtering change can lift this limit.
    """
    rng = np.random.default_rng(DYNAMIC_MECHANISM_SEED)

    def rows(shape):
        return rng.dirichlet(np.ones(2), size=int(np.prod(shape))).reshape(shape + (2,))

    w = SliceExo("W1", tuple(rng.dirichlet(np.ones(2))), "V2", "V3", 1)
    cpts = (SliceCpt("V1", (), (("V3", 1),), (), rows((2,))),
            SliceCpt("V2", (), (("V1", 1),), ("W1",), rows((2, 2))),
            SliceCpt("V3", ("V1",), (("V2", 1),), ("W1",), rows((2, 2, 2))))
    return DcnSpec(tuple(Var(n) for n in ("V1", "V2", "V3")), (("V1", "V3"),),
                   (("V1", "V2", 1), ("V2", "V3", 1), ("V3", "V1", 1)), (),
                   (("V2", "V3", 1),), DcnMechanism(cpts, (w,)))


def criterion7_queries(rng: np.random.Generator, n: int) -> list[tuple]:
    """Random finite specs and queries from the criterion-7 generator.
    Two specs in five have a dynamic confounder; the generator draws that
    with probability 0.4, and fixing the share keeps the cost of a run
    from following the draw."""
    out = []
    while len(out) < n:
        if len(out) % 5 < 2:
            n_vars = 2
            spec = random_dcn_spec(rng, n_vars=2, n_static_conf=int(rng.integers(0, 2)),
                                   n_dynamic_conf=1)
            if dynamic_time_span(spec, spec.names()).is_infinite:
                continue
        else:
            n_vars = 3
            spec = random_dcn_spec(rng, n_vars=3, n_static_conf=int(rng.integers(0, 3)),
                                   n_dynamic_conf=0)
        names = list(spec.names())
        xv = names[int(rng.integers(n_vars))]
        yv = names[int(rng.integers(n_vars))]
        x = {xv: int(rng.integers(2))}
        span = dynamic_time_span(spec, [xv])
        if span.is_infinite:
            continue
        t_y = max(2 + span.slices + 1, 4)
        out.append((spec, classify(spec).is_static, x, 2, yv, t_y))
    return out


def _cdcn(spec, static, x, t_x, yv, t_y):
    runner = cdcn_id_static if static else cdcn_id_dynamic
    return runner(spec, x, t_x, {yv}, t_y, None, None, 0)


def _tables(out) -> list[np.ndarray]:
    """Output arrays of a DCN operation, in a fixed order."""
    if out is None:
        return []
    if isinstance(out, tuple):  # step_kernel_matrix: (matrix, reachable)
        return [np.asarray(out[0], dtype=float), np.asarray(out[1], dtype=float)]
    if isinstance(out, list):
        return [f.table for f in out]
    return [out.table]


class DcnMix:
    """A horizon sweep of the dynamic spec plus millisecond DCN operations."""

    name = "dcn_mix"
    latency_kind = "dcn_op"
    round_kind = "horizon"

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        target = _two_road(0.0)
        return {
            "dynamic": dynamic_sweep_spec(),
            "target": target,
            "t_target": mechanism_transition(target),
            "transport": TransportSpec((SelectionVar("s", (("tr1", 0),)),
                                        SelectionVar("s2", (("tr1", 1),))),
                                       (frozenset({"tr1"}),), _two_road(0.15)),
            "random": criterion7_queries(rng, self.size.dcn_random_specs),
        }

    def ops(self, inputs) -> list[Op]:
        dyn, tgt, tt, tsp = (inputs["dynamic"], inputs["target"], inputs["t_target"],
                             inputs["transport"])
        ops = [
            Op("dcn_op", ("traffic", "none"),
               lambda: trajectory(TRAFFIC, week_schedule, None, None, 13)),
            Op("dcn_op", ("traffic", "tr1=0"),
               lambda: trajectory(TRAFFIC, week_schedule, None, ({"tr1": 0}, 3), 13)),
            Op("dcn_op", ("traffic", "tr1=1"),
               lambda: trajectory(TRAFFIC, week_schedule, None, ({"tr1": 1}, 3), 13)),
            Op("dcn_op", ("steady",),
               lambda: trajectory(TRAFFIC, T_STEADY, None, ({"tr1": 1}, 15), 40)),
            Op("dcn_op", ("step_kernel",),
               lambda: step_kernel_matrix(TRAFFIC, {"tr1": 0}, 3, week_schedule)),
            Op("dcn_op", ("transport",),
               lambda: transport(tgt, tsp, {"tr1": 1}, 3, {"d"}, 6, tt)),
        ]
        ops += [Op("dcn_op", ("cdcn", i), lambda q=q: _cdcn(*q))
                for i, q in enumerate(inputs["random"])]
        ops += [Op("horizon", ("horizon", h),
                   lambda h=h: trajectory(dyn, None, None, ({"V1": 1}, 2), h))
                for h in self.size.horizons]
        return ops

    @staticmethod
    def keep(out):
        return out

    @staticmethod
    def fingerprint(out) -> bytes:
        return b"|".join(t.tobytes() for t in _tables(out))

    def check(self, inputs, outputs: dict) -> set:
        gold = load_goldens()["dcn_mix"]
        bad = set()

        def trajectory_ok(key, before, t_x):
            series = outputs.get(key)
            if not (series is not None and before is not None and len(before) >= t_x
                    and all(abs(f.table.sum() - 1.0) <= TOL for f in series)
                    and all(np.array_equal(a.table, b.table)
                            for a, b in zip(series[:t_x], before[:t_x]))):
                bad.add(key)

        none = outputs.get(("traffic", "none"))
        trajectory_ok(("traffic", "none"), none, 0)
        for v in ("tr1=0", "tr1=1"):
            trajectory_ok(("traffic", v), none, 3)
        trajectory_ok(("steady",), trajectory(TRAFFIC, T_STEADY, None, None, 14), 15)
        dyn_before = trajectory(inputs["dynamic"], None, None, None, 1)
        for h in self.size.horizons:
            trajectory_ok(("horizon", h), dyn_before, 2)
        kernel = outputs.get(("step_kernel",))
        if kernel is None or np.max(np.abs(kernel[0][:, kernel[1]].sum(axis=0) - 1.0)) > TOL:
            bad.add(("step_kernel",))
        effect = outputs.get(("transport",))
        if effect is None or abs(effect.table.sum() - 1.0) > TOL:
            bad.add(("transport",))

        for key, want in gold.items():
            key = tuple(json.loads(key))
            if key not in outputs:
                continue
            got = _tables(outputs[key])
            if len(got) != len(want) or any(
                    np.asarray(w).shape != g.shape or np.max(np.abs(g - np.asarray(w)), initial=0) > TOL
                    for g, w in zip(got, want)):
                bad.add(key)

        for i, q in enumerate(inputs["random"]):
            key = ("cdcn", i)
            if key not in outputs or not _cdcn_matches_unrolled(q, outputs[key],
                                                                exact=i % EXACT_EVERY == 0):
                bad.add(key)
        return bad


EXACT_EVERY = 25  # random specs per exact value check; each needs a window joint of up to 2^25 cells


def _cdcn_matches_unrolled(q, got, exact: bool) -> bool:
    """Criterion-7 reference: plain identification on the fully unrolled
    window must fail exactly when the window algorithm does, and an
    identified effect must be a distribution.  With ``exact`` the effect
    is also evaluated against the window's exact joint, within 1e-9."""
    spec, _static, x, t_x, yv, t_y = q
    (xv, val), = x.items()
    tgt = {slice_var_at(xv, t_x): val}
    obs = frozenset({slice_var_at(yv, t_y)})
    graph, _index = unroll(spec, 0, t_y)
    res = id_effect(graph, frozenset(tgt), obs)
    if not res.identified or got is None:
        return not res.identified and got is None
    if abs(got.table.sum() - 1.0) > TOL:
        return False
    if not exact:
        return True
    ref = effect_factor(res.expr, joint(unrolled_scm(spec, 0, t_y)), tgt, obs)
    return bool(np.max(np.abs(got.reorder([yv]).table
                              - ref.reorder([slice_var_at(yv, t_y)]).table)) <= TOL)


WORKLOADS = {w.name: w for w in (Discovery, IdSweep, DcnMix)}
