"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured scope.  Run with ``pytest tests/test_acceptance.py -s``.
"""

import itertools
import time

import numpy as np

from docalc.alcam import (CandidateSet, PredictionTable, alcam_run,
                          enumerate_interventions)
from docalc.dcn import (cdcn_id_dynamic, cdcn_id_static, dcn_id_static,
                        dynamic_time_span, mechanism_transition,
                        random_dcn_spec, slice_var_at, step_kernel_matrix,
                        trajectory, unrolled_scm)
from docalc.factors import condition, marginalize
from docalc.graphs import Admg, Var, find_hedge, verify_hedge
from docalc.identify import effect_factor, id_effect, pretty
from docalc.scm import (InterventionSpec, intervene, joint, oracle_query,
                        random_admg, random_scm)
from conftest import (T1_ROWS, bf_do, bf_marginal, traffic_mechanism,
                      traffic_spec)
from test_alcam import _verdict, spec_for, XZW


def _report(name: str, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {name}: PASS ({detail})")


def test_criterion_01_id_soundness_vs_oracle():
    """>= 500 random SCMs: every identified effect matches the brute-force
    mutilated-model oracle for every intervention value within 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(1001)
    n_models = 500
    checked = 0
    for _ in range(n_models):
        n = int(rng.integers(3, 6))
        g = random_admg(rng, n, edge_prob=0.5, max_confounders=2)
        m = random_scm(rng, g)
        p = joint(m)
        names = sorted(g.names())
        queries = [({names[0]}, {names[-1]}), ({names[1]}, {names[0]})]
        if n >= 4:
            queries.append(({names[0], names[2]}, {names[-1]}))
        for xs, ys in queries:
            xs, ys = frozenset(xs), frozenset(ys)
            if xs & ys:
                continue
            res = id_effect(g, xs, ys)
            if not res.identified:
                continue
            order = sorted(xs)
            for vals in itertools.product(*(range(2) for _ in order)):
                fix = dict(zip(order, vals))
                got = effect_factor(res.expr, p, fix, ys)
                bf = bf_marginal(bf_do(m, fix), list(g.names()), sorted(ys))
                for key, want in bf.items():
                    assert abs(got.reorder(sorted(ys)).table[key] - want) <= 1e-9
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 1 exceeded its 2 minute budget: {elapsed:.0f}s"
    _report("1 id-soundness-vs-oracle",
            f"{n_models} models, {checked} identified queries, {elapsed:.1f}s")


def test_criterion_02_hedge_criterion_equivalence():
    """Exhaustive over 4-variable ADMGs with <= 2 bidirected edges:
    identification fails exactly when a hedge witness exists."""
    t0 = time.time()
    names = ["A", "B", "C", "D"]
    variables = [Var(n) for n in names]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    seen: set[frozenset] = set()
    dags = []
    for perm in itertools.permutations(names):
        idx = {n: i for i, n in enumerate(perm)}
        possible = [(a, b) for a in names for b in names
                    if a != b and idx[a] < idx[b]]
        for r in range(len(possible) + 1):
            for combo in itertools.combinations(possible, r):
                key = frozenset(combo)
                if key not in seen:
                    seen.add(key)
                    dags.append(combo)
    n_graphs = 0
    n_queries = 0
    for edges in dags:
        for nconf in range(3):
            for confs in itertools.combinations(pairs, nconf):
                g = Admg(variables, edges, confs)
                n_graphs += 1
                for x, y in itertools.permutations(names, 2):
                    res = id_effect(g, {x}, {y})
                    h = find_hedge(g, {x}, {y})
                    assert res.identified == (h is None)
                    if h is not None:
                        assert verify_hedge(g, {x}, {y}, h)
                    n_queries += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"criterion 2 exceeded its 5 minute budget: {elapsed:.0f}s"
    _report("2 hedge-criterion-equivalence",
            f"{n_graphs} deduplicated ADMGs, {n_queries} queries, {elapsed:.1f}s")


def test_criterion_03_golden_expressions(fig12_graphs):
    """The four candidate graphs print exactly the captioned do-free forms."""
    g1, g2, g3, g4 = fig12_graphs
    expected = [
        (g1, "P(Z|X,Y)"),
        (g2, "sum_{X} P(X) P(Z|X,Y)"),
        (g3, "P(Z|X)"),
        (g4, "P(Z)"),
    ]
    for g, want in expected:
        res = id_effect(g, {"X", "Y"}, {"Z"})
        assert res.identified
        assert pretty(res.expr) == want
    _report("3 golden-expressions", "4 of 4 canonical forms")


def test_criterion_04_verdict_table(fig12_graphs):
    """One fixture per row of the seven-case distinguishability table."""
    g1, g2, _g3, _g4 = fig12_graphs
    isolated_w = Admg(XZW, [("X", "W")])
    edge = Admg(XZW, [("X", "Z")])
    bow = Admg(XZW, [("X", "Z")], [("X", "Z")])
    bow_w = Admg(XZW, [("X", "Z"), ("X", "W")], [("X", "Z")])
    ez = spec_for({"X"}, {"Z"})
    rows = [
        (1, False, Admg(XZW), isolated_w, Admg(XZW), ez),
        (2, True, isolated_w, edge, edge, ez),
        (3, False, g1, g2, g1, spec_for({"Y"}, {"Z"})),
        (4, True, g1, g2, g1, spec_for({"X", "Y"}, {"Z"})),
        (5, True, isolated_w, bow, isolated_w, ez),
        (6, False, edge, bow, edge, ez),
        (7, False, bow, bow_w, bow, ez),
    ]
    for case, flag, g_k, g_l, truth, e in rows:
        v = _verdict(g_k, g_l, truth, e, seed=case)
        assert (v.case_id, v.distinguishable) == (case, flag), f"row {case}"
    _report("4 verdict-table", "7 of 7 rows")


def _generic_candidate_trial(rng, domain=2):
    """Draw (true model, candidate set) and reject parameterizations whose
    predictions or oracle answers come within the borderline band
    (1e-9, 1e-6) of a coincidence; the distinguishability lemmas hold
    only generically.  Every variable and confounder has ``domain`` values."""
    from test_acceptance import _perturb  # self-import for clarity

    n = int(rng.integers(3, 6))
    true_g = random_admg(rng, n, edge_prob=0.5, max_confounders=2, domain=domain)
    m = random_scm(rng, true_g, exo_domain=domain)
    cand = {true_g}
    want = int(rng.integers(2, 13))
    attempts = 0
    while len(cand) < want and attempts < 80:
        base = sorted(cand, key=repr)[int(rng.integers(len(cand)))]
        cand.add(_perturb(rng, base))
        attempts += 1
    graphs = tuple(sorted(cand, key=lambda g: (sorted(g.directed),
                                               sorted(map(sorted, g.bidirected)))))
    cs = CandidateSet(graphs)
    preds = PredictionTable(cs, joint(m))
    experiments = enumerate_interventions(true_g)
    for e in experiments:
        py = preds.observational_marginal(e.observed)
        answers = [preds.prediction(k, e).dist for k in range(len(graphs))]
        oracle = oracle_query(m, e)
        for f in answers + [oracle]:
            if f is None:
                continue
            d = np.max(np.abs(f.reorder(py.names()).table - py.table))
            if 1e-9 < d < 1e-6:
                return None
        for a, b in itertools.combinations([f for f in answers if f is not None], 2):
            d = np.max(np.abs(a.table - b.reorder(a.names()).table))
            if 1e-9 < d < 1e-6:
                return None
        for f in answers:
            if f is None:
                continue
            d = np.max(np.abs(f.table - oracle.reorder(f.names()).table))
            if 1e-9 < d < 1e-6:
                return None
    return cs, m, true_g


def _perturb(rng, g: Admg) -> Admg:
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
        except Exception:
            continue
    return g


def test_criterion_05_alcam_end_to_end():
    """>= 200 generic random trials: the discovery loop returns the true
    graph every time within the intervention bound."""
    t0 = time.time()
    rng = np.random.default_rng(5005)
    n_trials = 200
    done = 0
    redraws = 0
    while done < n_trials:
        drawn = _generic_candidate_trial(rng)
        if drawn is None:
            redraws += 1
            assert redraws < 60, "too many degenerate parameterizations"
            continue
        cs, m, true_g = drawn
        res = alcam_run(cs, m)
        assert res.final == true_g
        assert res.n_interventions <= res.n_candidates - res.n_surviving_before_ci
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 5 exceeded its 10 minute budget: {elapsed:.0f}s"
    _report("5 alcam-end-to-end",
            f"{done} trials, {redraws} genericity redraws, {elapsed:.1f}s")


def test_criterion_06_experiment_reproduction(traffic):
    """The step conditionals computed from the published weekday matrix
    reproduce the published post-intervention matrices.

    The chain driven by that matrix leaves two joint states unreachable
    (previous-state columns 2 and 6 carry probability zero), so the
    conditional is compared on the six reachable columns; the published
    rows for the dead columns are a continuity convention.  A concrete
    realizable parameterization of the same structure is then checked
    against the brute-force mutilated-model oracle, which is the
    authoritative side of the comparison."""
    spec, t1, _t2, _ts = traffic
    printed = {
        0: np.tile(np.array([0.0, 0.4, 0.0, 0.3, 0.0, 0.2, 0.0, 0.1]), (8, 1)),
        1: np.tile(np.array([0.2, 0.0, 0.0, 0.1, 0.4, 0.0, 0.0, 0.3]), (8, 1)),
    }
    for val, target in printed.items():
        got = step_kernel_matrix(spec, {"tr1": val}, 3, t1, None, 0)
        assert got is not None
        matrix, reachable = got
        assert list(reachable) == [True, True, False, True, True, True, False, True]
        assert np.max(np.abs(matrix[:, reachable] - target.T[:, reachable])) < 1e-6

    # oracle cross-check on a realizable mechanism of the same structure
    mech_spec = traffic_spec(traffic_mechanism())
    t = mechanism_transition(mech_spec)
    matrix, reachable = step_kernel_matrix(mech_spec, {"tr1": 1}, 3, t, None, 0)
    m4 = unrolled_scm(mech_spec, 0, 4)
    tgt = {slice_var_at("tr1", 3): 1}
    post = joint(intervene(m4, tgt))
    keep = [slice_var_at(n, s) for n in mech_spec.names() for s in (2, 4)]
    num = marginalize(post, [n for n in post.names() if n not in keep])
    cond = condition(num, [slice_var_at(n, 2) for n in mech_spec.names()])
    oracle = cond.reorder([slice_var_at(n, 4) for n in mech_spec.names()]
                          + [slice_var_at(n, 2) for n in mech_spec.names()])
    assert np.max(np.abs(matrix - oracle.table.reshape(8, 8))) < 1e-9
    _report("6 experiment-reproduction",
            "A (v7=0) and A (v7=1) match on all reachable columns; oracle agrees")


def test_criterion_07_window_equivalence():
    """>= 100 random finite DCN specs: the complete window algorithms agree
    with plain identification on the fully unrolled window within 1e-9,
    and the failure cases coincide."""
    t0 = time.time()
    rng = np.random.default_rng(7007)
    done = 0
    failures_matched = 0
    while done < 100:
        dynamic = rng.random() < 0.4
        if dynamic:
            n_vars = 2
            spec = random_dcn_spec(rng, n_vars=n_vars, n_static_conf=int(rng.integers(0, 2)),
                                   n_dynamic_conf=1)
            span = dynamic_time_span(spec, spec.names())
            if span.is_infinite:
                continue
        else:
            n_vars = 3
            spec = random_dcn_spec(rng, n_vars=n_vars, n_static_conf=int(rng.integers(0, 3)),
                                   n_dynamic_conf=0)
        names = list(spec.names())
        xv = names[int(rng.integers(n_vars))]
        yv = names[int(rng.integers(n_vars))]
        x = {xv: int(rng.integers(2))}
        t_x = 2
        sp = dynamic_time_span(spec, [xv])
        if sp.is_infinite:
            continue
        t_y = max(t_x + sp.slices + 1, 4)
        runner = cdcn_id_dynamic if not classify_static(spec) else cdcn_id_static
        got = runner(spec, x, t_x, {yv}, t_y, None, None, 0)
        m = unrolled_scm(spec, 0, t_y)
        tgt = {slice_var_at(xv, t_x): x[xv]}
        obs = frozenset({slice_var_at(yv, t_y)})
        res = id_effect(m.graph, frozenset(tgt), obs)
        if not res.identified:
            assert got is None
            failures_matched += 1
            done += 1
            continue
        ref = effect_factor(res.expr, joint(m), tgt, obs)
        assert got is not None
        assert np.max(np.abs(got.reorder([yv]).table
                             - ref.reorder([slice_var_at(yv, t_y)]).table)) <= 1e-9
        done += 1
    elapsed = time.time() - t0
    _report("7 window-equivalence",
            f"{done} specs ({failures_matched} coinciding failures), {elapsed:.1f}s")


def classify_static(spec):
    from docalc.dcn import classify
    return classify(spec).is_static


def test_criterion_08_tbefore_tafter():
    """Static-confounder specs: slices before the intervention are exactly
    untouched, and post-intervention one-step transitions measured from
    the brute-force oracle equal T from t_x+2 on."""
    rng = np.random.default_rng(8008)
    specs = [traffic_spec(traffic_mechanism())]
    for _ in range(4):
        specs.append(random_dcn_spec(rng, n_vars=2,
                                     n_static_conf=int(rng.integers(0, 2)),
                                     n_dynamic_conf=0))
    checked = 0
    for spec in specs:
        t = mechanism_transition(spec)
        t_x, horizon = 2, 5
        xv = spec.names()[0]
        base = trajectory(spec, t, None, None, horizon)
        try:
            bumped = trajectory(spec, t, None, ({xv: 1}, t_x), horizon)
        except Exception:
            continue
        for s in range(t_x):
            assert np.array_equal(base[s].table, bumped[s].table)
        m = unrolled_scm(spec, 0, horizon)
        post = joint(intervene(m, {slice_var_at(xv, t_x): 1}))
        n = spec.slice_states()
        for step in range(t_x + 1, horizon):
            keep = [slice_var_at(v, s) for v in spec.names() for s in (step, step + 1)]
            f = marginalize(post, [q for q in post.names() if q not in keep])
            c = condition(f, [slice_var_at(v, step) for v in spec.names()])
            got = c.reorder([slice_var_at(v, step + 1) for v in spec.names()]
                            + [slice_var_at(v, step) for v in spec.names()])
            table = got.table.reshape(n, n)
            live = marginalize(
                post, [q for q in post.names()
                       if q not in {slice_var_at(v, step) for v in spec.names()}]
            ).reorder([slice_var_at(v, step) for v in spec.names()]).table.reshape(-1) > 1e-12
            assert np.max(np.abs(table[:, live] - t.matrix[:, live])) < 1e-9
        checked += 1
    assert checked >= 3
    _report("8 tbefore-tafter", f"{checked} static specs")


def test_criterion_09_incompleteness_fixture(fig61_spec):
    """The step algorithm fails on the bow construction while the complete
    variant succeeds and matches the oracle within 1e-9."""
    t = mechanism_transition(fig61_spec)
    plain = dcn_id_static(fig61_spec, {"X": 1}, 2, {"C"}, 4, t, None, 0)
    complete = cdcn_id_static(fig61_spec, {"X": 1}, 2, {"C"}, 4, t, None, 0)
    assert plain is None
    assert complete is not None
    m = unrolled_scm(fig61_spec, 0, 4)
    tgt = {slice_var_at("X", 2): 1}
    want = oracle_query(m, InterventionSpec(frozenset(tgt), tgt,
                                            frozenset({slice_var_at("C", 4)})))
    assert np.max(np.abs(complete.reorder(["C"]).table - want.table)) <= 1e-9
    _report("9 incompleteness-fixture", "step FAIL, complete PASS, oracle match")


def test_criterion_10_determinism(tmp_path, fig32_trio):
    """Repeated discover and dcn runs with a fixed seed produce
    byte-identical reports."""
    import json

    from docalc import fileio
    from docalc.cli import main

    g1, g2, g3 = fig32_trio
    for name, g in [("g1", g1), ("g2", g2), ("g3", g3)]:
        fileio.save_graph(g, tmp_path / f"{name}.json")
    (tmp_path / "cands.json").write_text(
        json.dumps({"graphs": ["g1.json", "g2.json", "g3.json"]}), encoding="utf-8")
    m = random_scm(np.random.default_rng(0), g3)
    (tmp_path / "model.json").write_text(
        fileio.canonical_json(fileio.model_to_dict(m)), encoding="utf-8")
    blobs = []
    for i in range(2):
        out = tmp_path / f"rep{i}.json"
        assert main(["--seed", "7", "discover",
                     "--candidates", str(tmp_path / "cands.json"),
                     "--model", str(tmp_path / "model.json"),
                     "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    spec = {
        "slice_vars": [{"name": "tr1"}, {"name": "tr2"}, {"name": "d"}],
        "intra_edges": [["tr1", "d"], ["tr2", "d"]],
        "cross_edges": [["d", "tr1", 1], ["d", "tr2", 1]],
        "intra_confounders": [["tr1", "tr2"]],
        "schedule": {
            "matrices": {"T1": {
                "state_vars": [{"name": "tr1"}, {"name": "tr2"}, {"name": "d"}],
                "orientation": "row",
                "entries": [[float(x) for x in row] for row in T1_ROWS]}},
            "default": "T1",
        },
    }
    (tmp_path / "traffic.json").write_text(json.dumps(spec), encoding="utf-8")
    csvs = []
    for i in range(2):
        out = tmp_path / f"traj{i}.csv"
        assert main(["--seed", "7", "dcn", "--spec", str(tmp_path / "traffic.json"),
                     "--query", "P(d@10|do(tr1@3=1))",
                     "--horizon", "12", "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    _report("10 determinism", "discover and dcn reports byte-identical")
