import functools
import itertools
import operator

import numpy as np
import pytest

from docalc import alcam
from docalc.alcam import (CandidateSet, CostModel, InterventionCaps,
                          PredictionTable, alcam_run, distinguishable_by,
                          enumerate_interventions, id_edges, id_hidden,
                          minimal_splitting_sets, partition_candidates,
                          power_of_intervention, select_graphs,
                          select_intervention, _exact_cover, _greedy_cover,
                          _min_dsep_intervention)
from docalc.errors import InvalidInputError, PromiseViolationError
from docalc.factors import Factor, condition, equal_within, marginalize
from docalc.graphs import Admg, Var, ancestors, d_separated, mutilate
from docalc import identify
from docalc.identify import (ObservedTerm, Prediction, Product, Quotient, SumOver, effect_factor,
                             evaluate, id_effect, pretty)
from docalc.scm import InterventionOracle, InterventionSpec, joint, random_admg, random_scm
from conftest import criterion2_graphs

RNG = np.random.default_rng(2024)


def spec_for(targets, observed, values=None):
    values = values or {t: 0 for t in targets}
    return InterventionSpec(frozenset(targets), values, frozenset(observed))


# -- Table of the seven distinguishability cases -----------------------------

XZW = (Var("X"), Var("Z"), Var("W"))
XYZ = (Var("X"), Var("Y"), Var("Z"))


def _verdict(g_k, g_l, truth, e, seed=0):
    rng = np.random.default_rng(seed)
    p_star = joint(random_scm(rng, truth))
    preds = PredictionTable(CandidateSet((g_k, g_l)), p_star)
    return distinguishable_by(e, 0, 1, preds)


class TestSevenCases:
    def test_case1_both_trivial(self):
        g_k = Admg(XZW)
        g_l = Admg(XZW, [("X", "W")])
        v = _verdict(g_k, g_l, g_k, spec_for({"X"}, {"Z"}))
        assert (v.case_id, v.distinguishable) == (1, False)

    def test_case2_one_trivial(self):
        g_k = Admg(XZW, [("X", "W")])
        g_l = Admg(XZW, [("X", "Z")])
        v = _verdict(g_k, g_l, g_l, spec_for({"X"}, {"Z"}))
        assert (v.case_id, v.distinguishable) == (2, True)

    def test_case3_equal_nontrivial(self, fig12_graphs):
        g1, g2, _g3, _g4 = fig12_graphs
        v = _verdict(g1, g2, g1, spec_for({"Y"}, {"Z"}))
        assert (v.case_id, v.distinguishable) == (3, False)

    def test_case4_different_nontrivial(self, fig12_graphs):
        g1, g2, _g3, _g4 = fig12_graphs
        v = _verdict(g1, g2, g1, spec_for({"X", "Y"}, {"Z"}))
        assert (v.case_id, v.distinguishable) == (4, True)

    def test_case5_trivial_vs_empty(self):
        g_k = Admg(XZW, [("X", "W")])
        g_l = Admg(XZW, [("X", "Z")], [("X", "Z")])
        v = _verdict(g_k, g_l, g_k, spec_for({"X"}, {"Z"}))
        assert (v.case_id, v.distinguishable) == (5, True)

    def test_case6_nontrivial_vs_empty(self):
        g_k = Admg(XZW, [("X", "Z")])
        g_l = Admg(XZW, [("X", "Z")], [("X", "Z")])
        v = _verdict(g_k, g_l, g_k, spec_for({"X"}, {"Z"}))
        assert (v.case_id, v.distinguishable) == (6, False)

    def test_case7_both_empty(self):
        g_k = Admg(XZW, [("X", "Z")], [("X", "Z")])
        g_l = Admg(XZW, [("X", "Z"), ("X", "W")], [("X", "Z")])
        v = _verdict(g_k, g_l, g_k, spec_for({"X"}, {"Z"}))
        assert (v.case_id, v.distinguishable) == (7, False)


class TestPowerOfIntervention:
    def test_fig12_full_intervention(self, fig12_graphs):
        cs = CandidateSet(fig12_graphs)
        p = joint(random_scm(np.random.default_rng(1), fig12_graphs[0]))
        preds = PredictionTable(cs, p)
        e = spec_for({"X", "Y"}, {"Z"})
        # the predictions P1..P4 differ pairwise: every pair splits
        assert power_of_intervention(e, range(4), preds) == 6

    def test_fig13_partial_intervention(self, fig12_graphs):
        cs = CandidateSet(fig12_graphs)
        p = joint(random_scm(np.random.default_rng(1), fig12_graphs[0]))
        preds = PredictionTable(cs, p)
        e = spec_for({"Y"}, {"Z"})
        # {G1,G2} and {G3,G4} collapse; only the four cross pairs split
        assert power_of_intervention(e, range(4), preds) == 4

    def test_singleton_no_pairs(self, fig12_graphs):
        cs = CandidateSet(fig12_graphs)
        p = joint(random_scm(np.random.default_rng(1), fig12_graphs[0]))
        preds = PredictionTable(cs, p)
        assert power_of_intervention(spec_for({"X"}, {"Z"}), [0], preds) == 0

    def test_permutation_invariance(self, fig12_graphs):
        p = joint(random_scm(np.random.default_rng(1), fig12_graphs[0]))
        e = spec_for({"X", "Y"}, {"Z"})
        base = power_of_intervention(
            e, range(4), PredictionTable(CandidateSet(fig12_graphs), p))
        for perm in itertools.permutations(range(4)):
            cs = CandidateSet(tuple(fig12_graphs[i] for i in perm))
            assert power_of_intervention(
                e, range(4), PredictionTable(cs, p)) == base


class TestEnumerateInterventions:
    def test_enumerated_experiments_equal_validated_specs(self, fig12_graphs, fig32_trio):
        """Enumeration skips the spec checks; each experiment must equal
        the one the validating constructor builds, key included, and the
        list must stay sorted by key."""
        for g in (*fig12_graphs, *fig32_trio, random_admg(np.random.default_rng(18), 5)):
            es = enumerate_interventions(g)
            assert [e.key() for e in es] == sorted(e.key() for e in es)
            for e in es:
                ref = InterventionSpec(e.targets, dict(e.values), e.observed)
                assert e == ref and e.key() == ref.key() and str(e) == str(ref)
                assert not e.targets & e.observed

    def test_equal_specs_hash_equal(self, fig12_graphs):
        """Specs hash by their key, so equal specs hash equal, an
        enumerated experiment and its validated twin included, and specs
        work as set members and dict keys."""
        a = InterventionSpec(frozenset({"A", "B"}), {"A": 1, "B": 0}, frozenset({"C"}))
        b = InterventionSpec(frozenset({"B", "A"}), {"B": 0, "A": 1}, frozenset({"C"}))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        es = enumerate_interventions(fig12_graphs[0])
        twins = [InterventionSpec(e.targets, dict(e.values), e.observed) for e in es]
        for e, ref in zip(es, twins):
            assert e == ref and hash(e) == hash(ref)
        assert {e: i for i, e in enumerate(es)} == {e: i for i, e in enumerate(twins)}


class TestCapsAndCosts:
    @pytest.mark.parametrize("bounds", [(0, 2), (2, -1), (True, 2), (2, 1.5), (2, "2"),
                                        (None, 2)])
    def test_caps_must_be_integers_of_at_least_one(self, bounds):
        """A bound of 0 would silently skip a phase, and a bool or a
        fraction is no count of variables."""
        with pytest.raises(InvalidInputError, match="must be an integer >= 1"):
            InterventionCaps(*bounds)
        caps = InterventionCaps(np.int64(1), 3)
        assert (caps.max_targets, caps.max_observed) == (1, 3)

    @pytest.mark.parametrize("weights,field", [
        (({"X": float("nan")}, {}), "intervention weight of 'X'"),
        (({}, {"Y": -5.0}), "observation weight of 'Y'"),
        (({}, {}, float("inf")), "default_intervention"),
        (({}, {}, 1.0, -0.5), "default_observation"),
    ])
    def test_cost_weights_must_be_finite_and_non_negative(self, weights, field):
        with pytest.raises(InvalidInputError, match=f"{field} must be a finite number >= 0"):
            CostModel.per_variable(*weights)
        assert CostModel.per_variable({"X": 0.0}, {}, 0.0, 2.5).of(spec_for({"X"}, {"Y"})) == 2.5


class TestPartition:
    def test_fig12_singletons(self, fig12_graphs):
        cs = CandidateSet(fig12_graphs)
        p = joint(random_scm(np.random.default_rng(2), fig12_graphs[0]))
        preds = PredictionTable(cs, p)
        es = enumerate_interventions(fig12_graphs[0])
        part = partition_candidates(cs, preds, es)
        assert sorted(map(sorted, part.subsets)) == [[0], [1], [2], [3]]

    def test_fig32_overlapping_subsets(self, fig32_trio):
        cs = CandidateSet(fig32_trio)
        p = joint(random_scm(np.random.default_rng(3), fig32_trio[2]))
        preds = PredictionTable(cs, p)
        es = enumerate_interventions(fig32_trio[0])
        part = partition_candidates(cs, preds, es)
        assert sorted(map(sorted, part.subsets)) == [[0, 2], [1, 2]]

    def test_any_experiment_subset_matches_the_verdicts(self):
        """The partition reads only the given experiments' values, so a
        subset of a group's values splits as its verdicts say."""
        rng = np.random.default_rng(18)
        for cs, p, experiments in _criterion5_sets(5005, 6):
            preds = PredictionTable(cs, p)
            n = len(cs.graphs)
            for _ in range(3):
                chosen = [e for e in experiments if rng.random() < 0.3]
                split = np.zeros((n, n), dtype=bool)
                for e in chosen:
                    split |= preds.verdicts(e)
                want = alcam._maximal_cliques(n, lambda a, b: a != b and not split[a, b])
                assert partition_candidates(cs, preds, chosen).subsets == tuple(want)

    def test_identical_candidates_single_subset(self, fig12_graphs):
        g1 = fig12_graphs[0]
        cs = CandidateSet((g1, g1, g1))
        p = joint(random_scm(np.random.default_rng(4), g1))
        preds = PredictionTable(cs, p)
        es = enumerate_interventions(g1)
        part = partition_candidates(cs, preds, es)
        assert sorted(map(sorted, part.subsets)) == [[0, 1, 2]]


# -- synthetic five-candidate narrative --------------------------------------

PY = np.array([0.5, 0.5])
VAL_A = np.array([0.6, 0.4])
VAL_B = np.array([0.7, 0.3])
VAL_C = np.array([0.8, 0.2])
O = Var("O")


class FakePreds(PredictionTable):
    """Prediction table with scripted sheets per (targets, graph): a
    table over O, None (unidentified) or a (table, partial) pair; every
    value of the targets gets the same prediction.  P(O) is PY."""

    def __init__(self, candidates, table):
        super().__init__(candidates, Factor((O,), PY))
        self.table = {}
        for key, v in table.items():
            if v is not None:
                values, partial = v if isinstance(v, tuple) else (v, False)
                v = Factor((O,), values, partial=partial)
            self.table[key] = v

    def _sheet(self, g_idx, targets, observed):
        return self.table[(targets, g_idx)]


def narrative_setup(e1_cost=2.5):
    names = [f"V{i}" for i in range(1, 6)]
    variables = tuple(Var(n) for n in names) + (O,)
    graphs = tuple(Admg(variables, [(names[i], "O")] if i else [])
                   for i in range(5))
    cs = CandidateSet(graphs)
    es = [spec_for({f"V{i}"}, {"O"}) for i in range(1, 6)]
    costs = CostModel.per_variable(
        {"V1": e1_cost, "V2": 4, "V3": 1, "V4": 2, "V5": 2}, {"O": 0.0})
    table = {}
    rows = {
        "V1": [VAL_A, VAL_A, VAL_A, VAL_A, VAL_B],
        "V2": [VAL_A, VAL_A, VAL_A, VAL_B, VAL_A],
        "V3": [VAL_A, None, VAL_B, None, None],
        "V4": [VAL_A, VAL_A, VAL_A, VAL_C, VAL_A],
        "V5": [VAL_A, None, VAL_C, None, None],
    }
    for tname, vals in rows.items():
        for g_idx, v in enumerate(vals):
            table[((tname,), g_idx)] = v
    return cs, es, costs, FakePreds(cs, table)


class TestSplittingNarrative:
    def test_partition_shape(self):
        cs, es, _costs, preds = narrative_setup()
        part = partition_candidates(cs, preds, es)
        assert sorted(map(sorted, part.subsets)) == [[0, 1], [1, 2], [3], [4]]

    def test_minimal_plan_is_e1_e3_e4(self):
        cs, es, costs, preds = narrative_setup()
        part = partition_candidates(cs, preds, es)
        plan = minimal_splitting_sets(part, preds, costs, es)
        assert sorted(sorted(e.targets) for e in plan.interventions) == [
            ["V1"], ["V3"], ["V4"]]
        assert plan.total_cost == pytest.approx(5.5)

    def test_true_graph_g4_found_with_one_intervention(self):
        cs, es, costs, preds = narrative_setup()
        part = partition_candidates(cs, preds, es)
        plan = list(minimal_splitting_sets(part, preds, costs, es).interventions)
        e = select_intervention(plan, part, preds, costs)
        assert sorted(e.targets) == ["V4"]  # isolates the singleton {G4} cheapest
        answer = Factor((O,), VAL_C)  # the true model is G4
        part = select_graphs(part, e, answer, preds)
        assert sorted(part.members()) == [3]

    def test_true_graph_g1_needs_three_interventions(self):
        cs, es, costs, preds = narrative_setup()
        part = partition_candidates(cs, preds, es)
        plan = list(minimal_splitting_sets(part, preds, costs, es).interventions)
        used = []
        while len(part.subsets) > 1:
            e = select_intervention(plan, part, preds, costs)
            assert e is not None
            used.append(sorted(e.targets)[0])
            part = select_graphs(part, e, Factor((O,), VAL_A), preds)
            plan.remove(e)
        assert sorted(used) == ["V1", "V3", "V4"]
        # G2 predicts nothing for E3 but the answer differs from P(O): it stays
        assert sorted(part.members()) == [0, 1]

    def test_two_subsets_single_split(self):
        cs, es, costs, preds = narrative_setup()
        part = partition_candidates(cs, preds, es)
        from docalc.alcam import Partition
        two = Partition((part.subsets[0], frozenset({4})))
        plan = minimal_splitting_sets(two, preds, costs, es)
        assert len(plan.interventions) == 1

    def test_select_none_when_powerless(self):
        cs, es, costs, preds = narrative_setup()
        from docalc.alcam import Partition
        part = Partition((frozenset({0, 1}),))
        assert select_intervention(es, part, preds, costs) is None

    def test_fallback_when_no_subplan_isolates_a_subset(self):
        """Three subsets where the plan's experiments split only the first
        two (the third predicts partially, so it is never distinguished):
        no sub-plan isolates a subset, and the cheapest experiment that
        still splits something is chosen, not a cheaper powerless one."""
        from docalc.alcam import Partition

        names = ["V0", "V1", "V2"]
        cs = CandidateSet(tuple(Admg(tuple(Var(n) for n in names) + (O,), [(n, "O")] if i else [])
                                for i, n in enumerate(names)))
        rows = {"V0": [VAL_A, VAL_B, (VAL_C, True)],
                "V1": [VAL_A, VAL_C, (VAL_A, True)],
                "V2": [VAL_A, VAL_A, VAL_A]}
        preds = FakePreds(cs, {((t,), k): v for t, vals in rows.items() for k, v in enumerate(vals)})
        plan = [spec_for({t}, {"O"}) for t in names]
        costs = CostModel.per_variable({"V0": 3.0, "V1": 2.0, "V2": 1.0}, {"O": 0.0})
        part = Partition((frozenset({0}), frozenset({1}), frozenset({2})))
        assert [power_of_intervention(e, part.members(), preds) for e in plan] == [1, 1, 0]
        assert select_intervention(plan, part, preds, costs) == plan[1]
        assert select_intervention([plan[0], plan[2]], part, preds, costs) == plan[0]

    def test_selection_ignores_splits_within_a_subset(self):
        """The V1-experiment is cheaper but splits only candidates 0 and 1,
        inside the first subset (2 predicts nothing, case 6, so it stays
        with both); a split within a subset isolates no subset, so the
        dearer V2-experiment is chosen."""
        from docalc.alcam import Partition

        names = ["V1", "V2"]
        cs = CandidateSet(tuple(Admg(tuple(Var(n) for n in names) + (O,), edges)
                                for edges in ([], [("V1", "O")], [("V2", "O")])))
        rows = {"V1": [VAL_A, VAL_B, None], "V2": [VAL_A, VAL_A, VAL_B]}
        preds = FakePreds(cs, {((t,), k): v for t, vals in rows.items() for k, v in enumerate(vals)})
        plan = [spec_for({t}, {"O"}) for t in names]
        costs = CostModel.per_variable({"V1": 1.0, "V2": 4.0}, {"O": 0.0})
        part = Partition((frozenset({0, 1}), frozenset({2})))
        assert preds.verdicts(plan[0])[0, 1] and not preds.verdicts(plan[0])[:2, 2].any()
        assert select_intervention(plan, part, preds, costs) == plan[1]

    def test_lexicographic_tie_break(self):
        cs, es, costs, preds = narrative_setup(e1_cost=2.0)
        # with equal costs the V1-experiment precedes the V4-experiment
        part = partition_candidates(cs, preds, es)
        plan = list(minimal_splitting_sets(part, preds, costs, es).interventions)
        e = select_intervention(plan, part, preds, costs)
        assert sorted(e.targets) == ["V1"]


class TestSelectGraphs:
    def test_true_graph_survives(self, fig12_graphs):
        rng = np.random.default_rng(6)
        cs = CandidateSet(fig12_graphs)
        for truth_idx in range(4):
            m = random_scm(rng, fig12_graphs[truth_idx])
            p = joint(m)
            preds = PredictionTable(cs, p)
            es = enumerate_interventions(fig12_graphs[0])
            part = partition_candidates(cs, preds, es)
            e = spec_for({"X", "Y"}, {"Z"})
            from docalc.scm import oracle_query
            ans = oracle_query(m, e)
            part2 = select_graphs(part, e, ans, preds)
            assert truth_idx in part2.members()

    def test_empty_prediction_dropped_when_answer_trivial(self):
        bow = Admg(XZW, [("X", "Z")], [("X", "Z")])
        flat = Admg(XZW, [("X", "W")])
        rng = np.random.default_rng(7)
        m = random_scm(rng, flat)  # truth: X does not touch Z
        p = joint(m)
        cs = CandidateSet((bow, flat))
        preds = PredictionTable(cs, p)
        es = enumerate_interventions(bow)
        part = partition_candidates(cs, preds, es)
        e = spec_for({"X"}, {"Z"})
        from docalc.scm import oracle_query
        part2 = select_graphs(part, e, oracle_query(m, e), preds)
        assert 0 not in part2.members() and 1 in part2.members()

    def test_consistent_answers_keep_everything(self, fig12_graphs):
        g1 = fig12_graphs[0]
        cs = CandidateSet((g1, g1))
        rng = np.random.default_rng(8)
        m = random_scm(rng, g1)
        preds = PredictionTable(cs, joint(m))
        es = enumerate_interventions(g1)
        part = partition_candidates(cs, preds, es)
        e = spec_for({"X"}, {"Z"})
        from docalc.scm import oracle_query
        part2 = select_graphs(part, e, oracle_query(m, e), preds)
        assert sorted(part2.members()) == [0, 1]


class TestExactCover:
    def test_matches_exhaustive_optimum(self):
        """Covers are bitmasks, bit j for item j."""
        rng = np.random.default_rng(9)
        for _ in range(40):
            n_elems = int(rng.integers(2, 6))
            n_sets = int(rng.integers(2, 10))
            universe = (1 << n_elems) - 1
            rows = []
            for i in range(n_sets):
                cover = sum(1 << int(x) for x in
                            rng.choice(n_elems, size=rng.integers(1, n_elems + 1),
                                       replace=False))
                rows.append((float(rng.integers(1, 5)), (i,), cover))
            if functools.reduce(operator.or_, (r[2] for r in rows)) != universe:
                continue
            got = _exact_cover(universe, rows)
            best = None
            for r in range(1, n_sets + 1):
                for combo in itertools.combinations(range(n_sets), r):
                    if functools.reduce(operator.or_, (rows[i][2] for i in combo)) == universe:
                        cost = sum(rows[i][0] for i in combo)
                        if best is None or cost < best:
                            best = cost
            assert got is not None
            assert sum(rows[i][0] for i in got) == pytest.approx(best)
            greedy = _greedy_cover(universe, rows)
            assert greedy is not None
            assert sum(rows[i][0] for i in greedy) >= best - 1e-12


class TestCiFallbacks:
    def test_id_edges_keeps_true_side(self):
        variables = (Var("X1"), Var("M"), Var("X2"))
        with_edge = Admg(variables, [("X1", "M"), ("M", "X2"), ("X1", "X2")],
                         [("X1", "X2")])
        without = Admg(variables, [("X1", "M"), ("M", "X2")], [("X1", "X2")])
        rng = np.random.default_rng(10)
        for truth in (with_edge, without):
            m = random_scm(rng, truth)
            records = []
            out = id_edges(CandidateSet((with_edge, without)), m, records=records)
            assert out.graphs == (truth,)
            assert records[0].multi_value  # the confounder forces intervening X1
            assert records[0].interventions == 2  # one per value of X1

    def test_id_edges_no_differences_is_noop(self, fig12_graphs):
        g1 = fig12_graphs[0]
        m = random_scm(np.random.default_rng(11), g1)
        cs = CandidateSet((g1, g1))
        assert id_edges(cs, m).graphs == cs.graphs

    def test_id_hidden_adjacent(self):
        variables = (Var("X1"), Var("X2"))
        plain = Admg(variables, [("X1", "X2")])
        conf = Admg(variables, [("X1", "X2")], [("X1", "X2")])
        rng = np.random.default_rng(12)
        for truth in (plain, conf):
            m = random_scm(rng, truth)
            records = []
            out = id_hidden(CandidateSet((plain, conf)), m, records=records)
            assert out.graphs == (truth,)
            assert records[0].dependent == (truth is conf)

    def test_id_hidden_nonadjacent(self):
        variables = (Var("X1"), Var("X2"), Var("W"))
        plain = Admg(variables)
        conf = Admg(variables, [], [("X1", "X2")])
        rng = np.random.default_rng(13)
        for truth in (plain, conf):
            m = random_scm(rng, truth)
            out = id_hidden(CandidateSet((plain, conf)), m)
            assert out.graphs == (truth,)

    def test_experiments_go_through_the_oracle(self):
        variables = (Var("X1"), Var("M"), Var("X2"))
        chain = [("X1", "M"), ("M", "X2")]
        with_edge = Admg(variables, chain + [("X1", "X2")])
        without = Admg(variables, chain)
        m = random_scm(np.random.default_rng(20), with_edge)
        oracle = InterventionOracle(m)
        out = id_edges(CandidateSet((with_edge, without)), m, oracle=oracle)
        assert out.graphs == (with_edge,)
        # one CI test under do(M=0), observing the edge's endpoints
        assert oracle.calls == 1
        assert [str(e) for e in oracle.log] == ["({M=0} -> {X1,X2})"]

        plain = Admg(variables, chain)
        conf = Admg(variables, chain, [("X1", "M")])
        m = random_scm(np.random.default_rng(21), conf)
        oracle = InterventionOracle(m)
        out = id_hidden(CandidateSet((plain, conf)), m, oracle=oracle)
        assert out.graphs == (conf,)
        # adjacent pair: P(M, X1) observed, then P(M | do(X1=v)) per value
        assert [str(e) for e in oracle.log] == [
            "({} -> {M,X1})", "({X1=0} -> {M})", "({X1=1} -> {M})"]
        assert oracle.calls == 3

    def test_id_hidden_requires_shared_observable_graph(self):
        variables = (Var("X1"), Var("X2"))
        a = Admg(variables, [("X1", "X2")])
        b = Admg(variables, [], [("X1", "X2")])
        m = random_scm(np.random.default_rng(14), a)
        with pytest.raises(InvalidInputError):
            id_hidden(CandidateSet((a, b)), m)

    def test_edges_are_tested_in_tuple_order(self):
        """Differing edges are settled as sorted (tail, head) tuples:
        ('A','C') before ('B','A'), though ('B','A')'s sorted names come
        first."""
        variables = (Var("A"), Var("B"), Var("C"))
        graphs = (Admg(variables, [("B", "A")]), Admg(variables, [("A", "C")]),
                  Admg(variables, [("B", "A"), ("A", "C")]))
        m = random_scm(np.random.default_rng(22), graphs[2])
        records = []
        assert id_edges(CandidateSet(graphs), m, records=records).graphs == (graphs[2],)
        assert [r.pair for r in records] == [("A", "C"), ("B", "A")]

    def test_ci_phase_outputs_are_pinned_under_fractional_costs(self):
        """Every CI record (cost by ``float.hex``), oracle log and call
        count of the first 24 criterion-5 trials at seed 5005, under a
        cost model whose sums depend on the order they are added in."""
        import hashlib
        from test_acceptance import _generic_candidate_trial

        costs = CostModel.per_variable({"V1": 0.1, "V2": 0.7}, {"V3": 0.3, "V1": 1.9}, 1.3, 0.45)
        rng = np.random.default_rng(5005)
        trials = kinds = 0
        rows, seen = [], set()
        while trials < 24:
            drawn = _generic_candidate_trial(rng)
            if drawn is None:
                continue
            trials += 1
            cs, m, _true_g = drawn
            oracle = InterventionOracle(m)
            res = alcam_run(cs, m, costs, oracle=oracle)
            if res.ci_records:
                seen |= {(r.kind, r.multi_value) for r in res.ci_records}
                rows.append([[[r.kind, *r.pair, *r.do_set, r.multi_value, r.interventions,
                               r.cost.hex(), r.dependent] for r in res.ci_records],
                             [str(e) for e in oracle.log], oracle.calls])
        # both tests of each kind ran: edges by one context and per value,
        # confounders of adjacent and of non-adjacent pairs
        assert len(seen) == 4 and len(rows) == 15
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "2b9d4470cfa3b5d64b1cdb16ae33fee757d144b16543ba87ce244930a8310568"


def _sorted_min_dsep(graphs, vi, vj):
    """Reference: every subset built, sorted by (size, vi-free first,
    names), and tested in that order."""
    names = sorted(graphs[0].names())
    pool = [n for n in names if n != vj]
    options = []
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            d = frozenset(combo)
            options.append((size, 1 if vi in d else 0, tuple(sorted(d)), d))
    options.sort(key=lambda t: t[:3])
    for *_key, d in options:
        if all(d_separated(mutilate(g, remove_incoming=d), {vi}, {vj}, d - {vi})
               for g in graphs):
            return d
    return None


class TestMinDsepIntervention:
    def test_lazy_walk_matches_sorted_enumeration(self):
        graphs = criterion2_graphs()
        rng = np.random.default_rng(527)
        with_vi = without = 0
        for _ in range(400):
            i, j = rng.choice(len(graphs), size=2, replace=False)
            group = [graphs[i], graphs[j]]
            for vi, vj in itertools.permutations("ABCD", 2):
                got = _min_dsep_intervention(group, vi, vj)
                assert got == _sorted_min_dsep(group, vi, vj), (group, vi, vj)
                with_vi += got is not None and vi in got
                without += got is None
        assert with_vi and without  # both unusual outcomes were exercised


class TestAlcamRun:
    def test_fig12_one_intervention(self, fig12_graphs):
        rng = np.random.default_rng(15)
        m = random_scm(rng, fig12_graphs[0])
        res = alcam_run(CandidateSet(fig12_graphs), m)
        assert res.final == fig12_graphs[0]
        assert res.n_interventions == 1
        assert res.bound_ok

    def test_singleton_zero_interventions(self, fig12_graphs):
        m = random_scm(np.random.default_rng(16), fig12_graphs[0])
        res = alcam_run(CandidateSet((fig12_graphs[0],)), m)
        assert res.final == fig12_graphs[0]
        assert res.n_interventions == 0

    def test_fig32_trio_truth_g3(self, fig32_trio):
        rng = np.random.default_rng(17)
        m = random_scm(rng, fig32_trio[2])
        res = alcam_run(CandidateSet(fig32_trio), m)
        assert res.final == fig32_trio[2]
        assert res.bound_ok

    def test_ci_phase_resolves_confounder_pair(self):
        variables = (Var("X1"), Var("X2"))
        plain = Admg(variables, [("X1", "X2")])
        conf = Admg(variables, [("X1", "X2")], [("X1", "X2")])
        rng = np.random.default_rng(18)
        m = random_scm(rng, conf)
        res = alcam_run(CandidateSet((plain, conf)), m)
        assert res.final == conf
        assert res.n_interventions == 0  # no single-value experiment splits them
        assert len(res.ci_records) == 1

    def test_oracle_counts_ci_experiments(self):
        variables = (Var("X1"), Var("X2"))
        plain = Admg(variables, [("X1", "X2")])
        conf = Admg(variables, [("X1", "X2")], [("X1", "X2")])
        m = random_scm(np.random.default_rng(18), conf)
        oracle = InterventionOracle(m)
        res = alcam_run(CandidateSet((plain, conf)), m, oracle=oracle)
        assert res.n_interventions == 0 and len(res.ci_records) == 1
        assert oracle.calls == len(oracle.log) == 3

    def test_promise_violation_raises(self):
        variables = (Var("X"), Var("Z"))
        bow = Admg(variables, [("X", "Z")], [("X", "Z")])
        plain = Admg(variables, [("X", "Z")])
        isolated = Admg(variables)
        # the true model is confounded; both candidates predict effects the
        # oracle contradicts, so everything gets eliminated
        m = random_scm(np.random.default_rng(19), bow)
        with pytest.raises(PromiseViolationError):
            alcam_run(CandidateSet((plain, isolated)), m)


def _reference_classify(pk, pl, py):
    """The seven-case table written pairwise with ``equal_within``: the
    reference the stacked verdict rows are checked against."""
    partial = any(f is not None and f.partial for f in (pk, pl))
    if pk is None and pl is None:
        return 7, False
    if pk is None or pl is None:
        other = pl if pk is None else pk
        case = 5 if equal_within(other, py) else 6
        return case, case == 5 and not partial
    k_is_py = equal_within(pk, py)
    l_is_py = equal_within(pl, py)
    if k_is_py and l_is_py:
        return 1, False
    if k_is_py != l_is_py:
        return 2, not partial
    if equal_within(pk, pl):
        return 3, False
    return 4, not partial


def _scripted_preds(values):
    """One graph per scripted prediction (see FakePreds) of the single
    experiment do(V0=0) observing O."""
    names = [f"V{i}" for i in range(len(values))]
    variables = tuple(Var(n) for n in names) + (O,)
    cs = CandidateSet(tuple(Admg(variables, [(n, "O")] if i else [])
                            for i, n in enumerate(names)))
    table = {(("V0",), g_idx): v for g_idx, v in enumerate(values)}
    return FakePreds(cs, table), spec_for({"V0"}, {"O"})


def _criterion5_sets(seed, n):
    """The first ``n`` generic trials of the criterion-5 generator at
    ``seed``: (candidates, true joint, the true graph's experiments)."""
    from test_acceptance import _generic_candidate_trial

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        drawn = _generic_candidate_trial(rng)
        if drawn is not None:
            cs, m, true_g = drawn
            out.append((cs, joint(m), enumerate_interventions(true_g)))
    return out


def _perturbation_set(seed, n_vars, n_candidates):
    """A random ADMG on ``n_vars`` variables and criterion-5 perturbations
    of it up to ``n_candidates`` graphs: (candidates, a joint of the true
    graph, its experiments)."""
    from test_acceptance import _perturb

    rng = np.random.default_rng(seed)
    true_g = random_admg(rng, n_vars, edge_prob=0.5, max_confounders=2)
    cand = {true_g}
    while len(cand) < n_candidates:
        cand.add(_perturb(rng, sorted(cand, key=repr)[int(rng.integers(len(cand)))]))
    cs = CandidateSet(tuple(sorted(cand, key=repr)))
    return cs, joint(random_scm(rng, true_g)), enumerate_interventions(true_g)


class TestVerdictRows:
    def _agree(self, preds, e):
        row = preds.verdicts(e)
        n = len(preds.candidates.graphs)
        assert row.shape == (n, n) and not row.flags.writeable
        py = preds.observational_marginal(e.observed)
        dists = [preds.prediction(k, e).dist for k in range(n)]
        # a verdict depends on the two predictions' values only, so each
        # pair of distinct values is classified once, for its first holders
        first: dict = {}
        rep = [first.setdefault(None if f is None else (f.names(), f.table.tobytes(), f.partial), k)
               for k, f in enumerate(dists)]
        for k, l in itertools.product(sorted(set(rep)), repeat=2):
            v = distinguishable_by(e, k, l, preds)
            assert (v.case_id, v.distinguishable) == _reference_classify(
                dists[k], dists[l], py)
            assert row[k, l] == v.distinguishable, (e, k, l)
        assert np.array_equal(row, row[np.ix_(rep, rep)]), e
        return row

    def test_rows_match_pairwise_verdicts_on_criterion5_sets(self):
        from test_acceptance import _generic_candidate_trial

        rng = np.random.default_rng(3003)
        trials = pairs = splits = 0
        while trials < 6:
            drawn = _generic_candidate_trial(rng)
            if drawn is None:
                continue
            cs, m, true_g = drawn
            preds = PredictionTable(cs, joint(m))
            for e in enumerate_interventions(true_g):
                row = self._agree(preds, e)
                pairs += row.size
                splits += int(row.sum())
            trials += 1
        assert 0 < splits < pairs

    def test_rows_match_pairwise_verdicts_on_a_large_perturbation_set(self):
        """Every experiment of one 7-variable set of 30 candidates drawn
        with the criterion-5 perturbations: many groups, many candidates
        sharing each sheet, two-target groups of four value assignments."""
        cs, p, experiments = _perturbation_set(7007, 7, 30)
        preds = PredictionTable(cs, p)
        splits = sum(int(self._agree(preds, e).sum()) for e in experiments)
        assert 0 < splits < len(experiments) * 30 * 30
        assert len(experiments) > len(preds._groups) > 100

    def test_survivors_match_each_prediction_against_the_answer(self):
        """``select_graphs`` reads the rows the fill bound; its survivors
        are those of each candidate's ``prediction`` matched against the
        answer with ``equal_within``, or, unidentified, kept when the
        answer is not P(Y).  Answers: the true model's, P(Y) and every
        candidate's prediction, for every experiment of criterion-5 sets."""
        from docalc.alcam import Partition
        from docalc.scm import oracle_query
        from test_acceptance import _generic_candidate_trial

        rng = np.random.default_rng(3003)
        trials = kept = dropped = 0
        while trials < 4:
            drawn = _generic_candidate_trial(rng)
            if drawn is None:
                continue
            cs, m, true_g = drawn
            n = len(cs.graphs)
            preds = PredictionTable(cs, joint(m))
            everyone = Partition((frozenset(range(n)),))
            for e in enumerate_interventions(true_g):
                py = preds.observational_marginal(e.observed)
                dists = [preds.prediction(k, e).dist for k in range(n)]
                for answer in [oracle_query(m, e), py] + [f for f in dists if f is not None]:
                    answer_is_py = equal_within(answer.reorder(py.names()), py)
                    want = frozenset(k for k, f in enumerate(dists)
                                     if (not answer_is_py if f is None else
                                         equal_within(f, answer.reorder(f.names()))))
                    assert select_graphs(everyone, e, answer, preds).members() == want, e
                    kept += len(want)
                    dropped += n - len(want)
            trials += 1
        assert kept and dropped

    def test_batched_fill_equals_one_group_at_a_time(self, monkeypatch):
        """``partition_candidates`` fills every group at once, batched by
        observed and target domains; each tensor equals, bit for bit, the
        one a cold ``verdicts`` call fills as a batch of one group, and
        ``_stacked`` gathers them in the experiments' order."""
        batches = []
        real = alcam._case_codes

        def spy(rows, ident, py):
            batches.append(rows.shape[0])
            return real(rows, ident, py)

        monkeypatch.setattr(alcam, "_case_codes", spy)
        for cs, p, experiments in _criterion5_sets(3003, 6) + [_perturbation_set(7007, 7, 30)]:
            batched = PredictionTable(cs, p)
            del batches[:]
            partition_candidates(cs, batched, experiments)
            assert len(batches) < len(batched._groups)
            single = PredictionTable(cs, p)
            del batches[:]
            rows = [single.verdicts(e) for e in experiments]
            assert batches == [1] * len(single._groups)
            stacked = batched._stacked(experiments)
            assert stacked.shape == (len(experiments),) + rows[0].shape
            for e, row, got in zip(experiments, rows, stacked):
                assert np.array_equal(got, row) and np.array_equal(batched.verdicts(e), row)
            for group, (tensor, _batch, _b) in single._groups.items():
                assert np.array_equal(batched._groups[group][0], tensor), group
                assert not batched._groups[group][0].flags.writeable

    def test_refuted_candidate_under_the_true_joint(self, fig32_trio):
        """Fig. 3.2: under g3's joint, g1's sheet for do(X2) -> X3 varies
        along the auxiliary X1 (see TestAuxiliaryBinding); the verdicts
        take g1's prediction at X1 = 0, for either value of X2, and equal
        the pairwise reference on those predictions."""
        g1, _g2, g3 = fig32_trio
        p = joint(random_scm(np.random.default_rng(3), g3))
        preds = PredictionTable(CandidateSet((g1, g3)), p)
        cond = condition(marginalize(p, ["X4"]).reorder(["X1", "X2", "X3"]), ["X1", "X2"])
        for v in (0, 1):
            e = spec_for({"X2"}, {"X3"}, {"X2": v})
            np.testing.assert_array_equal(preds.prediction(0, e).dist.table, cond.table[0, v])
            self._agree(preds, e)
        for e in enumerate_interventions(g3):
            self._agree(preds, e)

    def test_unidentified_prediction(self):
        preds, e = _scripted_preds([None, VAL_A, PY, None])
        row = self._agree(preds, e)
        # None vs P(Y) is case 5, None vs a non-trivial effect case 6
        assert row[0, 2] and not row[0, 1] and not row[0, 3]
        assert distinguishable_by(e, 0, 3, preds).case_id == 7

    def test_partial_prediction_never_distinguishes(self):
        preds, e = _scripted_preds([(VAL_A, True), VAL_B, PY, None, (PY, True)])
        row = self._agree(preds, e)
        assert not row[0].any() and not row[:, 0].any()
        assert not row[4].any()
        assert row[1, 2] and row[2, 3] and not row[1, 3]

    def test_eps_equality_is_not_transitive(self):
        step = np.array([6e-10, -6e-10])
        a, b, c = VAL_A, VAL_A + step, VAL_A + 2 * step
        preds, e = _scripted_preds([a, b, c])
        row = self._agree(preds, e)
        assert not row[0, 1] and not row[1, 2] and row[0, 2]
        assert [distinguishable_by(e, k, l, preds).case_id
                for k, l in ((0, 1), (1, 2), (0, 2))] == [3, 3, 4]


class TestAuxiliaryBinding:
    def test_sheets_flat_along_auxiliary_variables_for_the_true_graph(self):
        """Predictions bind rule-3 auxiliary do-variables to 0; when the
        joint comes from the candidate itself the sheet does not depend
        on them, so the true graph's predictions do not either."""
        rng = np.random.default_rng(4004)
        with_aux = 0
        for _ in range(20):
            g = random_admg(rng, int(rng.integers(3, 6)), edge_prob=0.5, max_confounders=2)
            p = joint(random_scm(rng, g))
            seen = set()
            for e in enumerate_interventions(g):
                key = (tuple(sorted(e.targets)), tuple(sorted(e.observed)))
                if key in seen:
                    continue
                seen.add(key)
                res = id_effect(g, *key)
                if not res.identified:
                    continue
                sheet = evaluate(res.expr, p)
                for ax, n in enumerate(sheet.names()):
                    if n in key[0] or n in key[1] or sheet.partial:
                        continue
                    with_aux += 1
                    assert np.max(np.ptp(sheet.table, axis=ax)) <= 1e-9, (g, key, n)
        assert with_aux > 0

    def test_refuted_candidate_binds_auxiliary_to_zero(self, fig32_trio):
        """For a candidate the joint refutes, the sheet does vary along the
        auxiliary variable; the prediction takes its value at 0."""
        g1, _g2, g3 = fig32_trio
        p = joint(random_scm(np.random.default_rng(3), g3))
        preds = PredictionTable(CandidateSet((g1,)), p)
        res = id_effect(g1, {"X2"}, {"X3"})
        assert pretty(res.expr) == "P(X3|X1,X2)"
        sheet = evaluate(res.expr, p).reorder(["X1", "X2", "X3"])
        assert np.max(np.ptp(sheet.table, axis=0)) > 0.1
        cond = condition(marginalize(p, ["X4"]).reorder(["X1", "X2", "X3"]), ["X1", "X2"])
        for v in (0, 1):
            got = preds.prediction(0, spec_for({"X2"}, {"X3"}, {"X2": v})).dist
            np.testing.assert_allclose(got.table, cond.table[0, v], rtol=0, atol=1e-12)


class TestPartialSupportVerdicts:
    def test_partial_predictions_never_distinguish(self):
        # P(O) is [0.5, 0.5]; candidate 0 predicts partially, 2 predicts nothing
        preds, e = _scripted_preds([(np.array([0.6, 0.4]), True), np.array([0.9, 0.1]), None])
        v = distinguishable_by(e, 0, 1, preds)
        assert v.case_id == 4 and v.partial and not v.distinguishable
        v2 = distinguishable_by(e, 0, 2, preds)
        assert v2.partial and not v2.distinguishable


class TestPredictionTableRefusals:
    """Names outside the candidates' variables and candidate indices
    outside 0..n-1 are input errors, never a bare ``KeyError`` or a
    negative index that wraps around."""

    @pytest.fixture
    def table(self, fig12_graphs):
        cs = CandidateSet(tuple(fig12_graphs))
        return PredictionTable(cs, joint(random_scm(np.random.default_rng(4), cs.graphs[0])))

    @pytest.mark.parametrize("targets, observed", [({"Q"}, {"Y"}), ({"X"}, {"Q"})])
    def test_unknown_variable(self, table, targets, observed):
        e = spec_for(targets, observed)
        for ask in (lambda: table.verdicts(e), lambda: table.prediction(0, e),
                    lambda: distinguishable_by(e, 0, 1, table),
                    lambda: power_of_intervention(e, [0, 1], table)):
            with pytest.raises(InvalidInputError, match="unknown variable"):
                ask()

    @pytest.mark.parametrize("index", [-1, 4, 1.0])
    def test_candidate_index_out_of_range(self, table, index):
        e = spec_for({"X"}, {"Y"})
        for ask in (lambda: distinguishable_by(e, index, 0, table),
                    lambda: distinguishable_by(e, 0, index, table),
                    lambda: table.prediction(index, e),
                    lambda: power_of_intervention(e, [0, index], table)):
            with pytest.raises(InvalidInputError, match="candidate index"):
                ask()

    @pytest.mark.parametrize("value", [1.0, np.float64(0), True, False, 2, -1], ids=repr)
    def test_value_not_an_integer_of_the_domain(self, table, value):
        """A float or bool value, or one outside the domain, is an input
        error, never numpy's ``IndexError`` or a wrapped index."""
        e = spec_for({"X"}, {"Y"}, {"X": value})
        for ask in (lambda: table.verdicts(e), lambda: table.prediction(0, e),
                    lambda: distinguishable_by(e, 0, 1, table),
                    lambda: power_of_intervention(e, [0, 1], table)):
            with pytest.raises(InvalidInputError, match="of X is not an integer in 0..1"):
                ask()

    def test_experiment_without_targets_gets_verdicts(self):
        """An observation with no target is one group of one value
        assignment; its verdicts agree with ``prediction``'s answers."""
        for cs, p, _experiments in _criterion5_sets(3003, 3):
            preds = PredictionTable(cs, p)
            for observed in itertools.combinations(sorted(cs.graphs[0].names()), 2):
                e = InterventionSpec(frozenset(), {}, frozenset(observed))
                TestVerdictRows()._agree(preds, e)


def _subexpressions(e):
    """Every node of the expression tree ``e`` that the evaluator visits,
    repeats included: a Product directly under a SumOver is contracted
    with its sum, so its children are visited and it is not."""
    yield e
    if isinstance(e, SumOver):
        kids = e.child.children if isinstance(e.child, Product) else (e.child,)
        for c in kids:
            yield from _subexpressions(c)
    elif isinstance(e, Product):
        for c in e.children:
            yield from _subexpressions(c)
    elif isinstance(e, Quotient):
        yield from _subexpressions(e.num)
        yield from _subexpressions(e.den)


class TestPredictionCaches:
    """Within one PredictionTable each ancestral subproblem
    (G[An(Y)], X & An(Y), Y) is identified once, each subexpression is
    evaluated once, each evaluated sheet is bound once per group of
    experiments for the verdicts and once per experiment for
    ``prediction``; a new table starts cold."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {"id_effect": [], "evaluated": [], "bind_all": [], "bind": []}
        real_id, real_eval = alcam._identify, identify._evaluate
        real_bind_all, real_bind = alcam._bind, alcam._bind_effect

        def id_spy(g, x, y, memo):
            calls["id_effect"].append((g.induced(ancestors(g, y)), tuple(x), tuple(y)))
            return real_id(g, x, y, memo)

        def eval_spy(expr, source, memo):
            # the recursion looks ``_evaluate`` up in identify, so every
            # node it visits passes here; the memo is keyed by expression,
            # and one missing from it is evaluated now
            if expr not in memo:
                calls["evaluated"].append(expr)
            return real_eval(expr, source, memo)

        def bind_all_spy(sheet, targets, grid, outcome):
            calls["bind_all"].append((id(sheet), targets, outcome))
            return real_bind_all(sheet, targets, grid, outcome)

        def bind_spy(sheet, fixed, outcome):
            calls["bind"].append((tuple(sorted(fixed.items())), tuple(sorted(outcome))))
            return real_bind(sheet, fixed, outcome)

        monkeypatch.setattr(alcam, "_identify", id_spy)
        monkeypatch.setattr(alcam, "_evaluate", eval_spy)
        monkeypatch.setattr(identify, "_evaluate", eval_spy)
        monkeypatch.setattr(alcam, "_bind", bind_all_spy)
        monkeypatch.setattr(alcam, "_bind_effect", bind_spy)
        return calls

    @staticmethod
    def _fill(cs, p):
        preds = PredictionTable(cs, p)
        experiments = enumerate_interventions(cs.graphs[0])
        for e in experiments:
            preds.verdicts(e)
        return preds, experiments

    def test_one_call_per_subproblem_and_expression(self, monkeypatch):
        from test_acceptance import _generic_candidate_trial

        rng = np.random.default_rng(3131)
        drawn = None
        while drawn is None:
            drawn = _generic_candidate_trial(rng)
        cs, m, _true_g = drawn
        p = joint(m)
        calls = self._counted(monkeypatch)
        preds, experiments = self._fill(cs, p)

        subproblems, exprs, pairs, bindings, bound = set(), set(), set(), set(), set()
        group_bindings, groups = set(), set()
        for k, g in enumerate(cs.graphs):
            for e in experiments:
                an = ancestors(g, e.observed)
                sub = (g.induced(an), tuple(sorted(an & e.targets)), tuple(sorted(e.observed)))
                subproblems.add(sub)
                pairs.add((g, e.targets, e.observed))
                groups.add((e.key()[0], e.key()[2]))
                res = id_effect(*sub)
                if res.identified:
                    exprs.add(res.expr)
                    bindings.add((res.expr, e.key()))
                    group_bindings.add((res.expr, e.key()[0], e.key()[2]))
                    bound.add((k, e.key()))
        assert len(calls["id_effect"]) == len(set(calls["id_effect"]))
        assert set(calls["id_effect"]) == subproblems
        # every subexpression of every expression, and P(Y) of every
        # group, is evaluated exactly once
        nodes = [n for expr in exprs for n in _subexpressions(expr)]
        p_y = {ObservedTerm(observed) for _targets, observed in groups}
        assert len(calls["evaluated"]) == len(set(calls["evaluated"]))
        assert set(calls["evaluated"]) == set(nodes) | p_y
        # the caches share work across candidates, outcomes and expressions
        assert len(exprs) < len(subproblems) < len(pairs)
        assert len(set(nodes)) < len(nodes)
        # the verdicts bind each sheet once per group, however many
        # candidates share it, and bind no single experiment
        assert len(calls["bind_all"]) == len(group_bindings)
        assert len(group_bindings) < len(bindings)
        assert not calls["bind"]
        # ``prediction`` binds once per sheet and experiment, however often
        # it is asked
        for _ in range(2):
            for k in range(len(cs.graphs)):
                for e in experiments:
                    preds.prediction(k, e)
        assert len(calls["bind"]) == len(bindings) < len(bound)
        assert len(preds._groups) == len(groups)

        # and change no prediction: each equals the full graph's own
        # identification, evaluated and bound without any cache
        for k, g in enumerate(cs.graphs):
            for e in experiments[::7]:
                res = id_effect(g, e.targets, e.observed)
                got = preds.prediction(k, e).dist
                if not res.identified:
                    assert got is None
                    continue
                want = effect_factor(res.expr, p, e.values, e.observed)
                assert got.names() == want.names()
                assert np.array_equal(got.table, want.table)

    def test_batched_fill_does_the_same_work(self, monkeypatch):
        """Filling every group at once, as ``partition_candidates`` does,
        identifies, evaluates and binds exactly what filling one group at
        a time does."""
        calls = self._counted(monkeypatch)
        for cs, p, experiments in _criterion5_sets(3131, 3):
            work = []
            for batched in (False, True):
                for v in calls.values():
                    del v[:]
                preds = PredictionTable(cs, p)
                if batched:
                    partition_candidates(cs, preds, experiments)
                else:
                    for e in experiments:
                        preds.verdicts(e)
                work.append((sorted(calls["id_effect"], key=repr), set(calls["evaluated"]),
                             len(calls["evaluated"]),
                             sorted((t, o) for _sheet, t, o in calls["bind_all"]), calls["bind"]))
            assert work[0] == work[1]

    def test_memoized_sheets_equal_a_fresh_evaluate(self, fig32_trio):
        p = joint(random_scm(np.random.default_rng(6), fig32_trio[2]))
        preds, _experiments = self._fill(CandidateSet(fig32_trio), p)
        assert preds._evaluated
        for expr, f in preds._evaluated.items():
            want = evaluate(expr, p)
            assert f.names() == want.names() and f.partial == want.partial
            assert np.array_equal(f.table, want.table), pretty(expr)

    def test_new_table_starts_cold(self, fig32_trio, monkeypatch):
        p = joint(random_scm(np.random.default_rng(5), fig32_trio[1]))
        calls = self._counted(monkeypatch)
        self._fill(CandidateSet(fig32_trio), p)
        first = {k: list(v) for k, v in calls.items()}
        assert first["id_effect"] and first["evaluated"] and first["bind_all"]
        assert not PredictionTable(CandidateSet(fig32_trio), p)._evaluated
        self._fill(CandidateSet(fig32_trio), p)
        assert calls["id_effect"] == 2 * first["id_effect"]
        assert calls["evaluated"] == 2 * first["evaluated"]
        assert len(calls["bind_all"]) == 2 * len(first["bind_all"])


class TestSharedFrames:
    """One memo of ID frames per graph, shared by all of the graph's
    subproblems as ``PredictionTable`` shares it, changes no result: each
    subproblem gets the expression, ``pretty`` form and hedge witness of
    a fresh ``id_effect``, while fewer frames run."""

    @staticmethod
    def _check(monkeypatch, graphs, experiments):
        runs = {True: 0, False: 0}
        shared = [False]
        real = identify._id

        def spy(*args):
            runs[shared[0]] += 1
            return real(*args)

        monkeypatch.setattr(identify, "_id", spy)
        groups = sorted({(e.key()[0], e.key()[2]) for e in experiments})
        hedged = identified = 0
        for g in graphs:
            memo: dict = {}
            for targets, observed in groups:
                an = ancestors(g, observed)
                for x in dict.fromkeys((targets, tuple(t for t in targets if t in an))):
                    shared[0] = False
                    want = id_effect(g, x, observed)
                    shared[0] = True
                    got = identify._identify(g, x, observed, memo)
                    assert got.identified == want.identified, (g, x, observed)
                    assert got.expr == want.expr and got.witness == want.witness
                    if want.identified:
                        assert pretty(got.expr) == pretty(want.expr)
                        identified += 1
                    else:
                        hedged += 1
        assert runs[True] < runs[False]
        return identified, hedged

    def test_criterion5_sets(self, monkeypatch):
        identified = hedged = 0
        for cs, _p, experiments in _criterion5_sets(5005, 20):
            i, h = self._check(monkeypatch, cs.graphs, experiments)
            identified, hedged = identified + i, hedged + h
        assert identified > 1000 and hedged > 100

    def test_large_perturbation_set(self, monkeypatch):
        """8 variables and 40 candidates: 2,800 experiments in 812 groups."""
        cs, _p, experiments = _perturbation_set(8008, 8, 40)
        assert len(experiments) == 2800
        identified, hedged = self._check(monkeypatch, cs.graphs, experiments)
        assert identified > 10000 and hedged > 1000
