import hashlib
import itertools
import json

import numpy as np
import pytest

from docalc.alcam import CandidateSet, PredictionTable
from docalc import identify
from docalc.errors import InternalError, InvalidInputError
from docalc.factors import Factor, marginalize
from docalc.graphs import (Admg, Var, ancestors, d_separated, find_hedge, mutilate,
                           verify_hedge)
from docalc.identify import (Expr, ObservedTerm, One, Product, Quotient, SumOver,
                             check_rule, effect_factor, evaluate, id_effect,
                             normalize, pretty)
from docalc.scm import (InterventionSpec, joint, oracle_query, random_admg,
                        random_scm)
from conftest import close_within, seeded_admgs


def chain_xz():
    return Admg([Var("X"), Var("Z")], [("X", "Z")])


# (case, refused call, message): one row per input refusal of ``identify``
# that no other test reaches
REFUSALS = [
    ("rule_outside_1_to_3", lambda: check_rule(chain_xz(), 4, set(), {"Z"}, {"X"}),
     "rule must be 1, 2 or 3"),
    ("empty_y", lambda: id_effect(chain_xz(), {"X"}, set()), "y nonempty"),
    ("x_meets_y", lambda: id_effect(chain_xz(), {"X"}, {"X", "Z"}),
     "x and y must be disjoint"),
    ("unknown_expression_node", lambda: evaluate(Expr(), Factor([Var("X")], [0.5, 0.5])),
     "unknown expression node"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_identify_refusals(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


class TestCheckRule:
    def test_rule2_chain(self):
        g = chain_xz()
        assert check_rule(g, 2, set(), {"Z"}, {"X"}, set())

    def test_rule2_confounded(self):
        g = Admg([Var("X"), Var("Z")], [("X", "Z")], [("X", "Z")])
        assert not check_rule(g, 2, set(), {"Z"}, {"X"}, set())

    def test_rule3_non_ancestor(self):
        g = Admg([Var("X"), Var("Z"), Var("Y")], [("Y", "Z")])
        # X is no ancestor of Z: do(X) can be dropped
        assert check_rule(g, 3, set(), {"Z"}, {"X"}, set())

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            check_rule(chain_xz(), 1, {"X"}, {"X"}, {"Z"})

    def test_structural_identity_with_dsep(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            g = random_admg(rng, 5, 0.4, 2)
            names = list(rng.permutation(g.names()))
            x, y, z, w = {names[0]}, {names[1]}, {names[2]}, {names[3]}
            assert check_rule(g, 1, x, y, z, w) == d_separated(
                mutilate(g, remove_incoming=x), y, z, x | w)
            assert check_rule(g, 2, x, y, z, w) == d_separated(
                mutilate(g, remove_incoming=x, remove_outgoing=z), y, z, x | w)


class TestIdGolden:
    def test_chain_rule2_case(self):
        res = id_effect(chain_xz(), {"X"}, {"Z"})
        assert res.identified
        assert pretty(res.expr) == "P(Z|X)"

    def test_fig12_expressions(self, fig12_graphs):
        g1, g2, g3, g4 = fig12_graphs
        expected = {
            g1: "P(Z|X,Y)",
            g2: "sum_{X} P(X) P(Z|X,Y)",
            g3: "P(Z|X)",
            g4: "P(Z)",
        }
        for g, want in expected.items():
            res = id_effect(g, {"X", "Y"}, {"Z"})
            assert res.identified
            assert pretty(res.expr) == want

    def test_fig32_hedge_failure(self, fig32_trio):
        _g1, _g2, g3 = fig32_trio
        res = id_effect(g3, {"X1"}, {"X4"})
        assert not res.identified
        assert verify_hedge(g3, {"X1"}, {"X4"}, res.witness)

    def test_normal_form_digest(self):
        """One digest of (identified, printed expression, witness sets) over
        every ordered pair of 300 seeded random ADMGs of 5-7 variables:
        any change to a result or to its normal form moves it.  The sets
        are sorted, since a frozenset's order follows PYTHONHASHSEED."""
        h = hashlib.sha256()
        queries = hedged = 0
        for g in seeded_admgs(27, n_criterion2=0, n_random=300):
            for x, y in itertools.permutations(g.names(), 2):
                r = id_effect(g, {x}, {y})
                text = pretty(r.expr) if r.identified else None
                w = r.witness and [sorted(s) for s in (r.witness.forest_f,
                                                       r.witness.forest_f_prime, r.witness.roots)]
                h.update(json.dumps([r.identified, text, w]).encode())
                h.update(b"\n")
                queries += 1
                hedged += not r.identified
        assert (queries, hedged) == (9536, 335)
        assert h.hexdigest() == "d43fdcab677f3959811b889720b1377b13c46dd2d2034e579a07ffc7584660a4"


class TestNoSubgraphs:
    def test_id_effect_builds_no_graph(self, monkeypatch):
        """The recursion reads vertex sets of the input graph, so no query,
        hedged or identified, builds an ``Admg``."""
        graphs = seeded_admgs(43, n_criterion2=80, n_random=0)
        built = []
        real_build = Admg._build

        def counted(self, *parts):
            built.append(parts)
            real_build(self, *parts)

        monkeypatch.setattr(Admg, "_build", counted)
        hedged = queries = 0
        for g in graphs:
            for x, y in itertools.permutations(g.names(), 2):
                res = id_effect(g, {x}, {y})
                hedged += not res.identified
                queries += 1
        assert built == []
        assert queries == 12 * len(graphs) and hedged > 100

    def test_root_mask_identifies_as_its_induced_graph(self):
        """Rooted at an ancestral set, with one frame memo per graph, ID
        gives ``id_effect``'s expression or hedge witness on the induced
        subgraph."""
        rng = np.random.default_rng(7)
        hedged = queries = 0
        for g in seeded_admgs(44, n_criterion2=30, n_random=30):
            memo = {}
            for _ in range(4):
                names = g.names()
                seed = [n for n in names if rng.random() < 0.4] or [names[-1]]
                an = ancestors(g, seed)
                inside = [n for n in names if n in an]
                if len(inside) < 2:
                    continue
                x, y = inside[:1], inside[1:]
                root = sum(g._bit[n] for n in inside)
                got = identify._identify(g, x, y, memo, root)
                assert got == id_effect(g.induced(inside), x, y)
                hedged += not got.identified
                queries += 1
        assert queries > 150 and hedged > 10, (queries, hedged)

    def test_root_mask_must_be_ancestral_and_hold_the_query(self):
        g = Admg([Var("X"), Var("Z"), Var("Y")], [("X", "Z"), ("Z", "Y")], [("X", "Y")])
        bit = g._bit
        with pytest.raises(InternalError, match="not an ancestral set"):
            identify._identify(g, {"Z"}, {"Y"}, {}, bit["Z"] | bit["Y"])
        with pytest.raises(InternalError, match="not an ancestral set"):
            identify._identify(g, {"X"}, {"Y"}, {}, bit["X"] | bit["Z"])
        got = identify._identify(g, {"X"}, {"Z"}, {}, bit["X"] | bit["Z"])
        assert got == id_effect(g.induced(["X", "Z"]), {"X"}, {"Z"})


class TestEvaluate:
    def test_chain_matches_oracle(self):
        rng = np.random.default_rng(1)
        g = chain_xz()
        m = random_scm(rng, g)
        p = joint(m)
        res = id_effect(g, {"X"}, {"Z"})
        for val in range(2):
            got = effect_factor(res.expr, p, {"X": val}, {"Z"})
            want = oracle_query(m, InterventionSpec(frozenset({"X"}), {"X": val},
                                                    frozenset({"Z"})))
            assert close_within(got, want.reorder(got.names()), 1e-12)

    def test_value_outside_the_domain_is_refused(self):
        """A value below 0 or at the domain size is refused, not read off
        another cell (a negative index would wrap)."""
        g = chain_xz()
        p = joint(random_scm(np.random.default_rng(1), g))
        res = id_effect(g, {"X"}, {"Z"})
        for val in (-1, 2):
            with pytest.raises(InvalidInputError, match=f"value {val} out of domain for X"):
                effect_factor(res.expr, p, {"X": val}, {"Z"})

    def test_constant_times_marginal(self):
        rng = np.random.default_rng(2)
        p = Factor((Var("X"), Var("Y")), rng.dirichlet(np.ones(4)).reshape(2, 2))
        e = Product((One(), ObservedTerm(("Y",))))
        got = evaluate(e, p)
        assert close_within(got, marginalize(p, {"X"}), 1e-12)

    def test_fig12_g2_expression_matches_oracle(self, fig12_graphs):
        _g1, g2, _g3, _g4 = fig12_graphs
        rng = np.random.default_rng(3)
        res = id_effect(g2, {"X", "Y"}, {"Z"})
        for _ in range(5):
            m = random_scm(rng, g2)
            p = joint(m)
            for xv, yv in itertools.product(range(2), repeat=2):
                got = effect_factor(res.expr, p, {"X": xv, "Y": yv}, {"Z"})
                want = oracle_query(m, InterventionSpec(
                    frozenset({"X", "Y"}), {"X": xv, "Y": yv}, frozenset({"Z"})))
                assert close_within(got, want.reorder(got.names()), 1e-9)

    def test_sum_over_missing_var_multiplies_domain(self):
        p = Factor((Var("X"), Var("Y")), np.full((2, 2), 0.25))
        e = SumOver(("X",), ObservedTerm(("Y",)))
        got = evaluate(e, p)
        assert np.allclose(got.table, [1.0, 1.0])

    def test_sum_over_unknown_var_is_input_error(self):
        p = Factor((Var("X"), Var("Y")), np.full((2, 2), 0.25))
        with pytest.raises(InvalidInputError):
            evaluate(SumOver(("Q",), ObservedTerm(("Y",))), p)

    def test_term_over_unknown_var_is_input_error(self):
        """A term names a variable the joint lacks: an error, not P(Y)
        or the scalar 1 read off the names that do exist."""
        p = Factor((Var("X"), Var("Y")), np.full((2, 2), 0.25))
        for term in (ObservedTerm(("Q",)), ObservedTerm(("Y", "Q")), ObservedTerm(("Y",), ("Q",))):
            with pytest.raises(InvalidInputError, match="Q"):
                evaluate(term, p)

    def test_zero_mass_denominator_gives_zero_partial_cells(self):
        """P(X=1) = 0: the quotient's cells at X=1 are 0 and flag the sheet
        partial, unbound and bound to X=1; the cells at X=0 are P(Y|X=0)."""
        rng = np.random.default_rng(8)
        table = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)  # X, Z, Y
        table[1] = 0.0
        p = Factor((Var("X"), Var("Z"), Var("Y")), table / table.sum())
        e = Quotient(SumOver(("Z",), ObservedTerm(("X", "Z", "Y"))), ObservedTerm(("X",)))
        sheet = evaluate(e, p).reorder(["X", "Y"])
        assert sheet.partial
        assert np.array_equal(sheet.table[1], [0.0, 0.0])
        want = marginalize(p, {"Z"}).table[0] / p.table[0].sum()
        assert np.allclose(sheet.table[0], want, atol=1e-12)
        bound = effect_factor(e, p, {"X": 1}, {"Y"})
        assert bound.partial and bound.names() == ("Y",)
        assert np.array_equal(bound.table, [0.0, 0.0])

    def test_joint_source_contractions_are_valid_views(self, monkeypatch):
        """The evaluator does not re-validate what it contracts from the
        joint source, so this is checked here: every sum over a product is
        finite, non-negative, read-only and shaped as its scope, also on a
        joint with zero-mass cells."""
        from docalc import identify

        seen = []
        real = identify._sum_product

        def spy(source, factors, over):
            out = real(source, factors, over)
            seen.append(out)
            return out

        monkeypatch.setattr(identify, "_sum_product", spy)
        rng = np.random.default_rng(9)
        for g in seeded_admgs(43, n_criterion2=20, n_random=3):
            table = joint(random_scm(rng, g)).table.copy()
            table.reshape(-1)[rng.random(table.size) < 0.2] = 0.0
            p = Factor(tuple(g.vars), table / table.sum())
            for x, y in itertools.permutations(g.names(), 2):
                res = id_effect(g, {x}, {y})
                if res.identified:
                    evaluate(res.expr, p)
        assert len(seen) > 50
        for f in seen:
            assert f.table.shape == tuple(v.domain for v in f.scope)
            assert not f.table.flags.writeable
            assert np.all(np.isfinite(f.table)) and np.all(f.table >= 0)


def predict(targets, observed, g, p):
    """The prediction the discovery loop makes for one candidate graph."""
    table = PredictionTable(CandidateSet((g,)), p)
    return table.prediction(0, InterventionSpec(frozenset(targets), targets, frozenset(observed)))


class TestPredictor:
    def test_hedge_case_empty(self, fig32_trio):
        _g1, _g2, g3 = fig32_trio
        rng = np.random.default_rng(4)
        p = joint(random_scm(rng, g3))
        pred = predict({"X1": 0}, {"X4"}, g3, p)
        assert pred.empty

    def test_disconnected_outcome_gives_marginal(self, fig12_graphs):
        _g1, _g2, _g3, g4 = fig12_graphs
        rng = np.random.default_rng(5)
        p = joint(random_scm(rng, g4))
        pred = predict({"X": 1, "Y": 0}, {"Z"}, g4, p)
        assert not pred.empty
        want = marginalize(p, {"X", "Y"})
        assert close_within(pred.dist, want.reorder(pred.dist.names()), 1e-12)

    def test_self_consistency_on_true_graph(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(30):
            g = random_admg(rng, 4, 0.5, 2)
            m = random_scm(rng, g)
            p = joint(m)
            names = list(g.names())
            x, y = names[0], names[-1]
            pred = predict({x: 1}, {y}, g, p)
            if pred.empty:
                continue
            want = oracle_query(m, InterventionSpec(frozenset({x}), {x: 1},
                                                    frozenset({y})))
            assert close_within(pred.dist, want.reorder(pred.dist.names()), 1e-9)
            checked += 1
        assert checked > 10


class TestNormalizeAndPretty:
    def test_flatten_and_sort(self):
        e = Product((Product((ObservedTerm(("B",)), One())), ObservedTerm(("A",))))
        n = normalize(e)
        assert pretty(n) == "P(A) P(B)"

    def test_nested_sums_merge(self):
        e = SumOver(("A",), SumOver(("B",), ObservedTerm(("A", "B", "C"))))
        assert pretty(normalize(e)) == "P(C)"

    def test_quotient_unit_denominator(self):
        e = Quotient(ObservedTerm(("A",)), One())
        assert pretty(normalize(e)) == "P(A)"

    def test_deterministic_rendering(self):
        e = SumOver(("B", "A"), Product((ObservedTerm(("Z",), ("A", "B")),
                                         ObservedTerm(("A",)))))
        assert pretty(normalize(e)) == "sum_{A,B} P(A) P(Z|A,B)"

    def test_identified_expressions_are_canonical(self):
        """Identification builds its expressions in normal form, so
        ``normalize`` leaves each as it stands, and every hedge witness
        verifies."""
        identified = hedged = 0
        for g in seeded_admgs(44, n_criterion2=150, n_random=20):
            for x, y in itertools.permutations(g.names(), 2):
                r = id_effect(g, {x}, {y})
                if r.identified:
                    assert normalize(r.expr) == r.expr, (g, x, y)
                    identified += 1
                else:
                    assert verify_hedge(g, {x}, {y}, r.witness), (g, x, y)
                    hedged += 1
        assert identified > 1_000 and hedged > 100

    def test_running_distribution_must_span_the_frame(self):
        """A frame carries its running distribution P(v) as None, built into
        a term only where the frame emits it; an explicit observed marginal
        in that place, over any vertex set, is an internal error, not a
        silently wrong term."""
        g = Admg([Var("X"), Var("Z"), Var("Y")], [("X", "Z"), ("Z", "Y")])
        x_z, all_three = 0b011, 0b111  # bits follow g.vars: X, Z, Y
        for p, v in ((ObservedTerm(("X", "Z")), all_three),
                     (ObservedTerm(("X", "Y", "Z")), x_z),
                     (ObservedTerm(("X", "X")), x_z)):
            with pytest.raises(InternalError, match="is explicit"):
                identify._sum_over(g, 0b001, p, v)
            with pytest.raises(InternalError, match="is explicit"):
                identify._chain_product(g, 0b010, p, v)
        assert identify._sum_over(g, 0b001, None, all_three) == ObservedTerm(("Y", "Z"))
        assert identify._sum_over(g, 0, None, x_z) == ObservedTerm(("X", "Z"))
        assert identify._chain_product(g, 0b110, None, all_three) == \
            Product((ObservedTerm(("Y",), ("X", "Z")), ObservedTerm(("Z",), ("X",))))


class TestSoundnessSample:
    def test_id_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            g = random_admg(rng, 5, 0.45, 2)
            m = random_scm(rng, g)
            p = joint(m)
            names = sorted(g.names())
            x = frozenset(names[:2])
            y = frozenset(names[-2:])
            res = id_effect(g, x, y)
            hedge = find_hedge(g, x, y)
            assert res.identified == (hedge is None)
            if not res.identified:
                continue
            for vals in itertools.product(range(2), repeat=2):
                fix = dict(zip(sorted(x), vals))
                got = effect_factor(res.expr, p, fix, y)
                want = oracle_query(m, InterventionSpec(x, fix, y))
                assert close_within(got, want.reorder(got.names()), 1e-9)
                checked += 1
        assert checked > 20


class TestAncestralReduction:
    def test_ancestral_subproblem_gives_the_same_expression(self):
        """Line 2 of ID: P(Y|do(X)) in G and P(Y|do(X & An(Y))) in
        G[An(Y)] give the same expression, which is what lets one
        prediction table share identifications across candidates."""
        identified = 0
        for g in seeded_admgs(41, n_criterion2=30, n_random=5):
            names = g.names()
            for roles in itertools.product(range(3), repeat=len(names)):
                y = frozenset(n for n, r in zip(names, roles) if r == 1)
                if not y:
                    continue
                x = frozenset(n for n, r in zip(names, roles) if r == 2)
                an = ancestors(g, y)
                full = id_effect(g, x, y)
                sub = id_effect(g.induced(an), x & an, y)
                assert full.identified == sub.identified, (g, x, y)
                assert full.expr == sub.expr, (g, x, y)
                if full.identified:
                    assert pretty(full.expr) == pretty(sub.expr)
                    identified += 1
        assert identified > 1000
