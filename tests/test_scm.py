import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docalc import scm
from docalc.errors import InvalidInputError, PartialSupportError, UnsupportedModelError
from docalc.factors import marginalize
from docalc.graphs import Admg, Var, ancestors
from docalc.scm import (Cpt, Exogenous, InterventionOracle, InterventionSpec,
                        Scm, ci_test, intervene, joint, oracle_query,
                        random_admg, random_scm)
from conftest import bf_do, bf_joint, bf_marginal, close_within


def single_coin(p=0.5):
    g = Admg([Var("X")])
    return Scm(g, {"X": Cpt("X", (), (), np.array([1 - p, p]))})


def confounded_copy():
    """X := U, Y := U with U a fair coin (hidden)."""
    g = Admg([Var("X"), Var("Y")], [], [("X", "Y")])
    u = Exogenous(Var("U"), (0.5, 0.5), frozenset({"X", "Y"}))
    copy = np.array([[1.0, 0.0], [0.0, 1.0]])  # value follows U
    return Scm(g, {
        "X": Cpt("X", (), ("U",), copy),
        "Y": Cpt("Y", (), ("U",), copy),
    }, [u])


def two_fair_coins():
    g = Admg([Var("X"), Var("Y")])
    half = np.array([0.5, 0.5])
    return Scm(g, {"X": Cpt("X", (), (), half), "Y": Cpt("Y", (), (), half)})


def test_malformed_cpts_and_priors_refused():
    with pytest.raises(InvalidInputError, match="numbers"):
        Cpt("X", (), (), ["0.5x", 0.5])
    with pytest.raises(InvalidInputError, match="empty"):
        Cpt("X", (), (), [])
    with pytest.raises(InvalidInputError, match="numbers"):
        Exogenous(Var("U"), (0.5, "half"), frozenset({"X"}))
    with pytest.raises(InvalidInputError, match="flat"):
        Exogenous(Var("U"), ((0.5,), (0.5,)), frozenset({"X"}))


U = Exogenous(Var("U"), (0.5, 0.5), frozenset({"X", "Y"}))
U1 = Exogenous(Var("U1"), (0.5, 0.5), frozenset({"X", "Y"}))
HALF = np.full((2, 2), 0.5)


def _confounded_pair(exogenous=(U,), confounders=(("X", "Y"),), x=None, y=None) -> Scm:
    """X -> Y with X <-> Y through U, in parts; each keyword replaces one."""
    g = Admg([Var("X"), Var("Y")], [("X", "Y")], confounders)
    return Scm(g, {"X": x or Cpt("X", (), ("U",), HALF),
                   "Y": y or Cpt("Y", ("X",), ("U",), np.full((2, 2, 2), 0.5))}, exogenous)

def _value_spec(val) -> InterventionSpec:
    return InterventionSpec(frozenset({"X"}), {"X": val}, frozenset({"Y"}))


# (case, refused call, message): one row per refusal of Exogenous, Scm,
# Scm._exo and InterventionSpec, and per kind of bad intervention value
REFUSALS = [
    ("prior_length", lambda: Exogenous(Var("U", 3), (0.5, 0.5), frozenset({"X"})),
     "prior of 'U' has wrong length"),
    ("prior_not_a_distribution", lambda: Exogenous(Var("U"), (0.5, 0.6), frozenset({"X"})),
     "prior of 'U' is not a distribution"),
    ("no_feeds", lambda: Exogenous(Var("U"), (0.5, 0.5), frozenset()),
     "feeds one or two"),
    ("three_feeds", lambda: Exogenous(Var("U"), (0.5, 0.5), frozenset({"X", "Y", "Z"})),
     "feeds one or two"),
    ("cpt_missing", lambda: Scm(Admg([Var("X"), Var("Y")]), {"X": Cpt("X", (), (), HALF[0])}),
     "cpts must cover exactly the observed variables"),
    ("exo_names_repeat", lambda: _confounded_pair(exogenous=[U, U]),
     "exogenous names must be unique"),
    ("exo_name_is_observed", lambda: _confounded_pair(
        exogenous=[U, Exogenous(Var("X"), (0.5, 0.5), frozenset({"X"}))]),
     "exogenous names collide with observed variables"),
    ("cpt_key", lambda: _confounded_pair(x=Cpt("Y", (), ("U",), HALF)),
     "cpt key 'X' does not match 'Y'"),
    ("cpt_parents", lambda: _confounded_pair(y=Cpt("Y", (), ("U",), HALF)),
     "cpt parents of 'Y' disagree with the graph"),
    ("cpt_shape", lambda: _confounded_pair(y=Cpt("Y", ("X",), ("U",), HALF)),
     "cpt table of 'Y' has shape (2, 2), expected (2, 2, 2)"),
    ("exo_parent_unknown", lambda: _confounded_pair(x=Cpt("X", (), ("W",), HALF)),
     "unknown exogenous variable 'W'"),
    ("exo_parent_not_fed", lambda: _confounded_pair(
        exogenous=[U, Exogenous(Var("W"), (0.5, 0.5), frozenset({"Y"}))],
        x=Cpt("X", (), ("U", "W"), np.full((2, 2, 2), 0.5))),
     "exo parent 'W' of 'X' does not feed it"),
    ("pair_fed_twice", lambda: _confounded_pair(exogenous=[U, U1]),
     "two exogenous variables feed the same pair"),
    ("confounder_without_edge", lambda: _confounded_pair(confounders=()),
     "bidirected edges and confounder variables disagree"),
    ("feed_not_an_exo_parent", lambda: _confounded_pair(x=Cpt("X", (), (), np.full(2, 0.5))),
     "'U' feeds 'X' but is not among its exo parents"),
    ("intervened_and_observed", lambda: InterventionSpec(
        frozenset({"X"}), {"X": 0}, frozenset({"X", "Y"})),
     "intervened and observed sets must be disjoint"),
    ("values_off_targets", lambda: InterventionSpec(frozenset({"X"}), {"Y": 0}, frozenset()),
     "values must cover exactly the intervened set"),
    ("value_float_intervene", lambda: intervene(_confounded_pair(), {"X": 1.0}),
     "value 1.0 of X is not an integer in 0..1"),
    ("value_bool_intervene", lambda: intervene(_confounded_pair(), {"X": True}),
     "value True of X is not an integer in 0..1"),
    ("value_above_domain_intervene", lambda: intervene(_confounded_pair(), {"X": 2}),
     "value 2 of X is not an integer in 0..1"),
    ("value_negative_oracle", lambda: oracle_query(_confounded_pair(), _value_spec(-1)),
     "value -1 of X is not an integer in 0..1"),
    ("value_float_oracle", lambda: oracle_query(_confounded_pair(), _value_spec(1.0)),
     "value 1.0 of X is not an integer in 0..1"),
    ("value_numpy_float_oracle", lambda: oracle_query(_confounded_pair(), _value_spec(np.float64(0))),
     "of X is not an integer in 0..1"),
    ("value_bool_oracle", lambda: oracle_query(_confounded_pair(), _value_spec(False)),
     "value False of X is not an integer in 0..1"),
]


@pytest.mark.parametrize("make, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_model_and_experiment_refusals(make, message):
    _confounded_pair()  # the unmodified parts are a valid model
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        make()


class TestJoint:
    def test_single_binary(self):
        f = joint(single_coin())
        assert np.allclose(f.table, [0.5, 0.5])

    def test_confounded_copy_diagonal(self):
        f = joint(confounded_copy()).reorder(["X", "Y"])
        assert np.allclose(f.table, [[0.5, 0.0], [0.0, 0.5]])
        # cross-checked against plain-loop enumeration
        bf = bf_joint(confounded_copy())
        for k, v in bf.items():
            assert abs(f.table[k] - v) < 1e-12

    def test_two_coins_uniform(self):
        f = joint(two_fair_coins())
        assert np.allclose(f.table, 0.25)

    def test_matches_bruteforce_on_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_admg(rng, 4, 0.5, 2)
            m = random_scm(rng, g)
            f = joint(m)
            assert abs(f.total() - 1.0) < 1e-9
            bf = bf_joint(m)
            names = list(f.names())
            for assign, p in bf.items():
                assert abs(f.table[assign] - p) < 1e-10, (g, assign)


def chain(n: int, domain: int, rng: np.random.Generator) -> Scm:
    """V1 -> V2 -> ... -> Vn with random CPTs."""
    names = [f"V{i + 1}" for i in range(n)]
    g = Admg([Var(v, domain) for v in names], list(zip(names, names[1:])))
    return random_scm(rng, g)


class TestJointKeep:
    """``joint(m, keep)`` against the plain-loop oracle, marginalized."""

    @staticmethod
    def _check(f, bf, names, keep):
        assert f.names() == tuple(n for n in names if n in keep)
        want = bf_marginal(bf, names, list(f.names()))
        for assign, p in want.items():
            assert abs(f.table[assign] - p) < 1e-9

    def test_random_keep_subsets(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            g = random_admg(rng, int(rng.integers(3, 6)), 0.5, 3)
            m = random_scm(rng, g, exo_domain=int(rng.integers(2, 4)))
            names = list(g.names())
            bf = bf_joint(m)
            for size in range(len(names) + 1):
                keep = set(rng.choice(names, size=size, replace=False).tolist())
                self._check(joint(m, keep), bf, names, keep)

    def test_empty_keep_is_total_mass(self):
        m = confounded_copy()
        f = joint(m, ())
        assert f.scope == ()
        assert abs(f.total() - 1.0) < 1e-12

    def test_random_keep_after_intervention(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = random_admg(rng, 4, 0.5, 3)
            m = random_scm(rng, g)
            names = list(g.names())
            x = {str(n): int(rng.integers(2))
                 for n in rng.choice(names, size=int(rng.integers(1, 3)), replace=False)}
            bf = bf_do(m, x)
            for size in range(len(names) + 1):
                keep = set(rng.choice(names, size=size, replace=False).tolist())
                self._check(joint(intervene(m, x), keep), bf, names, keep)

    def test_long_unit_domain_chain(self):
        # more variables than one einsum call has axis labels
        m = chain(60, 1, np.random.default_rng(43))
        f = joint(m)
        assert f.table.shape == (1,) * 60
        assert abs(f.total() - 1.0) < 1e-12
        assert joint(m, {"V1", "V60"}).table.shape == (1, 1)

    def test_long_binary_chain_ends(self):
        m = chain(60, 2, np.random.default_rng(44))
        f = joint(m, {"V1", "V60"})
        # reference: the chain's transition matrices multiplied in order
        want = np.diag(np.asarray(m.cpts["V1"].table))
        for i in range(2, 61):
            want = want @ np.asarray(m.cpts[f"V{i}"].table)
        assert np.max(np.abs(f.table - want)) < 1e-12

    def test_unknown_keep_rejected(self):
        with pytest.raises(InvalidInputError):
            joint(single_coin(), {"Y"})


class TestIntervene:
    def test_root_intervention_keeps_graph(self):
        m = confounded_copy()
        m2 = intervene(m, {"X": 1})
        assert not m2.graph.bidirected  # confounder edge was incoming at X
        f = joint(m2).reorder(["X", "Y"])
        assert np.allclose(f.table[0], 0.0)

    def test_confounded_copy_do_vs_observe(self):
        m = confounded_copy()
        # observing X=1 pins Y; forcing X=1 leaves Y at its prior
        obs = joint(m).reorder(["X", "Y"])
        p_y1_given_x1 = obs.table[1, 1] / obs.table[1].sum()
        assert abs(p_y1_given_x1 - 1.0) < 1e-12
        do = oracle_query(m, InterventionSpec(frozenset({"X"}), {"X": 1},
                                              frozenset({"Y"})))
        assert np.allclose(do.table, [0.5, 0.5])

    def test_do_everything_is_point_mass(self):
        m = confounded_copy()
        f = joint(intervene(m, {"X": 1, "Y": 0})).reorder(["X", "Y"])
        expected = np.zeros((2, 2))
        expected[1, 0] = 1.0
        assert np.allclose(f.table, expected)

    def test_idempotent_and_commutes(self):
        rng = np.random.default_rng(1)
        g = random_admg(rng, 4, 0.5, 2)
        m = random_scm(rng, g)
        names = list(g.names())
        a, b = names[0], names[1]
        once = intervene(m, {a: 1})
        twice = intervene(once, {a: 1})
        assert close_within(joint(once), joint(twice), 1e-12)
        ab = intervene(intervene(m, {a: 1}), {b: 0})
        ba = intervene(intervene(m, {b: 0}), {a: 1})
        assert close_within(joint(ab), joint(ba).reorder(joint(ab).names()), 1e-12)

    def test_out_of_domain(self):
        with pytest.raises(InvalidInputError):
            intervene(single_coin(), {"X": 7})


class TestOracleQuery:
    def test_empty_intervention_is_marginal(self):
        m = confounded_copy()
        f = oracle_query(m, InterventionSpec(frozenset(), {}, frozenset({"Y"})))
        assert np.allclose(f.table, [0.5, 0.5])

    def test_non_ancestor_matches_marginal(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(40):
            g = random_admg(rng, 4, 0.4, 2)
            m = random_scm(rng, g)
            names = list(g.names())
            p = joint(m)
            for x, y in itertools.permutations(names, 2):
                if x in ancestors(g, {y}):
                    continue
                for val in range(2):
                    got = oracle_query(m, InterventionSpec(
                        frozenset({x}), {x: val}, frozenset({y})))
                    want = marginalize(p, [n for n in names if n != y])
                    assert close_within(got, want.reorder(got.names()), 1e-10)
                    checked += 1
        assert checked > 20

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            g = random_admg(rng, 4, 0.5, 2)
            m = random_scm(rng, g)
            names = list(g.names())
            x, y = names[0], names[-1]
            got = oracle_query(m, InterventionSpec(frozenset({x}), {x: 1},
                                                   frozenset({y})))
            bf = bf_marginal(bf_do(m, {x: 1}), names, [y])
            for k in range(2):
                assert abs(got.reorder([y]).table[k] - bf[(k,)]) < 1e-10

    def test_counter(self):
        m = confounded_copy()
        oracle = InterventionOracle(m)
        e = InterventionSpec(frozenset({"X"}), {"X": 0}, frozenset({"Y"}))
        oracle.query(e)
        oracle.query(e)
        assert oracle.calls == 2
        assert oracle.log == [e, e]


class TestCiTest:
    def test_independent_coins(self):
        assert ci_test(two_fair_coins(), "X", "Y", {})

    def test_dependent_chain(self):
        g = Admg([Var("X"), Var("Y")], [("X", "Y")])
        m = Scm(g, {
            "X": Cpt("X", (), (), np.array([0.5, 0.5])),
            "Y": Cpt("Y", ("X",), (), np.array([[0.9, 0.1], [0.2, 0.8]])),
        })
        assert not ci_test(m, "X", "Y", {})

    def test_confounded_pair_detected_under_do(self):
        # Theorem-style check: X1 <- O -> ... with hidden X1<->X2; after
        # do(O) the pair stays dependent iff confounded.  Both sides
        # verified against the brute-force post-intervention joint.
        g = Admg([Var("O"), Var("X1"), Var("X2")],
                 [("O", "X1"), ("O", "X2")], [("X1", "X2")])
        rng = np.random.default_rng(5)
        m = random_scm(rng, g)
        assert not ci_test(m, "X1", "X2", {"O": 0})
        bf = bf_marginal(bf_do(m, {"O": 0}), list(g.names()), ["X1", "X2"])
        px1 = {a: sum(v for (x1, _x2), v in bf.items() if x1 == a) for a in range(2)}
        dependent = False
        for a in range(2):
            cond = [bf[(a, b)] / px1[a] for b in range(2)]
            base = [sum(bf[(x1, b)] for x1 in range(2)) for b in range(2)]
            if any(abs(c - d) > 1e-9 for c, d in zip(cond, base)):
                dependent = True
        assert dependent

        g2 = Admg([Var("O"), Var("X1"), Var("X2")], [("O", "X1"), ("O", "X2")])
        m2 = random_scm(rng, g2)
        assert ci_test(m2, "X1", "X2", {"O": 0})

    def test_zero_mass_context_raises(self):
        g = Admg([Var("X"), Var("Y")], [("X", "Y")])
        m = Scm(g, {
            "X": Cpt("X", (), (), np.array([1.0, 0.0])),  # X = 0 surely
            "Y": Cpt("Y", ("X",), (), np.array([[0.5, 0.5], [0.5, 0.5]])),
        })
        with pytest.raises(PartialSupportError):
            ci_test(m, "X", "Y", {})

    def test_intervened_test_var_rejected(self):
        with pytest.raises(InvalidInputError):
            ci_test(two_fair_coins(), "X", "Y", {"X": 0})


class TestOneCore:
    """``oracle_query`` and ``ci_test`` eliminate over the true model's own
    tables, with no intervened model: each answer equals ``joint`` of
    ``intervene``'s model byte for byte."""

    @staticmethod
    def _same(a, b) -> bool:
        return (a.names() == b.names() and a.partial == b.partial
                and a.table.dtype == b.table.dtype and a.table.tobytes() == b.table.tobytes())

    @staticmethod
    def _ci(m, vi, vj, do):
        try:
            return ci_test(m, vi, vj, do)
        except PartialSupportError:
            return "partial"

    def test_answers_equal_the_intervened_models(self):
        rng = np.random.default_rng(2027)
        answers = tests = dropped = 0
        for _ in range(30):
            g = random_admg(rng, int(rng.integers(3, 6)), 0.5, 3, int(rng.integers(2, 4)))
            m = random_scm(rng, g, exo_domain=int(rng.integers(2, 4)))
            names = list(g.names())
            for _ in range(6):
                targets = sorted(rng.choice(names, int(rng.integers(0, len(names))),
                                            replace=False))
                do = {t: int(rng.integers(g.var(t).domain)) for t in targets}
                rest = [n for n in names if n not in do]
                observed = frozenset(n for n in rest if rng.random() < 0.6)
                post = intervene(m, do)
                dropped += len(m.exogenous) - len(post.exogenous)
                e = InterventionSpec(frozenset(do), do, observed)
                assert self._same(oracle_query(m, e), joint(post, observed)), (g, e)
                answers += 1
                for vi, vj in itertools.permutations(rest, 2):
                    assert self._ci(m, vi, vj, do) == self._ci(post, vi, vj, {}), (g, do)
                    tests += 1
        assert answers == 180 and tests > 300 and dropped > 10, (tests, dropped)

    def test_slightly_negative_cells_are_clipped_alike(self):
        """A CPT cell down to -1e-12 is allowed; the answer clips it to 0
        as ``joint`` of the intervened model does."""
        g = Admg([Var("X"), Var("Y"), Var("Z")], [("X", "Y"), ("Y", "Z")])
        m = Scm(g, {"X": Cpt("X", (), (), np.array([0.5, 0.5])),
                    "Y": Cpt("Y", ("X",), (), np.array([[1 + 1e-13, -1e-13], [0.3, 0.7]])),
                    "Z": Cpt("Z", ("Y",), (), np.array([[1.0, 0.0], [0.4, 0.6]]))})
        e = InterventionSpec(frozenset({"X"}), {"X": 0}, frozenset({"Y", "Z"}))
        got = oracle_query(m, e)
        assert got.table.min() == 0.0
        assert self._same(got, joint(intervene(m, {"X": 0}), {"Y", "Z"}))


class TestCore:
    """``scm._contract`` and ``scm._eliminate``, the one contraction and
    the one elimination loop behind joint, the evaluator and the DCN pass."""

    @staticmethod
    def _chain(domains, rng):
        """Tables over consecutive pairs of V0..Vn, and their names."""
        names = [f"V{i}" for i in range(len(domains))]
        tables = [((a, b), rng.random((da, db)))
                  for a, b, da, db in zip(names, names[1:], domains, domains[1:])]
        return names, dict(zip(names, domains)), tables

    def test_unit_axes_are_labelled_like_any_other(self):
        """Within einsum's 52 labels, unit-domain variables stay labelled;
        the result matches the contraction with their axes reshaped away."""
        names, domain, tables = self._chain([2, 1, 3, 1, 1, 2, 3], np.random.default_rng(1))
        out = ("V6", "V3", "V0")
        got = scm._contract(tables, out, domain)
        wide = {n: i for i, n in enumerate(n for n in names if domain[n] > 1)}
        operands = []
        for scope, table in tables:
            kept = [n for n in scope if domain[n] > 1]
            operands += [table.reshape([domain[n] for n in kept]), [wide[n] for n in kept]]
        want = np.einsum(*operands, [wide[n] for n in out if domain[n] > 1]).reshape(3, 1, 2)
        assert got.shape == (3, 1, 2) and not got.flags.writeable
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_unit_axes_leave_the_labels_past_the_cap(self):
        domains = [2] + [1] * 25 + [3] + [1] * 25 + [2, 2]
        names, domain, tables = self._chain(domains, np.random.default_rng(2))
        assert len(names) > 52
        got = scm._contract(tables, (names[-1], names[1], names[0]), domain)
        want = tables[0][1]
        for _scope, table in tables[1:]:
            want = want @ table
        assert got.shape == (2, 1, 2)
        assert np.max(np.abs(got[:, 0, :] - want.T)) <= 1e-12

    def test_more_than_52_wide_labels_are_refused(self):
        names = [f"V{i}" for i in range(53)]
        tables = [((n,), np.full(2, 0.5)) for n in names]
        with pytest.raises(UnsupportedModelError, match="spans 53 variables"):
            scm._contract(tables, (), dict.fromkeys(names, 2))

    def test_output_over_the_cap_is_refused_before_contracting(self):
        """No einsum runs: the operand here is no table at all."""
        names = tuple(f"V{i}" for i in range(23))
        with pytest.raises(UnsupportedModelError, match="8388608 cells"):
            scm._contract([(names, None)], names, dict.fromkeys(names, 2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_elimination_matches_one_einsum(self, seed):
        """Random tables over variables of domain 1-3; Z, which no table
        holds, scales the sum by its domain."""
        rng = np.random.default_rng(seed)
        names = [f"V{i}" for i in range(int(rng.integers(1, 7)))]
        domain = {n: int(rng.integers(1, 4)) for n in names} | {"Z": 3}
        rank = {n: i for i, n in enumerate(domain)}
        tables = []
        for _ in range(int(rng.integers(1, 5))):
            scope = tuple(n for n in names if rng.random() < 0.5)
            tables.append((scope, rng.random([domain[n] for n in scope])))
        held = sorted({n for scope, _t in tables for n in scope}, key=rank.__getitem__)
        over = {n for n in held if rng.random() < 0.5} | {"Z"}
        out = tuple(n for n in held if n not in over)
        got = scm._eliminate(tables, over, out, domain, rank)
        operands = []
        for scope, table in tables:
            operands += [table, [rank[n] for n in scope]]
        want = 3 * np.einsum(*operands, [rank[n] for n in out])
        assert got.shape == tuple(domain[n] for n in out)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_elimination_order_matches_a_from_scratch_choice(self, seed):
        """The kept scopes and costs choose the variables that recomputing
        every hidden variable's combined table at each step chooses: the
        same contractions, in the same order, and a bit-identical sum."""
        rng = np.random.default_rng(seed)
        names = [f"V{i}" for i in range(int(rng.integers(1, 9)))]
        domain = {n: int(rng.integers(1, 4)) for n in names} | {"Z": 2}
        rank = {n: i for i, n in enumerate(rng.permutation(list(domain)))}
        tables = []
        for _ in range(int(rng.integers(1, 7))):
            scope = tuple(n for n in names if rng.random() < 0.4)
            tables.append((scope, rng.random([domain[n] for n in scope])))
        held = {n for scope, _t in tables for n in scope}
        over = {n for n in sorted(held) if rng.random() < 0.6} | {"Z"}
        out = tuple(n for n in sorted(held, key=rank.__getitem__) if n not in over)
        calls, real = [], scm._contract

        def contract(items, keep, dom):
            calls.append(([s for s, _t in items], keep))
            return real(items, keep, dom)

        def from_scratch(tables):
            """Every hidden variable's combined scope, recomputed per step."""
            hidden = over & held
            while hidden:
                near = {n: set() for n in hidden}
                for scope, _t in tables:
                    for n in scope:
                        if n in near:
                            near[n].update(scope)
                var = min(hidden, key=lambda n: (
                    math.prod(domain[m] for m in near[n]) // domain[n], rank[n]))
                hidden.discard(var)
                used = [item for item in tables if var in item[0]]
                tables = [item for item in tables if var not in item[0]]
                scope = tuple(dict.fromkeys(n for s, _t in used for n in s if n != var))
                tables.append((scope, contract(used, scope, domain)))
            return contract([((), np.asarray(2.0))] + tables, out, domain)

        want, want_calls, calls = from_scratch(tables), calls, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scm, "_contract", contract)
            got = scm._eliminate(tables, over, out, domain, rank)
        assert calls == want_calls
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
