import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docalc.errors import CyclicGraphError, InvalidInputError
from docalc.graphs import (Admg, Hedge, Var, _component_masks, _d_separated, _hedge_from_frame,
                           _mask, _names_of, _reach, ancestors,
                           c_components, d_separated, descendants, find_hedge, mutilate,
                           topological_order, verify_hedge)
from docalc.scm import random_admg
from conftest import bf_d_separated, bf_hedge_exists, seeded_admgs


# (case, refused call, message): one row per refusal of Var and Admg that
# no other test reaches
REFUSALS = [
    ("domain_zero", lambda: Var("A", 0), "domain of 'A' must be >= 1"),
    ("names_repeat", lambda: Admg([Var("A"), Var("B"), Var("A", 3)]),
     "variable names must be unique"),
    ("index_of_unknown_name", lambda: Admg([Var("A")]).parents_of("Q"), "unknown variable 'Q'"),
    ("var_of_unknown_name", lambda: Admg([Var("A")]).var("Q"), "unknown variable 'Q'"),
]


@pytest.mark.parametrize("make, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_graph_refusals(make, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        make()


class TestVar:
    @pytest.mark.parametrize("domain", [2.5, 2.0, True, "2"])
    def test_non_integer_domain_refused(self, domain):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            Var("A", domain)

    def test_non_string_name_refused(self):
        with pytest.raises(InvalidInputError, match="not a string"):
            Var(3)

    def test_numpy_integer_domain_stored_as_int(self):
        v = Var("A", np.int64(2))
        assert v == Var("A", 2) and type(v.domain) is int


def chain():
    return Admg([Var("X"), Var("Z"), Var("Y")], [("X", "Z"), ("Z", "Y")])


class TestAncestors:
    def test_chain_closure(self):
        g = chain()
        assert ancestors(g, {"Y"}) == {"X", "Z", "Y"}

    def test_empty_base(self):
        assert ancestors(chain(), set()) == frozenset()

    def test_confounded_chain(self, fig32_trio):
        _g1, _g2, g3 = fig32_trio
        # bidirected edges do not create ancestry
        assert ancestors(g3, {"X4"}) == {"X1", "X2", "X3", "X4"}
        assert ancestors(g3, {"X1"}) == {"X1"}

    def test_unknown_var(self):
        with pytest.raises(InvalidInputError):
            ancestors(chain(), {"nope"})

    def test_monotone_and_idempotent(self):
        g = chain()
        small = ancestors(g, {"Z"})
        big = ancestors(g, {"Z", "Y"})
        assert small <= big
        assert ancestors(g, small) == small


class TestMutilate:
    def test_remove_incoming(self):
        g = Admg([Var("W"), Var("X"), Var("Z")], [("W", "X"), ("X", "Z")])
        cut = mutilate(g, remove_incoming={"X"})
        assert cut.directed == frozenset({("X", "Z")})
        assert cut.vars == g.vars

    def test_bidirected_is_incoming(self):
        g = Admg([Var("X"), Var("Z")], [("X", "Z")], [("X", "Z")])
        cut = mutilate(g, remove_incoming={"X"})
        assert cut.directed == frozenset({("X", "Z")})
        assert not cut.bidirected

    def test_identity(self):
        g = chain()
        assert mutilate(g) == g

    def test_idempotent(self):
        g = Admg([Var("A"), Var("B"), Var("C")],
                 [("A", "B"), ("B", "C")], [("A", "C")])
        once = mutilate(g, remove_incoming={"B"}, remove_outgoing={"C"})
        assert mutilate(once, remove_incoming={"B"}, remove_outgoing={"C"}) == once


class TestDSeparation:
    def test_edgeless(self):
        g = Admg([Var("A"), Var("B"), Var("C")])
        assert d_separated(g, {"A"}, {"B"}, set())

    def test_blocked_chain(self):
        assert d_separated(chain(), {"X"}, {"Y"}, {"Z"})
        assert not d_separated(chain(), {"X"}, {"Y"}, set())

    def test_conditioned_collider_opens(self):
        g = Admg([Var("X"), Var("C"), Var("Y")], [("X", "C"), ("Y", "C")])
        assert not d_separated(g, {"X"}, {"Y"}, {"C"})
        assert d_separated(g, {"X"}, {"Y"}, set())

    def test_bidirected_acts_as_fork(self):
        g = Admg([Var("A"), Var("B")], [], [("A", "B")])
        assert not d_separated(g, {"A"}, {"B"}, set())

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            d_separated(chain(), {"X"}, {"X"}, set())

    def test_symmetry_and_oracle_agreement(self):
        rng = np.random.default_rng(3)
        names = ["A", "B", "C", "D"]
        variables = [Var(n) for n in names]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        for _ in range(150):
            k = rng.integers(0, len(pairs) + 1)
            edges = [pairs[i] for i in rng.choice(len(pairs), size=k, replace=False)]
            nc = rng.integers(0, 3)
            confs = [pairs[i] for i in rng.choice(len(pairs), size=nc, replace=False)]
            g = Admg(variables, edges, confs)
            others = list(names)
            rng.shuffle(others)
            x, y = {others[0]}, {others[1]}
            z = set(others[2:2 + rng.integers(0, 3)])
            got = d_separated(g, x, y, z)
            assert got == d_separated(g, y, x, z)
            assert got == bf_d_separated(g, x, y, z)


class TestCutMasks:
    def test_cut_masks_read_the_mutilated_graph(self):
        """``_d_separated`` with cut masks answers as ``d_separated`` on
        ``mutilate(g, cut_in, cut_out)``, on seeded random ADMGs with
        random disjoint x, y, z and random cut sets, which may meet them."""
        rng = np.random.default_rng(30)
        separated = 0
        for _ in range(3000):
            g = random_admg(rng, int(rng.integers(3, 8)), edge_prob=0.4, max_confounders=3)
            n = len(g.vars)
            role = rng.integers(0, 4, size=n)  # x, y, z or none
            role[rng.choice(n, size=2, replace=False)] = (0, 1)  # x and y nonempty
            x, y, z = (sum(1 << i for i in range(n) if role[i] == r) for r in range(3))
            cut_in, cut_out = (int(rng.integers(0, 1 << n)) for _ in range(2))
            cut = mutilate(g, _names_of(g, cut_in), _names_of(g, cut_out))
            want = d_separated(cut, *(_names_of(g, m) for m in (x, y, z)))
            assert _d_separated(g, x, y, z, cut_in, cut_out) == want, (g, x, y, z, cut_in, cut_out)
            separated += want
        assert 600 < separated < 2400, separated  # both answers are common

    def test_hand_cases_build_no_graph(self, monkeypatch):
        """Cuts that close a bidirected edge, a chain and a collider's
        conditioned descendant, none of them building a graph."""
        g = Admg([Var("X"), Var("Z"), Var("Y")], [("X", "Z"), ("Z", "Y")], [("X", "Y")])
        collider = Admg([Var("X"), Var("C"), Var("Y"), Var("Z")],
                        [("X", "C"), ("Y", "C"), ("C", "Z")])
        monkeypatch.setattr(Admg, "_build", lambda *_parts: pytest.fail("a graph was built"))
        bit = g._bit
        assert not _d_separated(g, bit["X"], bit["Y"], bit["Z"])  # X <-> Y
        assert _d_separated(g, bit["X"], bit["Y"], bit["Z"], cut_in=bit["Y"])
        assert not _d_separated(g, bit["X"], bit["Y"], 0, cut_out=bit["Z"])
        assert _d_separated(g, bit["X"], bit["Y"], 0, bit["X"], bit["Z"])
        bit = collider._bit
        assert not _d_separated(collider, bit["X"], bit["Y"], bit["Z"])  # C -> Z opens C
        assert _d_separated(collider, bit["X"], bit["Y"], bit["Z"], cut_out=bit["C"])
        assert _d_separated(collider, bit["X"], bit["Y"], bit["Z"], cut_in=bit["Z"])


class TestCComponents:
    def test_single_bidirected_edge(self):
        g = Admg([Var("W"), Var("X"), Var("Z"), Var("Y")],
                 [("W", "X"), ("X", "Z"), ("W", "Z"), ("Z", "Y")],
                 [("W", "Y")])
        assert set(c_components(g)) == {frozenset({"W", "Y"}),
                                        frozenset({"X"}), frozenset({"Z"})}

    def test_no_bidirected(self):
        assert set(c_components(chain())) == {frozenset({n}) for n in "XZY"}

    def test_path_closure(self):
        g = Admg([Var("a"), Var("b"), Var("c")], [], [("a", "b"), ("b", "c")])
        assert c_components(g) == [frozenset({"a", "b", "c"})]

    def test_partition_property(self):
        rng = np.random.default_rng(4)
        names = [f"V{i}" for i in range(5)]
        pairs = list(itertools.combinations(names, 2))
        for _ in range(50):
            nc = rng.integers(0, 5)
            confs = [pairs[i] for i in rng.choice(len(pairs), size=nc, replace=False)]
            g = Admg([Var(n) for n in names], [], confs)
            comps = c_components(g)
            assert sorted(itertools.chain.from_iterable(comps)) == sorted(names)
            for a, b in itertools.combinations(comps, 2):
                assert not (a & b)


class TestTopologicalOrder:
    def test_chain(self):
        assert topological_order(chain()) == ["X", "Z", "Y"]

    def test_name_tiebreak(self):
        g = Admg([Var("B"), Var("A")])
        assert topological_order(g) == ["A", "B"]

    def test_diamond(self):
        g = Admg([Var("A"), Var("B"), Var("C"), Var("D")],
                 [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        assert topological_order(g) == ["A", "B", "C", "D"]

    def test_cycle_rejected(self):
        with pytest.raises(CyclicGraphError):
            Admg([Var("A"), Var("B")], [("A", "B"), ("B", "A")])

    def test_ancestral_subgraph_keeps_the_restricted_order(self):
        """G[A] for an ancestral set A is ordered as G restricted to A,
        which lets identification run on G[An(Y)] instead of G."""
        checked = 0
        for g in seeded_admgs(31, n_criterion2=30, n_random=5):
            full = topological_order(g)
            names = g.names()
            ancestral = {ancestors(g, s) for k in range(1, len(names) + 1)
                         for s in itertools.combinations(names, k)}
            for a in ancestral:
                assert topological_order(g.induced(a)) == [n for n in full if n in a], (g, a)
                checked += 1
        assert checked > 200

    def test_order_is_cached_and_copied(self):
        g = chain()
        order = topological_order(g)
        order.append("W")
        assert topological_order(g) == ["X", "Z", "Y"]


class TestTrustedConstruction:
    """``induced`` and ``mutilate`` skip validation; their graphs must be
    the graphs the validating constructor builds from the same parts."""

    @staticmethod
    def _rebuilt(g):
        return Admg(g.vars, sorted(g.directed), [sorted(p) for p in g.bidirected])

    def test_subgraphs_equal_validated_graphs(self):
        rng = np.random.default_rng(32)
        for g in seeded_admgs(32, n_criterion2=30, n_random=5):
            names = g.names()
            for _ in range(4):
                keep = {n for n in names if rng.random() < 0.6}
                cut_in = {n for n in names if rng.random() < 0.3}
                cut_out = {n for n in names if rng.random() < 0.3}
                for sub in (g.induced(keep), mutilate(g, cut_in, cut_out),
                            mutilate(g.induced(keep), cut_in & keep)):
                    ref = self._rebuilt(sub)
                    assert sub == ref and hash(sub) == hash(ref)
                    assert topological_order(sub) == topological_order(ref)
                    for n in sub.names():
                        assert sub.parents_of(n) == ref.parents_of(n)
                        assert sub.children_of(n) == ref.children_of(n)
                        assert sub.siblings_of(n) == ref.siblings_of(n)

    @pytest.mark.parametrize("directed,bidirected,error", [
        ([("A", "B"), ("B", "C"), ("C", "A")], [], CyclicGraphError),
        ([("A", "Q")], [], InvalidInputError),
        ([("A", "A")], [], InvalidInputError),
        ([], [("A", "Q")], InvalidInputError),
        ([], [("B", "B")], InvalidInputError),
    ])
    def test_validating_constructor_still_rejects(self, directed, bidirected, error):
        with pytest.raises(error):
            Admg([Var("A"), Var("B"), Var("C")], directed, bidirected)

    def test_induced_rejects_unknown_names(self):
        with pytest.raises(InvalidInputError):
            chain().induced({"X", "Q"})

    def test_membership_and_comparison_with_other_types(self):
        g = chain()
        assert "Z" in g and "Q" not in g
        assert g != "g" and not g == "g"


def _subsets(items):
    return (frozenset(c) for k in range(len(items) + 1)
            for c in itertools.combinations(items, k))


class TestVertexSetQueries:
    """Identification reads subgraphs as vertex masks of the input graph;
    the readings must be those of the materialized subgraphs."""

    def test_match_materialized_subgraphs(self):
        checked = 0
        for g in seeded_admgs(33, n_criterion2=30, n_random=5):
            for v in _subsets(g.names()):
                sub, vm = g.induced(v), _mask(g, v, "test")
                comps = [frozenset(_names_of(g, c)) for c in _component_masks(g, vm)]
                assert comps == c_components(sub), (g, v)
                for cut in _subsets(sorted(v)):
                    cut_sub = mutilate(sub, cut)
                    for y in [frozenset({n}) for n in sorted(v)] + [v - cut]:
                        an = _reach(g._pa, vm, _mask(g, y, "test"), _mask(g, cut, "test"))
                        assert frozenset(_names_of(g, an)) == ancestors(cut_sub, y), (g, v, y, cut)
                        checked += 1
        assert checked > 30_000

    def test_component_of_one_vertex(self):
        """The walk from v finds the C-component of G[inside] that
        ``_component_masks`` lists for v."""
        rng = np.random.default_rng(34)
        checked = wide = 0
        for _ in range(60):
            g = random_admg(rng, int(rng.integers(3, 9)), edge_prob=0.4,
                            max_confounders=int(rng.integers(0, 6)))
            names = g.names()
            for _ in range(8):
                inside = _mask(g, (n for n in names if rng.random() < 0.6), "test")
                for v in _names_of(g, inside):
                    b = _mask(g, [v], "test")
                    want = next(c for c in _component_masks(g, inside) if c & b)
                    assert _reach(g._sib, inside, b) == want, (g, v, inside)
                    checked += 1
                    wide += want.bit_count() > 1
        assert checked > 1_000 and wide > 300

    def test_public_queries_still_check_names(self):
        g = chain()
        with pytest.raises(InvalidInputError):
            ancestors(g, {"Q"})
        for x, y, f in (({"Q"}, {"Y"}, {"X"}), ({"X"}, {"Q"}, {"X"}), ({"X"}, {"Y"}, {"X", "Q"})):
            with pytest.raises(InvalidInputError):
                verify_hedge(g, x, y, Hedge(frozenset(f), frozenset(), frozenset()))



def _admg(names, directed, bidirected=()):
    return Admg([Var(n) for n in names], directed, bidirected)


class TestVerifyHedge:
    """One non-hedge per invariant of a hedge for P(y|do(x)): each breaks
    that invariant alone."""

    BOW = _admg("XY", [("X", "Y")], [("X", "Y")])

    def test_bow_is_a_hedge(self):
        h = Hedge(frozenset("XY"), frozenset("Y"), frozenset("Y"))
        assert verify_hedge(self.BOW, {"X"}, {"Y"}, h)

    @pytest.mark.parametrize("g, f, f_prime, roots", [
        # F misses X
        (BOW, "Y", "Y", "Y"),
        # F' holds X
        (BOW, "XY", "XY", "Y"),
        # F is not one C-component (no X <-> Y)
        (_admg("XY", [("X", "Y")]), "XY", "Y", "Y"),
        # F' is not one C-component (no A <-> B)
        (_admg("XAB", [("X", "A"), ("X", "B")], [("X", "A"), ("X", "B")]), "XAB", "AB", "AB"),
        # Z reaches no root within F (Z <-> Y, no directed path)
        (_admg("XYZ", [("X", "Y")], [("X", "Y"), ("Z", "Y")]), "XYZ", "Y", "Y"),
        # root A has a child, Y, in F'
        (_admg("XAY", [("X", "A"), ("A", "Y")], [("X", "A"), ("A", "Y")]), "XAY", "AY", "AY"),
        # root W is not an ancestor of Y
        (_admg("XYW", [("X", "Y"), ("X", "W")], [("X", "Y"), ("X", "W")]), "XW", "W", "W"),
    ], ids=["f_misses_x", "f_prime_holds_x", "f_not_one_component",
            "f_prime_not_one_component", "vertex_reaches_no_root", "root_with_child_in_f_prime",
            "root_not_ancestor_of_y"])
    def test_non_hedge_is_rejected(self, g, f, f_prime, roots):
        y = {"A", "B"} if "B" in g.names() else {"Y"}
        h = Hedge(frozenset(f), frozenset(f_prime), frozenset(roots))
        assert not verify_hedge(g, {"X"}, y, h)

    def test_frame_that_is_no_hedge_gives_no_witness(self):
        """The frame's forests are F = {X, Y, Z} and F' = {Y}; Z reaches
        no root, so ``_hedge_from_frame`` returns no witness."""
        g = _admg("XYZ", [("X", "Y")], [("X", "Y"), ("Z", "Y")])
        x, y, f = (_mask(g, s, "test") for s in ("X", "Y", "XYZ"))
        assert _hedge_from_frame(g, x, y, f, y) is None
        assert _hedge_from_frame(g, x, y, x | y, y) is not None

    def test_nested_forests_are_required(self):
        h = Hedge(frozenset("XY"), frozenset("Y"), frozenset("X"))
        assert not verify_hedge(self.BOW, {"X"}, {"Y"}, h)


class TestFindHedge:
    def test_no_bidirected_no_hedge(self):
        assert find_hedge(chain(), {"X"}, {"Y"}) is None

    def test_bow(self):
        g = Admg([Var("A"), Var("B")], [("A", "B")], [("A", "B")])
        h = find_hedge(g, {"A"}, {"B"})
        assert h is not None
        assert verify_hedge(g, {"A"}, {"B"}, h)

    def test_fig32_hedge_present(self, fig32_trio):
        _g1, _g2, g3 = fig32_trio
        h = find_hedge(g3, {"X1"}, {"X4"})
        assert h is not None
        assert verify_hedge(g3, {"X1"}, {"X4"}, h)
        assert h.forest_f & {"X1"}
        assert not (h.forest_f_prime & {"X1"})

    def test_requires_nonempty_disjoint(self):
        g = chain()
        with pytest.raises(InvalidInputError):
            find_hedge(g, set(), {"Y"})
        with pytest.raises(InvalidInputError):
            find_hedge(g, {"X"}, {"X"})

    def test_against_brute_force(self):
        rng = np.random.default_rng(9)
        names = ["A", "B", "C", "D"]
        variables = [Var(n) for n in names]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        checked = 0
        for _ in range(120):
            perm = list(rng.permutation(names))
            possible = [(a, b) for a in perm for b in perm
                        if perm.index(a) < perm.index(b)]
            k = rng.integers(0, len(possible) + 1)
            edges = [possible[i] for i in rng.choice(len(possible), size=k, replace=False)]
            nc = rng.integers(0, 3)
            confs = [pairs[i] for i in rng.choice(len(pairs), size=nc, replace=False)]
            g = Admg(variables, edges, confs)
            x, y = rng.choice(names, size=2, replace=False)
            got = find_hedge(g, {x}, {y})
            assert (got is not None) == bf_hedge_exists(g, {x}, {y})
            if got is not None:
                assert verify_hedge(g, {x}, {y}, got)
                checked += 1
        assert checked > 5


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_graph_invariants(seed):
    rng = np.random.default_rng(seed)
    names = [f"N{i}" for i in range(5)]
    perm = list(rng.permutation(names))
    edges = [(a, b) for i, a in enumerate(perm) for b in perm[i + 1:]
             if rng.random() < 0.4]
    pairs = list(itertools.combinations(names, 2))
    confs = [pairs[i] for i in rng.choice(len(pairs), size=rng.integers(0, 3),
                                          replace=False)]
    g = Admg([Var(n) for n in names], edges, confs)
    order = topological_order(g)
    assert sorted(order) == sorted(names)
    for a, b in g.directed:
        assert order.index(a) < order.index(b)
    s = set(rng.choice(names, size=2, replace=False))
    anc = ancestors(g, s)
    assert ancestors(g, anc) == anc
    assert s <= anc
    dec = descendants(g, s)
    assert s <= dec
