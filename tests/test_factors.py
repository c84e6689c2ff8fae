import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docalc.dcn import DcnSpec, trajectory
from docalc.errors import InvalidInputError, PartialSupportError
from docalc.factors import (EPS_CMP, EPS_NORM, Factor, TransitionMatrix, condition, divide,
                            equal_within, marginalize, multiply)
from docalc.graphs import Var
from conftest import close_within

A, B = Var("A"), Var("B")


def joint_ab(table):
    return Factor((A, B), np.asarray(table))


def steps(t, p, n):
    """p after n applications of the transition matrix t: the DCN stepper
    on a spec whose slice variables are t's state variables."""
    return trajectory(DcnSpec(t.state_vars), t, p, None, n)[n]


# (case, refused call, error, message): one row per refusal of Factor and
# TransitionMatrix that no other test reaches
REFUSALS = [
    ("scope_repeats_a_name", lambda: Factor((A, A), np.full((2, 2), 0.25)), InvalidInputError,
     "factor scope has duplicate variables"),
    ("point_mass_out_of_domain", lambda: Factor.point_mass((A, B), {"A": 0, "B": 2}),
     InvalidInputError, "value 2 out of domain for B"),
    ("point_mass_negative", lambda: Factor.point_mass((A,), {"A": -1}),
     InvalidInputError, "value -1 out of domain for A"),
    ("normalize_zero_mass", lambda: Factor((A,), np.zeros(2)).normalized(),
     PartialSupportError, "cannot normalize a zero-mass factor"),
    ("reorder_drops_a_name", lambda: joint_ab(np.full((2, 2), 0.25)).reorder(["A"]),
     InvalidInputError, "reorder must permute the existing scope"),
    ("reorder_repeats_a_name", lambda: joint_ab(np.full((2, 2), 0.25)).reorder(["A", "B", "B"]),
     InvalidInputError, "reorder must permute the existing scope"),
    ("condition_on_unknown_name", lambda: condition(joint_ab(np.full((2, 2), 0.25)), {"C"}),
     InvalidInputError, "condition: ['C'] not in scope"),
    ("equal_within_domains_differ",
     lambda: equal_within(Factor((A,), np.array([0.5, 0.5])),
                          Factor((Var("A", 3),), np.full(3, 1 / 3))),
     InvalidInputError, "domain mismatch for 'A'"),
    ("matrix_not_n_by_n", lambda: TransitionMatrix((A, B), np.full((4, 2), 0.5)),
     InvalidInputError, "transition matrix must be 4x4"),
    ("matrix_columns_not_one", lambda: TransitionMatrix((A,), np.array([[0.5, 0.2], [0.4, 0.8]])),
     InvalidInputError, "transition matrix columns must sum to 1"),
]


@pytest.mark.parametrize("make, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_factor_refusals(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


class TestMarginalize:
    def test_uniform(self):
        f = Factor.uniform((A, B))
        m = marginalize(f, {"B"})
        assert np.allclose(m.table, [0.5, 0.5])

    def test_identity(self):
        f = joint_ab([[0.1, 0.2], [0.3, 0.4]])
        assert marginalize(f, set()) is f

    def test_hand_sum(self):
        # brute sum over A of [[0.1,0.2],[0.3,0.4]] -> (0.4, 0.6)
        f = joint_ab([[0.1, 0.2], [0.3, 0.4]])
        m = marginalize(f, {"A"})
        expected = [0.1 + 0.3, 0.2 + 0.4]
        assert np.allclose(m.table, expected)
        assert abs(m.total() - f.total()) < 1e-15

    def test_unknown_var(self):
        with pytest.raises(InvalidInputError):
            marginalize(joint_ab([[0.25] * 2] * 2), {"C"})

    def test_composition(self):
        rng = np.random.default_rng(0)
        scope = (A, B, Var("C"), Var("D"))
        t = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        f = Factor(scope, t)
        two_step = marginalize(marginalize(f, {"A"}), {"C"})
        one_step = marginalize(f, {"A", "C"})
        assert close_within(two_step, one_step, 1e-15)


class TestConstructor:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cells_refused(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            joint_ab([[0.1, 0.2], [bad, 0.4]])

    def test_negative_cell_refused(self):
        with pytest.raises(InvalidInputError, match="non-negative"):
            joint_ab([[0.1, 0.2], [-1e-11, 0.4]])

    def test_rounding_below_zero_clipped(self):
        f = joint_ab([[0.1, -1e-13], [0.3, 0.4]])
        assert f.table[0, 1] == 0.0
        assert f.table.min() == 0.0

    def test_read_only_copy_of_the_input(self):
        src = np.array([[0.1, 0.2], [0.3, 0.4]])
        f = Factor((A, B), src)
        with pytest.raises(ValueError):
            f.table[0, 0] = 1.0
        assert not np.shares_memory(f.table, src)
        src[0, 0] = 0.9
        assert f.table[0, 0] == 0.1
        assert src.flags.writeable

    def test_flat_input_is_shaped_by_the_scope(self):
        f = Factor((A, B), [0.1, 0.2, 0.3, 0.4])
        assert f.table.shape == (2, 2) and f.table[1, 0] == 0.3

    def test_0d_and_one_cell_tables(self):
        s = Factor((), np.asarray(0.25))
        assert isinstance(s.table, np.ndarray) and s.table.shape == ()
        assert not s.table.flags.writeable and s.total() == 0.25
        assert Factor.scalar(-1e-13).table.shape == ()
        assert Factor.scalar(-1e-13).total() == 0.0
        with pytest.raises(InvalidInputError, match="finite"):
            Factor.scalar(np.nan)
        one = Factor((Var("U", 1),), [1.0])
        assert one.table.shape == (1,) and one.total() == 1.0
        with pytest.raises(InvalidInputError, match="non-negative"):
            Factor((Var("U", 1),), [-0.5])


class TestBoundaryRefusals:
    """Every malformed input to the validating constructors raises
    InvalidInputError, never a numpy or lookup error."""

    def test_cell_count_mismatch(self):
        with pytest.raises(InvalidInputError, match="3 cells"):
            Factor([Var("A", 2)], [0.5, 0.5, 0.1])

    def test_string_cell_in_a_factor(self):
        with pytest.raises(InvalidInputError, match="numbers"):
            joint_ab([[0.1, "x"], [0.3, 0.4]])

    def test_string_cell_in_a_transition_matrix(self):
        with pytest.raises(InvalidInputError, match="numbers"):
            TransitionMatrix((A,), [[1.0, "x"], [0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="numbers"):
            TransitionMatrix.from_rows((A,), [[1.0, "x"], [0.0, 0.0]])

    @pytest.mark.parametrize("rows", [[[np.nan, 0.5], [np.nan, 0.5]],
                                      [[np.nan, 1.0], [0.0, 0.0]]])
    def test_nan_in_a_transition_matrix(self, rows):
        with pytest.raises(InvalidInputError, match="lie in"):
            TransitionMatrix((A,), rows)
        with pytest.raises(InvalidInputError, match="lie in"):
            TransitionMatrix.from_rows((A,), rows)

    def test_point_mass_missing_variable(self):
        with pytest.raises(InvalidInputError, match="no value for B"):
            Factor.point_mass((A, B), {"A": 1})

    def test_total_beyond_the_float_range(self):
        with pytest.raises(InvalidInputError, match="total must be finite"):
            Factor((A,), [1e308, 1e308])

    def test_overflowing_product_and_quotient(self):
        big = Factor((A,), [1e200, 1.0])
        with pytest.raises(InvalidInputError, match="overflows"):
            multiply(big, big)
        with pytest.raises(InvalidInputError, match="overflows"):
            divide(big, Factor((A,), [1e-200, 1.0]))


_POOL = (Var("A", 2), Var("B", 3), Var("C", 1), Var("D", 2))


@st.composite
def _factors(draw):
    """A validated factor over up to three pool variables, its cells 0
    half of the time, so zero cells and zero-mass contexts are common."""
    scope = draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
    shape = [v.domain for v in scope]
    cells = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
                          min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return Factor(scope, np.reshape(cells, shape), draw(st.booleans()))


@given(_factors(), _factors(), st.data())
@settings(max_examples=300, deadline=None)
def test_derived_tables_pass_the_validating_constructor(f, g, data):
    """The algebra's outputs skip the constructor's checks: each must be
    read-only, finite and non-negative, and the table the validating
    constructor makes of it must be the same bytes."""
    names = f.names()
    out = data.draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    derived = [marginalize(f, out)]
    if len(names) > 1:  # condition on a nonempty proper subset
        derived.append(condition(f, data.draw(st.lists(
            st.sampled_from(names), min_size=1, max_size=len(names) - 1, unique=True))))
    if f.total() > 0.0:
        derived.append(f.normalized())
    for op in (multiply, divide):
        try:
            derived.append(op(f, g))
        except InvalidInputError as exc:  # refused, not an infinite table
            assert "overflows" in str(exc)
    for d in derived:
        assert not d.table.flags.writeable
        assert np.isfinite(d.table).all() and (d.table >= 0.0).all()
        ref = Factor(d.scope, d.table, d.partial).table
        assert ref.shape == d.table.shape and ref.tobytes() == d.table.tobytes()
    if len(names) > 1:
        assert (derived[1].table <= 1.0).all()


class TestViews:
    def test_reorder_and_restrict_are_read_only(self):
        f = joint_ab([[0.1, 0.2], [0.3, 0.4]])
        for view in (f.reorder(["B", "A"]), f.restrict({"A": 1})):
            with pytest.raises(ValueError):
                view.table[0] = 1.0
        assert np.allclose(f.table, [[0.1, 0.2], [0.3, 0.4]])

    def test_reorder_to_own_order_is_identity(self):
        f = joint_ab([[0.1, 0.2], [0.3, 0.4]])
        assert f.reorder(["A", "B"]) is f

    def test_restrict_everything_gives_0d_table(self):
        f = joint_ab([[0.1, 0.2], [0.3, 0.4]])
        g = f.restrict({"A": 1, "B": 0, "C": 1})
        assert g.scope == ()
        assert g.table.shape == ()
        assert g.total() == pytest.approx(0.3)
        assert g[{}] == pytest.approx(0.3)

    def test_restrict_out_of_domain(self):
        with pytest.raises(InvalidInputError):
            joint_ab([[0.25] * 2] * 2).restrict({"A": 2})


class TestCondition:
    def test_independent_uniform(self):
        f = Factor.uniform((A, B))
        c = condition(f, {"A"})
        assert np.allclose(c.table, 0.5)

    def test_deterministic_copy(self):
        f = joint_ab([[0.5, 0.0], [0.0, 0.5]])
        c = condition(f, {"A"})
        assert np.allclose(c.table, [[1.0, 0.0], [0.0, 1.0]])

    def test_hand_columns(self):
        f = joint_ab([[0.1, 0.2], [0.3, 0.4]])
        c = condition(f, {"B"})
        assert np.allclose(c.table[:, 0], [0.25, 0.75])
        assert np.allclose(c.table[:, 1], [1 / 3, 2 / 3])

    def test_whole_scope_rejected(self):
        with pytest.raises(InvalidInputError):
            condition(joint_ab([[0.25] * 2] * 2), {"A", "B"})

    def test_zero_context_flags_partial(self):
        f = joint_ab([[0.5, 0.5], [0.0, 0.0]])
        c = condition(f, {"A"})
        assert c.partial
        assert np.allclose(c.table[1], 0.0)

    def test_empty_given_normalizes(self):
        """Conditioning on nothing is normalizing; with no mass at all there
        is nothing to normalize."""
        f = joint_ab([[0.2, 0.6], [0.4, 0.8]])
        c = condition(f, [])
        want = f.normalized()
        assert c.names() == want.names() and c.partial == want.partial
        assert c.table.tobytes() == want.table.tobytes()
        with pytest.raises(PartialSupportError, match="zero-mass"):
            condition(joint_ab([[0.0, 0.0], [0.0, 0.0]]), [])

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_the_masked_divide(self, seed):
        """Dividing by the context, or by 1 where it has no mass, gives the
        bits of the masked divide into zeros, and the same partial flag."""
        rng = np.random.default_rng(seed)
        scope = tuple(Var(f"V{i}", int(rng.integers(1, 4))) for i in range(int(rng.integers(2, 5))))
        table = rng.random([v.domain for v in scope]) * (rng.random() < 0.8)
        given = [v.name for v in scope if rng.random() < 0.5] or [scope[0].name]
        if len(given) == len(scope):
            given.pop()
        axes = tuple(i for i, v in enumerate(scope) if v.name not in given)
        if rng.random() < 0.5:  # zero some contexts
            zero = rng.random(np.sum(table, axis=axes, keepdims=True).shape) < 0.4
            table = np.where(zero, 0.0, table)
        f = Factor(scope, table, partial=bool(rng.random() < 0.3))
        ctx = f.table.sum(axis=axes, keepdims=True)
        positive = ctx > 0.0
        want = np.divide(f.table, ctx, out=np.zeros_like(f.table), where=positive)
        got = condition(f, given)
        assert got.table.tobytes() == want.tobytes()
        assert got.partial == (f.partial or not positive.all())


class TestMultiply:
    def test_ones_identity(self):
        f = joint_ab([[0.1, 0.2], [0.3, 0.4]])
        assert close_within(multiply(f, Factor.ones((A, B))), f, 0.0)

    def test_product_distribution(self):
        pa = Factor((A,), np.array([0.3, 0.7]))
        pb = Factor((B,), np.array([0.6, 0.4]))
        f = multiply(pa, pb)
        assert f.names() == ("A", "B")
        assert np.allclose(f.table, np.outer([0.3, 0.7], [0.6, 0.4]))

    def test_chain_rule_recovers_joint(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = joint_ab(rng.dirichlet(np.ones(4)).reshape(2, 2))
            back = multiply(marginalize(f, {"B"}), condition(f, {"A"}))
            assert close_within(back, f, 1e-12)

    def test_domain_mismatch_rejected(self):
        f = Factor((Var("A", 2),), np.array([0.5, 0.5]))
        g = Factor((Var("A", 3),), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(InvalidInputError):
            multiply(f, g)


class TestEqualWithin:
    def test_reflexive(self):
        f = joint_ab([[0.1, 0.2], [0.3, 0.4]])
        assert equal_within(f, f)

    def test_tolerance(self):
        a = Factor((A,), np.array([0.5, 0.5]))
        b = Factor((A,), np.array([0.5 + 1e-12, 0.5 - 1e-12]))
        assert equal_within(a, b)
        e = Factor((A,), np.array([0.5 + 2 * EPS_CMP, 0.5 - 2 * EPS_CMP]))
        assert not equal_within(a, e)
        c = Factor((A,), np.array([1.0, 0.0]))
        d = Factor((A,), np.array([0.0, 1.0]))
        assert not equal_within(c, d)

    def test_scope_mismatch(self):
        with pytest.raises(InvalidInputError):
            equal_within(Factor((A,), np.array([1.0, 0.0])),
                         Factor((B,), np.array([1.0, 0.0])))


class TestTransition:
    def test_identity(self):
        t = TransitionMatrix((A, B), np.eye(4))
        p = Factor((A, B), np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert close_within(steps(t, p, 1), p, 0.0)

    def test_point_mass_through_t1(self, traffic):
        _spec, t1, _t2, _ts = traffic
        sv = t1.state_vars
        p = Factor.point_mass(sv, {"tr1": 0, "tr2": 0, "d": 0})
        nxt = steps(t1, p, 1)
        assert np.allclose(nxt.table.reshape(-1),
                           [0.0, 0.4, 0.0, 0.3, 0.0, 0.2, 0.0, 0.1])

    def test_uniform_invariant_under_doubly_stochastic(self):
        m = np.array([[0.5, 0.25, 0.25, 0.0],
                      [0.25, 0.5, 0.0, 0.25],
                      [0.25, 0.0, 0.5, 0.25],
                      [0.0, 0.25, 0.25, 0.5]])
        t = TransitionMatrix((A, B), m)
        p = Factor.uniform((A, B))
        assert close_within(steps(t, p, 7), p, 1e-12)

    def test_power_zero_and_one(self, traffic):
        _spec, t1, _t2, _ts = traffic
        p = Factor.uniform(t1.state_vars)
        assert np.array_equal(steps(t1, p, 0).table, p.table)
        one = t1.matrix @ p.table.reshape(-1)
        assert np.max(np.abs(steps(t1, p, 1).table.reshape(-1) - one)) <= 1e-15
        assert np.max(np.abs(steps(t1, p, 2).table.reshape(-1) - t1.matrix @ one)) <= 1e-15

    def test_steady_state_fixed_point(self, traffic):
        _spec, _t1, _t2, ts = traffic
        p = steps(ts, Factor.uniform(ts.state_vars), 200)
        residual = ts.matrix @ p.table.reshape(-1) - p.table.reshape(-1)
        assert np.max(np.abs(residual)) < 1e-9

    def test_row_layout_transposes(self):
        rows = np.array([[0.2, 0.8], [0.7, 0.3]])
        t = TransitionMatrix.from_rows((A,), rows)
        assert np.allclose(t.matrix, rows.T)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.dirichlet(np.ones(4), size=4).T
            t = TransitionMatrix((A, B), m)
            p = Factor((A, B), rng.dirichlet(np.ones(4)).reshape(2, 2))
            q = steps(t, p, 1)
            assert q.table.min() >= 0.0
            assert abs(q.total() - 1.0) <= EPS_NORM


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_multiply_commutative_associative(seed):
    rng = np.random.default_rng(seed)
    c = Var("C")
    fa = Factor((A, B), rng.random((2, 2)))
    fb = Factor((B, c), rng.random((2, 2)))
    fc = Factor((c,), rng.random(2))
    ab = multiply(fa, fb)
    ba = multiply(fb, fa)
    assert close_within(ab, ba.reorder(ab.names()), 1e-12)
    left = multiply(multiply(fa, fb), fc)
    right = multiply(fa, multiply(fb, fc))
    assert close_within(left, right.reorder(left.names()), 1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_chain_rule_identity(seed):
    rng = np.random.default_rng(seed)
    f = Factor((A, B), rng.dirichlet(np.ones(4)).reshape(2, 2))
    back = multiply(marginalize(f, {"B"}), condition(f, {"A"}))
    assert close_within(back, f, 1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_distribution_flag_preserved(seed):
    rng = np.random.default_rng(seed)
    f = Factor((A, B), rng.dirichlet(np.ones(4)).reshape(2, 2))
    assert f.is_distribution()
    assert marginalize(f, {"A"}).is_distribution()
    t = TransitionMatrix((A, B), rng.dirichlet(np.ones(4), size=4).T)
    assert steps(t, f, 1).is_distribution()
