import contextlib
import functools
import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from docalc import dcn
from docalc.dcn import (DcnMechanism, DcnSpec, SelectionVar, SliceCpt, SliceExo,
                        TransportSpec, _Forward, _window_left,
                        cdcn_id_dynamic, cdcn_id_static, classify,
                        dcn_id_dynamic, dcn_id_static, dynamic_time_span,
                        initial_distribution, mechanism_transition,
                        observational_marginal, random_dcn_spec, slice_var_at,
                        step_kernel_matrix, trajectory, transport, unroll,
                        unrolled_scm)
from docalc.errors import (InfiniteSpanError, InvalidInputError, UnsupportedModelError,
                           UnsupportedQueryError, UnsupportedTransportError,
                           WindowTooSmallError)
from docalc.factors import Factor, TransitionMatrix, condition, marginalize, multiply
from docalc.graphs import (Admg, Var, _mask, _reach, ancestors, d_separated, find_hedge,
                           mutilate)
from docalc.identify import effect_factor, id_effect, pretty
from docalc import identify, scm
from docalc.scm import InterventionSpec, intervene, joint, oracle_query, random_admg
from conftest import (TRAFFIC_STATE_VARS, close_within, random_mechanism_for,
                      traffic_mechanism, traffic_spec, weekday_schedule)

RNG = np.random.default_rng(100)

AB = (Var("a"), Var("b"))
FLAT_AB = TransitionMatrix(AB, np.full((4, 4), 0.25))
LAG1 = (("a", "b", 1),)  # a dynamic confounder of lag 1
ENDLESS = (("a", "b", 1), ("b", "a", 1))  # a confounder chain that never ends


def ab_spec(cross_confounders=(), seed=None):
    """a -> b in each slice and b -> a into the next, plus the given cross
    confounders; with a random mechanism when ``seed`` is given."""
    spec = DcnSpec(AB, (("a", "b"),), (("b", "a", 1),), (), cross_confounders)
    return spec if seed is None else random_mechanism_for(spec, np.random.default_rng(seed))


# (case, refused call, error type, message): one row per refusal of the DCN
# pipelines that no other test reaches
REFUSALS = [
    ("initial_distribution_without_mechanism", lambda: initial_distribution(ab_spec()),
     UnsupportedModelError, "spec carries no slice mechanism"),
    ("mechanism_transition_without_mechanism", lambda: mechanism_transition(ab_spec()),
     UnsupportedModelError, "spec carries no slice mechanism"),
    ("mechanism_transition_of_dynamic_spec", lambda: mechanism_transition(ab_spec(LAG1, 1)),
     UnsupportedModelError, "not a mechanism constant"),
    ("trajectory_infinite_span",
     lambda: trajectory(ab_spec(ENDLESS), FLAT_AB, None, ({"a": 1}, 3), 5),
     InfiniteSpanError, "infinite dynamic time span"),
    ("step_kernel_infinite_span", lambda: step_kernel_matrix(ab_spec(ENDLESS), {"a": 1}, 3, FLAT_AB),
     InfiniteSpanError, "infinite dynamic time span"),
    ("x_meets_y_in_one_slice", lambda: dcn_id_static(ab_spec(seed=2), {"a": 1}, 3, {"a"}, 3),
     InvalidInputError, "intervened and observed variables overlap"),
    ("static_algorithm_on_dynamic_spec",
     lambda: dcn_id_static(ab_spec(LAG1, 1), {"a": 1}, 3, {"b"}, 5),
     UnsupportedModelError, "requires static confounders only"),
    ("horizon_before_t0", lambda: trajectory(ab_spec(seed=2), None, None, None, 2, 5),
     InvalidInputError, "horizon precedes t0"),
    ("intervention_after_horizon",
     lambda: trajectory(ab_spec(seed=2), None, None, ({"a": 1}, 7), 3),
     InvalidInputError, "must lie inside the horizon"),
    ("transport_of_dynamic_spec",
     lambda: transport(ab_spec(LAG1, 1), TransportSpec(()), {"a": 1}, 3, {"b"}, 5),
     UnsupportedTransportError, "static specs only"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_dcn_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def oracle_effect(spec, x, t_x, y, t_y, t0=0):
    m = unrolled_scm(spec, t0, t_y)
    tgt = {slice_var_at(n, t_x): v for n, v in x.items()}
    obs = frozenset(slice_var_at(n, t_y) for n in y)
    return oracle_query(m, InterventionSpec(frozenset(tgt), tgt, obs))


def unrolled_id_effect(spec, x, t_x, y, t_y, t0=0):
    m = unrolled_scm(spec, t0, t_y)
    tgt = {slice_var_at(n, t_x): v for n, v in x.items()}
    obs = frozenset(slice_var_at(n, t_y) for n in y)
    res = id_effect(m.graph, frozenset(tgt), obs)
    if not res.identified:
        return None
    return effect_factor(res.expr, joint(m), tgt, obs)


def post_intervention_slices(spec, x, t_x, names, t):
    """Brute force: P(names at slice t | do(x at t_x)) from the model
    unrolled over slices 0..t (observational when t < t_x)."""
    m = unrolled_scm(spec, 0, t)
    if t >= t_x:
        m = intervene(m, {slice_var_at(n, t_x): v for n, v in x.items()})
    return joint(m, [slice_var_at(n, t) for n in names])


def chain_window_joint(spec, matrices, t_left, t_right):
    """P(V@t_left..V@t_right) of the chain that ``matrices`` drive from a
    uniform slice 0 (``matrices[t]`` leads from slice t to t + 1): the
    observational state at t_left times each transition after it."""
    state = observational_marginal(spec, t_left, matrices, None, 0)
    out = Factor([Var(slice_var_at(v.name, t_left), v.domain) for v in state.scope], state.table)
    for t in range(t_left + 1, t_right + 1):
        scope = [Var(slice_var_at(v.name, s), v.domain) for s in (t, t - 1)
                 for v in spec.slice_vars]
        out = multiply(out, Factor(scope, matrices[t - 1].matrix.reshape([v.domain for v in scope])))
    return out


def dyn_spec(cross_confounders, seed=0, n_vars=2):
    bare = random_dcn_spec(np.random.default_rng(seed), n_vars=n_vars,
                           n_static_conf=0, n_dynamic_conf=0)
    spec = DcnSpec(bare.slice_vars, bare.intra_edges, bare.cross_edges,
                   (), tuple(cross_confounders))
    return random_mechanism_for(spec, np.random.default_rng(seed + 1))


def _generator_queries(kind, t_x):
    """The 150-spec generator: random specs with static or dynamic
    confounders (``kind``), each with one query (spec, x, y, t_y)."""
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n_vars = int(rng.integers(2, 4))
        spec = random_dcn_spec(rng, n_vars=n_vars,
                               n_static_conf=int(rng.integers(0, 2)),
                               n_dynamic_conf=int(rng.integers(1, 3)) if kind == "dynamic" else 0)
        if dynamic_time_span(spec, spec.names()).is_infinite:
            continue
        names = spec.names()
        xv = names[int(rng.integers(n_vars))]
        yv = names[int(rng.integers(n_vars))]
        x = {xv: int(rng.integers(2))}
        yield spec, x, yv, t_x + (int(rng.integers(5, 7)) if n_vars == 2 else 5) - 2


@contextlib.contextmanager
def spied(*names):
    """Counts, by name, the calls of the named ``dcn`` functions made
    inside the block."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(dcn, name, counted(name, getattr(dcn, name)))
        yield calls


def _pipelines_match_unrolled_oracle(kind, t_x):
    """On the generator's specs of ``kind``, the kind's dcn and cdcn
    pipelines and every slice of the trajectory agree with the unrolled
    post-intervention joint whenever they identify the query; returns how
    many of each identified it, and how many cdcn queries entered the
    post-intervention recursion (the rest are answered by rule 3)."""
    dynamic = kind == "dynamic"
    plain, cdcn = (dcn_id_dynamic, cdcn_id_dynamic) if dynamic else (dcn_id_static, cdcn_id_static)
    identified = {"dcn": 0, "cdcn": 0, "trajectory": 0}
    recursed = 0
    for spec, x, yv, t_y in _generator_queries(kind, t_x):
        names = spec.names()
        want = post_intervention_slices(spec, x, t_x, [yv], t_y)
        got = plain(spec, x, t_x, {yv}, t_y, None, None, 0)
        if got is not None:
            identified["dcn"] += 1
            assert np.max(np.abs(got.reorder([yv]).table - want.table)) < 1e-9
        with spied("_post_intervention") as calls:
            try:
                got = cdcn(spec, x, t_x, {yv}, t_y, None, None, 0)
            except UnsupportedQueryError:  # outcome inside the dynamic time span
                got = None
        recursed += bool(calls)
        if got is not None:
            identified["cdcn"] += 1
            assert np.max(np.abs(got.reorder([yv]).table - want.table)) < 1e-9
        try:
            series = trajectory(spec, None, None, (x, t_x), t_y)
        except UnsupportedQueryError:
            continue
        identified["trajectory"] += 1
        for t, f in enumerate(series):
            ref = post_intervention_slices(spec, x, t_x, names, t)
            assert np.max(np.abs(f.reorder(names).table - ref.table)) < 1e-9
    return identified, recursed


class TestClassify:
    def test_traffic_static(self):
        c = classify(traffic_spec())
        assert c.is_static and c.alpha_max == 0

    def test_first_order(self):
        spec = DcnSpec((Var("a"), Var("b")), (), (("a", "b", 1),), (),
                       (("a", "b", 1),))
        c = classify(spec)
        assert c.kind == "first-order" and c.order == 1

    def test_higher_order(self):
        spec = DcnSpec((Var("a"), Var("b")), (), (("a", "b", 1),), (),
                       (("a", "b", 2),))
        assert classify(spec).kind == "higher-order"
        assert classify(spec).order == 2

    def test_no_confounders_static(self):
        spec = DcnSpec((Var("a"),), (), (("a", "a", 1),))
        c = classify(spec)
        assert c.is_static and c.alpha_max == 0 and c.beta == 1


class TestUnroll:
    def test_single_slice_window(self):
        g, index = unroll(traffic_spec(), 0, 0)
        assert set(g.names()) == {"tr1@0", "tr2@0", "d@0"}
        assert g.directed == frozenset({("tr1@0", "d@0"), ("tr2@0", "d@0")})

    def test_traffic_two_slices(self):
        g, index = unroll(traffic_spec(), 0, 1)
        assert ("d@0", "tr1@1") in g.directed
        assert ("d@0", "tr2@1") in g.directed
        assert frozenset({"tr1@0", "tr2@0"}) in g.bidirected
        assert frozenset({"tr1@1", "tr2@1"}) in g.bidirected

    def test_four_slices_have_twelve_vertices(self):
        g, _ = unroll(traffic_spec(), 0, 3)
        assert len(g.vars) == 12

    def test_empty_window_rejected(self):
        with pytest.raises(WindowTooSmallError):
            unroll(traffic_spec(), 3, 2)


class TestMechanismChecks:
    """The forward pass of the dynamic pipelines reads the spec's tables
    unchecked, so the spec checks once, on first use, that they are
    distributions, and at construction that they fit together."""

    @staticmethod
    def _dynamic_specs():
        rng = np.random.default_rng(8)
        while True:
            spec = random_dcn_spec(rng, n_vars=3, n_static_conf=1, n_dynamic_conf=1)
            if not dynamic_time_span(spec, spec.names()).is_infinite:
                yield spec

    @pytest.mark.parametrize("edit_table,prior,match", [
        (lambda t: t * 1.1, None, "must sum to 1"),
        (lambda t: np.stack([t.sum(axis=-1) + 0.5, np.full(t.shape[:-1], -0.5)], axis=-1),
         None, "negative"),
        (None, (0.5, 0.6), "not a distribution"),
        (None, (1.2, -0.2), "not a distribution"),
        (lambda t: np.full_like(t, np.nan), None, "NaN"),
        (None, (float("nan"), 1.0), "not a distribution"),
    ])
    def test_bad_tables_rejected_on_first_use(self, edit_table, prior, match):
        spec = next(self._dynamic_specs())
        mech = spec.mechanism
        cpts = tuple(replace(c, table=edit_table(c.table)) if edit_table and i == 0 else c
                     for i, c in enumerate(mech.cpts))
        exos = tuple(replace(e, prior=prior) if prior else e for e in mech.exos)
        bad = replace(spec, mechanism=DcnMechanism(cpts, exos))
        for use in (lambda: unrolled_scm(bad, 0, 1),
                    lambda: observational_marginal(bad, 2, None, None, 0)):
            with pytest.raises(InvalidInputError, match=match):
                use()

    def test_template_must_feed_both_ends(self):
        mech = traffic_mechanism()
        cpts = tuple(replace(c, exo_parents=(), table=c.table[..., 0, :]) if c.var == "tr2"
                     else c for c in mech.cpts)
        with pytest.raises(InvalidInputError, match="once each"):
            traffic_spec(DcnMechanism(cpts, mech.exos))

    def test_template_names_differ_from_slice_variables(self):
        mech = traffic_mechanism()
        cpts = tuple(replace(c, exo_parents=("d",)) if c.exo_parents else c for c in mech.cpts)
        with pytest.raises(InvalidInputError, match="differ from slice variable"):
            traffic_spec(DcnMechanism(cpts, (replace(mech.exos[0], name="d"),)))

    def test_two_templates_for_one_pair_rejected(self):
        mech = traffic_mechanism()
        w2 = replace(mech.exos[0], name="w2")
        cpts = tuple(replace(c, exo_parents=c.exo_parents + ("w2",),
                             table=np.stack([c.table] * 2, axis=-2)) if c.exo_parents else c
                     for c in mech.cpts)
        with pytest.raises(InvalidInputError, match="same pair"):
            DcnSpec(TRAFFIC_STATE_VARS, traffic_spec().intra_edges, traffic_spec().cross_edges,
                    (frozenset({"tr1", "tr2"}),) * 2, (), DcnMechanism(cpts, mech.exos + (w2,)))

    def test_self_confounder_not_unrolled(self):
        spec = random_dcn_spec(np.random.default_rng(0), n_vars=2, n_static_conf=0,
                               n_dynamic_conf=1)
        assert spec.cross_confounders == (("V2", "V2", 1),)
        for run in (lambda: unrolled_scm(spec, 0, 1),
                    lambda: observational_marginal(spec, 2, None, None, 0)):
            with pytest.raises(InvalidInputError, match="its own later slice"):
                run()

    def test_forward_pass_reads_the_unrolled_scm(self):
        """The dynamic pipelines' slice states equal the unrolled model's
        exact joint, although they skip its checks."""
        for _, spec in zip(range(5), self._dynamic_specs()):
            for t in range(4):
                here = [slice_var_at(n, t) for n in spec.names()]
                want = joint(unrolled_scm(spec, 0, t + 1), here)
                got = observational_marginal(spec, t, None, None, 0)
                assert np.allclose(got.table, want.reorder(here).table, atol=1e-12)


class TestDynamicTimeSpan:
    def test_no_dynamic_confounders(self):
        assert dynamic_time_span(traffic_spec(), ["tr1"]).slices == 0

    def test_empty_set_spans_nothing(self):
        spec = DcnSpec((Var("a"), Var("b")), (), (("a", "b", 1),), (), (("a", "b", 1),))
        assert dynamic_time_span(spec, []) == dynamic_time_span(traffic_spec(), ["tr1"])
        assert dynamic_time_span(spec, []).slices == 0

    def test_self_confounder_infinite(self):
        spec = DcnSpec((Var("a"),), (), (("a", "a", 1),), (), (("a", "a", 1),))
        assert dynamic_time_span(spec, ["a"]).is_infinite

    def test_chain_of_confounders(self):
        spec = DcnSpec((Var("a"), Var("b"), Var("c")), (), (("a", "a", 1),),
                       (), (("a", "b", 1), ("b", "c", 1)))
        got = dynamic_time_span(spec, ["a"]).slices
        # independent check: bidirected reachability on an unrolled window
        g, index = unroll(spec, 0, 5)
        start = index[("a", 0)]
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.siblings_of(v):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        want = max(int(n.split("@")[1]) for n in comp)
        assert got == want == 2


class TestWindowLeft:
    def test_static_window(self):
        spec = traffic_spec()
        assert _window_left(spec, spec.names(), 5, None) == 3

    def test_backward_confounder_extends_window(self):
        spec = DcnSpec((Var("a"), Var("b"), Var("c")), (), (("a", "a", 1),),
                       (), (("a", "b", 1), ("b", "c", 1)))
        # c at t is reachable backward over two confounder hops
        assert _window_left(spec, spec.names(), 5, None) == 5 - 2 - 1

    def test_minimal_window(self):
        """No confounder reach: the window starts at t_x - 2, or at t0
        when that is later."""
        assert _window_left(traffic_spec(), ["d"], 5, None) == 3
        assert _window_left(traffic_spec(), ["d"], 5, 4) == 4


class TestTrafficExperiment:
    def test_a_matrices_match_printed_values(self, traffic):
        """The step conditionals under do(tr1) on a Thursday, computed from
        T1 alone, reproduce the published 8x8 matrices on every previous
        state the chain can reach (columns 2 and 6 have probability zero
        and the published rows there are a continuity convention)."""
        spec, t1, _t2, _ts = traffic
        printed = {
            0: np.tile(np.array([0.0, 0.4, 0.0, 0.3, 0.0, 0.2, 0.0, 0.1]), (8, 1)),
            1: np.tile(np.array([0.2, 0.0, 0.0, 0.1, 0.4, 0.0, 0.0, 0.3]), (8, 1)),
        }
        for val, target in printed.items():
            got = step_kernel_matrix(spec, {"tr1": val}, 3, t1, None, 0)
            assert got is not None
            matrix, reachable = got
            assert reachable.sum() == 6
            assert np.max(np.abs(matrix[:, reachable] - target.T[:, reachable])) < 1e-6

    def test_a_matrix_is_p0_independent(self, traffic):
        spec, t1, _t2, _ts = traffic
        rng = np.random.default_rng(0)
        base, reach = step_kernel_matrix(spec, {"tr1": 0}, 3, t1, None, 0)
        for _ in range(3):
            p0 = Factor(TRAFFIC_STATE_VARS, rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
            other, reach2 = step_kernel_matrix(spec, {"tr1": 0}, 3, t1, p0, 0)
            both = reach & reach2
            assert np.max(np.abs(base[:, both] - other[:, both])) < 1e-9

    def test_mechanism_route_agrees_with_oracle(self):
        """Self-consistency on a concrete traffic parameterization: the
        identified step kernel equals the brute-force mutilated-model
        conditional.  (The printed T1 itself is not realizable by the
        delay-recurrent structure, so this check runs on a realizable
        mechanism; see the experiment-reproduction notes.)"""
        spec = traffic_spec(traffic_mechanism())
        t = mechanism_transition(spec)
        matrix, reachable = step_kernel_matrix(spec, {"tr1": 1}, 3, t, None, 0)
        m4 = unrolled_scm(spec, 0, 4)
        tgt = {slice_var_at("tr1", 3): 1}
        post = joint(intervene(m4, tgt))
        keep = [slice_var_at(n, tslice) for n in spec.names() for tslice in (2, 4)]
        num = marginalize(post, [n for n in post.names() if n not in keep])
        cond = condition(num, [slice_var_at(n, 2) for n in spec.names()])
        want = cond.reorder([slice_var_at(n, 4) for n in spec.names()]
                            + [slice_var_at(n, 2) for n in spec.names()])
        oracle_matrix = want.table.reshape(8, 8)
        assert np.max(np.abs(matrix[:, reachable] - oracle_matrix[:, reachable])) < 1e-9
        assert reachable.all()  # the concrete mechanism has full support

    def test_non_ancestor_outcome_equals_observational(self):
        # an intervention in the future of the outcome slice cannot matter;
        # here: outcome before the intervention is rejected, so test a
        # variable with no directed path instead
        spec = traffic_spec(traffic_mechanism())
        t = mechanism_transition(spec)
        # tr2 at t_x+1 is a descendant of d at t_x, which depends on tr1;
        # instead check that the pre-intervention marginal is untouched via
        # the trajectory property below (this is covered there)
        f = dcn_id_static(spec, {"tr1": 0}, 3, {"d"}, 5, t, None, 0)
        assert f is not None and abs(f.total() - 1.0) < 1e-9


class TestStaticIdentification:
    def test_matches_unrolled_id_and_oracle(self):
        rng = np.random.default_rng(1)
        agree = 0
        for trial in range(12):
            spec = random_dcn_spec(rng, n_vars=3,
                                   n_static_conf=int(rng.integers(0, 3)),
                                   n_dynamic_conf=0)
            xv = spec.names()[int(rng.integers(3))]
            yv = spec.names()[int(rng.integers(3))]
            x = {xv: int(rng.integers(2))}
            t = mechanism_transition(spec)
            got = cdcn_id_static(spec, x, 2, {yv}, 4, t, None, 0)
            ref = unrolled_id_effect(spec, x, 2, {yv}, 4)
            assert (got is None) == (ref is None)
            if got is None:
                continue
            orc = oracle_effect(spec, x, 2, {yv}, 4)
            assert np.max(np.abs(got.reorder([yv]).table
                                 - ref.reorder([slice_var_at(yv, 4)]).table)) < 1e-9
            assert np.max(np.abs(got.reorder([yv]).table
                                 - orc.reorder([slice_var_at(yv, 4)]).table)) < 1e-9
            agree += 1
        assert agree >= 6

    def test_incomplete_vs_complete(self, fig61_spec):
        t = mechanism_transition(fig61_spec)
        plain = dcn_id_static(fig61_spec, {"X": 1}, 2, {"C"}, 4, t, None, 0)
        complete = cdcn_id_static(fig61_spec, {"X": 1}, 2, {"C"}, 4, t, None, 0)
        assert plain is None
        assert complete is not None
        orc = oracle_effect(fig61_spec, {"X": 1}, 2, {"C"}, 4)
        assert np.max(np.abs(complete.reorder(["C"]).table
                             - orc.reorder([slice_var_at("C", 4)]).table)) < 1e-9

    def test_fig61_unrolled_hedge_structure(self, fig61_spec):
        # the step query has a hedge while the original query has none
        g, index = unroll(fig61_spec, 0, 4)
        assert find_hedge(g, {index[("X", 2)]}, {index[("C", 4)]}) is None
        step_outcome = {index[(n, 3)] for n in fig61_spec.names()}
        assert find_hedge(g, {index[("X", 2)]}, step_outcome) is not None

    def test_truly_hedged_query_fails_in_both(self):
        bare = DcnSpec(
            slice_vars=(Var("a"), Var("b")),
            intra_edges=(("a", "b"),),
            cross_edges=(("b", "b", 1),),
            intra_confounders=(frozenset({"a", "b"}),),
        )
        spec = random_mechanism_for(bare, np.random.default_rng(3))
        t = mechanism_transition(spec)
        assert cdcn_id_static(spec, {"a": 0}, 2, {"b"}, 4, t, None, 0) is None
        g, index = unroll(spec, 0, 4)
        assert find_hedge(g, {index[("a", 2)]}, {index[("b", 4)]}) is not None

    def test_static_pipelines_match_unrolled_oracle_late_window(self):
        """With t_x = 5 the windows start after t0 and leave the slices
        before them latent.  Every static C-component stays inside one
        slice, so the window graph identifies exactly, and the terms read
        off the mechanism are reduced by the graph unrolled from t0."""
        identified, recursed = _pipelines_match_unrolled_oracle("static", 5)
        assert min(identified.values()) >= 100 and recursed >= 68

    def test_random_schedule_evaluates_on_the_window_joint(self, traffic):
        """A schedule is any chain, not Markov to the unrolled graph, so
        the terms read off the chain must not be reduced: the step kernel
        and the complete pipeline equal the identified step evaluated on
        the window joint of the chain, P(keep@t_x+1 | V@t_x-1, do(X))
        applied to the state at t_x - 1."""
        spec = traffic[0]
        rng = np.random.default_rng(77)
        sched = [TransitionMatrix(spec.slice_vars, rng.dirichlet(np.ones(8), size=8).T)
                 for _ in range(8)]
        t_x = 4
        for x in ({"tr1": 0}, {"tr2": 1}, {"d": 1}):
            t_left = _window_left(spec, x, t_x, 0)
            joint_w = chain_window_joint(spec, sched, t_left, t_x + 1)
            g, index = unroll(spec, t_left, t_x + 1)
            tgt = {index[(n, t_x)]: v for n, v in x.items()}
            prev = [index[(n, t_x - 1)] for n in spec.names()]

            def kernel(keep):
                outcome = frozenset(keep) | frozenset(prev)
                res = id_effect(g, frozenset(tgt), outcome)
                assert res.identified
                return condition(effect_factor(res.expr, joint_w, tgt, outcome), prev)

            matrix, reachable = step_kernel_matrix(spec, x, t_x, sched, None, 0)
            nxt = [index[(n, t_x + 1)] for n in spec.names()]
            want = kernel(nxt).reorder(nxt + prev).table.reshape(8, 8)
            assert reachable.all()
            assert np.max(np.abs(matrix - want)) < 1e-12

            state = chain_window_joint(spec, sched, t_x - 1, t_x - 1)
            for yv in spec.names():
                y_at = index[(yv, t_x + 1)]
                post = multiply(kernel(ancestors(g, {y_at}) & set(nxt)), state)
                want_y = marginalize(post, [n for n in post.names() if n != y_at])
                got = cdcn_id_static(spec, x, t_x, {yv}, t_x + 1, sched, None, 0)
                assert np.max(np.abs(got.table - want_y.table)) < 1e-12

    def test_window_too_small(self):
        spec = traffic_spec(traffic_mechanism())
        t = mechanism_transition(spec)
        with pytest.raises(WindowTooSmallError):
            dcn_id_static(spec, {"tr1": 0}, 0, {"d"}, 2, t, None, 0)
        for t_x in (-1, 0):  # the kernel would read slice t_x - 1, before t0
            with pytest.raises(WindowTooSmallError):
                step_kernel_matrix(spec, {"tr1": 0}, t_x, t, None, 0)


class TestDynamicIdentification:
    def test_matches_unrolled_id_and_oracle(self):
        rng = np.random.default_rng(4)
        agree = 0
        trial = 0
        while agree < 5 and trial < 40:
            trial += 1
            spec = dyn_spec([("V1", "V2", 1)], seed=int(rng.integers(10_000)))
            x = {"V1": int(rng.integers(2))}
            span = dynamic_time_span(spec, x.keys())
            assert span.slices == 1
            t_x, t_y = 2, 4
            got = cdcn_id_dynamic(spec, x, t_x, {"V2"}, t_y, None, None, 0)
            ref = unrolled_id_effect(spec, x, t_x, {"V2"}, t_y)
            assert (got is None) == (ref is None)
            if got is None:
                continue
            orc = oracle_effect(spec, x, t_x, {"V2"}, t_y)
            assert np.max(np.abs(got.reorder(["V2"]).table
                                 - orc.reorder([slice_var_at("V2", t_y)]).table)) < 1e-9
            agree += 1
        assert agree >= 5

    def test_window_without_backward_reach(self):
        """X without backward confounder reach (V1@t <-> V2@t+1 runs only
        forward from V1): every identified step's window must still start
        at t_x - 2, not t_x - 1."""
        spec = random_dcn_spec(np.random.default_rng(36), n_vars=2,
                               n_static_conf=0, n_dynamic_conf=1)
        assert spec.cross_confounders == (("V1", "V2", 1),)
        for runner, t_y in ((dcn_id_dynamic, 5), (cdcn_id_dynamic, 6)):
            got = runner(spec, {"V1": 1}, 2, {"V1"}, t_y, None, None, 0)
            want = post_intervention_slices(spec, {"V1": 1}, 2, ["V1"], t_y)
            assert got is not None
            assert np.max(np.abs(got.reorder(["V1"]).table - want.table)) < 1e-9

    def test_dynamic_pipelines_match_unrolled_oracle(self):
        identified, recursed = _pipelines_match_unrolled_oracle("dynamic", 2)
        assert min(identified.values()) >= 20 and recursed >= 15

    def test_dynamic_pipelines_match_unrolled_oracle_late_window(self):
        """The same with t_x = 5, so that the windows start after t0 and
        leave the slices before them latent.  A window's distribution is
        then not Markov to its own graph: the steps must be identified on
        its latent projection, and a Q-factor term reduced only where
        d-separation in the graph unrolled from t0 allows it."""
        identified, recursed = _pipelines_match_unrolled_oracle("dynamic", 5)
        assert min(identified.values()) >= 20 and recursed >= 15

    def test_second_order_confounders_match_unrolled_oracle(self):
        """A confounder of lag 2 stays in flight across two slice
        boundaries of the forward pass and of a window's left edge."""
        identified = 0
        for seed in range(80):
            rng = np.random.default_rng(seed)
            bare = random_dcn_spec(rng, n_vars=2, n_static_conf=int(rng.integers(0, 2)))
            a, b = (str(n) for n in rng.choice(list(bare.names()), 2))
            spec = random_mechanism_for(
                DcnSpec(bare.slice_vars, bare.intra_edges, bare.cross_edges,
                        bare.intra_confounders, ((a, b, 2),)), rng)
            if dynamic_time_span(spec, spec.names()).is_infinite:
                continue
            names = spec.names()
            x = {names[int(rng.integers(2))]: int(rng.integers(2))}
            for t_x in (2, 5):
                series = trajectory(spec, None, None, (x, t_x), t_x + 4)
                identified += 1
                for t, f in enumerate(series):
                    ref = post_intervention_slices(spec, x, t_x, names, t)
                    assert np.max(np.abs(f.reorder(names).table - ref.table)) < 1e-9
        assert identified >= 20

    def test_p0_refused(self):
        """A slice state cannot carry the confounders in flight, so no p0
        can start a spec with dynamic confounders, not even the
        mechanism's own slice-0 state."""
        spec = sweep_spec()
        p0 = observational_marginal(spec, 0, None, None, 0)
        calls = [
            lambda: trajectory(spec, None, p0, ({"V1": 1}, 1), 3),
            lambda: trajectory(spec, None, p0, ({"V1": 1}, 2), 3),
            lambda: trajectory(spec, None, p0, None, 3),
            lambda: dcn_id_dynamic(spec, {"V1": 1}, 2, {"V3"}, 4, None, p0, 0),
            lambda: observational_marginal(spec, 2, None, p0, 0),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="confounders in flight"):
                call()

    def test_schedule_refused(self):
        """With a mechanism, the mechanism steps a spec with dynamic
        confounders, so a schedule there is refused, not ignored."""
        spec = sweep_spec()
        tm = TransitionMatrix((Var("Z"),), np.eye(2))
        calls = [
            lambda: trajectory(spec, tm, None, None, 3),
            lambda: cdcn_id_dynamic(spec, {"V1": 1}, 2, {"V3"}, 4, tm),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="schedule is refused"):
                call()

    def test_steps_need_the_mechanism(self):
        """Without its mechanism a dynamic spec's observational slices
        come from the chain of its schedule, but no step is identified on
        them: the chain does not carry the confounders in flight."""
        spec = replace(sweep_spec(), mechanism=None)
        tm = TransitionMatrix(spec.slice_vars, np.full((8, 8), 1 / 8))
        assert len(trajectory(spec, tm, None, None, 3)) == 4
        for call in (lambda: trajectory(spec, tm, None, ({"V1": 1}, 2), 4),
                     lambda: dcn_id_dynamic(spec, {"V1": 1}, 2, {"V3"}, 4, tm, None, 0),
                     lambda: cdcn_id_dynamic(spec, {"V1": 1}, 2, {"V3"}, 4, tm, None, 0)):
            with pytest.raises(UnsupportedModelError, match="slice mechanism"):
                call()

    def test_outcome_inside_span_rejected(self):
        spec = dyn_spec([("V1", "V2", 1)], seed=7)
        with pytest.raises(UnsupportedQueryError):
            cdcn_id_dynamic(spec, {"V1": 0}, 2, {"V2"}, 3, None, None, 0)

    def test_degenerate_span_equals_static(self):
        rng = np.random.default_rng(8)
        spec = random_dcn_spec(rng, n_vars=2, n_static_conf=1, n_dynamic_conf=0)
        x = {spec.names()[0]: 1}
        y = {spec.names()[1]}
        a = cdcn_id_static(spec, x, 2, y, 4, None, None, 0)
        b = cdcn_id_dynamic(spec, x, 2, y, 4, None, None, 0)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.max(np.abs(a.table - b.reorder(a.names()).table)) < 1e-9

    def test_later_step_hedged(self, monkeypatch):
        """V1 -> V2 -> V3 one slice apart, V1 <-> V3 two slices apart and
        V2 <-> V3 one slice apart: the step into t_x + 1 is identified, but
        the step into t_x + 2 is hedged, as V1@t_x now shares a district
        with V3@t_x+2.  The plain pipeline then returns None and the
        trajectory refuses; the complete one steps over the dynamic time
        span and matches the unrolled oracle."""
        bare = DcnSpec((Var("V1"), Var("V2"), Var("V3")), (),
                       (("V1", "V2", 1), ("V2", "V3", 1)), (),
                       (("V1", "V3", 2), ("V2", "V3", 1)))
        spec = random_mechanism_for(bare, np.random.default_rng(0))
        x, t_x, t_y = {"V1": 1}, 2, 6
        steps = []
        real = dcn._identified_kernel

        def spy(*args):
            out = real(*args)
            steps.append((args[4], out is not None))
            return out

        monkeypatch.setattr(dcn, "_identified_kernel", spy)
        assert dcn_id_dynamic(spec, x, t_x, {"V3"}, t_y, None, None, 0) is None
        assert steps == [(t_x + 1, True), (t_x + 2, False)]
        with pytest.raises(UnsupportedQueryError, match="step conditional"):
            trajectory(spec, None, None, (x, t_x), t_y)
        got = cdcn_id_dynamic(spec, x, t_x, {"V3"}, t_y, None, None, 0)
        want = post_intervention_slices(spec, x, t_x, ["V3"], t_y)
        assert np.max(np.abs(got.reorder(["V3"]).table - want.table)) < 1e-9

    def test_post_intervention_transition_keeps_changing(self):
        """With a lagged confounder out of X the one-step transition after
        the intervention differs from the observational one."""
        spec = dyn_spec([("V1", "V2", 1)], seed=11)
        t_x = 2
        m = unrolled_scm(spec, 0, t_x + 2)
        tgt = {slice_var_at("V1", t_x): 0}
        post = joint(intervene(m, tgt))
        obs = joint(m)

        def step_conditional(j, t):
            keep = [slice_var_at(n, s) for n in spec.names() for s in (t, t + 1)]
            f = marginalize(j, [n for n in j.names() if n not in keep])
            c = condition(f, [slice_var_at(n, t) for n in spec.names()])
            return c.reorder([slice_var_at(n, t + 1) for n in spec.names()]
                             + [slice_var_at(n, t) for n in spec.names()]).table.reshape(4, 4)

        m_post = step_conditional(post, t_x + 1)
        m_obs = step_conditional(obs, t_x + 1)
        assert np.max(np.abs(m_post - m_obs)) > 1e-4


class TestRuleThreeAnswer:
    """When no X@t_x is an ancestor of Y@t_y, P(Y@t_y | do(X)) = P(Y@t_y)
    by rule 3 of the do-calculus, and the complete pipelines answer it off
    the pass without identifying a window; the plain pipelines still
    identify their full-slice step."""

    @staticmethod
    def _spec(**changes):
        """a -> b within the slice; a, b and c each carried to the next
        slice, c@t-1 -> a@t; b <-> c hidden.  Only c's earlier slices are
        ancestors of c, so neither a nor b reaches it."""
        bare = DcnSpec((Var("a"), Var("b"), Var("c")), (("a", "b"),),
                       (("a", "a", 1), ("b", "b", 1), ("c", "c", 1), ("c", "a", 1)),
                       (frozenset({"b", "c"}),))
        return replace(random_mechanism_for(bare, np.random.default_rng(5)), **changes)

    @pytest.mark.parametrize("t_x", [2, 5])
    @pytest.mark.parametrize("kind", ["static", "dynamic"])
    def test_generator_queries(self, kind, t_x):
        """On the 150-spec generators every complete query whose X@t_x is
        not an ancestor of Y@t_y is the pass's P(Y@t_y), within 1e-12 and
        with its partial flag, and neither identifies nor enters the
        recursion; every complete query returns None exactly when the
        query has a hedge in the graph unrolled from slice 0."""
        cdcn = cdcn_id_dynamic if kind == "dynamic" else cdcn_id_static
        seen = Counter()
        for spec, x, yv, t_y in _generator_queries(kind, t_x):
            g, index = unroll(spec, 0, t_y)
            targets = frozenset(index[n, t_x] for n in x)
            outcome = frozenset({index[yv, t_y]})
            with spied("_identify", "_post_intervention") as calls:
                try:
                    got = cdcn(spec, x, t_x, {yv}, t_y)
                except UnsupportedQueryError:  # outcome inside the dynamic time span
                    continue
            assert (got is None) == (not id_effect(g, targets, outcome).identified)
            if targets & ancestors(g, outcome):
                seen["recursion"] += 1
                continue
            assert not calls
            state = observational_marginal(spec, t_y, None, None, 0)
            want = marginalize(state, [n for n in spec.names() if n != yv])
            assert got.names() == (yv,) and got.partial == want.partial
            assert np.max(np.abs(got.table - want.table)) <= 1e-12
            seen["rule 3"] += 1
        assert seen == ({"rule 3": 82, "recursion": 68} if kind == "static"
                        else {"rule 3": 23, "recursion": 15}), seen

    def test_two_intervened_variables(self):
        """X of two variables: when neither reaches Y the complete
        pipelines answer by rule 3; when one does they take the
        recursion.  Both equal the unrolled oracle."""
        spec = self._spec()
        for x, reaches in (({"a": 1, "b": 0}, False), ({"a": 1, "c": 0}, True)):
            want = post_intervention_slices(spec, x, 2, ["c"], 5)
            for run in (cdcn_id_static, cdcn_id_dynamic):
                with spied("_identify", "_post_intervention") as calls:
                    got = run(spec, x, 2, {"c"}, 5)
                assert bool(calls) == reaches
                assert got.names() == ("c",) and not got.partial
                assert np.max(np.abs(got.table - want.table)) < 1e-12

    def test_schedule_contradicting_the_graph_is_refused(self):
        """P(Y) of a chain is the effect only when the chain respects the
        graph, so the closure the recursion checks is checked here too: a
        schedule whose steps into the ancestors of Y depend on
        non-ancestors is refused, before any window is identified.  The
        mechanism's own transition is accepted."""
        spec = self._spec()
        rows = np.random.default_rng(100).dirichlet(np.ones(8), size=8)
        dense = TransitionMatrix.from_rows(spec.slice_vars, rows)
        x = {"a": 1, "b": 0}
        want = post_intervention_slices(spec, x, 2, ["c"], 5)
        for run in (cdcn_id_static, cdcn_id_dynamic):
            with spied("_identify", "_post_intervention") as calls:
                with pytest.raises(InvalidInputError, match="non-ancestors"):
                    run(spec, x, 2, {"c"}, 5, dense)
            assert not calls
            got = run(spec, x, 2, {"c"}, 5, mechanism_transition(spec))
            assert np.max(np.abs(got.table - want.table)) < 1e-12

    def test_dynamic_spec_without_mechanism_is_refused(self):
        """A schedule's chain does not carry dynamic confounders in flight,
        so a scheduled dynamic spec without a mechanism is refused on a
        query whose X cannot reach Y as on any other."""
        spec = self._spec(mechanism=None, cross_confounders=(("a", "b", 1),))
        tm = TransitionMatrix(spec.slice_vars, np.full((8, 8), 1 / 8))
        with spied("_identify", "_post_intervention") as calls:
            with pytest.raises(UnsupportedModelError, match="slice mechanism"):
                cdcn_id_dynamic(spec, {"a": 1}, 2, {"c"}, 5, tm)
        assert not calls


class TestTrajectory:
    def test_horizon_zero(self):
        spec = traffic_spec(traffic_mechanism())
        p0 = initial_distribution(spec)
        series = trajectory(spec, mechanism_transition(spec), p0, None, 0)
        assert len(series) == 1
        assert close_within(series[0], p0, 1e-12)

    def test_no_mechanism_and_no_schedule(self):
        """Without a mechanism or a schedule nothing steps the chain: slice
        t0 alone is uniform, and any later slice is refused."""
        spec = traffic_spec()
        (only,) = trajectory(spec, None, None, None, 0)
        assert only.names() == spec.names() and np.all(only.table == 1 / 8)
        with pytest.raises(InvalidInputError, match=r"a transition matrix \(or schedule\) is required"):
            trajectory(spec, None, None, None, 2)

    def test_intervention_at_the_horizon(self, traffic):
        """do() at the last slice ends the series with the intervention
        slice, as the same call with a later horizon begins."""
        spec, t1, t2, _ts = traffic
        sched = weekday_schedule(t1, t2)
        short = trajectory(spec, sched, None, ({"tr1": 1}, 4), 4)
        longer = trajectory(spec, sched, None, ({"tr1": 1}, 4), 6)
        assert len(short) == 5
        for a, b in zip(short, longer):
            assert a.names() == b.names() and np.array_equal(a.table, b.table)
        assert np.all(short[4].table[0] == 0)

    def test_p0_is_checked(self, traffic):
        """p0 must be a distribution over the slice variables with their
        domains, in any order; a wrong domain, a wrong variable or a total
        other than 1 is refused, whether the mechanism or a schedule
        steps it."""
        _spec, t1, _t2, _ts = traffic
        mech = zero_context_spec()
        for spec, sched, x, y in ((mech, None, {"V1": 1}, "V2"), (traffic_spec(), t1, {"tr1": 1}, "d")):
            names = spec.names()
            wide = Factor((Var(names[0], 3),) + spec.slice_vars[1:], np.full((3, 2, 2), 1 / 12))
            other = Factor.uniform(spec.slice_vars[:-1] + (Var("W"),))
            for p0 in (wide, other, Factor.ones(spec.slice_vars)):
                for call in (lambda: trajectory(spec, sched, p0, None, 3),
                             lambda: cdcn_id_static(spec, x, 2, {y}, 5, sched, p0),
                             lambda: step_kernel_matrix(spec, x, 2, sched, p0)):
                    with pytest.raises(InvalidInputError, match="p0 must be a distribution"):
                        call()
            p0 = Factor(spec.slice_vars, np.random.default_rng(3).dirichlet(np.ones(8)).reshape(2, 2, 2))
            shuffled = p0.reorder(names[::-1])
            for a, b in zip(trajectory(spec, sched, p0, (x, 2), 4),
                            trajectory(spec, sched, shuffled, (x, 2), 4)):
                assert np.array_equal(a.table, b.table)

    def test_slices_before_intervention_untouched(self, traffic):
        spec, t1, t2, _ts = traffic
        sched = weekday_schedule(t1, t2)
        base = trajectory(spec, sched, None, None, 13)
        bumped = trajectory(spec, sched, None, ({"tr1": 1}, 6), 13)
        for t in range(6):
            assert np.array_equal(base[t].table, bumped[t].table)

    def test_slices_before_intervention_untouched_without_schedule(self):
        """A static spec given only by its mechanism reads its slices off
        the forward pass over the mechanism: the prefix is the unintervened
        trajectory bit for bit, and the whole trajectory agrees with the
        chain of the mechanism's transition matrix."""
        spec = traffic_spec(traffic_mechanism())
        base = trajectory(spec, None, None, None, 12)
        bumped = trajectory(spec, None, None, ({"tr1": 1}, 10), 12)
        for t in range(10):
            assert np.array_equal(base[t].table, bumped[t].table)
        given = trajectory(spec, mechanism_transition(spec), None, ({"tr1": 1}, 10), 12)
        for got, want in zip(bumped, given):
            assert np.max(np.abs(got.table - want.table)) < 1e-12

    def test_post_intervention_transitions_equal_t(self):
        """Static confounders: one-step transitions measured from the
        brute-force post-intervention joint equal T from t_x+2 on."""
        spec = traffic_spec(traffic_mechanism())
        t = mechanism_transition(spec)
        t_x, horizon = 2, 5
        m = unrolled_scm(spec, 0, horizon)
        tgt = {slice_var_at("tr1", t_x): 1}
        post = joint(intervene(m, tgt))
        for step in range(t_x + 1, horizon):
            keep = [slice_var_at(n, s) for n in spec.names()
                    for s in (step, step + 1)]
            f = marginalize(post, [n for n in post.names() if n not in keep])
            c = condition(f, [slice_var_at(n, step) for n in spec.names()])
            got = c.reorder([slice_var_at(n, step + 1) for n in spec.names()]
                            + [slice_var_at(n, step) for n in spec.names()])
            assert np.max(np.abs(got.table.reshape(8, 8) - t.matrix)) < 1e-9

    def test_trajectory_matches_oracle_slicewise(self):
        spec = traffic_spec(traffic_mechanism())
        t = mechanism_transition(spec)
        t_x, horizon = 2, 5
        series = trajectory(spec, t, None, ({"tr1": 1}, t_x), horizon)
        m = unrolled_scm(spec, 0, horizon)
        tgt = {slice_var_at("tr1", t_x): 1}
        post = joint(intervene(m, tgt))
        for tt in range(horizon + 1):
            keep = [slice_var_at(n, tt) for n in spec.names()]
            want = marginalize(post, [n for n in post.names() if n not in keep])
            want = want.reorder([slice_var_at(n, tt) for n in spec.names()])
            assert np.max(np.abs(series[tt].reorder(spec.names()).table
                                 - want.table)) < 1e-9

    def test_schedule_state_vars_must_be_slice_vars(self, traffic):
        """A matrix is read in the slice variables' order, so one over
        another order (here the same chain with its cells permuted to
        match) or over other names is refused, not misread."""
        spec, t1, _t2, _ts = traffic
        cells = t1.matrix.reshape((2,) * 6).transpose(2, 0, 1, 5, 3, 4).reshape(8, 8)
        permuted = TransitionMatrix((Var("d"), Var("tr1"), Var("tr2")), cells)
        renamed = TransitionMatrix((Var("x"), Var("y"), Var("z")), t1.matrix)
        for tm in (permuted, renamed):
            with pytest.raises(InvalidInputError, match="slice variables"):
                trajectory(spec, tm, None, None, 4)
            with pytest.raises(InvalidInputError, match="slice variables"):
                trajectory(spec, lambda t, tm=tm: tm, None, ({"tr1": 1}, 2), 4)

    def test_steady_state_convergence(self, traffic):
        spec, _t1, _t2, ts = traffic
        series = trajectory(spec, ts, None, ({"tr1": 1}, 15), 200)
        last = series[-1].reorder(spec.names()).table.reshape(-1)
        prev = series[-2].reorder(spec.names()).table.reshape(-1)
        fixed = ts.matrix @ last - last
        assert np.max(np.abs(fixed)) < 1e-9
        assert np.max(np.abs(last - prev)) < 1e-9


class TestInterventionChecks:
    """Every DCN entry point checks X the same way: an empty set, an
    unknown slice variable, and a value that is not an integer of its
    variable's domain (a bool included) are refused with
    ``InvalidInputError``; a numpy integer is accepted."""

    @staticmethod
    def _entry_points():
        spec = traffic_spec(traffic_mechanism())
        schedule = mechanism_transition(spec)
        return {
            "dcn_id_static": lambda x: dcn_id_static(spec, x, 2, {"d"}, 4),
            "cdcn_id_static": lambda x: cdcn_id_static(spec, x, 2, {"d"}, 4),
            "dcn_id_dynamic": lambda x: dcn_id_dynamic(spec, x, 2, {"d"}, 4),
            "cdcn_id_dynamic": lambda x: cdcn_id_dynamic(spec, x, 2, {"d"}, 4),
            "transport": lambda x: transport(spec, TransportSpec(()), x, 3, {"d"}, 5, schedule),
            "trajectory": lambda x: trajectory(spec, schedule, None, (x, 2), 4),
            "step_kernel_matrix": lambda x: step_kernel_matrix(spec, x, 2, schedule),
        }

    ENTRY_POINTS = ("dcn_id_static", "cdcn_id_static", "dcn_id_dynamic", "cdcn_id_dynamic",
                    "transport", "trajectory", "step_kernel_matrix")

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("x", [{}, {"nope": 0}, {"tr1": 0.5}, {"tr1": 1.0}, {"tr1": True},
                                   {"tr1": False}, {"tr1": 2}, {"tr1": -1}, {"tr1": "1"},
                                   {"tr1": None}, {"tr1": 0, "tr2": np.float64(1)}],
                             ids=repr)
    def test_bad_intervention_refused(self, entry, x):
        with pytest.raises(InvalidInputError):
            self._entry_points()[entry](x)

    def test_numpy_integer_values_accepted(self):
        entry_points = self._entry_points()
        assert tuple(entry_points) == self.ENTRY_POINTS
        for name, run in entry_points.items():
            got, want = run({"tr1": np.int64(1)}), run({"tr1": 1})
            assert _tables_of(got) == _tables_of(want), name


def _tables_of(out):
    """The bytes of an entry point's answer, for comparisons."""
    if out is None:
        return None
    if isinstance(out, tuple):
        return [np.asarray(a).tobytes() for a in out]
    return [f.table.tobytes() for f in (out if isinstance(out, list) else [out])]


class TestTransport:
    def _target_and_source(self):
        target = traffic_spec(traffic_mechanism())
        # the source domain differs in the road-1 mechanism
        src_mech = traffic_mechanism()
        tr1 = next(c for c in src_mech.cpts if c.var == "tr1")
        bumped = np.asarray(tr1.table).copy()
        bumped[..., 0], bumped[..., 1] = bumped[..., 1], bumped[..., 0].copy()
        cpts = tuple(c if c.var != "tr1" else
                     type(c)("tr1", c.intra_parents, c.cross_parents,
                             c.exo_parents, bumped)
                     for c in src_mech.cpts)
        source = traffic_spec(type(src_mech)(cpts, src_mech.exos))
        return target, source

    def test_traffic_selection_produces_formula(self):
        target, source = self._target_and_source()
        t = mechanism_transition(target)
        tspec = TransportSpec(
            (SelectionVar("s", (("tr1", 0),)), SelectionVar("s2", (("tr1", 1),))),
            (frozenset({"tr1"}),), source)
        f = transport(target, tspec, {"tr1": 1}, 3, {"d"}, 6, t, None, 0)
        assert f is not None
        want = dcn_id_static(target, {"tr1": 1}, 3, {"d"}, 6, t, None, 0)
        assert close_within(f, want, 1e-12)

    def test_empty_selection_reduces_to_plain_identification(self):
        target = traffic_spec(traffic_mechanism())
        t = mechanism_transition(target)
        tspec = TransportSpec((), (), None)
        f = transport(target, tspec, {"tr1": 0}, 3, {"d"}, 6, t, None, 0)
        want = dcn_id_static(target, {"tr1": 0}, 3, {"d"}, 6, t, None, 0)
        assert close_within(f, want, 0.0)

    def test_selection_at_confounded_partner_rejected(self):
        target, source = self._target_and_source()
        t = mechanism_transition(target)
        tspec = TransportSpec((SelectionVar("s", (("tr2", 0),)),),
                              (frozenset({"tr1"}),), source)
        with pytest.raises(UnsupportedTransportError):
            transport(target, tspec, {"tr1": 1}, 3, {"d"}, 6, t, None, 0)

    def test_unknown_slice_variable_rejected(self):
        """Selection variables and source experiments must name slice
        variables; an offset outside the window is allowed."""
        target, source = self._target_and_source()
        t = mechanism_transition(target)
        for tspec in (TransportSpec((SelectionVar("s", (("zz", 0),)),), (), source),
                      TransportSpec((SelectionVar("s", (("tr1", 0),)),),
                                    (frozenset({"zz"}),), source)):
            with pytest.raises(InvalidInputError, match="'zz'|unknown slice variable"):
                transport(target, tspec, {"tr1": 1}, 3, {"d"}, 6, t, None, 0)
        far = TransportSpec((SelectionVar("s", (("tr1", 40),)),), (), source)
        want = dcn_id_static(target, {"tr1": 1}, 3, {"d"}, 6, t, None, 0)
        assert close_within(transport(target, far, {"tr1": 1}, 3, {"d"}, 6, t, None, 0),
                            want, 1e-12)

    def _hedged_pair(self):
        """Target with a bow over (a, b): the step query is hedged, so the
        kernel must come from the source experiment."""
        bare = DcnSpec(
            slice_vars=(Var("a"), Var("b"), Var("c")),
            intra_edges=(("a", "b"), ("a", "c")),
            cross_edges=(("b", "b", 1),),
            intra_confounders=(frozenset({"a", "b"}),),
        )
        target = random_mechanism_for(bare, np.random.default_rng(31))
        source = random_mechanism_for(bare, np.random.default_rng(32))
        # make the source differ from the target only in c's mechanism at
        # the intervention slice (where the selection variable points)
        cpts = tuple(tc if tc.var != "c" else
                     next(sc for sc in source.mechanism.cpts if sc.var == "c")
                     for tc in target.mechanism.cpts)
        source = DcnSpec(bare.slice_vars, bare.intra_edges, bare.cross_edges,
                         bare.intra_confounders, (),
                         type(target.mechanism)(cpts, target.mechanism.exos))
        return target, source

    def test_source_experiment_bridges_target_hedge(self):
        target, source = self._hedged_pair()
        t = mechanism_transition(target)
        tspec = TransportSpec((SelectionVar("s", (("c", 0),)),),
                              (frozenset({"a"}),), source)
        assert dcn_id_static(target, {"a": 1}, 2, {"b"}, 4, t, None, 0) is None
        f = transport(target, tspec, {"a": 1}, 2, {"b"}, 4, t, None, 0)
        assert f is not None
        orc = oracle_effect(target, {"a": 1}, 2, {"b"}, 4)
        assert np.max(np.abs(f.reorder(["b"]).table
                             - orc.reorder([slice_var_at("b", 4)]).table)) < 1e-9

    def test_source_experiment_without_schedule(self):
        """A mechanism-only target needs no transition matrix: the steps
        after the source experiment follow the mechanism's transition."""
        target, source = self._hedged_pair()
        tspec = TransportSpec((SelectionVar("s", (("c", 0),)),),
                              (frozenset({"a"}),), source)
        f = transport(target, tspec, {"a": 1}, 2, {"b"}, 4, None, None, 0)
        assert f is not None
        given = transport(target, tspec, {"a": 1}, 2, {"b"}, 4,
                          mechanism_transition(target), None, 0)
        assert close_within(f, given, 1e-12)
        orc = oracle_effect(target, {"a": 1}, 2, {"b"}, 4)
        assert np.max(np.abs(f.reorder(["b"]).table
                             - orc.reorder([slice_var_at("b", 4)]).table)) < 1e-9

    def test_selection_reaching_the_step_outcome_fails(self):
        """A selection variable d-connected to the step outcome under do(X)
        makes the source experiment inadmissible: no answer."""
        target, source = self._hedged_pair()
        t = mechanism_transition(target)
        tspec = TransportSpec((SelectionVar("s", (("b", 1),)),), (frozenset({"a"}),), source)
        assert transport(target, tspec, {"a": 1}, 2, {"b"}, 4, t, None, 0) is None

    def test_unavailable_experiment_fails(self):
        target, source = self._hedged_pair()
        t = mechanism_transition(target)
        tspec = TransportSpec((SelectionVar("s", (("c", 0),)),), (), source)
        assert transport(target, tspec, {"a": 1}, 2, {"b"}, 4, t, None, 0) is None

    def test_source_experiment_needs_the_source_mechanism(self):
        """A hedged step bridged by a source experiment reads the source
        mechanism: no source spec, or one without a mechanism, is refused."""
        target, source = self._hedged_pair()
        bare = replace(source, mechanism=None)
        for src in (None, bare):
            tspec = TransportSpec((SelectionVar("s", (("c", 0),)),), (frozenset({"a"}),), src)
            with pytest.raises(UnsupportedTransportError, match="require the source mechanism"):
                transport(target, tspec, {"a": 1}, 2, {"b"}, 4, None, None, 0)

    def test_selection_reach_matches_augmented_d_separation(self):
        """s-admissibility as ``transport`` reads it: root selection
        variables pointing at their targets are d-separated from an outcome
        under do(X), nothing conditioned on, iff no target outside X has a
        descendant in the outcome once X is cut off.  Checked against
        d-separation in the selection-augmented graph with the edges into X
        cut, on seeded random ADMGs."""
        rng = np.random.default_rng(31)
        admissible = 0
        for _ in range(2500):
            g = random_admg(rng, int(rng.integers(3, 8)), edge_prob=0.4, max_confounders=3)
            names, n = g.names(), len(g.vars)
            role = rng.integers(0, 3, size=n)  # in X, in the outcome, neither
            role[rng.integers(n)] = 1
            x, outcome = ({names[i] for i in range(n) if role[i] == r} for r in range(2))
            points = [[names[i] for i in range(n) if rng.random() < 0.3]
                      for _ in range(int(rng.integers(1, 4)))]
            sel = [f"S{k}" for k in range(len(points))]
            aug = Admg(g.vars + tuple(Var(s) for s in sel),
                       g.directed | {(s, t) for s, ts in zip(sel, points) for t in ts},
                       g.bidirected)
            want = d_separated(mutilate(aug, remove_incoming=x), sel, outcome)
            free = g._all & ~_mask(g, x, "x")
            pointed = _mask(g, itertools.chain.from_iterable(points), "points")
            got = not _reach(g._ch, free, pointed & free) & _mask(g, outcome, "outcome")
            assert got == want, (g, x, outcome, points)
            admissible += want
        assert 500 < admissible < 2000, admissible  # both answers are common

    def test_every_selection_target_of_the_hedged_pair(self):
        """One selection variable at each slice variable and offset: the
        source experiment bridges the hedge exactly when the selection
        variable is d-separated from the step outcome in the augmented
        window with the edges into X cut, and a target in X's bidirected
        component is refused."""
        target, source = self._hedged_pair()
        t = mechanism_transition(target)
        x, t_x = {"a": 1}, 2
        window, _index = unroll(target, 0, t_x + 1)  # the window lemma's: slices 0..3
        outcome = {slice_var_at(n, s) for n in target.names() for s in (t_x - 1, t_x + 1)}
        kinds = Counter()
        for var, off in itertools.product(target.names(), range(-2, 3)):
            tspec = TransportSpec((SelectionVar("s", ((var, off),)),), (frozenset(x),), source)
            if (var, off) == ("b", 0):  # a <-> b at slice t_x
                with pytest.raises(UnsupportedTransportError, match="intervened bidirected"):
                    transport(target, tspec, x, t_x, {"b"}, 4, t, None, 0)
                kinds["refused"] += 1
                continue
            edges = set(window.directed)
            if t_x + off <= t_x + 1:  # off 2 points outside the window
                edges.add(("s", slice_var_at(var, t_x + off)))
            aug = Admg(window.vars + (Var("s"),), edges, window.bidirected)
            want = d_separated(mutilate(aug, remove_incoming={slice_var_at("a", t_x)}),
                               {"s"}, outcome)
            got = transport(target, tspec, x, t_x, {"b"}, 4, t, None, 0)
            assert (got is not None) == want, (var, off)
            kinds[want] += 1
        assert kinds == {True: 6, False: 8, "refused": 1}, kinds


class TestPaperSeries:
    def test_weekly_pattern_settles(self, traffic):
        """Weekday/weekend schedule: the average-delay series becomes
        periodic with a one-week period once the transient fades."""
        spec, t1, t2, _ts = traffic
        sched = weekday_schedule(t1, t2)
        series = trajectory(spec, sched, None, None, 27)
        delay = [float(f.reorder(spec.names()).table.sum(axis=(0, 1))[1])
                 for f in series]
        for t in range(14, 21):
            assert abs(delay[t + 7] - delay[t]) < 1e-3

    def test_schedule_from_a_partial_p0(self, traffic):
        """The schedule's chain runs through the forward pass: from a given
        p0, every slice is the schedule's matrices multiplied onto p0 in
        numpy, within 1e-12.  A p0 flagged partial flags every slice,
        observational and post-intervention, and every answer."""
        spec, t1, t2, _ts = traffic
        sched = weekday_schedule(t1, t2)
        rng = np.random.default_rng(28)
        p0 = Factor(TRAFFIC_STATE_VARS, rng.dirichlet(np.ones(8)).reshape(2, 2, 2), partial=True)
        vec = p0.table.reshape(-1)
        series = trajectory(spec, sched, p0, None, 28)
        assert len(series) == 29
        for t, f in enumerate(series):
            assert f.partial
            assert np.max(np.abs(f.reorder(spec.names()).table.reshape(-1) - vec)) < 1e-12
            vec = sched(t).matrix @ vec
        post = trajectory(spec, sched, p0, ({"tr1": 1}, 3), 28)
        assert all(f.partial for f in post)
        assert all(np.array_equal(a.table, b.table) for a, b in zip(post[:3], series))
        assert cdcn_id_static(spec, {"tr1": 1}, 3, {"d"}, 6, sched, p0).partial

    def test_outcome_right_after_intervention(self):
        """t_y = t_x + 1 leaves no transition products: the answer is the
        step conditional applied once."""
        spec = traffic_spec(traffic_mechanism())
        t = mechanism_transition(spec)
        f = dcn_id_static(spec, {"tr1": 1}, 3, {"d"}, 4, t, None, 0)
        orc = oracle_effect(spec, {"tr1": 1}, 3, {"d"}, 4)
        assert np.max(np.abs(f.reorder(["d"]).table
                             - orc.reorder([slice_var_at("d", 4)]).table)) < 1e-9

    def test_printed_alpha_expression_agrees(self, traffic):
        """The published closed form for the four-slice step query evaluates
        to the same conditionals as the identification pipeline."""
        from docalc.identify import ObservedTerm, Product, Quotient, SumOver, evaluate

        spec, t1, _t2, _ts = traffic
        v = {}
        for i, (name, t) in enumerate(
                ((n, t) for t in (1, 2, 3, 4) for n in spec.names()), start=1):
            v[i] = slice_var_at(name, t)
        all12 = tuple(v[i] for i in range(1, 13))
        slice_tx = (v[7], v[8], v[9])
        cond_prev = (v[4], v[5], v[6])
        alpha = SumOver(
            (v[1], v[2], v[3], v[8], v[9]),
            Quotient(
                Product((
                    ObservedTerm(all12),
                    SumOver((v[7], v[9]), ObservedTerm(slice_tx, cond_prev)),
                )),
                Product((
                    ObservedTerm(cond_prev),
                    SumOver((v[9],), ObservedTerm(slice_tx, cond_prev)),
                )),
            ),
        )
        joint12 = chain_window_joint(spec, [t1] * 4, 1, 4)
        for val in (0, 1):
            got = evaluate(alpha, joint12).restrict({v[7]: val})
            got = got.reorder([v[10], v[11], v[12], v[4], v[5], v[6]])
            table = got.table.reshape(8, 8)
            matrix, reachable = step_kernel_matrix(spec, {"tr1": val}, 3, t1, None, 0)
            assert np.max(np.abs(table[:, reachable] - matrix[:, reachable])) < 1e-9


class TestFirstOrderSlices:
    """A cross edge of lag 2 breaks the first-order slices that the window
    lemma and the one-slice steps rest on; the pipelines refuse it instead
    of answering wrongly (off the unrolled oracle by up to 0.086)."""

    @staticmethod
    def _lag2_spec(cross_confounders=(), seed=0):
        bare = DcnSpec((Var("a"), Var("b")), (("a", "b"),), (("b", "a", 2), ("a", "a", 1)),
                       (), cross_confounders)
        return random_mechanism_for(bare, np.random.default_rng(seed))

    def test_static_pipelines_refuse(self):
        spec = self._lag2_spec()
        tspec = TransportSpec((), (), None)
        calls = [
            lambda: dcn_id_static(spec, {"a": 1}, 3, {"b"}, 6),
            lambda: cdcn_id_static(spec, {"a": 1}, 3, {"b"}, 6),
            lambda: observational_marginal(spec, 5, None, None, 0),
            lambda: trajectory(spec, None, None, None, 5),
            lambda: trajectory(spec, None, None, ({"a": 1}, 3), 6),
            lambda: step_kernel_matrix(spec, {"a": 1}, 3),
            lambda: transport(spec, tspec, {"a": 1}, 3, {"b"}, 6),
            lambda: initial_distribution(spec),
        ]
        for call in calls:
            with pytest.raises(UnsupportedModelError, match="lag > 1"):
                call()

    def test_dynamic_pipelines_refuse(self):
        spec = self._lag2_spec((("a", "b", 1),), seed=1)
        calls = [
            lambda: dcn_id_dynamic(spec, {"a": 1}, 3, {"b"}, 6),
            lambda: cdcn_id_dynamic(spec, {"a": 1}, 3, {"b"}, 6),
            lambda: trajectory(spec, None, None, ({"a": 1}, 3), 6),
        ]
        for call in calls:
            with pytest.raises(UnsupportedModelError, match="lag > 1"):
                call()

    def test_graph_tools_accept(self):
        spec = self._lag2_spec((("a", "b", 1),), seed=1)
        g, index = unroll(spec, 0, 4)
        assert (index[("b", 1)], index[("a", 3)]) in g.directed
        assert len(unrolled_scm(spec, 0, 4).graph.vars) == 10
        assert classify(spec).beta == 2
        assert _window_left(spec, spec.names(), 3, None) == 1
        assert not dynamic_time_span(spec, ["a"]).is_infinite


def sweep_spec():
    """Within-slice V1->V3; lag-1 V1->V2, V2->V3, V3->V1; hidden
    confounder V2@t <-> V3@t+1 (the structure of the benchmark's horizon
    sweep, with its own mechanism)."""
    bare = DcnSpec(tuple(Var(n) for n in ("V1", "V2", "V3")), (("V1", "V3"),),
                   (("V1", "V2", 1), ("V2", "V3", 1), ("V3", "V1", 1)), (),
                   (("V2", "V3", 1),))
    return random_mechanism_for(bare, np.random.default_rng(2))


class TestLongHorizons:
    """Dynamic steps are evaluated from small Q-factor marginals, so long
    horizons return, and exactly."""

    def test_sweep_trajectories_match_oracle(self):
        spec = sweep_spec()
        x = {"V1": 1}
        want = {}
        for horizon in range(6, 13):
            series = trajectory(spec, None, None, (x, 2), horizon)
            assert len(series) == horizon + 1
            for t, f in enumerate(series):
                if t not in want:
                    want[t] = post_intervention_slices(spec, x, 2, spec.names(), t)
                assert np.max(np.abs(f.reorder(spec.names()).table - want[t].table)) < 1e-9

    def test_slices_before_intervention_untouched(self):
        """The observational slices do not depend on how far a call
        reaches: a late intervention leaves the prefix of the unintervened
        trajectory bit for bit, whatever either horizon."""
        spec = sweep_spec()
        base = trajectory(spec, None, None, None, 1)
        longer = trajectory(spec, None, None, None, 9)
        bumped = trajectory(spec, None, None, ({"V1": 1}, 5), 9)
        for t in range(5):
            assert np.array_equal(longer[t].table, bumped[t].table)
        for t in range(2):
            assert np.array_equal(base[t].table, bumped[t].table)

    def test_unintervened_trajectory_matches_oracle(self):
        spec = sweep_spec()
        series = trajectory(spec, None, None, None, 40)
        assert len(series) == 41
        for t, f in enumerate(series):
            want = post_intervention_slices(spec, {}, 41, spec.names(), t)
            assert np.max(np.abs(f.reorder(spec.names()).table - want.table)) < 1e-9


class TestUnitDomains:
    """A slice variable of domain 1 is a constant.  The forward pass
    contracts with ``scm._contract``, which labels unit axes like any
    other; every pipeline still matches the unrolled oracle."""

    @staticmethod
    def _spec(dynamic):
        """The sweep structure plus V4 of domain 1, fed by V1 within the
        slice and feeding V2 a slice later; V2 and V3 are confounded one
        slice apart when ``dynamic``, else within the slice."""
        variables = (Var("V1"), Var("V2"), Var("V3"), Var("V4", 1))
        static = () if dynamic else (frozenset({"V2", "V3"}),)
        bare = DcnSpec(variables, (("V1", "V3"), ("V1", "V4")),
                       (("V1", "V2", 1), ("V2", "V3", 1), ("V3", "V1", 1), ("V4", "V2", 1)),
                       static, (("V2", "V3", 1),) if dynamic else ())
        return random_mechanism_for(bare, np.random.default_rng(3))

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_pipelines_match_the_unrolled_oracle(self, dynamic, monkeypatch):
        spec = self._spec(dynamic)
        names = spec.names()
        x, t_x, t_y = {"V1": 1}, 2, 5
        calls = []
        real = scm._contract

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scm, "_contract", spy)
        pipelines = (dcn_id_dynamic, cdcn_id_dynamic) if dynamic else (dcn_id_static,
                                                                        cdcn_id_static)
        got = {run: run(spec, x, t_x, {"V3"}, t_y, None, None, 0) for run in pipelines}
        series = trajectory(spec, None, None, (x, t_x), t_y)
        assert calls
        monkeypatch.setattr(scm, "_contract", real)
        want = post_intervention_slices(spec, x, t_x, ["V3"], t_y)
        for run, f in got.items():
            assert f is not None, run
            assert np.max(np.abs(f.reorder(["V3"]).table - want.table)) < 1e-9, run
        for t, f in enumerate(series):
            ref = post_intervention_slices(spec, x, t_x, names, t)
            assert np.max(np.abs(f.reorder(names).table - ref.table)) < 1e-9, t


class TestCellCap:
    def test_cap_counts_tabulated_cells(self):
        """Slices 0..7 hold 2^24 observed cells, but eliminating down to
        slice 7 tabulates only small tables."""
        spec = sweep_spec()
        got = observational_marginal(spec, 7, None, None, 0)
        last = [slice_var_at(n, 7) for n in spec.names()]
        before = [slice_var_at(n, 6) for n in spec.names()]
        want = marginalize(joint(unrolled_scm(spec, 0, 7), before + last), before)
        assert np.max(np.abs(got.table - want.reorder(last).table)) < 1e-12

    def test_unrolled_joint_over_the_cap_is_refused(self):
        with pytest.raises(UnsupportedModelError, match="16777216 cells"):
            joint(unrolled_scm(sweep_spec(), 0, 7))

    def test_largest_table_does_not_grow_with_the_horizon(self, monkeypatch):
        """Every table the dynamic steps tabulate passes the cap check; the
        largest one of the do(V1@2=1) sweep stays the same from horizon 6
        through 12, where a window joint would have 2^39 cells."""
        real = scm._check_cells
        largest = [0]

        def spy(cells):
            largest[0] = max(largest[0], cells)
            real(cells)

        monkeypatch.setattr(scm, "_check_cells", spy)
        spec = sweep_spec()
        peaks = {}
        for horizon in range(3, 13):
            largest[0] = 0
            trajectory(spec, None, None, ({"V1": 1}, 2), horizon)
            peaks[horizon] = largest[0]
        assert max(peaks.values()) == peaks[6] == peaks[12] <= 256


def zero_context_spec():
    """V2@t-1 -> V1@t, V1 -> V2 -> V3 within the slice, V3@t-1 -> V3@t and
    a hidden V1 <-> V3 (U1).  V1 is 0 whenever V2@t-1 is, and V3 is 1
    when V2 = 1, V3@t-1 = 1 and U1 = 0, so some contexts across slices
    have zero mass, while every slice state has positive mass."""
    u = SliceExo("U1", (0.6, 0.4), "V1", "V3", 0)
    v1 = np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.3, 0.7], [0.5, 0.5]]])
    v2 = np.array([[0.6, 0.4], [0.2, 0.8]])
    v3 = np.array([[[[1.0, 0.0], [0.4, 0.6]], [[0.25, 0.75], [0.5, 0.5]]],
                   [[[0.7, 0.3], [0.1, 0.9]], [[0.0, 1.0], [0.2, 0.8]]]])
    return DcnSpec(tuple(Var(n) for n in ("V1", "V2", "V3")), (("V1", "V2"), ("V2", "V3")),
                   (("V2", "V1", 1), ("V3", "V3", 1)), (frozenset({"V1", "V3"}),), (),
                   DcnMechanism((SliceCpt("V1", (), (("V2", 1),), ("U1",), v1),
                                 SliceCpt("V2", ("V1",), (), (), v2),
                                 SliceCpt("V3", ("V2",), (("V3", 1),), ("U1",), v3)),
                                (u,)))


def zero_mass_spec():
    """``zero_context_spec`` with V2 copying V1 = 1, so the slice state
    (V1 = 1, V2 = 0) has zero mass."""
    base = zero_context_spec()
    v2 = np.array([[0.6, 0.4], [0.0, 1.0]])
    return replace(base, mechanism=DcnMechanism(
        tuple(replace(c, table=v2) if c.var == "V2" else c for c in base.mechanism.cpts),
        base.mechanism.exos))


def _run_generator_pipelines(kind, t_x):
    """Every pipeline of ``kind`` on the generator's queries, answers
    discarded; refused queries are skipped."""
    dynamic = kind == "dynamic"
    dcn_run, cdcn_run = ((dcn_id_dynamic, cdcn_id_dynamic) if dynamic
                         else (dcn_id_static, cdcn_id_static))
    for spec, x, yv, t_y in _generator_queries(kind, t_x):
        for run in (lambda: dcn_run(spec, x, t_x, {yv}, t_y, None, None, 0),
                    lambda: cdcn_run(spec, x, t_x, {yv}, t_y, None, None, 0),
                    lambda: trajectory(spec, None, None, (x, t_x), t_y),
                    lambda: step_kernel_matrix(spec, x, t_x)):
            try:
                run()
            except UnsupportedQueryError:
                pass


@pytest.fixture(scope="module")
def generator_calls():
    """What the pipelines build on the 150-spec static and dynamic
    generators, at t_x = 2 (windows from t0), 3 and 5 (later windows):
    every identification of a step with its call, its graph, its query,
    its root mask and its result, and, each with the shape of its scope,
    the table of every pass marginal, every ``scm._contract`` (the pass's
    messages, marginals and post-intervention steps among them) and every
    sum over a product that the evaluator contracts on the pass
    (``identify._sum_product``)."""
    steps, tables = [], []

    def spy(real, record):
        def wrapper(obs, *args):
            out = real(obs, *args)
            record(obs, args, out)
            return out
        return wrapper

    def kernel(x, t_x, t_left, prev, t, nxt, obs):
        steps.append((obs.spec, obs.t0, t_left, t))
        return real_kernel(x, t_x, t_left, prev, t, nxt, obs)

    def identification(g, x, y, memo, root):
        result = real_identify(g, x, y, memo, root)
        steps[-1] += (g, frozenset(x), frozenset(y), root, result)
        return result

    real_kernel, real_identify = dcn._identified_kernel, dcn._identify
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dcn, "_identified_kernel", kernel)
        mp.setattr(dcn, "_identify", identification)

        def factor(obs, args, f):
            tables.append((f.table, tuple(v.domain for v in f.scope)))

        def contraction(real):
            def wrapper(items, out, domain):
                table = real(items, out, domain)
                tables.append((table, tuple(domain[n] for n in out)))
                return table
            return wrapper

        mp.setattr(_Forward, "marginal", spy(_Forward.marginal, factor))
        mp.setattr(scm, "_contract", contraction(scm._contract))
        mp.setattr(identify, "_sum_product", spy(identify._sum_product, factor))
        for kind in ("static", "dynamic"):
            for t_x in (2, 3, 5):
                _run_generator_pipelines(kind, t_x)
    return steps, tables


def pass_step(obs, t):
    """P(V@t | V@t-1) of a static pass, laid out (V@t, V@t-1): the tables
    slice t adds to the pass (the schedule's step, or the mechanism's
    confounder priors and CPTs) contracted onto the two slices, as
    ``mechanism_transition`` contracts slice 1's."""
    scope = obs.slices[t - obs.t0] + obs.slices[t - 1 - obs.t0]
    ones = (scope, np.ones([obs.domain[n] for n in scope]))
    return Factor(tuple(obs.vars[n] for n in scope),
                  scm._contract([ones] + obs.tables[t - obs.t0], scope, obs.domain))


def _latent_projection_edges(spec, t0, t_left, t_right):
    """By brute force, the bidirected edges of the window t_left..t_right
    of the graph unrolled from t0 when the slices before t_left are
    latent: with every bidirected edge read as a hidden parent of its two
    ends, a <-> b when a hidden or latent vertex reaches both along
    directed paths whose inner vertices are latent."""
    g, _ = unroll(spec, t0, t_right)
    window = set(g.names()) - {slice_var_at(n, t) for t in range(t0, t_left) for n in spec.names()}

    @functools.cache
    def reach(u):
        return frozenset({u}) if u in window else frozenset().union(
            *(reach(c) for c in g.children_of(u)))

    sources = [reach(u) for u in g.names() if u not in window]
    sources += [reach(a) | reach(b) for a, b in map(tuple, g.bidirected)]
    return {frozenset(pair) for r in sources for pair in itertools.combinations(r, 2)}


class TestOneGraphPerCall:
    """Each call unrolls its graph once, on first identification, reads its
    windows and static steps off its one pass and its ancestor sets off the
    template, and trusts what it derives; these tests hold the invariants
    that make that exact."""

    def test_window_graphs_are_the_unrolled_windows(self, generator_calls):
        """Every step a pipeline identifies is identified on a root mask of
        its left edge's graph, and the graph that mask induces is
        unroll(spec, t_left, t_right), vertex order included; a dynamic
        window that starts after t0 adds the edges of its latent
        projection."""
        steps, _ = generator_calls
        seen = Counter()
        for spec, t0, t_left, t_right, g, _x, _y, root, _result in steps:
            want, _ = unroll(spec, t_left, t_right)
            seen["static" if classify(spec).is_static else "dynamic"] += 1
            if not classify(spec).is_static and t_left > t0:
                extra = _latent_projection_edges(spec, t0, t_left, t_right) - want.bidirected
                want = Admg(want.vars, want.directed, want.bidirected | extra)
                seen["with projected edges"] += bool(extra)
            seen["later windows"] += t_left > t0
            assert g.induced(n for n in g.names() if g._bit[n] & root) == want
        assert min(seen.values()) >= 100, seen

    def test_root_mask_identifies_as_the_induced_window(self, generator_calls):
        """ID on the root mask, with the frames of the call's earlier steps
        in its memo, gives ``id_effect``'s expression on the induced window,
        ``pretty`` form included, or its hedge witness."""
        steps, _ = generator_calls
        seen = Counter()
        for _spec, _t0, _t_left, _t_right, g, x, y, root, result in steps:
            window = g.induced(n for n in g.names() if g._bit[n] & root)
            want = id_effect(window, x, y)
            assert result == want
            if want.identified:
                assert pretty(result.expr) == pretty(want.expr)
            seen[want.identified] += 1
        assert seen[True] >= 100 and seen[False] >= 20, seen

    def test_ancestor_sets_off_the_template(self):
        """``_ancestor_slices``, read off the slice template, is An(Y@t_y)
        in ``unroll(spec, t0, t_last)`` split by slice, for every left edge
        t0 <= t_left <= t_y, with t_last past t_y by the longest confounder
        lag, as a call lays it out: on the 150-spec static and dynamic
        generators, for Y the query's outcome and every slice variable."""
        seen = Counter()
        for kind in ("static", "dynamic"):
            for spec, _x, yv, t_y in _generator_queries(kind, 2):
                for t0, ys in ((0, {yv}), (1, set(spec.names()))):
                    g, _index = unroll(spec, t0, t_y + classify(spec).alpha_max)
                    an = ancestors(g, [slice_var_at(n, t_y) for n in ys])
                    for t_left in range(t0, t_y + 1):
                        want = {t: tuple(n for n in spec.names() if slice_var_at(n, t) in an)
                                for t in range(t_left, t_y + 1)}
                        got = dcn._ancestor_slices(spec, frozenset(ys), t_y, t_left)
                        assert list(got.items()) == list(want.items())
                        seen[kind] += 1
        assert seen["static"] >= 1500 and seen["dynamic"] >= 400, seen

    def test_each_left_edge_builds_one_graph(self):
        """A call identifies every step from one left edge on one graph with
        one frame memo: the call's own graph from t0, with no latent
        projection; one projected graph, built once, from a later edge."""
        spec = dyn_spec([("V1", "V2", 1)], seed=11)
        real_graph, real_latent = _Forward.id_graph, _Forward.latent_edges

        def id_graph(obs, t_left):
            g, memo = real_graph(obs, t_left)
            graphs.append((t_left, id(g), id(memo), g is obs.graph))
            return g, memo

        def latent_edges(obs, t_left):
            projected.append(t_left)
            return real_latent(obs, t_left)

        for t0, built in ((0, 0), (-3, 1)):
            graphs, projected = [], []
            with spied("_identified_kernel") as calls, pytest.MonkeyPatch.context() as mp:
                mp.setattr(_Forward, "id_graph", id_graph)
                mp.setattr(_Forward, "latent_edges", latent_edges)
                got = trajectory(spec, None, None, ({"V1": 1}, 2), 6, t0)
            assert calls["_identified_kernel"] == 5 and len(got) == 7 - t0
            assert len(graphs) == 5 and len(set(graphs)) == 1
            assert graphs[0][0] == 0 and graphs[0][3] == (t0 == 0)
            assert projected == [0] * built

    @pytest.mark.parametrize("t0", [0, 2])
    def test_pass_layout_is_the_unrolled_model(self, t0):
        """The pass's one layout, on the 150-spec generators: its graph is
        ``unroll`` over the call's slices (through the longest confounder
        lag past t_end), and its per-slice tables are ``unrolled_scm``'s
        priors and CPTs bit for bit, each prior in the slice of its first
        child, each CPT in its variable's slice over parents, exo parents
        and the variable.  Every table is read-only, and the slices whose
        parents all lie in the window share one array per variable."""
        seen = Counter()
        for kind in ("static", "dynamic"):
            for spec, _x, _y, t_y in _generator_queries(kind, 2):
                obs = _Forward(spec, None, None, t0, t0 + t_y)
                last = t0 + t_y + classify(spec).alpha_max
                assert obs.graph == unroll(spec, t0, last)[0]
                m = unrolled_scm(spec, t0, last)
                want = [[] for _ in range(t0, last + 1)]
                for e in m.exogenous:
                    first = min(obs.slice_of[n] for n in e.feeds)
                    want[first - t0].append(((e.var.name,), np.asarray(e.prior, dtype=float)))
                for n in m.graph.names():
                    c = m.cpts[n]
                    want[obs.slice_of[n] - t0].append((c.parents + c.exo_parents + (n,), c.table))
                assert len(obs.tables) == len(want)
                shared, cpts = {}, {c.var: c for c in spec.mechanism.cpts}
                for names, got, exp in zip(obs.slices, obs.tables, want):
                    template = dict(zip(names, spec.names()))
                    assert [scope for scope, _t in got] == [scope for scope, _t in exp]
                    for (scope, table), (_s, ref) in zip(got, exp):
                        assert table.dtype == ref.dtype and np.array_equal(table, ref)
                        assert not table.flags.writeable
                        if scope[-1] in template:  # a CPT; all parents in the window
                            cpt = cpts[template[scope[-1]]]
                            if table.ndim == np.ndim(cpt.table):
                                shared.setdefault(cpt.var, set()).add(id(table))
                assert all(len(ids) == 1 for ids in shared.values())
                seen[kind] += 1
        assert seen["static"] == 150 and seen["dynamic"] >= 30, seen

    def test_trusted_unroll_equals_the_validated_graph(self):
        for kind in ("static", "dynamic"):
            for spec, _x, _y, t_y in _generator_queries(kind, 2):
                g, _ = unroll(spec, 0, t_y)
                assert g == Admg(g.vars, g.directed, g.bidirected)

    @pytest.mark.parametrize("t0", [0, 2])
    def test_initial_distribution_is_the_one_slice_joint(self, t0):
        """``initial_distribution`` is the first slice of the forward pass;
        on the 150-spec generators it is the exact joint of
        ``unrolled_scm`` over that slice, within 1e-12."""
        seen = Counter()
        for kind in ("static", "dynamic"):
            for spec, _x, _y, _t_y in _generator_queries(kind, 2):
                got = initial_distribution(spec, t0)
                want = joint(unrolled_scm(spec, t0, t0))
                assert got.scope == spec.slice_vars and not got.partial
                assert np.max(np.abs(got.table - want.table)) <= 1e-12
                seen[kind] += 1
        assert seen["static"] == 150 and seen["dynamic"] >= 30, seen

    def test_pass_factors_are_trusted_views(self, generator_calls):
        """Marginals, sums over products and the pass's contractions, the
        post-intervention steps included, skip the factor checks; their
        tables are still finite, non-negative, read-only and shaped as
        their scopes."""
        _, tables = generator_calls
        assert len(tables) > 1000
        for table, shape in tables:
            assert table.shape == shape
            assert not table.flags.writeable
            assert np.all(np.isfinite(table)) and np.all(table >= 0)

    @pytest.mark.parametrize("scheduled", [False, True])
    def test_restricted_transitions_ignore_dropped_variables(self, scheduled):
        """The ancestor closure that the post-intervention steps rely on
        when they pin dropped previous-slice variables at 0: the
        transition into the slice-t ancestors of any set of slice-t
        variables does not depend on the slice-(t-1) variables that are
        not ancestors too.  Schedules here come from mechanisms on the
        spec's graph, with a different mechanism for every step."""
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(30):
            spec = random_dcn_spec(rng, n_vars=3, n_static_conf=int(rng.integers(0, 3)))
            schedule = ([mechanism_transition(random_mechanism_for(spec, rng)) for _ in range(4)]
                        if scheduled else None)
            trans = pass_step(_Forward(spec, schedule, None, 0, 3), 3)
            g, _ = unroll(spec, 2, 3)
            for size in range(1, 4):
                for ys in itertools.combinations(spec.names(), size):
                    an = ancestors(g, [slice_var_at(n, 3) for n in ys])
                    f = marginalize(trans, [n for n in trans.names()
                                            if n.endswith("@3") and n not in an])
                    for v in spec.slice_vars:
                        name = slice_var_at(v.name, 2)
                        if name in an:
                            continue
                        ref = f.restrict({name: 0})
                        for val in range(1, v.domain):
                            assert close_within(f.restrict({name: val}), ref, 1e-9)
                            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("t_x", [2, 5])
    def test_mechanism_steps_equal_the_mechanism_transition_schedule(self, t_x):
        """On the 150-spec static generator the static pipelines driven by
        the mechanism, whose later steps contract the state with each
        slice's CPTs and confounder priors, equal the same calls with
        ``mechanism_transition`` as the schedule, within 1e-12, partial
        flags included; enough complete queries enter the recursion,
        rather than the rule-3 answer, to exercise its steps."""
        seen = Counter()
        for spec, x, yv, t_y in _generator_queries("static", t_x):
            schedule = mechanism_transition(spec)
            for run in (dcn_id_static, cdcn_id_static):
                with spied("_post_intervention") as calls:
                    got = run(spec, x, t_x, {yv}, t_y)
                    want = run(spec, x, t_x, {yv}, t_y, schedule)
                assert (got is None) == (want is None)
                if run is cdcn_id_static and calls:
                    assert calls["_post_intervention"] == 2
                    seen["cdcn recursion"] += 1
                if got is not None:
                    assert got.names() == want.names() and got.partial == want.partial
                    assert np.max(np.abs(got.table - want.table)) <= 1e-12
                    seen[run.__name__] += 1
        assert min(seen.values()) >= 50 and len(seen) == 3, seen
        assert seen["cdcn recursion"] >= 68, seen

    def test_schedule_contradicting_the_graph_is_refused(self):
        """A schedule is any chain, so the closure is checked for it: a
        step into the ancestors of Y that depends on previous-slice
        variables the graph makes non-ancestors is refused."""
        spec = random_dcn_spec(np.random.default_rng(0), n_vars=3, n_static_conf=1)
        rows = np.random.default_rng(100).dirichlet(np.ones(8), size=8)
        with pytest.raises(InvalidInputError, match="non-ancestors"):
            cdcn_id_static(spec, {"V1": 1}, 2, {"V1"}, 4,
                           TransitionMatrix.from_rows(spec.slice_vars, rows))

    def test_mechanism_steps_equal_mechanism_transition(self):
        """A static spec's steps read off the pass, and
        ``mechanism_transition``, are P(V@1 | V@0) of the joint of
        ``unrolled_scm(spec, 0, 1)`` on every previous-slice state of
        positive mass, and stochastic on every one."""
        rng = np.random.default_rng(21)
        specs = [random_dcn_spec(rng, n_vars=int(rng.integers(2, 4)),
                                 n_static_conf=int(rng.integers(0, 3))) for _ in range(40)]
        for spec in specs + [zero_context_spec()]:
            n = spec.slice_states()
            prev = [slice_var_at(v, 0) for v in spec.names()]
            nxt = [slice_var_at(v, 1) for v in spec.names()]
            cond = condition(joint(unrolled_scm(spec, 0, 1)), prev)
            want = cond.reorder(nxt + prev).table.reshape(n, n)
            positive = want.sum(axis=0) > 0.5
            matrix = mechanism_transition(spec).matrix
            assert np.max(np.abs(matrix - want)[:, positive]) < 1e-12
            assert np.max(np.abs(matrix.sum(axis=0) - 1.0)) < 1e-12
            obs = _Forward(spec, None, None, 0, 4)
            for t in range(1, 5):
                layout = [slice_var_at(v, s) for s in (t, t - 1) for v in spec.names()]
                got = pass_step(obs, t).reorder(layout).table.reshape(n, n)
                assert np.array_equal(got, matrix)

    def test_zero_mass_contexts_keep_answers_and_partial_flags(self):
        """Conditionals on contexts of zero mass give zero cells and set
        ``partial`` (factors.condition); the answers equal the unrolled
        oracle, and the flags are those the pipelines gave when their
        steps came from ``mechanism_transition``."""
        spec = zero_context_spec()
        names = spec.names()
        for xv, val in itertools.product(names, (0, 1)):
            x = {xv: val}
            for yv in names:
                want = post_intervention_slices(spec, x, 2, [yv], 5)
                for run in (dcn_id_static, cdcn_id_static):
                    got = run(spec, x, 2, {yv}, 5)
                    assert np.max(np.abs(got.reorder([yv]).table - want.table)) < 1e-12
                    assert got.partial == (run is dcn_id_static or xv != "V3" or yv == "V3")
            series = trajectory(spec, None, None, (x, 2), 5)
            assert [f.partial for f in series] == [False, False, xv != "V3", True, True, True]
            for t, f in enumerate(series):
                want = post_intervention_slices(spec, x, 2, names, t)
                assert np.max(np.abs(f.reorder(names).table - want.table)) < 1e-12

    def test_zero_mass_slice_states_are_stepped_by_the_mechanism(self):
        """When V2 copies V1 = 1, the slice state (V1 = 1, V2 = 0) has zero
        mass, so the conditioned joint has no distribution for that
        column.  ``mechanism_transition`` and the steps read off the pass
        are the mechanism's conditional, defined on every column, so it is
        a transition matrix, and the static pipelines answer on the pass,
        flagged ``partial`` because positivity fails, except where X@2
        cannot reach Y@5 (X = V3, Y another variable): there the complete
        pipeline answers P(Y@5) by rule 3 and conditions on no context.
        The pass gives distributions.  A p0 pass reduces its terms on slice
        t0 made one C-component, so with the mechanism's own first slice it
        answers as the pass does, do(V1 = 1) included.  A schedule licenses
        only the chain graph, whose terms condition on the zero-mass state
        where do(V1 = 1) puts the step: those answers lose mass (total
        0.617992), and the others agree."""
        spec = zero_mass_spec()
        prev = [slice_var_at(v, 0) for v in spec.names()]
        joint01 = joint(unrolled_scm(spec, 0, 1))
        assert np.any(marginalize(joint01, [n for n in joint01.names()
                                            if n not in prev]).table == 0)
        schedule = mechanism_transition(spec)
        assert np.max(np.abs(schedule.matrix.sum(axis=0) - 1.0)) < 1e-12
        p0 = initial_distribution(spec)
        for xv, val, yv in itertools.product(spec.names(), (0, 1), spec.names()):
            for run in (dcn_id_static, cdcn_id_static):
                partial = run is dcn_id_static or xv != "V3" or yv == "V3"
                got = run(spec, {xv: val}, 2, {yv}, 5)
                assert got.partial == partial and abs(got.total() - 1.0) < 1e-12
                chained = run(spec, {xv: val}, 2, {yv}, 5, None, p0)
                assert chained.partial == partial
                assert np.max(np.abs(chained.table - got.table)) < 1e-12
                scheduled = run(spec, {xv: val}, 2, {yv}, 5, schedule)
                assert scheduled.partial == partial
                if (xv, val) == ("V1", 1):
                    assert abs(scheduled.total() - 0.617992) < 1e-12
                else:
                    assert np.max(np.abs(scheduled.table - got.table)) < 1e-12
            series = trajectory(spec, None, p0, ({xv: val}, 2), 5)
            assert [f.partial for f in series] == [False, False, True, True, True, True]
            assert all(abs(f.total() - 1.0) < 1e-12 for f in series)

    def test_scheduled_static_call_unrolls_slice_t0_only(self, monkeypatch):
        """A static call with a mechanism and a schedule reads only slice
        t0's mechanism tables, so its layout holds that slice's alone, and
        the answers are bit-identical to those of a layout that unrolls
        every slice."""
        spec = traffic_spec(traffic_mechanism())
        schedule = mechanism_transition(spec)
        x = {"tr1": 1}
        calls = [
            lambda: trajectory(spec, schedule, None, (x, 2), 6),
            lambda: [dcn_id_static(spec, x, 2, {"d"}, 6, schedule)],
            lambda: [transport(spec, TransportSpec(()), x, 3, {"d"}, 6, schedule)],
        ]
        real = dcn._Layout
        held = []

        def spied(*args):
            layout = real(*args)
            held.append(len(layout.tables))
            return layout

        def every_slice(spec, t0, t_end, tables):
            return real(spec, t0, t_end, t_end - t0 + 1 if tables else 0)

        monkeypatch.setattr(dcn, "_Layout", spied)
        got = [call() for call in calls]
        assert held == [1] * len(calls)
        monkeypatch.setattr(dcn, "_Layout", every_slice)
        for answers, call in zip(got, calls):
            for f, want in zip(answers, call(), strict=True):
                assert f.names() == want.names() and np.array_equal(f.table, want.table)

    def test_each_call_unrolls_once_and_validates_nothing(self, monkeypatch):
        """Regression guard: on mechanism-only specs each pipeline call,
        scheduled static calls, ``transport`` and ``initial_distribution``
        included, builds one layout (``_Layout``: its names and tables)
        and no other unrolled graph, classifies the spec once, builds no
        graph through the validating constructor, and derives no
        ``mechanism_transition``.  The layout's graph is built on first read
        (``Admg._build``, by any constructor, is counted): once by a call
        that identifies on the window from t0.  A call that identifies
        nothing builds no graph at all: rule-3 answers of the complete
        variants, an unintervened ``trajectory``, ``observational_marginal``,
        ``initial_distribution`` and ``mechanism_transition``."""
        static = random_dcn_spec(np.random.default_rng(1), n_vars=3, n_static_conf=1)
        dynamic = dyn_spec([("V1", "V2", 1)], seed=5)
        calls = Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        x = {"V1": 1}
        schedule = mechanism_transition(static)
        # the benchmark's transport query: the two-road target and its
        # schedule, and a source whose road 1 is tilted by 0.15
        mech = traffic_mechanism()
        tilted = np.array([[[0.65, 0.35], [0.5, 0.5]], [[0.3, 0.7], [0.25, 0.75]]])
        source = traffic_spec(DcnMechanism(tuple(replace(c, table=tilted) if c.var == "tr1" else c
                                                 for c in mech.cpts), mech.exos))
        target = traffic_spec(mech)
        target_schedule = mechanism_transition(target)
        tspec = TransportSpec((SelectionVar("s", (("tr1", 0),)), SelectionVar("s2", (("tr1", 1),))),
                              (frozenset({"tr1"}),), source)
        monkeypatch.setattr(dcn, "unroll", counted("unroll", dcn.unroll))
        monkeypatch.setattr(dcn, "_Layout", counted("layout", dcn._Layout))
        monkeypatch.setattr(dcn, "classify", counted("classify", dcn.classify))
        monkeypatch.setattr(dcn, "mechanism_transition",
                            counted("mechanism_transition", dcn.mechanism_transition))
        monkeypatch.setattr(Admg, "__init__", counted("Admg", Admg.__init__))
        monkeypatch.setattr(Admg, "_build", counted("graph", Admg._build))
        monkeypatch.setattr(dcn, "unrolled_scm", counted("unrolled_scm", dcn.unrolled_scm))
        # (call, graphs it builds); on both specs V1@2 is no ancestor of
        # V2@5, so the complete variants answer by rule 3
        runs = [
            (lambda s: dcn_id_static(s, x, 2, {"V2"}, 5), 1),
            (lambda s: cdcn_id_static(s, x, 2, {"V2"}, 5), 0),
            (lambda s: trajectory(s, None, None, (x, 2), 5), 1),
            (lambda s: step_kernel_matrix(s, x, 2), 1),
            (lambda s: trajectory(s, None, None, None, 5), 0),
            (lambda s: observational_marginal(s, 4, None, None, 0), 0),
            (lambda s: initial_distribution(s), 0),
        ]
        dynamic_runs = [
            (lambda s: dcn_id_dynamic(s, x, 2, {"V2"}, 5), 1),
            (lambda s: cdcn_id_dynamic(s, x, 2, {"V2"}, 5), 0),
        ] + runs[2:]
        scheduled_runs = [
            (lambda s: dcn_id_static(s, x, 2, {"V2"}, 5, schedule), 1),
            (lambda s: cdcn_id_static(s, x, 2, {"V2"}, 5, schedule), 0),
            (lambda s: trajectory(s, schedule, None, (x, 2), 5), 1),
            (lambda s: step_kernel_matrix(s, x, 2, schedule), 1),
            (lambda s: trajectory(s, schedule, None, None, 5), 0),
        ]
        # the call's graph, the identification window from its left edge
        # 1 > t0 (transport's checks read a mask of it), and ``source``
        transport_runs = [
            (lambda s: transport(s, tspec, {"tr1": 1}, 3, {"d"}, 6, target_schedule), 3)]
        for spec, pipelines in ((static, runs), (dynamic, dynamic_runs), (static, scheduled_runs),
                                (target, transport_runs)):
            for run, graphs in pipelines:
                calls.clear()
                assert run(spec) is not None
                assert calls == Counter(layout=1, classify=1, graph=graphs)
        calls.clear()
        dcn.mechanism_transition(static)
        assert calls == Counter(mechanism_transition=1, layout=1, classify=1)


class TestOneTermRule:
    """Every pass reduces its terms by one rule, on the graph its
    distribution is Markov to (``_Forward.source``), and every confounder
    born in an unrolled window is one exogenous variable."""

    @staticmethod
    def _p0_calls(spec, x, t_x, yv, t_y, p0):
        """Every pipeline that takes p0, on one query: its answer, None
        for a hedge, or the type of its refusal."""
        calls = {
            "dcn": lambda: dcn_id_static(spec, x, t_x, {yv}, t_y, None, p0),
            "cdcn": lambda: cdcn_id_static(spec, x, t_x, {yv}, t_y, None, p0),
            "transport": lambda: transport(spec, TransportSpec(()), x, t_x, {yv}, t_y, None, p0),
            "trajectory": lambda: trajectory(spec, None, p0, (x, t_x), t_y),
            "step_kernel": lambda: step_kernel_matrix(spec, x, t_x, None, p0),
        }
        out = {}
        for name, call in calls.items():
            try:
                out[name] = call()
            except (InvalidInputError, UnsupportedModelError, UnsupportedQueryError,
                    UnsupportedTransportError) as ex:
                out[name] = type(ex)
        return out

    def test_p0_of_the_mechanism_answers_as_the_mechanism(self):
        """With p0 = ``initial_distribution(spec)``, the same distribution
        as the mechanism's first slice, every pipeline that takes p0
        answers within 1e-12 of the call without p0, with the same partial
        flags, and hedges or refuses exactly when it does: on the 150-spec
        static generator at t_x = 2 and 5, and on every query of
        ``zero_context_spec`` and of its zero-mass variant."""
        queries = [(spec, x, yv, t_y, t_x) for t_x in (2, 5)
                   for spec, x, yv, t_y in _generator_queries("static", t_x)]
        for spec in (zero_context_spec(), zero_mass_spec()):
            queries += [(spec, {xv: val}, yv, 5, 2) for xv, val, yv
                        in itertools.product(spec.names(), (0, 1), spec.names())]
        answered = Counter()
        for spec, x, yv, t_y, t_x in queries:
            want = self._p0_calls(spec, x, t_x, yv, t_y, None)
            got = self._p0_calls(spec, x, t_x, yv, t_y, initial_distribution(spec))
            for name, w in want.items():
                g = got[name]
                if w is None or isinstance(w, type):
                    assert g is w, (name, w, g)
                    continue
                answered[name] += 1
                if name == "step_kernel":
                    (w_matrix, reachable), (g_matrix, g_reachable) = w, g
                    assert np.array_equal(reachable, g_reachable)
                    assert np.max(np.abs(w_matrix - g_matrix)[:, reachable]) <= 1e-12
                    continue
                for a, b in zip(*(f if isinstance(f, list) else [f] for f in (w, g)), strict=True):
                    assert a.names() == b.names() and a.partial == b.partial
                    assert np.max(np.abs(a.table - b.table)) <= 1e-12
        assert len(answered) == 5 and min(answered.values()) >= 100, answered

    def test_unrolled_confounders_feed_their_children_in_the_window(self):
        """``unrolled_scm`` makes one exogenous variable of every confounder
        born in the window, slice by slice in template order; one whose
        later child lies past the window feeds its earlier child alone.
        The window's joint is then the marginal of a wider window's."""
        single = 0
        for spec, *_query in itertools.islice(_generator_queries("dynamic", 2), 12):
            exos = spec.mechanism.exos
            for t_end in range(3):
                m = unrolled_scm(spec, 0, t_end)
                assert [u.var.name for u in m.exogenous] == [
                    f"{e.name}@{t}" for t in range(t_end + 1) for e in exos]
                for u, (t, e) in zip(m.exogenous, itertools.product(range(t_end + 1), exos)):
                    later = {slice_var_at(e.later, t + e.lag)} if t + e.lag <= t_end else set()
                    assert u.feeds == {slice_var_at(e.earlier, t)} | later
                    single += len(u.feeds) == 1
                window = joint(m)
                wider = joint(unrolled_scm(spec, 0, t_end + 1), window.names())
                assert np.max(np.abs(wider.reorder(window.names()).table - window.table)) <= 1e-12
        assert single > 20
