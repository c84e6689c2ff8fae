"""End to end on domain-3 variables, with domain-3 confounders where the
generators allow them: identified effects against the brute-force
interventional oracle, one discovery trial, and the complete DCN window
algorithms against the unrolled model's oracle."""

import itertools

import numpy as np

from docalc.alcam import alcam_run
from docalc.dcn import (cdcn_id_dynamic, cdcn_id_static, classify, dynamic_time_span,
                        random_dcn_spec, slice_var_at, unrolled_scm)
from docalc.identify import effect_factor, id_effect
from docalc.scm import InterventionSpec, joint, oracle_query, random_admg, random_scm
from conftest import bf_do, bf_marginal
from test_acceptance import _generic_candidate_trial


def test_identified_effects_match_bf_do():
    """Every identified effect of one or two targets on one outcome, at
    every value of the targets, matches ``bf_do`` within 1e-9."""
    rng = np.random.default_rng(3001)
    checked = unidentified = 0
    for _ in range(25):
        g = random_admg(rng, int(rng.integers(3, 5)), edge_prob=0.5, max_confounders=2,
                        domain=3)
        m = random_scm(rng, g, exo_domain=3)
        p, names = joint(m), list(g.names())
        truth = {}  # (targets, values) -> the post-intervention joint
        for xs in itertools.chain(itertools.combinations(names, 1),
                                  itertools.combinations(names, 2)):
            for y in (n for n in names if n not in xs):
                res = id_effect(g, set(xs), {y})
                if not res.identified:
                    unidentified += 1
                    continue
                for vals in itertools.product(range(3), repeat=len(xs)):
                    fix = dict(zip(xs, vals))
                    if (xs, vals) not in truth:
                        truth[xs, vals] = bf_do(m, fix)
                    got = effect_factor(res.expr, p, fix, {y}).table
                    for (k,), want in bf_marginal(truth[xs, vals], names, [y]).items():
                        assert abs(got[k] - want) <= 1e-9, (g, xs, vals, y)
                checked += 1
    assert checked > 200 and unidentified > 20, (checked, unidentified)


def test_discovery_trial_finds_the_true_graph():
    """One generic criterion-5 trial on domain-3 variables returns the true
    graph within the intervention bound."""
    rng = np.random.default_rng(3002)
    cs, m, true_g = next(d for d in (_generic_candidate_trial(rng, domain=3)
                                      for _ in range(20)) if d is not None)
    res = alcam_run(cs, m)
    assert len(cs.graphs) > 1
    assert res.final == true_g
    assert res.n_interventions <= res.n_candidates - res.n_surviving_before_ci


def test_complete_window_algorithms_match_the_unrolled_oracle():
    """``cdcn_id_static`` and ``cdcn_id_dynamic`` on random 2-variable
    specs: each answer matches the unrolled model's interventional oracle
    within 1e-9, and each refusal is an effect that identification on the
    unrolled graph refuses too."""
    rng = np.random.default_rng(3003)
    answered = {cdcn_id_static: 0, cdcn_id_dynamic: 0}
    refused = 0
    while min(answered.values()) < 6:
        dynamic = rng.random() < 0.5
        spec = random_dcn_spec(rng, n_vars=2, n_static_conf=int(rng.integers(0, 2)),
                               n_dynamic_conf=int(dynamic), domain=3)
        names = spec.names()
        xv, yv = (names[int(rng.integers(2))] for _ in range(2))
        span = dynamic_time_span(spec, [xv])
        if span.is_infinite or dynamic_time_span(spec, names).is_infinite:
            continue
        t_x = 2
        t_y = max(t_x + span.slices + 1, 4)
        runner = cdcn_id_static if classify(spec).is_static else cdcn_id_dynamic
        x = {xv: int(rng.integers(3))}
        got = runner(spec, x, t_x, {yv}, t_y)
        m = unrolled_scm(spec, 0, t_y)
        target, outcome = slice_var_at(xv, t_x), slice_var_at(yv, t_y)
        if got is None:
            assert not id_effect(m.graph, {target}, {outcome}).identified
            refused += 1
            continue
        want = oracle_query(m, InterventionSpec(frozenset({target}), {target: x[xv]},
                                                frozenset({outcome})))
        assert np.max(np.abs(got.reorder([yv]).table - want.table)) <= 1e-9
        answered[runner] += 1
