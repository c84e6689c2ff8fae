"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's factor machinery:
joints are dictionaries filled by plain loops over assignments, and the
d-separation oracle enumerates paths on the latent-expanded DAG.  They
exist to validate the fast implementations against something that could
not share a bug with them.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from docalc.graphs import Admg, Var
from docalc.dcn import DcnMechanism, DcnSpec, SliceCpt, SliceExo
from docalc.factors import TransitionMatrix
from docalc.scm import Scm, random_admg


# -- brute-force probability oracles ----------------------------------------

def bf_joint(m: Scm) -> dict[tuple[int, ...], float]:
    """Observed joint by full enumeration of observed and exogenous values."""
    obs = [v.name for v in m.graph.vars]
    doms = {v.name: v.domain for v in m.graph.vars}
    exo = [(e.var.name, e.var.domain, np.asarray(e.prior)) for e in m.exogenous]
    order = []
    placed: set[str] = set()
    while len(order) < len(obs):
        for n in obs:
            if n not in placed and m.graph.parents_of(n) <= placed:
                order.append(n)
                placed.add(n)
    out: dict[tuple[int, ...], float] = {}
    for v_assign in itertools.product(*(range(doms[n]) for n in obs)):
        val = dict(zip(obs, v_assign))
        total = 0.0
        for u_assign in itertools.product(*(range(d) for _n, d, _p in exo)):
            uval = dict(zip((n for n, _d, _p in exo), u_assign))
            p = 1.0
            for (_n, _d, prior), u in zip(exo, u_assign):
                p *= float(prior[u])
            for n in order:
                cpt = m.cpts[n]
                idx = tuple(val[q] for q in cpt.parents)
                idx += tuple(uval[q] for q in cpt.exo_parents)
                idx += (val[n],)
                p *= float(np.asarray(cpt.table)[idx])
            total += p
        out[v_assign] = total
    return out


def bf_do(m: Scm, targets: dict[str, int]) -> dict[tuple[int, ...], float]:
    """Post-intervention joint: clamp targets, drop their mechanisms."""
    obs = [v.name for v in m.graph.vars]
    doms = {v.name: v.domain for v in m.graph.vars}
    exo = [(e.var.name, e.var.domain, np.asarray(e.prior)) for e in m.exogenous]
    order = []
    placed: set[str] = set()
    while len(order) < len(obs):
        for n in obs:
            if n not in placed and m.graph.parents_of(n) <= placed:
                order.append(n)
                placed.add(n)
    out: dict[tuple[int, ...], float] = {}
    for v_assign in itertools.product(*(range(doms[n]) for n in obs)):
        val = dict(zip(obs, v_assign))
        if any(val[k] != v for k, v in targets.items()):
            out[v_assign] = 0.0
            continue
        total = 0.0
        for u_assign in itertools.product(*(range(d) for _n, d, _p in exo)):
            uval = dict(zip((n for n, _d, _p in exo), u_assign))
            p = 1.0
            for (_n, _d, prior), u in zip(exo, u_assign):
                p *= float(prior[u])
            for n in order:
                if n in targets:
                    continue
                cpt = m.cpts[n]
                idx = tuple(val[q] for q in cpt.parents)
                idx += tuple(uval[q] for q in cpt.exo_parents)
                idx += (val[n],)
                p *= float(np.asarray(cpt.table)[idx])
            total += p
        out[v_assign] = total
    return out


def bf_marginal(joint: dict[tuple[int, ...], float], names: list[str],
                keep: list[str]) -> dict[tuple[int, ...], float]:
    pos = [names.index(k) for k in keep]
    out: dict[tuple[int, ...], float] = {}
    for assign, p in joint.items():
        key = tuple(assign[i] for i in pos)
        out[key] = out.get(key, 0.0) + p
    return out


def close_within(a, b, atol: float) -> bool:
    """Max absolute cell difference of factors ``a`` and ``b`` <= ``atol``,
    after aligning ``b`` to ``a``'s scope: the package compares at its one
    tolerance, ``EPS_CMP``, and tests also check tighter bounds."""
    if sorted(a.names()) != sorted(b.names()):
        raise AssertionError(f"scopes differ: {a.names()} and {b.names()}")
    return bool(np.max(np.abs(a.table - b.reorder(a.names()).table), initial=0.0) <= atol)


# -- independent d-separation oracle (latent expansion + path enumeration) --

def bf_d_separated(g: Admg, x: set, y: set, z: set) -> bool:
    nodes = list(g.names())
    parents: dict[str, set[str]] = {n: set(g.parents_of(n)) for n in nodes}
    children: dict[str, set[str]] = {n: set(g.children_of(n)) for n in nodes}
    for i, pair in enumerate(sorted(g.bidirected, key=sorted)):
        a, b = sorted(pair)
        u = f"__u{i}"
        nodes.append(u)
        parents[u] = set()
        children[u] = {a, b}
        parents[a].add(u)
        parents[b].add(u)

    def neighbors(n):
        for c in children[n]:
            yield c, "out"
        for p in parents[n]:
            yield p, "in"

    zset = set(z)
    # descendants of each node, for collider activation
    desc: dict[str, set[str]] = {}
    for n in nodes:
        seen = {n}
        stack = [n]
        while stack:
            v = stack.pop()
            for c in children[v]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        desc[n] = seen

    def blocked(path: list[tuple[str, str]]) -> bool:
        # path entries: (node, direction we leave it by); an interior node
        # is a collider iff both incident edges point into it
        for i in range(1, len(path) - 1):
            entered_via_head = path[i - 1][1] == "out"
            node, leave_dir = path[i]
            leaves_via_head = leave_dir == "in"
            if entered_via_head and leaves_via_head:
                if not (desc[node] & zset):
                    return True
            else:
                if node in zset:
                    return True
        return False

    for s in x:
        stack = [[(s, None)]]
        while stack:
            path = stack.pop()
            node = path[-1][0]
            for nxt, direction in neighbors(node):
                if any(nxt == p[0] for p in path):
                    continue
                new = path[:-1] + [(node, direction), (nxt, None)]
                if nxt in y:
                    if not blocked(new):
                        return False
                    continue
                stack.append(new)
    return True


# -- independent hedge existence search --------------------------------------

def bf_hedge_exists(g: Admg, x: set, y: set) -> bool:
    """Enumerate (F, F', R) triples directly from the definition."""
    from docalc.graphs import ancestors, mutilate

    names = sorted(g.names())
    an_y = ancestors(mutilate(g, remove_incoming=x), y)

    def bidirected_connected(vs: frozenset) -> bool:
        if not vs:
            return False
        vs = set(vs)
        start = next(iter(vs))
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.siblings_of(v):
                if w in vs and w not in comp:
                    comp.add(w)
                    stack.append(w)
        return comp == vs

    def reaches(vs: frozenset, r: frozenset) -> bool:
        reach = set(r)
        changed = True
        while changed:
            changed = False
            for v in vs:
                if v not in reach and g.children_of(v) & reach & vs:
                    reach.add(v)
                    changed = True
        return reach >= vs

    non_x = [n for n in names if n not in x]
    for rf in range(1, len(non_x) + 1):
        for fp in itertools.combinations(non_x, rf):
            fp = frozenset(fp)
            if not bidirected_connected(fp):
                continue
            for rr in range(1, len(fp) + 1):
                for r in itertools.combinations(sorted(fp), rr):
                    r = frozenset(r)
                    if not r <= an_y:
                        continue
                    if any(g.children_of(v) & fp for v in r):
                        continue
                    if not reaches(fp, r):
                        continue
                    rest = [n for n in names if n not in fp]
                    for k in range(1, len(rest) + 1):
                        for extra in itertools.combinations(rest, k):
                            f = fp | frozenset(extra)
                            if not (f & x):
                                continue
                            if not bidirected_connected(f):
                                continue
                            if not reaches(f, r):
                                continue
                            return True
    return False


# -- canonical shared fixtures ----------------------------------------------

def criterion2_graphs() -> list[Admg]:
    """The criterion-2 family: 4-variable DAGs with <= 2 bidirected edges."""
    names = ["A", "B", "C", "D"]
    variables = [Var(n) for n in names]
    pairs = list(itertools.combinations(names, 2))
    dags = set()
    for perm in itertools.permutations(names):
        possible = [(a, b) for i, a in enumerate(perm) for b in perm[i + 1:]]
        for r in range(len(possible) + 1):
            dags.update(frozenset(c) for c in itertools.combinations(possible, r))
    return [Admg(variables, sorted(edges), confs)
            for edges in sorted(dags, key=sorted)
            for n in range(3) for confs in itertools.combinations(pairs, n)]


def seeded_admgs(seed: int, n_criterion2: int, n_random: int) -> list[Admg]:
    """A seeded draw of ``n_criterion2`` criterion-2 graphs plus
    ``n_random`` random ADMGs of 5-7 variables."""
    rng = np.random.default_rng(seed)
    family = criterion2_graphs()
    picked = [family[i] for i in sorted(rng.choice(len(family), n_criterion2, replace=False))]
    return picked + [random_admg(rng, int(rng.integers(5, 8)), edge_prob=0.4, max_confounders=3)
                     for _ in range(n_random)]


@pytest.fixture(scope="session")
def fig12_graphs():
    """Four candidate graphs over X, Y, Z with the captioned do-free forms."""
    V = (Var("X"), Var("Y"), Var("Z"))
    g1 = Admg(V, [("X", "Y"), ("X", "Z"), ("Y", "Z")])
    g2 = Admg(V, [("X", "Y"), ("Y", "Z")], [("X", "Z")])
    g3 = Admg(V, [("X", "Y"), ("X", "Z")])
    g4 = Admg(V, [("X", "Y")])
    return g1, g2, g3, g4


@pytest.fixture(scope="session")
def fig32_trio():
    """Chain X1->X2->X3->X4 candidates: plain, one confounder, and a
    hedge-carrying superset that no single-value intervention separates."""
    V = (Var("X1"), Var("X2"), Var("X3"), Var("X4"))
    chain = [("X1", "X2"), ("X2", "X3"), ("X3", "X4")]
    g1 = Admg(V, chain)
    g2 = Admg(V, chain, [("X1", "X3")])
    g3 = Admg(V, chain, [("X1", "X2"), ("X1", "X3")])
    return g1, g2, g3


T1_ROWS = np.array(
    [[0.0, 0.4, 0.0, 0.3, 0.0, 0.2, 0.0, 0.1]] * 4
    + [[0.2, 0.0, 0.0, 0.1, 0.4, 0.0, 0.0, 0.3]] * 4)
T2_ROWS = np.array(
    [[0.1, 0.0, 0.3, 0.1, 0.2, 0.2, 0.0, 0.1]] * 4
    + [[0.0, 0.2, 0.1, 0.0, 0.1, 0.3, 0.3, 0.0]] * 4)
T_STEADY_ROWS = np.array(
    [[0.02, 0.0, 0.03, 0.0, 0.26, 0.13, 0.34, 0.22]] * 4
    + [[0.34, 0.1, 0.24, 0.21, 0.0, 0.02, 0.09, 0.0]] * 4)

# state order fixed empirically by the A-matrix reproduction: tr1 is the
# most significant digit, then tr2, then d
TRAFFIC_STATE_VARS = (Var("tr1"), Var("tr2"), Var("d"))


def traffic_spec(mechanism: DcnMechanism | None = None) -> DcnSpec:
    return DcnSpec(
        slice_vars=TRAFFIC_STATE_VARS,
        intra_edges=(("tr1", "d"), ("tr2", "d")),
        cross_edges=(("d", "tr1", 1), ("d", "tr2", 1)),
        intra_confounders=(frozenset({"tr1", "tr2"}),),
        mechanism=mechanism,
    )


def traffic_mechanism() -> DcnMechanism:
    """Concrete parameterization of the two-road model (weather confounds
    the roads; the delay drives the next day's road choice)."""
    w = SliceExo("w", (0.4, 0.6), "tr1", "tr2", 0)
    # axes: cross parent d(t-1), exo w, var
    tr1 = SliceCpt("tr1", (), (("d", 1),), ("w",), np.array(
        [[[0.8, 0.2], [0.5, 0.5]],
         [[0.3, 0.7], [0.1, 0.9]]]))
    tr2 = SliceCpt("tr2", (), (("d", 1),), ("w",), np.array(
        [[[0.7, 0.3], [0.4, 0.6]],
         [[0.45, 0.55], [0.15, 0.85]]]))
    # axes: intra parents tr1, tr2, var
    d = SliceCpt("d", ("tr1", "tr2"), (), (), np.array(
        [[[0.9, 0.1], [0.6, 0.4]],
         [[0.5, 0.5], [0.2, 0.8]]]))
    return DcnMechanism((tr1, tr2, d), (w,))


@pytest.fixture(scope="session")
def traffic():
    spec = traffic_spec()
    t1 = TransitionMatrix.from_rows(TRAFFIC_STATE_VARS, T1_ROWS)
    t2 = TransitionMatrix.from_rows(TRAFFIC_STATE_VARS, T2_ROWS)
    t_steady = TransitionMatrix.from_rows(TRAFFIC_STATE_VARS, T_STEADY_ROWS)
    return spec, t1, t2, t_steady


def weekday_schedule(t1: TransitionMatrix, t2: TransitionMatrix):
    """Transition into day t+1: weekdays follow t1, weekend days t2."""
    return lambda t: t2 if (t + 1) % 7 in (5, 6) else t1


def random_mechanism_for(spec: DcnSpec, rng: np.random.Generator) -> DcnSpec:
    """Attach a random mechanism to a bare spec."""
    exos = []
    exo_of: dict[str, list[str]] = {n: [] for n in spec.names()}
    for i, pair in enumerate(sorted(spec.intra_confounders, key=sorted)):
        a, b = sorted(pair)
        name = f"U{i+1}"
        exos.append(SliceExo(name, tuple(rng.dirichlet(np.ones(2))), a, b, 0))
        exo_of[a].append(name)
        exo_of[b].append(name)
    for j, (a, b, k) in enumerate(sorted(spec.cross_confounders)):
        name = f"W{j+1}"
        exos.append(SliceExo(name, tuple(rng.dirichlet(np.ones(2))), a, b, k))
        exo_of[a].append(name)
        exo_of[b].append(name)
    cpts = []
    for n in spec.names():
        dom = spec.var(n).domain
        intra = tuple(sorted(a for a, b in spec.intra_edges if b == n))
        cross = tuple(sorted((a, k) for a, b, k in spec.cross_edges if b == n))
        exo_p = tuple(exo_of[n])
        shape = tuple(spec.var(a).domain for a in intra)
        shape += tuple(spec.var(a).domain for a, _k in cross)
        shape += tuple(2 for _ in exo_p)
        n_rows = int(np.prod(shape)) if shape else 1
        rows = rng.dirichlet(np.ones(dom), size=n_rows)
        cpts.append(SliceCpt(n, intra, cross, exo_p, rows.reshape(shape + (dom,))))
    return DcnSpec(spec.slice_vars, spec.intra_edges, spec.cross_edges,
                   spec.intra_confounders, spec.cross_confounders,
                   DcnMechanism(tuple(cpts), tuple(exos)))


@pytest.fixture(scope="session")
def fig61_spec():
    """Identifiable query that the plain step algorithm misses: the bow
    X<->R blocks the full-slice step query, but R never feeds the chain
    that carries the outcome."""
    bare = DcnSpec(
        slice_vars=(Var("X"), Var("R"), Var("C")),
        intra_edges=(("X", "R"), ("X", "C")),
        cross_edges=(("R", "R", 1), ("C", "C", 1)),
        intra_confounders=(frozenset({"X", "R"}),),
    )
    return random_mechanism_for(bare, np.random.default_rng(61))
