"""Parameterized structural causal models over finite domains, and the
package's one exact-inference core.

Models are exact: ``joint(m, keep)`` computes the marginal P(keep) of
the observed variables by variable elimination over the conditional
tables and confounder priors, never by sampling.  Every variable outside
``keep`` (exogenous or observed) is summed out as soon as the tables that
mention it are combined, so the full product over observed and
exogenous variables is never built.  ``_contract`` is the one
contraction (the only einsum call, under the cell cap) and
``_eliminate`` the one elimination loop: ``joint``, oracle answers and
CI tests (one elimination over the model's own tables, no intervened
model built), the evaluator of identified expressions
(``identify._sum_product``) and the DCN forward pass all go through
them.  Hidden confounders are explicit exogenous variables, each
feeding the pair of observed variables its bidirected edge joins.
Models are immutable; queries are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, PartialSupportError, UnsupportedModelError
from .factors import EPS_NORM, Factor, _float_array, _within, condition, marginalize
from .graphs import Admg, Var, _mask, _names_of, mutilate

__all__ = [
    "Cpt",
    "Exogenous",
    "Scm",
    "InterventionSpec",
    "joint",
    "intervene",
    "oracle_query",
    "ci_test",
    "InterventionOracle",
    "random_admg",
    "random_scm",
]


@dataclass(frozen=True)
class Cpt:
    """Conditional table for one observed variable.

    ``table`` has one axis per parent (observed parents first, then
    exogenous parents, in the declared order) and a final axis for the
    variable itself; every parent-context row sums to 1.
    """

    var: str
    parents: tuple[str, ...]
    exo_parents: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        _check_rows(self.var, self.table)


def _check_rows(var: str, table: np.ndarray) -> None:
    """Every row along the last axis of ``var``'s table is a distribution.
    The comparisons are negated so that a NaN fails them."""
    rows = _float_array(table, f"cpt of {var!r}")
    if rows.size == 0:
        raise InvalidInputError(f"cpt of {var!r} is empty")
    if not rows.min() >= -1e-12:
        raise InvalidInputError(f"cpt of {var!r} has negative or NaN entries")
    if not abs(rows.sum(axis=-1) - 1.0).max() <= EPS_NORM:
        raise InvalidInputError(f"cpt rows of {var!r} must sum to 1")


def _check_prior(var: str, prior: Sequence[float]) -> None:
    arr = _float_array(prior, f"prior of {var!r}")
    if arr.ndim != 1:
        raise InvalidInputError(f"prior of {var!r} is not a flat sequence")
    prior = arr.tolist()
    if not prior or not abs(sum(prior) - 1.0) <= EPS_NORM or not min(prior) >= 0:
        raise InvalidInputError(f"prior of {var!r} is not a distribution")


@dataclass(frozen=True)
class Exogenous:
    """Hidden variable with a prior, feeding one or two observed variables."""

    var: Var
    prior: tuple[float, ...]
    feeds: frozenset[str]

    def __post_init__(self) -> None:
        if len(self.prior) != self.var.domain:
            raise InvalidInputError(f"prior of {self.var.name!r} has wrong length")
        _check_prior(self.var.name, self.prior)
        if not 1 <= len(self.feeds) <= 2:
            raise InvalidInputError("an exogenous variable feeds one or two observed variables")


class Scm:
    """Structural causal model: ADMG + CPTs + exogenous confounder priors."""

    __slots__ = ("graph", "exogenous", "cpts")

    def __init__(self, graph: Admg, cpts: Mapping[str, Cpt],
                 exogenous: Sequence[Exogenous] = ()):
        self.graph = graph
        self.exogenous: tuple[Exogenous, ...] = tuple(exogenous)
        self.cpts: dict[str, Cpt] = dict(cpts)
        names = set(graph.names())
        if set(self.cpts) != names:
            raise InvalidInputError("cpts must cover exactly the observed variables")
        exo_names = {e.var.name for e in self.exogenous}
        if len(exo_names) != len(self.exogenous):
            raise InvalidInputError("exogenous names must be unique")
        if exo_names & names:
            raise InvalidInputError("exogenous names collide with observed variables")

        for name, cpt in self.cpts.items():
            if cpt.var != name:
                raise InvalidInputError(f"cpt key {name!r} does not match {cpt.var!r}")
            if _mask(graph, cpt.parents, "cpt parents") != graph._pa[graph._index(name)]:
                raise InvalidInputError(f"cpt parents of {name!r} disagree with the graph")
            exo = [self._exo(e) for e in cpt.exo_parents]
            for e in exo:
                if name not in e.feeds:
                    raise InvalidInputError(f"exo parent {e.var.name!r} of {name!r} "
                                            "does not feed it")
            shape = tuple(graph.var(p).domain for p in cpt.parents)
            shape += tuple(e.var.domain for e in exo)
            shape += (graph.var(name).domain,)
            if np.asarray(cpt.table).shape != shape:
                raise InvalidInputError(f"cpt table of {name!r} has shape "
                                        f"{np.asarray(cpt.table).shape}, expected {shape}")

        # bidirected edges and two-feed exogenous variables must correspond 1:1
        pairs = [e.feeds for e in self.exogenous if len(e.feeds) == 2]
        if len(set(pairs)) != len(pairs):
            raise InvalidInputError("two exogenous variables feed the same pair")
        if set(pairs) != set(graph.bidirected):
            raise InvalidInputError("bidirected edges and confounder variables disagree")
        for e in self.exogenous:
            for target in e.feeds:
                if e.var.name not in self.cpts[target].exo_parents:
                    raise InvalidInputError(
                        f"{e.var.name!r} feeds {target!r} but is not among its exo parents")

    def _exo(self, name: str) -> Exogenous:
        for e in self.exogenous:
            if e.var.name == name:
                return e
        raise InvalidInputError(f"unknown exogenous variable {name!r}")


@dataclass(frozen=True)
class InterventionSpec:
    """An experiment E = (X, x, Y): force X to x, observe Y."""

    targets: frozenset[str]
    values: Mapping[str, int]
    observed: frozenset[str]
    _key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.targets & self.observed:
            raise InvalidInputError("intervened and observed sets must be disjoint")
        if frozenset(self.values) != self.targets:
            raise InvalidInputError("values must cover exactly the intervened set")
        object.__setattr__(self, "_key", (tuple(sorted(self.targets)),
                                          tuple(v for _, v in sorted(self.values.items())),
                                          tuple(sorted(self.observed))))

    @classmethod
    def _trusted(cls, targets: tuple[str, ...], values: Mapping[str, int],
                 observed: tuple[str, ...], key: tuple) -> "InterventionSpec":
        """Trusted constructor for an experiment enumerated from a graph:
        ``targets`` and ``observed`` sorted and disjoint, ``values`` over
        exactly the targets, and ``key`` the :meth:`key` of the three;
        nothing is checked."""
        e = object.__new__(cls)
        e.__dict__.update(targets=frozenset(targets), values=values,
                          observed=frozenset(observed), _key=key)
        return e

    def key(self) -> tuple:
        """(sorted targets, their values in that order, sorted observed),
        computed once at construction."""
        return self._key

    def __hash__(self) -> int:
        # equal specs have equal keys; the generated hash would hash the values dict
        return hash(self._key)

    def __str__(self) -> str:
        do = ",".join(f"{k}={v}" for k, v in sorted(self.values.items()))
        return f"({{{do}}} -> {{{','.join(sorted(self.observed))}}})"


# a single einsum call accepts at most this many distinct axis labels
_EINSUM_LABELS = 52

# the most cells one contraction tabulates (an elimination step or an output table)
MAX_TABLE_CELLS = 1 << 22


def _check_cells(cells: int) -> None:
    if cells > MAX_TABLE_CELLS:
        raise UnsupportedModelError(f"a contraction would tabulate a table of {cells} cells "
                                    f"(cap {MAX_TABLE_CELLS})")


def _contract(tables: Sequence[tuple[tuple[str, ...], np.ndarray]],
              out: Sequence[str], domain: Mapping[str, int]) -> np.ndarray:
    """Product of the tables summed onto ``out``, as one einsum, read-only;
    the output is checked against ``MAX_TABLE_CELLS`` before it is built.

    The operands are the tables as they stand, labelled per contraction.
    Only past einsum's label cap are the unit-domain variables, which
    carry no information, left out of the labels, then restored as
    length-1 axes of the result.  Contractions of validated non-negative
    tables need no check as factor tables."""
    _check_cells(math.prod(domain[n] for n in out))
    labels: dict[str, int] = {}
    operands: list = []
    for scope, table in tables:
        operands += (table, [labels.setdefault(n, len(labels)) for n in scope])
    if len(labels) > _EINSUM_LABELS:
        if all(domain[n] > 1 for n in labels):
            raise UnsupportedModelError(
                f"an elimination step spans {len(labels)} variables of domain > 1 "
                f"(at most {_EINSUM_LABELS})")
        wide = [(tuple(n for n in s if domain[n] > 1), t.reshape([d for d in t.shape if d > 1]))
                for s, t in tables]
        return _contract(wide, [n for n in out if domain[n] > 1],
                         domain).reshape([domain[n] for n in out])
    result = np.asarray(np.einsum(*operands, [labels[n] for n in out]))
    result.flags.writeable = False
    return result


def _eliminate(tables: Sequence[tuple[tuple[str, ...], np.ndarray]], over: Iterable[str],
               out: Sequence[str], domain: Mapping[str, int],
               rank: Mapping[str, int]) -> np.ndarray:
    """The product of the tables summed over ``over`` onto ``out``, by
    variable elimination (Zhang & Poole 1994): the next variable to sum out
    is the one whose combined table is smallest, ties broken by ``rank``;
    the tables that hold it are contracted into one, which joins the end
    of the list.  A variable that no table holds scales the result by its
    domain.  Every step is one ``_contract``, so each table it tabulates
    passes the cell cap.  Each hidden variable's combined scope (``near``)
    and cost are kept; a step changes only those of the eliminated
    variable's neighbours, whose tables it merged."""
    tables = list(tables)
    held = {n for scope, _t in tables for n in scope}
    hidden = set(over)
    scale = float(math.prod(domain[n] for n in hidden - held))
    near: dict[str, set[str]] = {n: set() for n in hidden & held}
    for scope, _t in tables:
        for n in scope:
            if n in near:
                near[n].update(scope)

    def cost(n: str) -> tuple[int, int]:
        return math.prod(domain[m] for m in near[n]) // domain[n], rank[n]

    costs = {n: cost(n) for n in near}
    while costs:
        var = min(costs, key=costs.__getitem__)
        del costs[var]
        used = [item for item in tables if var in item[0]]
        tables = [item for item in tables if var not in item[0]]
        scope = tuple(dict.fromkeys(n for s, _t in used for n in s if n != var))
        tables.append((scope, _contract(used, scope, domain)))
        for n in scope:
            if n in costs:
                near[n].update(scope)
                near[n].discard(var)
                costs[n] = cost(n)
    # the scale gives einsum an operand even when no table is left
    return _contract([((), np.asarray(scale))] + tables, out, domain)


def joint(m: Scm, keep: Optional[Iterable[str]] = None) -> Factor:
    """Exact P(keep) over observed variables, in graph order.

    ``keep=None`` keeps every observed variable.  Every other variable is
    eliminated by ``_eliminate`` over the CPTs and confounder priors, ties
    in declaration order, observed before exogenous.  A step or an output
    table over ``MAX_TABLE_CELLS`` cells raises ``UnsupportedModelError``
    before it is built.
    """
    return _do_joint(m, {}, keep)


def _do_joint(m: Scm, x: Mapping[str, int], keep: Optional[Iterable[str]]) -> Factor:
    """``joint(intervene(m, x), keep)``, table for table, by one elimination
    over ``m``'s own tables: each target's CPT becomes a one-hot table over
    the target alone, and an exogenous variable that feeds only targets is
    dropped, as ``intervene`` drops it.  No intervened model is built."""
    _check_values(m, x)
    observed = m.graph.names()
    kept = frozenset(observed) if keep is None else frozenset(keep)
    unknown = kept - frozenset(observed)
    if unknown:
        raise InvalidInputError(f"joint: {sorted(unknown)} are not observed variables")
    exo = [e for e in m.exogenous if not e.feeds <= x.keys()]
    domain = {v.name: v.domain for v in m.graph.vars}
    domain.update((e.var.name, e.var.domain) for e in exo)
    tables = [((e.var.name,), np.asarray(e.prior, dtype=float)) for e in exo]
    for name in observed:
        if name in x:
            row = np.zeros(domain[name])
            row[x[name]] = 1.0
            tables.append(((name,), row))
        else:
            cpt = m.cpts[name]
            tables.append((cpt.parents + cpt.exo_parents + (name,),
                           np.asarray(cpt.table, dtype=float)))
    out = tuple(n for n in observed if n in kept)
    rank = {n: i for i, n in enumerate(domain)}
    return Factor([m.graph.var(n) for n in out],
                  _eliminate(tables, set(domain) - kept, out, domain, rank))


def _check_values(m: Scm, x: Mapping[str, int]) -> None:
    """Refuse an unknown intervened variable or a value outside its domain."""
    for name, val in x.items():
        if not 0 <= val < m.graph.var(name).domain:
            raise InvalidInputError(f"value {val} out of domain for {name}")


def intervene(m: Scm, x: Mapping[str, int]) -> Scm:
    """Model after do(X=x): point-mass CPTs, incoming edges removed."""
    _check_values(m, x)
    g2 = mutilate(m.graph, remove_incoming=x.keys())
    cpts: dict[str, Cpt] = {}
    for name, cpt in m.cpts.items():
        if name in x:
            dom = m.graph.var(name).domain
            row = np.zeros(dom)
            row[x[name]] = 1.0
            cpts[name] = Cpt(name, (), (), row)
        else:
            cpts[name] = cpt
    exo = []
    for e in m.exogenous:
        kept = frozenset(t for t in e.feeds if t not in x)
        if kept:
            exo.append(Exogenous(e.var, e.prior, kept))
        # an exogenous variable cut off from all its targets disappears
    return Scm(g2, cpts, exo)


def oracle_query(m_star: Scm, e: InterventionSpec) -> Factor:
    """Ground-truth P*(Y | do(X=x)), ``joint`` of the mutilated model by
    exact elimination over the true model's tables."""
    return _do_joint(m_star, e.values, e.observed)


def ci_test(
    m_star: Scm,
    vi: str,
    vj: str,
    do_set: Mapping[str, int],
) -> bool:
    """Exact independence test of vi and vj under do(do_set).

    Compares P(vj) with P(vj | vi) across all value pairs.  Raises
    PartialSupportError when some vi value has zero probability.
    """
    if vi in do_set or vj in do_set:
        raise InvalidInputError("test variables may not be intervened")
    pair = _do_joint(m_star, do_set, {vi, vj}).normalized()
    cond = condition(pair, [vi])
    if cond.partial:
        raise PartialSupportError(f"some value of {vi!r} has zero probability in the test context")
    base = marginalize(pair, [vi]).normalized()
    return bool(_within(cond.reorder([vi, vj]).table, base.table))


class InterventionOracle:
    """Serialized access point to the true model's interventional answers.

    The call counter is the one mutable element of the module; a single
    coordinator (the discovery loop) owns each instance.
    """

    def __init__(self, m_star: Scm):
        self.m_star = m_star
        self.calls = 0
        self.log: list[InterventionSpec] = []

    def query(self, e: InterventionSpec) -> Factor:
        self.calls += 1
        self.log.append(e)
        return oracle_query(self.m_star, e)

    def ci_test(self, vi: str, vj: str, do_set: Mapping[str, int]) -> bool:
        """``ci_test`` on the true model, counted and logged as the
        experiment it performs: do(do_set), observing vi and vj."""
        self.calls += 1
        self.log.append(InterventionSpec(frozenset(do_set), dict(do_set), frozenset({vi, vj})))
        return ci_test(self.m_star, vi, vj, do_set)


# -- random generation (demos, discovery simulations, property tests) --------

def random_admg(
    rng: np.random.Generator,
    n_vars: int,
    edge_prob: float = 0.5,
    max_confounders: int = 2,
    domain: int = 2,
) -> Admg:
    """Random ADMG: random DAG in a random vertex order plus random
    bidirected edges."""
    names = [f"V{i+1}" for i in range(n_vars)]
    variables = [Var(n, domain) for n in names]
    order = list(rng.permutation(n_vars))
    edges = []
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            if rng.random() < edge_prob:
                edges.append((names[order[i]], names[order[j]]))
    all_pairs = [(names[i], names[j]) for i in range(n_vars) for j in range(i + 1, n_vars)]
    k = int(rng.integers(0, max_confounders + 1))
    conf_idx = rng.choice(len(all_pairs), size=min(k, len(all_pairs)), replace=False)
    confs = [all_pairs[i] for i in np.atleast_1d(conf_idx)]
    return Admg(variables, edges, confs)


def random_scm(
    rng: np.random.Generator,
    graph: Admg,
    exo_domain: int = 2,
) -> Scm:
    """Random parameterization: CPT rows uniform on the simplex, uniform
    random confounder priors.

    Callers relying on genericity (distinguishability lemmas assume
    effects do not cancel exactly) should re-draw when they detect a
    coincidence; see the discovery test helpers.
    """
    exo = []
    exo_parents: dict[str, list[str]] = {n: [] for n in graph.names()}
    for i, pair in enumerate(sorted(graph.bidirected, key=sorted)):
        name = f"U{i+1}"
        prior = rng.dirichlet(np.ones(exo_domain))
        exo.append(Exogenous(Var(name, exo_domain), tuple(prior), pair))
        for t in sorted(pair):
            exo_parents[t].append(name)
    cpts = {}
    for i, v in enumerate(graph.vars):
        parents = tuple(_names_of(graph, graph._pa[i]))
        exop = tuple(exo_parents[v.name])
        shape = tuple(graph.var(p).domain for p in parents)
        shape += tuple(exo_domain for _ in exop)
        n_rows = int(np.prod(shape)) if shape else 1
        rows = rng.dirichlet(np.ones(v.domain), size=n_rows)
        cpts[v.name] = Cpt(v.name, parents, exop, rows.reshape(shape + (v.domain,)))
    return Scm(graph, cpts, exo)
