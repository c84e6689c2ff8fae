"""Do-calculus machinery: rule checks, the identification algorithm, and
symbolic do-free expressions with exact evaluation.

``id_effect`` transforms P(Y|do(X)) into an expression over the
observational joint by C-component recursion, or returns a hedge
witness when the effect is not identifiable.  The recursion runs on
vertex masks of the input graph (see ``graphs``) and never builds a
subgraph: each of its subgraphs is an induced subgraph G[v] of the input
G, whose ancestors and C-components are read off G restricted to v.  Its
root may be any ancestral vertex set of G (``_identify``'s root mask),
which identifies on that induced subgraph without building it: the DCN
steps of one call share one graph and one frame memo that way.  A frame's
running distribution P(v) is carried as its vertex mask (None in place of
a term) and built into a term only where the frame emits it.

An expression has the four node types the ID algorithm outputs:
``ObservedTerm``, ``SumOver``, ``Product`` and ``Quotient``.  The
recursion builds each in one canonical form as it goes (sums merged and
folded into observed terms, products flattened and sorted by ``pretty``,
names sorted), so no second pass rewrites it; ``normalize`` in
``tests/conftest.py`` is the spec of that form.  Expressions are compared
by evaluated value only; the printer exists for reporting and golden
tests.  One evaluator (``_evaluate``) computes every value as an unbound
sheet, its terms read off the joint (``_JointTerms``) or the DCN forward
pass, and its sums over products (``_sum_product``) eliminated by the
package's one exact-inference core, ``scm._eliminate``.  One binder
(``_bind``) binds sheets to intervened values and takes rule-3 auxiliary
do-variables at 0.

Everything here is pure over immutable inputs; predictions for many
(experiment, graph) pairs are independent and safe to compute in
parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InternalError, InvalidInputError
from .factors import Factor, condition, divide, marginalize
from .graphs import (Admg, Hedge, _component_masks, _d_separated, _hedge_from_frame,
                     _mask, _names_of, _reach, _topo_bits, _union)
from .scm import _check_value, _eliminate

__all__ = [
    "Expr", "ObservedTerm", "SumOver", "Product", "Quotient",
    "IdResult", "Prediction",
    "check_rule", "id_effect", "evaluate", "effect_factor",
    "pretty",
]


# -- expression trees ---------------------------------------------------


class Expr:
    """Base of the do-free expression tree."""

    __slots__ = ()


@dataclass(frozen=True)
class ObservedTerm(Expr):
    """P(outcome | given) read off the source observational joint."""

    outcome: tuple[str, ...]
    given: tuple[str, ...] = ()


@dataclass(frozen=True)
class SumOver(Expr):
    over: tuple[str, ...]
    child: Expr


@dataclass(frozen=True)
class Product(Expr):
    children: tuple[Expr, ...]


@dataclass(frozen=True)
class Quotient(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class IdResult:
    """Either an identifying expression or a hedge witness."""

    identified: bool
    expr: Optional[Expr] = None
    witness: Optional[Hedge] = None


@dataclass(frozen=True)
class Prediction:
    """Predicted causal effect from one candidate graph: a distribution
    over Y, or empty when the graph does not identify the effect."""

    dist: Optional[Factor]

    @property
    def empty(self) -> bool:
        return self.dist is None


# -- rule applicability -------------------------------------------------


def check_rule(
    g: Admg,
    rule: int,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str],
    w: Iterable[str] = (),
) -> bool:
    """Graphical applicability condition of do-calculus rule 1, 2 or 3.

    Rule 1 drops an observation z, rule 2 exchanges do(z) for an
    observation, rule 3 drops do(z) entirely; each is a d-separation
    check on the mutilated graph it names, read as two cut masks of ``g``.
    """
    xs, ys, zs, ws = (_mask(g, s, "check_rule") for s in (x, y, z, w))
    for a, b in ((xs, ys), (xs, zs), (xs, ws), (ys, zs), (ys, ws), (zs, ws)):
        if a & b:
            raise InvalidInputError("rule sets must be pairwise disjoint")
    if rule not in (1, 2, 3):
        raise InvalidInputError("rule must be 1, 2 or 3")
    # rule 2 cuts the edges out of z; rule 3 the edges into z(w), the
    # members of z that are no ancestor of w once the edges into x are cut
    cut_in = xs | (zs & ~_reach(g._pa, g._all, ws, xs) if rule == 3 else 0)
    return _d_separated(g, ys, zs, xs | ws, cut_in, zs if rule == 2 else 0)


# -- identification -----------------------------------------------------


class _HedgeSignal(Exception):
    def __init__(self, frame_vars: int, frame_component: int):
        self.frame_vars, self.frame_component = frame_vars, frame_component


def _sum_over(g: Admg, over: int, e: Optional[Expr], v: int) -> Expr:
    """sum over ``over`` (a subset of the frame's vertex set ``v``) of the
    normal-form ``e``, in normal form; an ``e`` of None is P(v).  An
    explicit observed marginal is refused: it is not the frame's P(v),
    which a frame only ever carries as None."""
    if e is None:
        return ObservedTerm(tuple(_names_of(g, v & ~over)))
    if not over:
        return e
    if isinstance(e, ObservedTerm) and not e.given:
        raise InternalError(f"running distribution {pretty(e)} of the frame "
                            f"{_names_of(g, v)} is explicit; P(v) is carried as None")
    if isinstance(e, SumOver):
        return SumOver(tuple(sorted({*_names_of(g, over), *e.over})), e.child)
    return SumOver(tuple(_names_of(g, over)), e)


def _product(factors: Iterable[Expr]) -> Expr:
    """The product of normal-form ``factors``, in normal form: nested
    products flattened, the factors sorted by ``pretty``."""
    flat = [c for f in factors for c in (f.children if isinstance(f, Product) else (f,))]
    return flat[0] if len(flat) == 1 else Product(tuple(sorted(flat, key=pretty)))


def _chain_product(g: Admg, members: int, p: Optional[Expr], v: int) -> Expr:
    """Product of P(vi | its predecessors in ``v``) over ``members`` of the
    running distribution ``p`` over ``v`` (None: P(v)), Tian's Q-factor form."""
    terms = []
    before = 0  # the vertices ahead of ``b`` in topological order
    for b in _topo_bits(g):
        if b & members:
            given = v & before
            if p is None:
                terms.append(ObservedTerm((g.vars[b.bit_length() - 1].name,),
                                          tuple(_names_of(g, given))))
            else:
                terms.append(Quotient(_sum_over(g, v & ~(given | b), p, v),
                                      _sum_over(g, v & ~given, p, v)))
            members ^= b
            if not members:
                break
        before |= b
    return _product(terms)


def _id(y: int, x: int, p: Optional[Expr], g: Admg, v: int, memo: Optional[dict] = None
        ) -> Expr:
    """ID on the subgraph G[v] of the input graph ``g``; G[v][s] is G[s],
    so each line reads ``g`` restricted to a vertex set.  The running
    distribution ``p`` is None while it is P(v), which ``v`` says in full.
    With ``memo`` (one per ``g``), every frame goes through ``_shared``."""
    rec = _id if memo is None else _shared
    if not x:
        return _sum_over(g, v & ~y, p, v)

    an = _reach(g._pa, v, y)  # An(y) in G[v]
    if v != an:
        if p is not None:
            p = _sum_over(g, v & ~an, p, v)
        return rec(y, x & an, p, g, an, memo)

    w = v & ~x & ~_reach(g._pa, v, y, x)
    if w:
        return rec(y, x | w, p, g, v, memo)

    comps = _component_masks(g, v & ~x)
    if len(comps) > 1:
        factors = [rec(s, v & ~s, p, g, v, memo) for s in comps]
        return _sum_over(g, v & ~(y | x), _product(factors), v)

    s = comps[0]
    cg = _component_masks(g, v)
    if len(cg) == 1:
        raise _HedgeSignal(frame_vars=v, frame_component=s)
    if s in cg:
        return _sum_over(g, s & ~y, _chain_product(g, s, p, v), v)
    # s' strictly holds s: its chain product has two terms, never P(s')
    s_prime = next(c for c in cg if not s & ~c)
    return rec(y, x & s_prime, _chain_product(g, s_prime, p, v), g, s_prime, memo)


def _shared(y: int, x: int, p: Optional[Expr], g: Admg, v: int, memo: dict) -> Expr:
    """The frame (y, x, v, p) of ``_id`` run once per ``memo``: met again,
    it returns the same expression or raises the same hedge, kept as its
    frame (the raised signal's traceback would tie the memo into a cycle)."""
    key = (y, x, v, p)
    out = memo.get(key)
    if out is None:
        try:
            out = _id(y, x, p, g, v, memo)
        except _HedgeSignal as sig:
            out = (sig.frame_vars, sig.frame_component)
        memo[key] = out
    if isinstance(out, tuple):
        raise _HedgeSignal(*out)
    return out


def id_effect(g: Admg, x: Iterable[str], y: Iterable[str]) -> IdResult:
    """Identify P(y|do(x)) in ``g``.

    Returns an expression whose evaluation against any observational
    joint compatible with ``g`` equals the interventional distribution,
    or a hedge witness when no do-free form exists.  An empty ``x`` is
    allowed and yields the observational marginal of ``y``.  The
    expression is in canonical form (``normalize`` in ``tests/conftest.py``).
    """
    return _identify(g, x, y, None)


def _identify(g: Admg, x: Iterable[str], y: Iterable[str], memo: Optional[dict],
              root: Optional[int] = None) -> IdResult:
    """``id_effect`` with the recursion's frames kept in ``memo`` (see
    ``_id``), on G[root] for a vertex mask ``root`` (the whole graph when
    None), from the running distribution None, that is P(root).  The
    recursion reads ``g`` only inside its frames' vertex sets, so when
    ``root`` is an ancestral set holding x and y (a checked invariant), the
    topological order restricted to it is G[root]'s and An(y) stays in it:
    the expression and the hedge witness are ``id_effect``'s on
    ``g.induced(root)``, and one memo serves every root of ``g``."""
    xs = _mask(g, x, "id_effect")
    ys = _mask(g, y, "id_effect")
    if not ys:
        raise InvalidInputError("x and y must be subsets of the graph, y nonempty")
    if xs & ys:
        raise InvalidInputError("x and y must be disjoint")
    if root is None:
        root = g._all
    elif (xs | ys | _union(g._pa, root)) & ~root:
        raise InternalError(f"root {_names_of(g, root)} is not an ancestral set "
                            "holding x and y")
    try:
        expr = _id(ys, xs, None, g, root, memo)
    except _HedgeSignal as sig:
        witness = _hedge_from_frame(g, xs, ys, sig.frame_vars, sig.frame_component)
        if witness is None:
            raise InternalError("identification failed but no hedge witness found")
        return IdResult(False, witness=witness)
    return IdResult(True, expr=expr)


# -- evaluation ---------------------------------------------------------


class _JointTerms:
    """The term source over the joint ``p``: P(outcome | given) by one
    marginalization and one conditioning, never reduced (``p`` need not be
    Markov to the identifying graph); no contraction outgrows ``p``."""

    def __init__(self, p: Factor):
        self.p = p
        self.vars = {v.name: v for v in p.scope}
        self.rank = {n: i for i, n in enumerate(self.vars)}
        self.domain = {v.name: v.domain for v in p.scope}

    def term(self, e: ObservedTerm) -> Factor:
        if not self.vars.keys() >= {*e.outcome, *e.given}:
            raise InvalidInputError(f"term over {e.outcome + e.given}: not all are joint variables")
        f = marginalize(self.p, [n for n in self.p.names() if n not in e.outcome + e.given])
        return condition(f, e.given) if e.given else f


def _evaluate(e: Expr, source, memo: dict) -> Factor:
    """The unbound value (sheet) of ``e`` with terms, ``vars``, ``rank``
    and ``domain`` from ``source``; ``memo`` holds the subexpressions
    evaluated against it.  ``_bind`` binds a sheet to values."""
    if e in memo:
        return memo[e]
    if isinstance(e, ObservedTerm):
        out = source.term(e)
    elif isinstance(e, (SumOver, Product)):
        over, child = (e.over, e.child) if isinstance(e, SumOver) else ((), e)
        if not source.vars.keys() >= set(over):
            raise InvalidInputError(f"sum over {sorted(over)}: not all are source variables")
        kids = child.children if isinstance(child, Product) else (child,)
        out = _sum_product(source, [_evaluate(c, source, memo) for c in kids], over)
    elif isinstance(e, Quotient):
        out = divide(_evaluate(e.num, source, memo), _evaluate(e.den, source, memo))
    else:
        raise InvalidInputError(f"unknown expression node {e!r}")
    memo[e] = out
    return out


def _sum_product(source, factors: Sequence[Factor], over: Iterable[str]) -> Factor:
    """sum over ``over`` of the product of ``factors``, by the package's one
    elimination loop, ``scm._eliminate``, on the source's domains and rank;
    the result is over the remaining variables in rank order."""
    items = [(f.names(), f.table) for f in factors]
    over = frozenset(over)
    out = tuple(sorted({m for scope, _t in items for m in scope} - over,
                       key=source.rank.__getitem__))
    return Factor._trusted(tuple(source.vars[m] for m in out),
                           _eliminate(items, over, out, source.domain, source.rank),
                           any(f.partial for f in factors))


def evaluate(e: Expr, p: Factor) -> Factor:
    """Evaluate a do-free expression against the observational joint ``p``.

    The result is a factor over the expression's free variables.  Each
    distinct subexpression is evaluated once.  Conditioning on zero-mass
    contexts propagates the partial flag rather than failing.
    """
    return _evaluate(e, _JointTerms(p), {})


def _bind(sheet: Factor, targets: Sequence[str], grid: Sequence, outcome: Sequence[str]
          ) -> np.ndarray:
    """The evaluated effect ``sheet`` bound to the values ``grid`` of
    ``targets``, as a table over ``outcome`` in that order.  Each entry of
    ``grid`` is one value or an array of values; arrays bind many value
    assignments at once, along a leading axis (absent when no target is in
    the sheet: the one binding then serves them all).  The one place that
    decides which names are rule-3 auxiliaries."""
    names = sheet.names()
    if not set(outcome) <= set(names):
        raise InternalError(f"effect scope {names} does not cover {sorted(outcome)}")
    bound = [i for i, t in enumerate(targets) if t in names]
    # A name neither target nor outcome is a rule-3 auxiliary do-variable,
    # bound to 0.  The sheet is flat along it when p is Markov to the
    # graph that identified the effect, so the true graph's effect does
    # not depend on the 0 binding.  A graph that p refutes may vary along
    # it; 0 is then a fixed convention, not an irrelevant value.
    aux = [a for a, n in enumerate(names) if n not in outcome and n not in targets]
    table = np.transpose(sheet.table, [names.index(targets[i]) for i in bound] + aux
                         + [names.index(n) for n in outcome])
    return table[tuple(grid[i] for i in bound) + (0,) * len(aux)]


def _bind_effect(sheet: Factor, fixed: Mapping[str, int], outcome: Iterable[str]) -> Factor:
    """An evaluated effect expression bound to the intervened values
    ``fixed`` (``_bind`` of one assignment), as a factor over ``outcome``
    in sorted order.  Nothing is checked: the caller has checked every
    name and value of ``fixed``, since a negative index would wrap and
    numpy would misread a float or a bool."""
    scope = {v.name: v for v in sheet.scope}
    ys = sorted(outcome)
    table = _bind(sheet, tuple(fixed), tuple(fixed.values()), ys)
    return Factor._trusted(tuple(scope[n] for n in ys), table, sheet.partial)


def effect_factor(
    expr: Expr,
    p: Factor,
    fixed: Mapping[str, int],
    outcome: Iterable[str],
) -> Factor:
    """Evaluate an identified effect down to a factor over ``outcome``,
    with the intervened values ``fixed`` and any auxiliary do-variable
    that rule 3 left free bound to 0.  Every name and value of ``fixed`` is
    checked against ``p``'s scope (``scm._check_value``), read or not."""
    domain = {v.name: v.domain for v in p.scope}
    for n, val in fixed.items():
        if n not in domain:
            raise InvalidInputError(f"effect_factor: unknown variable {n!r}")
        _check_value(n, val, domain[n])
    return _bind_effect(evaluate(expr, p), fixed, outcome)


# -- printing -----------------------------------------------------------


def pretty(e: Expr) -> str:
    """Deterministic text rendering, e.g. ``sum_{X} P(X) P(Z|X,Y)``; a node
    of any other type is refused, as ``evaluate`` refuses it."""
    if isinstance(e, ObservedTerm):
        out = ",".join(sorted(e.outcome))
        if e.given:
            return f"P({out}|{','.join(sorted(e.given))})"
        return f"P({out})"
    if isinstance(e, SumOver):
        return f"sum_{{{','.join(sorted(e.over))}}} {pretty(e.child)}"
    if isinstance(e, Product):
        parts = []
        for c in e.children:
            s = pretty(c)
            if isinstance(c, SumOver):
                s = f"[{s}]"
            parts.append(s)
        return " ".join(parts)
    if isinstance(e, Quotient):
        return f"({pretty(e.num)})/({pretty(e.den)})"
    raise InvalidInputError(f"unknown expression node {e!r}")
