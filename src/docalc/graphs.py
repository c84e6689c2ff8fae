"""Acyclic directed mixed graphs (ADMGs) and purely graphical queries.

A bidirected edge stands for a hidden confounder between its two
endpoints; explicit latent vertices are assumed to have been projected
away by the input producer.  All types are immutable after construction
and all operations are pure functions, so values can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Optional

from .errors import CyclicGraphError, InvalidInputError

__all__ = [
    "Var",
    "Admg",
    "Hedge",
    "ancestors",
    "descendants",
    "mutilate",
    "d_separated",
    "c_components",
    "topological_order",
    "find_hedge",
    "verify_hedge",
]

_NONE: frozenset[str] = frozenset()  # shared by every empty index entry


@dataclass(frozen=True, order=True)
class Var:
    """A named discrete variable with a finite domain of ``domain`` values."""

    name: str
    domain: int = 2

    def __post_init__(self) -> None:
        if self.domain < 1:
            raise InvalidInputError(f"domain of {self.name!r} must be >= 1")


class Admg:
    """Mixed graph: directed edges plus bidirected (confounder) edges.

    Vertices are identified by name; ``vars`` fixes a deterministic order
    used for tie-breaking and for state indexing elsewhere.
    """

    __slots__ = ("vars", "directed", "bidirected", "_by_name", "_parents",
                 "_children", "_siblings", "_hash", "_topo")

    def __init__(
        self,
        variables: Iterable[Var],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str] | frozenset[str]] = (),
    ) -> None:
        variables = tuple(variables)
        names = {v.name for v in variables}
        if len(names) != len(variables):
            raise InvalidInputError("variable names must be unique")

        dir_edges = set()
        for a, b in directed:
            if a not in names or b not in names:
                raise InvalidInputError(f"edge ({a},{b}) has unknown endpoint")
            if a == b:
                raise InvalidInputError(f"self-loop on {a}")
            dir_edges.add((a, b))

        bi_edges = set()
        for e in bidirected:
            pair = frozenset(e)
            if len(pair) != 2:
                raise InvalidInputError(f"bidirected edge {set(e)} must join two distinct vertices")
            if not pair <= names:
                raise InvalidInputError(f"bidirected edge {set(e)} has unknown endpoint")
            bi_edges.add(pair)

        self._build(variables, frozenset(dir_edges), frozenset(bi_edges))
        # reject directed cycles up front
        topological_order(self)

    @classmethod
    def _trusted(
        cls,
        variables: tuple[Var, ...],
        directed: frozenset[tuple[str, str]],
        bidirected: frozenset[frozenset[str]],
    ) -> "Admg":
        """Trusted constructor: the parts must come from a valid ADMG
        (unique names, edges between distinct known vertices, no directed
        cycle), as any induced subgraph or edge subset of one does;
        nothing is checked."""
        g = object.__new__(cls)
        g._build(variables, directed, bidirected)
        return g

    def _build(
        self,
        variables: tuple[Var, ...],
        directed: frozenset[tuple[str, str]],
        bidirected: frozenset[frozenset[str]],
    ) -> None:
        """Set the fields and index parents, children and siblings."""
        self.vars: tuple[Var, ...] = variables
        self.directed: frozenset[tuple[str, str]] = directed
        self.bidirected: frozenset[frozenset[str]] = bidirected
        self._by_name = {v.name: v for v in variables}
        par: dict[str, set[str]] = {v.name: set() for v in variables}
        chi: dict[str, set[str]] = {v.name: set() for v in variables}
        for a, b in directed:
            par[b].add(a)
            chi[a].add(b)
        sib: dict[str, set[str]] = {v.name: set() for v in variables}
        for pair in bidirected:
            a, b = tuple(pair)
            sib[a].add(b)
            sib[b].add(a)
        self._parents = {n: frozenset(s) if s else _NONE for n, s in par.items()}
        self._children = {n: frozenset(s) if s else _NONE for n, s in chi.items()}
        self._siblings = {n: frozenset(s) if s else _NONE for n, s in sib.items()}
        self._hash: Optional[int] = None
        self._topo: Optional[tuple[str, ...]] = None

    # -- basic accessors ------------------------------------------------

    def var(self, name: str) -> Var:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidInputError(f"unknown variable {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def parents_of(self, name: str) -> frozenset[str]:
        self.var(name)
        return self._parents[name]

    def children_of(self, name: str) -> frozenset[str]:
        self.var(name)
        return self._children[name]

    def siblings_of(self, name: str) -> frozenset[str]:
        """Vertices joined to ``name`` by a bidirected edge."""
        self.var(name)
        return self._siblings[name]

    def induced(self, keep: Iterable[str]) -> "Admg":
        """Induced subgraph over the given vertex names (order preserved)."""
        keep = set(keep)
        unknown = keep - set(self._by_name)
        if unknown:
            raise InvalidInputError(f"unknown variables {sorted(unknown)}")
        return Admg._trusted(
            tuple(v for v in self.vars if v.name in keep),
            frozenset((a, b) for a, b in self.directed if a in keep and b in keep),
            frozenset(p for p in self.bidirected if p <= keep),
        )

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.directed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Admg):
            return NotImplemented
        return (self.vars == other.vars and self.directed == other.directed
                and self.bidirected == other.bidirected)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vars, self.directed, self.bidirected))
        return self._hash

    def __repr__(self) -> str:
        e = ", ".join(f"{a}->{b}" for a, b in sorted(self.directed))
        c = ", ".join("<->".join(sorted(p)) for p in sorted(self.bidirected, key=sorted))
        return f"Admg([{', '.join(self.names())}]; {e}; {c})"


@dataclass(frozen=True)
class Hedge:
    """Witness of non-identifiability of P(Y|do(X)).

    ``forest_f`` and ``forest_f_prime`` are the vertex sets of two
    R-rooted C-forests with F' contained in F; forest edges are the
    induced bidirected edges plus, for each non-root, one directed edge
    on a path toward ``roots``.
    """

    forest_f: frozenset[str]
    forest_f_prime: frozenset[str]
    roots: frozenset[str]


def _check_subset(g: Admg, s: Iterable[str], what: str) -> frozenset[str]:
    s = frozenset(s)
    for name in s:
        if name not in g:
            raise InvalidInputError(f"{what}: unknown variable {name!r}")
    return s


def _ancestors_in(
    g: Admg,
    v: Container[str],
    y: Iterable[str],
    cut: Container[str] = _NONE,
) -> frozenset[str]:
    """Ancestors of ``y`` in G[v] with the edges into ``cut`` removed, the
    ancestors in ``mutilate(g.induced(v), cut)``; nothing is checked."""
    frontier = list(y)
    seen = set(frontier)
    while frontier:
        u = frontier.pop()
        if u in cut:
            continue
        for p in g._parents[u]:
            if p in v and p not in seen:
                seen.add(p)
                frontier.append(p)
    return frozenset(seen)


def ancestors(g: Admg, s: Iterable[str]) -> frozenset[str]:
    """Reflexive transitive closure of the parent relation applied to ``s``."""
    return _ancestors_in(g, g._by_name, _check_subset(g, s, "ancestors"))


def descendants(g: Admg, s: Iterable[str]) -> frozenset[str]:
    """Reflexive transitive closure of the child relation applied to ``s``."""
    frontier = list(_check_subset(g, s, "descendants"))
    seen = set(frontier)
    while frontier:
        v = frontier.pop()
        for c in g.children_of(v):
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return frozenset(seen)


def mutilate(
    g: Admg,
    remove_incoming: Iterable[str] = (),
    remove_outgoing: Iterable[str] = (),
) -> Admg:
    """Cut edges entering ``remove_incoming`` and leaving ``remove_outgoing``.

    A bidirected edge counts as incoming at both endpoints, so it is
    dropped whenever it touches ``remove_incoming``.  The vertex set is
    unchanged.
    """
    inc = _check_subset(g, remove_incoming, "mutilate")
    out = _check_subset(g, remove_outgoing, "mutilate")
    return Admg._trusted(
        g.vars,
        frozenset((a, b) for a, b in g.directed if b not in inc and a not in out),
        frozenset(p for p in g.bidirected if not (p & inc)),
    )


def topological_order(g: Admg) -> list[str]:
    """Deterministic topological order of the directed part (name
    tie-break); computed once per graph."""
    if g._topo is None:
        indeg = {v.name: len(g._parents[v.name]) for v in g.vars}
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            changed = False
            for c in g._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != len(g.vars):
            raise CyclicGraphError("directed part of the graph contains a cycle")
        g._topo = tuple(order)
    return list(g._topo)


def _components_in(g: Admg, v: Container[str]) -> list[frozenset[str]]:
    """The C-components of G[v], ordered by first appearance in ``g.vars``,
    as ``c_components(g.induced(v))`` orders them; nothing is checked."""
    seen: set[str] = set()
    comps: list[frozenset[str]] = []
    for n in g._by_name:
        if n in seen or n not in v:
            continue
        comp = _component_of(g, n, v)
        seen |= comp
        comps.append(comp)
    return comps


def _component_of(g: Admg, v: str, inside: Container[str]) -> frozenset[str]:
    """The C-component of G[inside] that holds ``v`` (a member of
    ``inside``), walked from ``v`` alone; nothing is checked."""
    comp = {v}
    frontier = [v]
    while frontier:
        for w in g._siblings[frontier.pop()]:
            if w in inside and w not in comp:
                comp.add(w)
                frontier.append(w)
    return frozenset(comp)


def c_components(g: Admg) -> list[frozenset[str]]:
    """Connected components of the bidirected-edge-only graph.

    Returns a partition of the vertex names, ordered by first appearance
    in ``g.vars``.
    """
    return _components_in(g, g._by_name)


# -- d-separation -----------------------------------------------------------

def d_separated(
    g: Admg,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str] = (),
) -> bool:
    """True iff every path between ``x`` and ``y`` is blocked by ``z``.

    Bidirected edges behave as latent common causes: they carry an
    arrowhead at both endpoints.  Implemented as reachability over
    (vertex, entered-via-arrowhead) states; a collider passes iff it has
    a descendant in ``z``, a non-collider passes iff it is outside ``z``.
    """
    xs = _check_subset(g, x, "d_separated")
    ys = _check_subset(g, y, "d_separated")
    zs = _check_subset(g, z, "d_separated")
    if xs & ys or xs & zs or ys & zs:
        raise InvalidInputError("x, y, z must be pairwise disjoint")
    if not xs or not ys:
        return True

    opens_collider = ancestors(g, zs) if zs else frozenset()

    # state: (vertex, entered_via_head); a leaving edge has an arrowhead at
    # v iff it is a parent edge traversed backwards or a bidirected edge.
    def may_leave(v: str, entered_via_head: bool, leaves_via_head_at_v: bool) -> bool:
        collider = entered_via_head and leaves_via_head_at_v
        if collider:
            return v in opens_collider
        return v not in zs

    seen: set[tuple[str, bool]] = set()
    stack: list[tuple[str, bool]] = [(s, False) for s in xs]
    while stack:
        v, via_head = stack.pop()
        if (v, via_head) in seen:
            continue
        seen.add((v, via_head))
        for c in g.children_of(v):
            # leaving along v->c: tail at v
            if may_leave(v, via_head, False):
                if c in ys:
                    return False
                stack.append((c, True))
        for p in g.parents_of(v):
            # leaving along p->v backwards: head at v
            if may_leave(v, via_head, True):
                if p in ys:
                    return False
                stack.append((p, False))
        for s in g.siblings_of(v):
            if may_leave(v, via_head, True):
                if s in ys:
                    return False
                stack.append((s, True))
    return True


# -- hedges -----------------------------------------------------------------

def verify_hedge(g: Admg, x: Iterable[str], y: Iterable[str], h: Hedge) -> bool:
    """Check every Hedge invariant against the query P(y|do(x)) in ``g``."""
    xs = _check_subset(g, x, "verify_hedge")
    ys = _check_subset(g, y, "verify_hedge")
    f = _check_subset(g, h.forest_f, "verify_hedge")
    fp, r = h.forest_f_prime, h.roots
    if not (r <= fp <= f):
        return False
    if not (f & xs) or (fp & xs):
        return False
    if len(_components_in(g, f)) != 1 or len(_components_in(g, fp)) != 1:
        return False
    # every vertex must reach the common root set within its forest
    if _ancestors_in(g, f, r) != f or _ancestors_in(g, fp, r) != fp:
        return False
    # roots must be childless within F' (they are the forests' root set)
    for v in r:
        if g.children_of(v) & fp:
            return False
    return r <= _ancestors_in(g, g._by_name, ys, xs)


def _hedge_from_frame(
    g: Admg,
    x: frozenset[str],
    y: frozenset[str],
    frame_vars: frozenset[str],
    frame_component: frozenset[str],
) -> Optional[Hedge]:
    """The hedge witness of an ID-failure frame, or None if the frame's
    forests fail verification.

    ``frame_vars`` is the vertex set of the failing recursion's graph (a
    single C-component) and ``frame_component`` the C-component of that
    graph minus its intervened part.
    """
    roots = frozenset(
        v for v in frame_component if not (g.children_of(v) & frame_component)
    )
    cand = Hedge(frame_vars, frame_component, roots)
    return cand if verify_hedge(g, x, y, cand) else None


def find_hedge(g: Admg, x: Iterable[str], y: Iterable[str]) -> Optional[Hedge]:
    """Witness hedge for P(y|do(x)) in ``g``, or None if none exists.

    Detection runs the identification recursion and converts its failure
    frame into the two C-forests; a hedge exists iff identification
    fails.
    """
    xs = _check_subset(g, x, "find_hedge")
    ys = _check_subset(g, y, "find_hedge")
    if not xs or not ys:
        raise InvalidInputError("x and y must be nonempty")
    if xs & ys:
        raise InvalidInputError("x and y must be disjoint")
    from . import identify  # deferred: identify depends on this module

    result = identify.id_effect(g, xs, ys)
    if result.identified:
        return None
    assert result.witness is not None
    return result.witness
