"""Acyclic directed mixed graphs (ADMGs) and purely graphical queries.

A bidirected edge stands for a hidden confounder between its two
endpoints; explicit latent vertices are assumed to have been projected
away by the input producer.  All types are immutable after construction
and all operations are pure functions, so values can be shared freely
across threads.

Inside this module and the identification recursion a vertex set is an
int mask: bit i stands for ``g.vars[i]``, so walking a mask lowest bit
first visits its vertices in ``g.vars`` order.  Each graph indexes its
parents, children and siblings as one mask per vertex.  The public
functions take and return names and convert only at that boundary.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional

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


@dataclass(frozen=True, order=True)
class Var:
    """A named discrete variable with a finite domain of ``domain`` values.

    ``name`` is a string.  ``domain`` is an integer >= 1; a numpy
    integer is stored as ``int``, and a bool or a float is refused."""

    name: str
    domain: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise InvalidInputError(f"variable name {self.name!r} is not a string")
        if type(self.domain) is not int:
            try:
                if isinstance(self.domain, bool):  # an int to operator.index
                    raise TypeError
                object.__setattr__(self, "domain", operator.index(self.domain))
            except TypeError:
                raise InvalidInputError(f"domain of {self.name!r} must be an integer, "
                                        f"not {self.domain!r}") from None
        if self.domain < 1:
            raise InvalidInputError(f"domain of {self.name!r} must be >= 1")


class Admg:
    """Mixed graph: directed edges plus bidirected (confounder) edges.

    Vertices are identified by name; ``vars`` fixes a deterministic order
    used for tie-breaking, for state indexing elsewhere, and for the bits
    of vertex masks.
    """

    __slots__ = ("vars", "directed", "bidirected", "_bit", "_all", "_pa", "_ch", "_sib",
                 "_hash", "_topo")

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
        _topo_bits(self)

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
        """Set the fields and index each vertex's bit (``_bit``; ``_all``
        is every vertex's) and its parents, children and siblings (``_pa``,
        ``_ch``, ``_sib``: one mask per vertex, in ``vars`` order); no ID
        term is kept, as the recursion carries P(v) as its frame mask."""
        self.vars: tuple[Var, ...] = variables
        self.directed: frozenset[tuple[str, str]] = directed
        self.bidirected: frozenset[frozenset[str]] = bidirected
        index = {v.name: i for i, v in enumerate(variables)}
        self._bit = {n: 1 << i for n, i in index.items()}
        self._all = (1 << len(variables)) - 1
        pa, ch, sib = ([0] * len(variables) for _ in range(3))
        for a, b in directed:
            pa[index[b]] |= 1 << index[a]
            ch[index[a]] |= 1 << index[b]
        for a, b in bidirected:
            sib[index[a]] |= 1 << index[b]
            sib[index[b]] |= 1 << index[a]
        self._pa, self._ch, self._sib = tuple(pa), tuple(ch), tuple(sib)
        self._hash: Optional[int] = None
        self._topo: Optional[tuple[int, ...]] = None

    # -- basic accessors ------------------------------------------------

    def _index(self, name: str) -> int:
        try:
            return self._bit[name].bit_length() - 1
        except KeyError:
            raise InvalidInputError(f"unknown variable {name!r}") from None

    def var(self, name: str) -> Var:
        try:
            return self.vars[self._bit[name].bit_length() - 1]
        except KeyError:
            raise InvalidInputError(f"unknown variable {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    def __contains__(self, name: str) -> bool:
        return name in self._bit

    def parents_of(self, name: str) -> frozenset[str]:
        return frozenset(_names_of(self, self._pa[self._index(name)]))

    def children_of(self, name: str) -> frozenset[str]:
        return frozenset(_names_of(self, self._ch[self._index(name)]))

    def siblings_of(self, name: str) -> frozenset[str]:
        """Vertices joined to ``name`` by a bidirected edge."""
        return frozenset(_names_of(self, self._sib[self._index(name)]))

    def induced(self, keep: Iterable[str]) -> "Admg":
        """Induced subgraph over the given vertex names (order preserved)."""
        keep = set(keep)
        unknown = keep - self._bit.keys()
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


# -- vertex masks -----------------------------------------------------------

def _mask(g: Admg, s: Iterable[str], what: str) -> int:
    """The mask of the names ``s``, each checked to be a vertex of ``g``."""
    bit = g._bit
    m = 0
    for name in s:
        try:
            m |= bit[name]
        except KeyError:
            raise InvalidInputError(f"{what}: unknown variable {name!r}") from None
    return m


def _bit_indices(m: int) -> list[int]:
    """The indices of the bits set in ``m``, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _names_of(g: Admg, m: int) -> list[str]:
    """The names of the vertices in mask ``m``, sorted."""
    vs, out = g.vars, []
    while m:
        low = m & -m
        out.append(vs[low.bit_length() - 1].name)
        m ^= low
    return sorted(out)


def _union(adj: tuple[int, ...], m: int) -> int:
    """The union of ``adj[i]`` (``g._pa``, ``_ch`` or ``_sib``) over bits i of ``m``."""
    out = 0
    for i in _bit_indices(m):
        out |= adj[i]
    return out


def _reach(adj: tuple[int, ...], inside: int, start: int, cut: int = 0) -> int:
    """``start`` and the vertices of ``inside`` that ``adj`` leads to from
    it, never leaving a vertex of ``cut``; nothing is checked.  Along
    ``g._pa`` it gives the ancestors of ``start`` in G[inside] with the
    edges into ``cut`` removed (in ``mutilate(g.induced(inside), cut)``),
    and along ``g._sib`` the C-component of G[inside] holding ``start``."""
    seen = frontier = start
    while frontier:
        m, frontier = frontier & ~cut, 0
        while m:  # _union, inlined on this hot path
            low = m & -m
            frontier |= adj[low.bit_length() - 1]
            m ^= low
        frontier &= inside & ~seen
        seen |= frontier
    return seen


def _component_masks(g: Admg, v: int) -> list[int]:
    """The C-components of G[v] by first vertex in ``g.vars``, as
    ``c_components(g.induced(v))`` orders them; nothing is checked."""
    comps = []
    while v:
        comp = _reach(g._sib, v, v & -v)
        comps.append(comp)
        v &= ~comp
    return comps


def ancestors(g: Admg, s: Iterable[str]) -> frozenset[str]:
    """Reflexive transitive closure of the parent relation applied to ``s``."""
    return frozenset(_names_of(g, _reach(g._pa, g._all, _mask(g, s, "ancestors"))))


def descendants(g: Admg, s: Iterable[str]) -> frozenset[str]:
    """Reflexive transitive closure of the child relation applied to ``s``."""
    return frozenset(_names_of(g, _reach(g._ch, g._all, _mask(g, s, "descendants"))))


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
    inc = _mask(g, remove_incoming, "mutilate")
    out = _mask(g, remove_outgoing, "mutilate")
    bit = g._bit
    return Admg._trusted(
        g.vars,
        frozenset((a, b) for a, b in g.directed if not (bit[b] & inc or bit[a] & out)),
        frozenset(p for p in g.bidirected if not any(bit[n] & inc for n in p)),
    )


def _topo_bits(g: Admg) -> tuple[int, ...]:
    """The vertices' bits in ``topological_order``; computed once per graph."""
    if g._topo is None:
        vs = g.vars
        indeg = [m.bit_count() for m in g._pa]
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order: list[int] = []
        while ready:
            ready.sort(key=lambda i: vs[i].name)
            i = ready.pop(0)
            order.append(1 << i)
            for c in _bit_indices(g._ch[i]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(vs):
            raise CyclicGraphError("directed part of the graph contains a cycle")
        g._topo = tuple(order)
    return g._topo


def topological_order(g: Admg) -> list[str]:
    """Deterministic topological order of the directed part (name
    tie-break); computed once per graph."""
    vs = g.vars
    return [vs[b.bit_length() - 1].name for b in _topo_bits(g)]


def c_components(g: Admg) -> list[frozenset[str]]:
    """Connected components of the bidirected-edge-only graph.

    Returns a partition of the vertex names, ordered by first appearance
    in ``g.vars``.
    """
    return [frozenset(_names_of(g, c)) for c in _component_masks(g, g._all)]


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
    xs, ys, zs = (_mask(g, s, "d_separated") for s in (x, y, z))
    if xs & ys or xs & zs or ys & zs:
        raise InvalidInputError("x, y, z must be pairwise disjoint")
    return _d_separated(g, xs, ys, zs)


def _d_separated(g: Admg, x: int, y: int, z: int) -> bool:
    """``d_separated`` on pairwise disjoint masks; nothing is checked.
    The states reached are two masks, the vertices entered along a tail
    and those entered along an arrowhead, grown a layer at a time."""
    if not x or not y:
        return True
    opens_collider = _reach(g._pa, g._all, z)
    tail_seen = head_seen = 0
    tail, head = x, 0
    while tail or head:
        tail_seen |= tail
        head_seen |= head
        passes = tail & ~z  # entered along a tail: never a collider
        collider = head & opens_collider  # leaves along an arrowhead
        to_head = _union(g._ch, passes | head & ~z) | _union(g._sib, passes | collider)
        to_tail = _union(g._pa, passes | collider)
        if (to_tail | to_head) & y:
            return False
        tail = to_tail & ~tail_seen
        head = to_head & ~head_seen
    return True


# -- hedges -----------------------------------------------------------------

def verify_hedge(g: Admg, x: Iterable[str], y: Iterable[str], h: Hedge) -> bool:
    """Check every Hedge invariant against the query P(y|do(x)) in ``g``."""
    xs, ys, f = (_mask(g, s, "verify_hedge") for s in (x, y, h.forest_f))
    if not (h.roots <= h.forest_f_prime <= h.forest_f):
        return False
    fp, r = (_mask(g, s, "verify_hedge") for s in (h.forest_f_prime, h.roots))
    return _verify_hedge(g, xs, ys, f, fp, r)


def _verify_hedge(g: Admg, x: int, y: int, f: int, fp: int, r: int) -> bool:
    """``verify_hedge`` on masks, with roots ``r`` in F' in F."""
    if not (f & x) or (fp & x):
        return False
    for forest in (f, fp):  # each one C-component
        if not forest or _reach(g._sib, forest, forest & -forest) != forest:
            return False
    # every vertex must reach the common root set within its forest
    if _reach(g._pa, f, r) != f or _reach(g._pa, fp, r) != fp:
        return False
    # roots must be childless within F' (they are the forests' root set)
    if _union(g._ch, r) & fp:
        return False
    return not r & ~_reach(g._pa, g._all, y, x)


def _hedge_from_frame(g: Admg, x: int, y: int, frame_vars: int,
                      frame_component: int) -> Optional[Hedge]:
    """The hedge witness of an ID-failure frame, or None if its forests
    fail verification: ``frame_vars`` is the vertex set of the failing
    recursion's graph (a single C-component) and ``frame_component`` the
    C-component of that graph minus its intervened part, both masks."""
    roots = sum(1 << i for i in _bit_indices(frame_component)
                if not g._ch[i] & frame_component)
    if not _verify_hedge(g, x, y, frame_vars, frame_component, roots):
        return None
    return Hedge(*(frozenset(_names_of(g, m)) for m in (frame_vars, frame_component, roots)))


def find_hedge(g: Admg, x: Iterable[str], y: Iterable[str]) -> Optional[Hedge]:
    """Witness hedge for P(y|do(x)) in ``g``, or None if none exists.

    Detection runs the identification recursion and converts its failure
    frame into the two C-forests; a hedge exists iff identification
    fails.
    """
    xs, ys = (_mask(g, s, "find_hedge") for s in (x, y))
    if not xs or not ys:
        raise InvalidInputError("x and y must be nonempty")
    if xs & ys:
        raise InvalidInputError("x and y must be disjoint")
    from . import identify  # deferred: identify depends on this module

    return identify.id_effect(g, _names_of(g, xs), _names_of(g, ys)).witness
