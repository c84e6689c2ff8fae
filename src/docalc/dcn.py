"""Dynamic causal networks: time-recurrent causal graphs, identification
of intervention effects, post-intervention trajectories, and a
restricted transport between domains.

A spec describes one slice plus lagged cross-slice edges; lags are in
slices (0 = within the slice).  Confounders within a slice are static;
confounders crossing k >= 1 slices are dynamic of order k.  The
pipelines need first-order slices, every directed cross edge of lag 1:
the window lemma and the one-slice steps rest on it, so they refuse
longer lags (``unroll``, ``unrolled_scm``, ``classify`` and
``dynamic_time_span`` still accept them).

Every call reads the observational distribution from one forward pass
(``_Forward``, the interface algorithm of Murphy 2002) over per-slice
tables.  Each of its messages, marginals and post-intervention steps is
one ``scm._contract``, the package's one contraction, and the sums of
the expressions it evaluates go through the one elimination loop,
``scm._eliminate``.  Slice t0's tables are p0 when given, else the
mechanism's slice-t0 tables, else uniform; each later slice adds the
schedule's step when a schedule drives the chain (a static spec, or a
spec without a mechanism), else the mechanism's tables, whose message
carries the slice state and the confounders in flight.  A p0 is refused
for dynamic specs, because a slice state cannot carry the confounders in
flight.  Each call builds one ``_Layout``, in one walk over (variable,
slice): the unrolled names, ``Var``s and ranks of each slice, and on the
mechanism each slice's tables, every slice whose parents lie in the
window sharing its template's one read-only array.  The call's one
unrolled graph, unchecked, is built on first read: by the first
identification, ``transport``, ``unroll`` or ``unrolled_scm``, so a call
that identifies nothing builds none.  ``unroll``, ``unrolled_scm`` and
``initial_distribution`` read the same layout.  The slice states and
transport's window are read off it by name, and the ancestor sets of Y
off the slice template (``_ancestor_slices``).  Every step identified from
one left edge is identified on one graph (``_Forward.id_graph``): the
call's graph from t0, else the window from that edge through the last
slice, built once.  The step's window is a root mask of that graph, the
slices from the edge through the step's: a time prefix, so an ancestral
set, on which ID gives the expression and hedge witness of the induced
window (``identify._identify``); the steps share one memo of ID frames.
The pass is the term source of the one evaluator of identified
expressions: each term is read off a small marginal of the pass, so no
table grows with the horizon and no window joint is built.  Every pass
reduces a Q-factor term P(v | predecessors) to P(v | S), S a few
neighbours of v (Tian & Pearl 2002), by one rule on the graph its
distribution is Markov to (``_Forward.source``), so p0 and a schedule,
which are any chain, answer as the mechanism does.  A window
that starts after t0 leaves the earlier slices latent; with dynamic
confounders it is identified on its latent projection, and a term is
reduced only where that is exact.

Every pipeline follows one procedure.  The window lemma
(``_window_left``) puts the left edge of an identification window one
slice before the leftmost slice confounder-connected to X, and no later
than t_x - 2.  From the observational state at t_x - 1, one recursion
(``_post_intervention``) then carries the post-intervention state slice
by slice, as the pass carries its messages: each slice's table is the
one before contracted with one step's tables, onto the slice's kept
variables (the ancestors of Y in the complete variants).  The step into
the first slice is the step conditional identified on the lemma's
window.  With dynamic confounders, which keep disturbing later
transitions, every later step is a step conditional identified on the
window from the same left edge through that slice; otherwise it is the
slice's own tables in the pass, the schedule's step or the mechanism's
priors and CPTs (``mechanism_transition`` is their contraction as a
matrix).  Previous-slice variables outside the state are pinned at 0:
the kept ones do not depend on them (tested for a mechanism; checked for
a schedule).  When no X@t_x is an ancestor of Y@t_y, the complete
variants answer P(Y@t_y) off the pass by rule 3 of the do-calculus
before any window is identified, with the same refusals; the non-complete
variants and ``transport`` still identify their full-slice step.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (InfiniteSpanError, InvalidInputError, UnsupportedModelError,
                     UnsupportedQueryError, UnsupportedTransportError, WindowTooSmallError)
from .factors import Factor, TransitionMatrix, _within, condition, marginalize, multiply
from .graphs import (Admg, Var, _bit_indices, _d_separated, _mask, _names_of, _reach,
                     _union, c_components, d_separated, mutilate)
from . import scm
from .identify import ObservedTerm, _bind_effect, _evaluate, _identify
from .scm import Cpt, Exogenous, Scm, _do_joint, joint

__all__ = [
    "DcnSpec", "DcnMechanism", "SliceCpt", "SliceExo",
    "ConfounderClass", "DynamicTimeSpan",
    "SelectionVar", "TransportSpec",
    "classify", "unroll", "dynamic_time_span",
    "dcn_id_static", "dcn_id_dynamic", "cdcn_id_static", "cdcn_id_dynamic",
    "transport", "trajectory", "step_kernel_matrix", "slice_var_at",
    "random_dcn_spec",
]

Schedule = Union[TransitionMatrix, Sequence[TransitionMatrix],
                 Callable[[int], TransitionMatrix]]


def slice_var_at(name: str, t: int) -> str:
    return f"{name}@{t}"


# -- the template --------------------------------------------------------


@dataclass(frozen=True)
class SliceCpt:
    """Mechanism of one slice variable.

    Table axes: intra parents, cross parents, exogenous parents, then the
    variable itself; parents in declared order."""

    var: str
    intra_parents: tuple[str, ...] = ()
    cross_parents: tuple[tuple[str, int], ...] = ()
    exo_parents: tuple[str, ...] = ()
    table: np.ndarray = None  # type: ignore[assignment]


@dataclass(frozen=True)
class SliceExo:
    """Hidden confounder template: feeds ``earlier`` in its birth slice
    and ``later`` in the slice ``lag`` steps onward (lag 0 = same slice)."""

    name: str
    prior: tuple[float, ...]
    earlier: str
    later: str
    lag: int


@dataclass(frozen=True)
class DcnMechanism:
    cpts: tuple[SliceCpt, ...]
    exos: tuple[SliceExo, ...]

    def cpt(self, var: str) -> SliceCpt:
        for c in self.cpts:
            if c.var == var:
                return c
        raise InvalidInputError(f"no mechanism for slice variable {var!r}")


@dataclass(frozen=True)
class DcnSpec:
    """One-slice template of a bi-infinite time-recurrent causal graph."""

    slice_vars: tuple[Var, ...]
    intra_edges: tuple[tuple[str, str], ...] = ()
    cross_edges: tuple[tuple[str, str, int], ...] = ()
    intra_confounders: tuple[frozenset[str], ...] = ()
    cross_confounders: tuple[tuple[str, str, int], ...] = ()
    mechanism: Optional[DcnMechanism] = None

    def __post_init__(self) -> None:
        names = {v.name for v in self.slice_vars}
        if len(names) != len(self.slice_vars):
            raise InvalidInputError("slice variable names must be unique")
        for a, b in self.intra_edges:
            if a not in names or b not in names or a == b:
                raise InvalidInputError(f"bad intra edge ({a},{b})")
        for a, b, k in self.cross_edges:
            if a not in names or b not in names or k < 1:
                raise InvalidInputError(f"bad cross edge ({a},{b},{k})")
        for pair in self.intra_confounders:
            if len(pair) != 2 or not pair <= names:
                raise InvalidInputError(f"bad intra confounder {set(pair)}")
        for a, b, k in self.cross_confounders:
            if a not in names or b not in names or k < 1:
                raise InvalidInputError(f"bad cross confounder ({a},{b},{k})")
        # the unrolled graph is acyclic iff the intra part is
        Admg(self.slice_vars, self.intra_edges)
        if self.mechanism is not None:
            self._check_mechanism()

    def _check_mechanism(self) -> None:
        mech = self.mechanism
        assert mech is not None
        if {c.var for c in mech.cpts} != {v.name for v in self.slice_vars}:
            raise InvalidInputError("mechanism must cover exactly the slice variables")
        exos = {e.name: e for e in mech.exos}
        if len(exos) != len(mech.exos) or any(e.lag < 0 for e in mech.exos):
            raise InvalidInputError("exo templates need unique names and lags >= 0")
        domain = {v.name: v.domain for v in self.slice_vars}
        if exos.keys() & domain.keys():
            raise InvalidInputError("exo template names must differ from slice variable names")
        for e in mech.exos:
            fed = sorted(c.var for c in mech.cpts for x in c.exo_parents if x == e.name)
            if fed != sorted((e.earlier, e.later)):
                raise InvalidInputError(f"exo template {e.name!r} must be an exo parent of "
                                        f"{e.earlier!r} and of {e.later!r}, once each")
        for c in mech.cpts:
            if frozenset(c.intra_parents) != frozenset(
                    a for a, b in self.intra_edges if b == c.var):
                raise InvalidInputError(f"intra parents of {c.var!r} disagree with edges")
            if frozenset(c.cross_parents) != frozenset(
                    (a, k) for a, b, k in self.cross_edges if b == c.var):
                raise InvalidInputError(f"cross parents of {c.var!r} disagree with edges")
            for x in c.exo_parents:
                if x not in exos or c.var not in (exos[x].earlier, exos[x].later):
                    raise InvalidInputError(f"exo parent {x!r} of {c.var!r} is not an exo "
                                            "template feeding it")
            shape = (tuple(domain[a] for a in c.intra_parents)
                     + tuple(domain[a] for a, _k in c.cross_parents)
                     + tuple(len(exos[x].prior) for x in c.exo_parents) + (domain[c.var],))
            if np.shape(c.table) != shape:
                raise InvalidInputError(f"cpt table of {c.var!r} has shape "
                                        f"{np.shape(c.table)}, expected {shape}")
        intra_pairs = [frozenset((e.earlier, e.later)) for e in mech.exos if e.lag == 0]
        if sorted(intra_pairs, key=sorted) != sorted(self.intra_confounders, key=sorted):
            raise InvalidInputError("intra confounders and lag-0 exo templates disagree")
        cross_triples = sorted((e.earlier, e.later, e.lag) for e in mech.exos if e.lag > 0)
        if cross_triples != sorted(self.cross_confounders):
            raise InvalidInputError("cross confounders and lagged exo templates disagree")
        if (len(set(intra_pairs)) != len(intra_pairs)
                or len(set(cross_triples)) != len(cross_triples)):
            raise InvalidInputError("two exo templates confound the same pair")

    @functools.cached_property
    def _checked_mechanism(self) -> DcnMechanism:
        """The mechanism, once its CPT rows and confounder priors are found
        to be distributions; checked on first use, once per spec, so that
        unrolling need not check each slice's copy of the tables."""
        if self.mechanism is None:
            raise UnsupportedModelError("spec carries no slice mechanism")
        for e in self.mechanism.exos:
            scm._check_prior(e.name, e.prior)
        for c in self.mechanism.cpts:
            scm._check_rows(c.var, c.table)
        return self.mechanism

    def var(self, name: str) -> Var:
        for v in self.slice_vars:
            if v.name == name:
                return v
        raise InvalidInputError(f"unknown slice variable {name!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.slice_vars)

    def slice_states(self) -> int:
        return int(np.prod([v.domain for v in self.slice_vars]))


# -- classification -------------------------------------------------------


@dataclass(frozen=True)
class ConfounderClass:
    """Confounder classification of a spec.

    ``beta`` is the maximal directed-edge lag and ``alpha_max`` the
    maximal confounder lag, both in slices.  A confounder inside one
    slice is static; one reaching the next slice is first order; longer
    reaches are higher order (the order is the lag).
    """

    kind: str  # "static" | "first-order" | "higher-order"
    order: int
    beta: int
    alpha_max: int

    @property
    def is_static(self) -> bool:
        return self.kind == "static"


def classify(spec: DcnSpec) -> ConfounderClass:
    beta = max((k for _a, _b, k in spec.cross_edges), default=0)
    alpha_max = max((k for _a, _b, k in spec.cross_confounders), default=0)
    if alpha_max == 0:
        return ConfounderClass("static", 0, beta, 0)
    if alpha_max == 1:
        return ConfounderClass("first-order", 1, beta, 1)
    return ConfounderClass("higher-order", alpha_max, beta, alpha_max)


@dataclass(frozen=True)
class DynamicTimeSpan:
    """Farthest slice distance reachable from X via confounder chains;
    ``None`` marks an infinite span (self-sustaining confounder cycle)."""

    slices: Optional[int]

    @property
    def is_infinite(self) -> bool:
        return self.slices is None


def dynamic_time_span(spec: DcnSpec, x_slice_vars: Iterable[str]) -> DynamicTimeSpan:
    """Maximal forward slice offset d-connected to X via confounder paths."""
    return _confounder_reach(spec, x_slice_vars, forward=True)


def _confounder_reach(spec: DcnSpec, start: Iterable[str], forward: bool) -> DynamicTimeSpan:
    start = set(start)
    for n in start:
        spec.var(n)
    # weighted traversal graph over slice variables: a cross confounder
    # (a, b, k) joins a@t with b@t+k, traversable both ways
    edges: list[tuple[str, str, int]] = []
    for a, b, k in spec.cross_confounders:
        edges.append((a, b, k))
        edges.append((b, a, -k))
    for pair in spec.intra_confounders:
        a, b = sorted(pair)
        edges.append((a, b, 0))
        edges.append((b, a, 0))
    sign = 1 if forward else -1
    best = {n: 0 for n in start}
    n_vars = len(spec.slice_vars)
    for round_no in range(n_vars * 2 + 2):
        changed = False
        for a, b, w in edges:
            if a in best and best[a] + sign * w > best.get(b, -(10 ** 9)):
                best[b] = best[a] + sign * w
                changed = True
        if not changed:
            return DynamicTimeSpan(max([0, *best.values()]))
    return DynamicTimeSpan(None)


# -- unrolling ------------------------------------------------------------


def _read_only(table: np.ndarray) -> np.ndarray:
    view = table.view()
    view.flags.writeable = False
    return view


class _Layout:
    """The slices t0..t_end of one call, from one walk over (variable,
    slice): the unrolled names of each slice (``slices``, declared
    order), their ``Var``s, domains, ranks (slice by slice) and slices,
    and the ``index`` (variable, slice) -> name.  The unrolled ``graph``
    is built on first read, unchecked: a valid ``DcnSpec`` unrolls to a
    valid ADMG.  Edges whose lag sticks out of the window are dropped.

    It also holds the mechanism unrolled over the window (``unrolled_scm``)
    for its first ``tables`` slices: per slice, the tables that slice adds to it
    (``tables``: the priors of the confounders born there, then its
    CPTs, each over parents, exo parents and the variable) and the
    forward pass's ``interface`` (its names, then the confounders in
    flight there), and every confounder born in a slice, in template
    order: its name, template and children in the window (``exos``).
    They come from the spec's checked mechanism, and
    ``DcnSpec`` makes sure at construction that they fit together, so
    nothing is checked.  Each template table is converted to float once,
    and its axes are laid out once, as (template name, lag) pairs that
    name every slice's scope; every slice whose parents all lie in the
    window shares that one read-only array, and parents and confounder
    halves from slices before t0 are averaged out."""

    def __init__(self, spec: DcnSpec, t0: int, t_end: int, tables: int):
        if t0 > t_end:
            raise WindowTooSmallError("empty unroll window")
        self.spec, self.t0, self.t_end = spec, t0, t_end
        self.slices: list[tuple[str, ...]] = []
        self.vars: dict[str, Var] = {}
        self.domain: dict[str, int] = {}
        self.slice_of: dict[str, int] = {}
        index = self.index = {}
        for t in range(t0, t_end + 1):
            names = tuple(slice_var_at(v.name, t) for v in spec.slice_vars)
            for v, n in zip(spec.slice_vars, names):
                index[v.name, t] = n
                self.vars[n] = Var(n, v.domain)
                self.domain[n] = v.domain
                self.slice_of[n] = t
            self.slices.append(names)
        self.rank = {n: i for i, n in enumerate(self.vars)}
        self.interface = list(self.slices)
        self.tables: list[list[tuple[tuple[str, ...], np.ndarray]]] = []
        self.exos: list[tuple[str, SliceExo, tuple[str, ...]]] = []  # name, template, children
        if tables:
            self._unroll_mechanism(t0 + tables - 1)

    @functools.cached_property
    def graph(self) -> Admg:
        spec, index, t_end = self.spec, self.index, self.t_end
        directed, bidirected = set(), set()
        for t in range(self.t0, t_end + 1):
            for a, b in spec.intra_edges:
                directed.add((index[a, t], index[b, t]))
            for a, b, k in spec.cross_edges:
                if t + k <= t_end:
                    directed.add((index[a, t], index[b, t + k]))
            for pair in spec.intra_confounders:
                bidirected.add(frozenset(index[a, t] for a in pair))
            for a, b, k in spec.cross_confounders:
                if t + k <= t_end:
                    bidirected.add(frozenset((index[a, t], index[b, t + k])))
        return Admg._trusted(tuple(self.vars.values()), frozenset(directed),
                             frozenset(bidirected))

    def _unroll_mechanism(self, t_last: int) -> None:
        spec, t0, t_end, index, domain = self.spec, self.t0, self.t_end, self.index, self.domain
        mech = spec._checked_mechanism
        for e in mech.exos:
            if e.earlier == e.later:
                raise InvalidInputError(f"exo template {e.name!r} confounds {e.earlier!r} "
                                        "with its own later slice, which a slice mechanism "
                                        "cannot unroll")
        exo_of = {e.name: e for e in mech.exos}
        cpt_of = {c.var: c for c in mech.cpts}
        prior = {e.name: _read_only(np.asarray(e.prior, dtype=float)) for e in mech.exos}
        born: dict[tuple[str, int], str] = {}  # (exo template, birth slice) -> name
        # each CPT's axes but the variable's, in table order, as (names, template
        # name, lag): at slice t the axis is names[template name, t - lag]
        cpts = []
        for v in spec.slice_vars:
            c = cpt_of[v.name]
            axes = ([(index, p, 0) for p in c.intra_parents]
                    + [(index, p, lag) for p, lag in c.cross_parents]
                    + [(born, x, 0 if v.name == exo_of[x].earlier else exo_of[x].lag)
                       for x in c.exo_parents])
            cpts.append((axes, _read_only(np.asarray(c.table, dtype=float))))
        for t in range(t0, t_last + 1):
            added: list[tuple[tuple[str, ...], np.ndarray]] = []
            for e in mech.exos:
                u = born[e.name, t] = f"{e.name}@{t}"  # in flight until its later child or t_end
                later = (index[e.later, t + e.lag],) if t + e.lag <= t_end else ()
                self.exos.append((u, e, (index[e.earlier, t],) + later))
                domain[u] = len(e.prior)
                added.append(((u,), prior[e.name]))
                for s in range(t - t0, min(t + e.lag, t_end) - t0):
                    self.interface[s] += (u,)
            for name, (axes, base) in zip(self.slices[t - t0], cpts):
                table, scope = base, []
                for names, p, lag in axes:
                    if t - lag >= t0:
                        scope.append(names[p, t - lag])
                    else:  # a parent or confounder half before t0: average it out
                        table = np.add.reduce(table, len(scope)) / table.shape[len(scope)]
                if table is not base:
                    table.flags.writeable = False
                scope.append(name)
                added.append((tuple(scope), table))
            self.tables.append(added)


def unroll(spec: DcnSpec, t0: int, t_end: int) -> tuple[Admg, dict[tuple[str, int], str]]:
    """Finite window of the bi-infinite graph: one vertex per (variable,
    slice).  Edges whose lag sticks out of the window are dropped.  Built
    unchecked: a valid ``DcnSpec`` unrolls to a valid ADMG."""
    layout = _Layout(spec, t0, t_end, tables=0)
    return layout.graph, layout.index


def unrolled_scm(spec: DcnSpec, t0: int, t_end: int) -> Scm:
    """Exact SCM over a window.

    Boundary convention: parents and confounder halves from slices before
    ``t0`` are averaged out uniformly, which defines the process started
    at ``t0``; a confounder born in the window feeds its children there.
    """
    layout = _Layout(spec, t0, t_end, tables=t_end - t0 + 1)
    cpts = {}
    for scope, table in itertools.chain.from_iterable(layout.tables):
        n = scope[-1]
        if n in layout.vars:  # a CPT; its observed parents come first
            parents = tuple(p for p in scope[:-1] if p in layout.vars)
            cpts[n] = Cpt(n, parents, scope[len(parents):-1], table)
    return Scm(layout.graph, cpts, tuple(Exogenous(Var(u, len(e.prior)), e.prior, frozenset(feeds))
                                         for u, e, feeds in layout.exos))


# -- transitions and marginals ---------------------------------------------


def _matrix_at(schedule: Schedule, t: int) -> TransitionMatrix:
    if isinstance(schedule, TransitionMatrix):
        return schedule
    if callable(schedule):
        return schedule(t)
    return schedule[t]


def mechanism_transition(spec: DcnSpec) -> TransitionMatrix:
    """P(V_{t+1} | V_t) implied by the slice mechanism (static specs): the
    tables slice 1 adds to the pass (its confounder priors and CPTs),
    contracted onto it and slice 0, so every column is a distribution,
    also for slice states of zero mass."""
    cls = classify(spec)
    if not cls.is_static:
        raise UnsupportedModelError(
            "with dynamic confounders the one-step conditional is not a mechanism constant")
    spec._checked_mechanism  # UnsupportedModelError without a mechanism
    obs = _Forward(spec, None, None, 0, 1, cls)
    scope = obs.slices[1] + obs.slices[0]
    ones = (scope, np.ones([obs.domain[n] for n in scope]))
    n = spec.slice_states()
    table = scm._contract([ones] + obs.tables[1], scope, obs.domain)
    return TransitionMatrix(spec.slice_vars, table.reshape(n, n))


def initial_distribution(spec: DcnSpec, t0: int = 0) -> Factor:
    """Slice-t0 joint of the mechanism under the boundary convention of
    ``unrolled_scm``: the first slice of the forward pass over it."""
    spec._checked_mechanism  # UnsupportedModelError without a mechanism
    return _Forward(spec, None, None, t0, t0).state(t0)


class _Forward:
    """The observational distribution of one call's slices from t0 on, by
    a forward pass over per-slice tables, as in Murphy's (2002) interface
    algorithm.  Slice t0's tables are p0 when given, else the mechanism's
    slice-t0 tables, else uniform.  Each later slice adds the schedule's
    step when a schedule is given, else the mechanism's tables, unrolled
    over the call's slices and the longest confounder lag beyond.  A
    schedule cannot step a spec with dynamic confounders and a mechanism,
    so it is refused there, as p0 is.  The call's ``_Layout``, built once,
    gives the pass its names, ``Var``s, ranks, slices, interfaces and
    mechanism tables, and the call's one unrolled graph (``graph``), built
    on first read; the terms are reduced on ``source``, and the steps from
    each left edge are identified on one graph with one frame memo
    (``id_graph``).  A pass that identifies nothing reads no graph.

    The message at slice s is the joint of the slice-s variables and the
    confounders in flight there (feeding slice s or earlier and a later
    slice), one elimination from the one before.  A marginal over slices
    a..b continues the pass from the message at a, keeping its
    variables, so no table spans more than the kept variables and two
    slices' interface.  The pass is a term source of
    ``identify._evaluate``: terms from small marginals (``term``), never
    from a window joint.  A p0 flagged partial flags every marginal.
    Post-intervention states continue the same contraction
    (``_post_intervention``): the state at a slice, times one step's
    tables (an identified step conditional, or the slice's own tables),
    onto the next slice.  Messages, marginals, terms and identification
    graphs are cached for the call, and contractions of validated tables
    are trusted.  The windows are read off the graph."""

    def __init__(self, spec: DcnSpec, schedule: Optional[Schedule], p0: Optional[Factor],
                 t0: int, t_end: int, cls: Optional[ConfounderClass] = None):
        self.cls = classify(spec) if cls is None else cls
        if self.cls.beta > 1:
            raise UnsupportedModelError(
                "cross edges of lag > 1 are not supported: the identification windows "
                "and one-slice steps assume first-order slices")
        self.spec, self.t0 = spec, t0
        self.dynamic = not self.cls.is_static
        if p0 is not None:
            if self.dynamic:
                raise InvalidInputError("p0 is refused for a spec with dynamic confounders: a "
                                        "slice state cannot carry the confounders in flight")
            if frozenset(p0.scope) != frozenset(spec.slice_vars) or not p0.is_distribution():
                raise InvalidInputError("p0 must be a distribution over the slice variables, "
                                        "with their domains")
        mechanism = spec.mechanism is not None
        if schedule is not None and mechanism and self.dynamic:
            raise InvalidInputError("a schedule is refused for a spec with dynamic confounders "
                                    "and a mechanism: the mechanism steps the chain, since a "
                                    "slice state cannot carry the confounders in flight")
        self.scheduled = schedule is not None
        # a confounder born by t_end keeps both its children, so a slice's message and
        # state do not depend on t_end.  A schedule steps every slice after t0, so only
        # slice t0 may need the mechanism's tables then, when no p0 replaces them.
        t_last = t_end + self.cls.alpha_max
        tables = 0 if not mechanism else int(p0 is None) if self.scheduled else t_last - t0 + 1
        layout = _Layout(spec, t0, t_last, tables)
        self.slices, self.interface, self.index = layout.slices, layout.interface, layout.index
        self.vars, self.domain, self.rank = layout.vars, layout.domain, layout.rank
        self.slice_of, self.layout = layout.slice_of, layout
        self.partial = p0 is not None and p0.partial
        if p0 is not None:
            first = [(self.slices[0], p0.reorder(spec.names()).table)]
        elif layout.tables:
            first = layout.tables[0]
        else:
            first = [(self.slices[0], Factor.uniform(spec.slice_vars).table)]
        if self.scheduled:
            later = self._schedule_steps(schedule, t_end)
        elif layout.tables:
            later = layout.tables[1:]
        elif t_end > t0:
            raise InvalidInputError("a transition matrix (or schedule) is required")
        else:
            later = []
        self.tables = [first] + later
        # the slices whose tables are any P(slice | slice before), not the mechanism's
        self.chained = range(int(p0 is None and bool(layout.tables)),
                             len(self.tables) if self.scheduled else 1)
        # messages[s - t0 + 1] is the message at slice s; the first is the unit
        self.messages: list[tuple[tuple[str, ...], np.ndarray]] = [((), np.ones(()))]
        self.marginals: dict[frozenset[str], Factor] = {}
        self.terms: dict[ObservedTerm, Factor] = {}
        self.id_graphs: dict[int, tuple[Admg, dict]] = {}

    @property
    def graph(self) -> Admg:
        """The call's unrolled graph, built on first read."""
        return self.layout.graph

    def _schedule_steps(self, schedule: Schedule, t_end: int
                        ) -> list[list[tuple[tuple[str, ...], np.ndarray]]]:
        """The schedule's steps into slices t0+1..t_end, each one table over
        (V@t, V@t-1).  A matrix's state variables must be the slice
        variables, in declared order, because the matrix is read in that
        order; each distinct matrix is checked and laid out once per call."""
        spec, t0 = self.spec, self.t0
        shape = [v.domain for v in spec.slice_vars] * 2
        laid_out: dict[int, tuple[TransitionMatrix, np.ndarray]] = {}  # id -> (matrix, table)
        steps = []
        for t in range(t0 + 1, t_end + 1):
            tm = _matrix_at(schedule, t - 1)
            if id(tm) not in laid_out:
                if tm.state_vars != spec.slice_vars:
                    raise InvalidInputError(
                        f"transition matrix state variables {[v.name for v in tm.state_vars]} "
                        f"must be the slice variables {list(spec.names())} in that order, "
                        "with their domains")
                laid_out[id(tm)] = (tm, tm.matrix.reshape(shape))
            steps.append([(self.slices[t - t0] + self.slices[t - 1 - t0], laid_out[id(tm)][1])])
        return steps

    def message(self, s: int) -> tuple[tuple[str, ...], np.ndarray]:
        while len(self.messages) <= s - self.t0 + 1:
            t = self.t0 + len(self.messages) - 1
            out = self.interface[t - self.t0]
            step = [self.messages[-1]] + self.tables[t - self.t0]
            self.messages.append((out, scm._contract(step, out, self.domain)))
        return self.messages[s - self.t0 + 1]

    def state(self, t: int) -> Factor:
        """P(V_t) over template names: the marginal of slice t."""
        if t < self.t0:
            raise WindowTooSmallError(f"slice {t} precedes the initial slice {self.t0}")
        # slice t's names in rank order are its variables in declared order
        f = self.marginal(frozenset(self.slices[t - self.t0]))
        return Factor._trusted(self.spec.slice_vars, f.table, f.partial)

    def marginal(self, keep: frozenset[str]) -> Factor:
        """P(keep) over observed unrolled names, in unrolled order."""
        if keep not in self.marginals:
            slices = [self.slice_of[n] for n in keep]
            first, last = min(slices), max(slices)
            items = [self.message(first)]
            for t in range(first + 1, last + 1):
                if t > first + 1:  # carry the kept variables and slice t-1's interface
                    scope = tuple(dict.fromkeys(
                        [n for s, _t in items for n in s if n in keep and self.slice_of[n] < t - 1]
                        + list(self.interface[t - 1 - self.t0])))
                    items = [(scope, scm._contract(items, scope, self.domain))]
                items = items + self.tables[t - self.t0]
            out = tuple(sorted(keep, key=self.rank.__getitem__))
            self.marginals[keep] = Factor._trusted(tuple(self.vars[n] for n in out),
                                                   scm._contract(items, out, self.domain),
                                                   self.partial)
        return self.marginals[keep]

    def check_identifiable(self) -> None:
        """Refuse to identify with dynamic confounders and no mechanism:
        a schedule's chain does not carry the confounders in flight."""
        if self.dynamic and self.spec.mechanism is None:
            raise UnsupportedModelError("identification with dynamic confounders needs the "
                                        "slice mechanism")

    @functools.cached_property
    def source(self) -> Admg:
        """The graph the pass's distribution is Markov to: the call's graph,
        with each slice whose tables are not the mechanism's (``chained``)
        made one C-component with every variable of the slice before as a
        parent.  That allows any P(slice | slice before), and more edges keep
        a distribution Markov.  Built on first use: only windows read terms."""
        g = self.graph
        if not self.chained:
            return g
        directed, bidirected = set(g.directed), set(g.bidirected)
        for s in self.chained:
            bidirected.update(map(frozenset, itertools.combinations(self.slices[s], 2)))
            directed.update(itertools.product(self.slices[s - 1] if s else (), self.slices[s]))
        return Admg._trusted(g.vars, frozenset(directed), frozenset(bidirected))

    def id_graph(self, t_left: int) -> tuple[Admg, dict]:
        """The graph that identifies every step from the left edge
        ``t_left``, with its one ``identify._shared`` frame memo, built once
        per left edge: the call's graph when ``t_left`` is t0, else the
        graph induced on slices t_left onward, ``unroll(spec, t_left, last
        slice)``.  A step into slice t is identified on the mask of slices
        t_left..t, a time prefix and so an ancestral set (directed edges
        never point back in time).

        When it starts after t0 the slices before it are latent.  With
        static confounders every C-component stays inside one slice, so
        the left slice's factors are only ever used together, as P(V) of
        that slice, and the induced graph identifies exactly.  Dynamic
        confounders join the left slice to later ones, so the graph gets
        the bidirected edges of its latent projection (``latent_edges``)."""
        if t_left not in self.id_graphs:
            self.check_identifiable()
            g = self.graph
            if t_left != self.t0:
                g = g.induced(itertools.chain.from_iterable(self.slices[t_left - self.t0:]))
                if self.dynamic:
                    g = Admg._trusted(g.vars, g.directed, g.bidirected | self.latent_edges(t_left))
            self.id_graphs[t_left] = (g, {})
        return self.id_graphs[t_left]

    def latent_edges(self, t_left: int) -> frozenset[frozenset[str]]:
        """The bidirected edges that the slices before t_left add to a
        window from t_left when they are latent (the window's latent
        projection): a <-> b when a trek through those slices alone joins
        them, that is, when they share an ancestor there, or a bidirected
        edge joins a or one of its ancestors there to b or one of b's."""
        g = self.graph
        latent = _mask(g, itertools.chain.from_iterable(self.slices[:t_left - self.t0]), "window")
        up: dict[int, int] = {}  # a vertex after t_left -> its latent ancestors
        for i in _bit_indices(g._all & ~latent):
            if (g._pa[i] | g._sib[i]) & latent:
                # parents of latent slices are latent
                up[i] = _reach(g._pa, latent, g._pa[i] & latent)
        # the siblings of a vertex and of its latent ancestors
        near = {i: _union(g._sib, m | 1 << i) for i, m in up.items()}
        edges = set()
        for a, b in itertools.combinations(up, 2):
            if up[a] & up[b] or near[a] & (up[b] | 1 << b):
                edges.add(frozenset((g.vars[a].name, g.vars[b].name)))
        return frozenset(edges)

    def term(self, e: ObservedTerm) -> Factor:
        """P(outcome | given) of a do-free expression, from a small marginal.

        On every pass a Q-factor term P(v | given) is P(v | S), S = (T |
        Pa(T)) - {v} with T the C-component of v in the graph of v and
        ``given`` (Tian & Pearl 2002), when they form an ancestral set of
        ``source``, the graph the pass is Markov to, with no child of v in
        ``given``; otherwise (a window that starts after t0 leaves the
        earlier slices latent) when S d-separates v from the rest of
        ``given`` in ``source``.  Else all of ``given`` is kept."""
        if e not in self.terms:
            given = frozenset(e.given)
            if given:
                (v,) = e.outcome
                g = self.source
                i, mg = g._index(v), _mask(g, given, "term")
                inside = mg | 1 << i
                comp = _reach(g._sib, inside, 1 << i)
                s = (comp | _union(g._pa, comp)) & mg
                ancestral = not _union(g._pa, inside) & ~inside and not g._ch[i] & mg
                if ancestral or _d_separated(g, 1 << i, mg & ~s, s):
                    given = frozenset(_names_of(g, s))
            f = self.marginal(given | frozenset(e.outcome))
            self.terms[e] = condition(f, given) if given else f
        return self.terms[e]


def observational_marginal(
    spec: DcnSpec,
    t: int,
    schedule: Optional[Schedule],
    p0: Optional[Factor],
    t0: int,
) -> Factor:
    """P(V_t) without intervention, over template variable names."""
    return _Forward(spec, schedule, p0, t0, t).state(t)


# -- windows ---------------------------------------------------------------


def _window_left(spec: DcnSpec, x: Iterable[str], t_x: int, t0: Optional[int]) -> int:
    """Left edge of the identification window for an intervention on X
    at t_x (the identification lemma): one slice before the leftmost
    slice confounder-connected to X, and no later than t_x - 2; clamped
    to t0 unless t0 is None."""
    back = _confounder_reach(spec, x, forward=False)
    if back.is_infinite:
        raise InfiniteSpanError("infinite dynamic time span")
    assert back.slices is not None
    left = min(t_x - back.slices - 1, t_x - 2)
    return left if t0 is None else max(t0, left)


# -- post-intervention states ---------------------------------------------


def _identified_kernel(x: Mapping[str, int], t_x: int, t_left: int, prev: Sequence[str],
                       t: int, nxt: Sequence[str], obs: _Forward) -> Optional[Factor]:
    """ID the conditional P(nxt | prev, do(X)), unrolled names with nxt in
    slice t, on the window t_left..t: the mask of its slices in the left
    edge's one graph (``_Forward.id_graph``), whose frame memo the call's
    steps share.  Evaluate its sheet with the pass as the term source and
    bind it to the intervened values."""
    targets = {obs.index[n, t_x]: v for n, v in x.items()}
    outcome = frozenset(nxt) | frozenset(prev)
    g, frames = obs.id_graph(t_left)
    prefix = _mask(g, itertools.chain.from_iterable(
        obs.slices[t_left - obs.t0:t - obs.t0 + 1]), "window")
    result = _identify(g, targets, outcome, frames, prefix)
    if not result.identified:
        return None
    assert result.expr is not None
    return condition(_bind_effect(_evaluate(result.expr, obs, {}), targets, outcome), prev)


def _dropped(obs: _Forward, t: int, state: Sequence[str], out: Sequence[str]) -> list[str]:
    """The slice-(t-1) variables outside ``state``, on which the step into
    ``out`` at slice t must not depend (unrolled names).  They do not
    when ``out`` and ``state`` are the ancestors of Y in their slices, as
    parents of ancestors are ancestors: on a mechanism by construction (a
    tested invariant); a schedule is any chain, so its step is checked,
    and one that depends on them is refused."""
    before = obs.slices[t - 1 - obs.t0]
    dropped = [u for u in before if u not in state]
    if obs.scheduled and dropped:
        full = scm._contract(obs.tables[t - obs.t0], tuple(out) + before, obs.domain)
        at_0 = full[(...,) + tuple(slice(1 if u in dropped else None) for u in before)]
        if not _within(full, at_0):
            raise InvalidInputError(f"schedule step into {t} depends on non-ancestors {dropped}")
    return dropped


def _post_intervention(spec: DcnSpec, x: Mapping[str, int], t_x: int, window_left: int,
                       t_first: int, t_end: int, obs: _Forward, dynamic: bool,
                       keep: Optional[Mapping[int, Sequence[str]]] = None,
                       fallback: Callable[[], Optional[Factor]] = lambda: None,
                       ) -> Optional[list[Factor]]:
    """P(keep[t] | do(X=x at t_x)) for slices t_first..t_end (every slice
    variable when keep is None), carried as the pass carries its messages:
    from the observational state at t_x - 1, each slice's table is the one
    before contracted with one step's tables.  The step into t_first, and
    (``dynamic``) every later one, is a step conditional identified on the
    window from ``window_left`` (``fallback`` supplies the first when that
    fails).  Any other step is the slice's own tables in the pass, with the
    previous-slice variables outside the state pinned at 0 (``_dropped``:
    the kept ones do not depend on them).  None when a step is not
    identifiable."""
    state = obs.state(t_x - 1)
    scope, table, partial = obs.slices[t_x - 1 - obs.t0], state.table, state.partial
    states = []
    for t in range(t_first, t_end + 1):
        names = spec.names() if keep is None else keep[t]
        out = tuple(obs.index[n, t] for n in names)
        if t == t_first or dynamic:
            kern = _identified_kernel(x, t_x, window_left, scope, t, out, obs)
            if kern is None and t == t_first:
                kern = fallback()
            if kern is None:
                return None
            step = [(kern.names(), kern.table)]
            partial = partial or kern.partial
        else:
            step = obs.tables[t - obs.t0] + [((u,), np.eye(1, obs.domain[u])[0])
                                             for u in _dropped(obs, t, scope, out)]
        table = scm._contract([(scope, table)] + step, out, obs.domain)
        scope = out
        states.append(Factor._trusted(tuple(spec.var(n) for n in names), table, partial))
    return states


def step_kernel_matrix(
    spec: DcnSpec,
    x: Mapping[str, int],
    t_x: int,
    T: Optional[Schedule] = None,
    p0: Optional[Factor] = None,
    t0: int = 0,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The identified step conditional P(V_{t_x+1} | V_{t_x-1}, do(X=x)).

    Returns (matrix, reachable) where ``matrix[next, prev]`` is
    column-stochastic over the slice states in declared variable order
    and ``reachable`` marks previous-state columns with positive
    observational probability (the conditional is vacuous elsewhere);
    None when the step query has a hedge.
    """
    _validate_query(spec, x, (), t_x, t_x + 1, t0)
    obs = _Forward(spec, T, p0, t0, t_x + 1)
    prev, nxt = obs.slices[t_x - 1 - t0], obs.slices[t_x + 1 - t0]
    kern = _identified_kernel(x, t_x, _window_left(spec, x, t_x, t0), prev, t_x + 1, nxt, obs)
    if kern is None:
        return None
    matrix = kern.reorder(nxt + prev).table.reshape(spec.slice_states(), -1)
    return matrix, obs.state(t_x - 1).table.reshape(-1) > 1e-12


# -- identification pipelines ----------------------------------------------


def _ancestor_slices(spec: DcnSpec, y: frozenset[str], t_y: int,
                     t_left: int) -> dict[int, tuple[str, ...]]:
    """An(Y@t_y) intersected with each slice of [t_left, t_y], template
    names in declared order, read off the template: close the slice's set
    under the intra parents, then step back one slice along the cross
    parents, all of lag 1 (``_Forward`` refuses longer lags).  Directed
    edges never point back in time, so these are the ancestors in any
    unrolled window that holds slices t_left..t_y."""
    an, out = set(y), {}
    for t in range(t_y, t_left - 1, -1):
        size = -1
        while size != len(an):  # close under the intra parents
            size = len(an)
            an.update([a for a, b in spec.intra_edges if b in an])
        out[t] = tuple(n for n in spec.names() if n in an)
        an = {a for a, b, _k in spec.cross_edges if b in an}
    return dict(reversed(out.items()))


def _check_intervention(spec: DcnSpec, x: Mapping[str, int]) -> None:
    """Refuse an empty X, an unknown slice variable, and a value that is
    not an integer (a bool is refused) in its variable's domain."""
    if not x:
        raise InvalidInputError("the intervention set must be nonempty")
    for n, v in x.items():
        scm._check_value(n, v, spec.var(n).domain)


def _validate_query(spec: DcnSpec, x: Mapping[str, int], y: Iterable[str],
                    t_x: int, t_y: int, t0: int) -> None:
    _check_intervention(spec, x)
    for n in y:
        spec.var(n)
    if frozenset(x) & frozenset(y) and t_x == t_y:
        raise InvalidInputError("intervened and observed variables overlap")
    if t_x >= t_y:
        raise UnsupportedQueryError("the intervention must precede the outcome slice")
    if t_x - 1 < t0:
        raise WindowTooSmallError("need one observational slice before the intervention")


def _effect(spec: DcnSpec, x: Mapping[str, int], t_x: int, y: Iterable[str], t_y: int,
            schedule: Optional[Schedule], p0: Optional[Factor], t0: int, complete: bool,
            dynamic: bool) -> Optional[Factor]:
    """P(Y at t_y | do(X=x at t_x)): the post-intervention recursion from
    slice t_x - 1 through t_y, whose first step is identified on the
    lemma's window.  Later steps are the slices' own tables (static) or
    are identified on growing windows from the same left edge (dynamic).
    The complete variants keep only the ancestors of Y in each slice; the
    complete dynamic one makes its first step over the dynamic time span
    of X.  When no X@t_x is an ancestor of Y@t_y, the complete variants
    answer P(Y@t_y) off the pass by rule 3 of the do-calculus, with the
    refusals the recursion would make: a dynamic pass not from the
    mechanism, and a schedule whose steps after the first break the
    ancestor closure."""
    ys = frozenset(y)
    _validate_query(spec, x, ys, t_x, t_y, t0)
    cls = classify(spec)
    if not dynamic and not cls.is_static:
        raise UnsupportedModelError("this algorithm requires static confounders only")

    w_left = _window_left(spec, x, t_x, t0)  # InfiniteSpanError on an infinite span
    jump_to = t_x + 1
    if dynamic and complete:
        span = dynamic_time_span(spec, x.keys()).slices
        assert span is not None  # finite, as the backward reach is
        if span > 0 and t_x + span >= t_y:
            raise UnsupportedQueryError("the outcome slice lies inside the dynamic time span")
        jump_to = t_x + span + 1
    obs = _Forward(spec, schedule, p0, t0, t_y, cls)
    keep = _ancestor_slices(spec, ys, t_y, w_left) if complete else None
    if keep is not None and not any(n in keep[t_x] for n in x):
        # rule 3: X cannot influence Y, so the effect is the observational marginal
        obs.check_identifiable()
        if obs.scheduled:
            for t in range(jump_to + 1, t_y + 1):
                _dropped(obs, t, [obs.index[n, t - 1] for n in keep[t - 1]],
                         [obs.index[n, t] for n in keep[t]])
        return _outcome(obs.state(t_y), ys)
    post = _post_intervention(spec, x, t_x, w_left, jump_to, t_y, obs, dynamic, keep)
    return None if post is None else _outcome(post[-1], ys)


def _outcome(state: Factor, ys: frozenset[str]) -> Factor:
    return marginalize(state, [n for n in state.names() if n not in ys])


def dcn_id_static(
    spec: DcnSpec,
    x: Mapping[str, int],
    t_x: int,
    y: Iterable[str],
    t_y: int,
    T: Optional[Schedule] = None,
    p0: Optional[Factor] = None,
    t0: int = 0,
) -> Optional[Factor]:
    """P(Y at t_y | do(X=x at t_x)) for specs with static confounders.

    Identifies the full-slice step conditional around the intervention
    and chains transition matrices elsewhere; returns None when the
    full-slice step query has a hedge (which can happen even for
    identifiable effects; see the complete variant)."""
    return _effect(spec, x, t_x, y, t_y, T, p0, t0, complete=False, dynamic=False)


def cdcn_id_static(
    spec: DcnSpec,
    x: Mapping[str, int],
    t_x: int,
    y: Iterable[str],
    t_y: int,
    T: Optional[Schedule] = None,
    p0: Optional[Factor] = None,
    t0: int = 0,
) -> Optional[Factor]:
    """Complete variant: restricts the step query to ancestors of Y, so it
    fails exactly when P(Y|do(X)) is truly non-identifiable.  When no
    X@t_x is an ancestor of Y@t_y it answers P(Y@t_y) off the pass by
    rule 3, identifying nothing."""
    return _effect(spec, x, t_x, y, t_y, T, p0, t0, complete=True, dynamic=False)


def dcn_id_dynamic(
    spec: DcnSpec,
    x: Mapping[str, int],
    t_x: int,
    y: Iterable[str],
    t_y: int,
    T: Optional[Schedule] = None,
    p0: Optional[Factor] = None,
    t0: int = 0,
) -> Optional[Factor]:
    """Identification with dynamic confounders: an intervention keeps
    disturbing later transitions through lagged confounders, so every
    post-intervention step conditional P(V_t | V_{t-1}, do(X)) is
    identified, each on the window from the lemma's left edge (one slice
    before the leftmost slice confounder-connected to X, at most t_x - 2)
    through t."""
    return _effect(spec, x, t_x, y, t_y, T, p0, t0, complete=False, dynamic=True)


def cdcn_id_dynamic(
    spec: DcnSpec,
    x: Mapping[str, int],
    t_x: int,
    y: Iterable[str],
    t_y: int,
    T: Optional[Schedule] = None,
    p0: Optional[Factor] = None,
    t0: int = 0,
) -> Optional[Factor]:
    """Complete dynamic variant: jumps over the dynamic time span of X
    with one ancestor-restricted step query, then proceeds stepwise;
    requires the outcome to lie beyond the span.  When no X@t_x is an
    ancestor of Y@t_y it answers P(Y@t_y) off the pass by rule 3,
    identifying nothing."""
    return _effect(spec, x, t_x, y, t_y, T, p0, t0, complete=True, dynamic=True)


# -- trajectories -----------------------------------------------------------


def trajectory(
    spec: DcnSpec,
    T_schedule: Optional[Schedule],
    p0: Optional[Factor],
    intervention: Optional[tuple[Mapping[str, int], int]],
    horizon: int,
    t0: int = 0,
) -> list[Factor]:
    """Per-slice joint distributions from t0 through ``horizon``.

    Slices before the intervention are the observational ones, untouched
    by it.  The intervention slice and the one after come from step
    conditionals given slice t_x - 1, identified on the lemma's window
    (one slice before the leftmost slice confounder-connected to X, at
    most t_x - 2).  Later slices follow the transition matrix (static
    confounders) or step conditionals identified on windows from the
    same left edge (dynamic confounders)."""
    if horizon < t0:
        raise InvalidInputError("horizon precedes t0")
    obs = _Forward(spec, T_schedule, p0, t0, horizon)
    if intervention is None:
        return [obs.state(t) for t in range(t0, horizon + 1)]
    x, t_x = intervention
    _check_intervention(spec, x)
    if not (t0 < t_x <= horizon):
        raise InvalidInputError("the intervention slice must lie inside the horizon")
    # the same pass as without intervention, so these slices are untouched
    out = [obs.state(t) for t in range(t0, t_x)]
    w_left = _window_left(spec, x, t_x, t0)
    rest = [n for n in spec.names() if n not in x]
    at_tx = Factor.scalar(1.0)
    if rest:
        post = _post_intervention(spec, x, t_x, w_left, t_x, t_x, obs, obs.dynamic,
                                  keep={t_x: rest})
        if post is None:
            raise UnsupportedQueryError(
                "the intervention-slice distribution is not identifiable")
        (at_tx,) = post
    point = Factor.point_mass([spec.var(n) for n in sorted(x)], dict(x))
    out.append(multiply(at_tx, point).reorder(spec.names()))
    if t_x == horizon:
        return out
    post = _post_intervention(spec, x, t_x, w_left, t_x + 1, horizon, obs, dynamic=obs.dynamic)
    if post is None:
        raise UnsupportedQueryError("a post-intervention step conditional is not identifiable")
    return out + post


# -- transportability (restricted) ------------------------------------------


@dataclass(frozen=True)
class SelectionVar:
    """Root vertex marking variables whose mechanism differs between the
    source and target domains; offsets are slices relative to t_x."""

    name: str
    points_at: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class TransportSpec:
    """Selection variables plus the experiments recorded in the source
    domain (sets of slice variables that were intervened at t_x)."""

    selection_vars: tuple[SelectionVar, ...]
    source_experiments: tuple[frozenset[str], ...] = ()
    source_spec: Optional[DcnSpec] = None  # mechanism of the source domain


def transport(
    spec: DcnSpec,
    tspec: TransportSpec,
    x: Mapping[str, int],
    t_x: int,
    y: Iterable[str],
    t_y: int,
    T_target: Optional[Schedule] = None,
    p0_target: Optional[Factor] = None,
    t0: int = 0,
) -> Optional[Factor]:
    """P(Y|do(X)) in the target domain from target observations plus
    source-domain experiments, for static specs with selection variables
    pointing at slice variables.

    Supported class: no selection variable may point into the
    bidirected component of an intervened variable.  When the step query
    is target-identifiable the formula needs no source terms; when it is
    hedged, the whole step conditional is taken from a source experiment
    on X provided the selection variables are d-separated from it.
    """
    ys = frozenset(y)
    _validate_query(spec, x, ys, t_x, t_y, t0)
    cls = classify(spec)
    if not cls.is_static:
        raise UnsupportedTransportError("transport is supported for static specs only")

    w_left = _window_left(spec, x, t_x, t0)
    obs = _Forward(spec, T_target, p0_target, t0, t_y, cls)
    window = range(w_left, t_x + 2)
    g, index = obs.graph.induced(itertools.chain.from_iterable(
        obs.slices[w_left - t0:t_x + 2 - t0])), obs.index
    x_names = {index[(n, t_x)] for n in x}
    x_comp = frozenset().union(*(comp for comp in c_components(g) if comp & x_names))
    for e in tspec.source_experiments:
        if not e <= set(spec.names()):
            raise InvalidInputError(f"source experiment {sorted(e)} names an unknown slice variable")
    for s in tspec.selection_vars:
        for var, off in s.points_at:
            if var not in spec.names():
                raise InvalidInputError(
                    f"selection variable {s.name!r} points at unknown slice variable {var!r}")
            t = t_x + off
            if t not in window:
                continue
            # pointing at an intervened variable is harmless (the do() cuts
            # the selection edge); pointing at its confounded partners is not
            if index[(var, t)] in x_comp - x_names:
                raise UnsupportedTransportError(
                    f"selection variable {s.name!r} points inside the intervened "
                    f"bidirected component ({var} at slice {t})")

    def source_step() -> Optional[Factor]:
        """The whole step conditional from the source experiment on X,
        when the target step query is hedged."""
        if not tspec.selection_vars or frozenset(x) not in set(tspec.source_experiments):
            return None
        if tspec.source_spec is None or tspec.source_spec.mechanism is None:
            raise UnsupportedTransportError("source experiments require the source mechanism")
        # s-admissibility: selection variables d-separated from the step
        # outcome under do(X) in the selection-augmented window
        sel_vars = [Var(s.name, 2) for s in tspec.selection_vars]
        aug_edges = list(g.directed)
        for s in tspec.selection_vars:
            for var, off in s.points_at:
                if t_x + off in window:
                    aug_edges.append((s.name, index[(var, t_x + off)]))
        aug = Admg(tuple(g.vars) + tuple(sel_vars), aug_edges, g.bidirected)
        prev_names = [index[(n, t_x - 1)] for n in spec.names()]
        outcome = {index[(n, t_x + 1)] for n in spec.names()} | set(prev_names)
        cut = mutilate(aug, remove_incoming=x_names)
        if not d_separated(cut, {s.name for s in tspec.selection_vars},
                           outcome - x_names, frozenset()):
            return None
        m_src = unrolled_scm(tspec.source_spec, w_left, t_x + 1)
        num = _do_joint(m_src, {index[(n, t_x)]: v for n, v in x.items()}, outcome)
        return condition(num, prev_names)

    post = _post_intervention(spec, x, t_x, w_left, t_x + 1, t_y, obs, False, None, source_step)
    return None if post is None else _outcome(post[-1], ys)


# -- random specs (tests, demos) --------------------------------------------


def random_dcn_spec(
    rng: np.random.Generator,
    n_vars: int = 3,
    p_intra: float = 0.4,
    p_cross: float = 0.6,
    n_static_conf: int = 1,
    n_dynamic_conf: int = 0,
    domain: int = 2,
) -> DcnSpec:
    """Random slice template with a random mechanism attached.  A dynamic
    confounder may join a variable to its own later slice, which unrolling
    refuses; such a spec has an infinite dynamic time span."""
    names = [f"V{i+1}" for i in range(n_vars)]
    variables = tuple(Var(n, domain) for n in names)
    intra = [(names[i], names[j]) for i in range(n_vars) for j in range(i + 1, n_vars)
             if rng.random() < p_intra]
    cross = [(a, b, 1) for a in names for b in names if rng.random() < p_cross / n_vars]
    if not cross:
        cross = [(names[-1], names[0], 1)]
    pairs = [(names[i], names[j]) for i in range(n_vars) for j in range(i + 1, n_vars)]
    intra_conf = []
    if pairs and n_static_conf:
        take = rng.choice(len(pairs), size=min(n_static_conf, len(pairs)), replace=False)
        intra_conf = [frozenset(pairs[i]) for i in np.atleast_1d(take)]
    cross_conf = []
    for _ in range(n_dynamic_conf):
        a = names[rng.integers(n_vars)]
        b = names[rng.integers(n_vars)]
        cross_conf.append((a, b, 1))
    cross_conf = sorted(set(cross_conf))

    exos = []
    exo_of: dict[str, list[str]] = {n: [] for n in names}
    for i, pair in enumerate(sorted(intra_conf, key=sorted)):
        a, b = sorted(pair)
        name = f"U{i+1}"
        exos.append(SliceExo(name, tuple(rng.dirichlet(np.ones(2))), a, b, 0))
        exo_of[a].append(name)
        exo_of[b].append(name)
    for j, (a, b, k) in enumerate(cross_conf):
        name = f"W{j+1}"
        exos.append(SliceExo(name, tuple(rng.dirichlet(np.ones(2))), a, b, k))
        exo_of[a].append(name)
        exo_of[b].append(name)

    cpts = []
    for n in names:
        intra_p = tuple(sorted(a for a, b in intra if b == n))
        cross_p = tuple(sorted((a, k) for a, b, k in cross if b == n))
        exo_p = tuple(exo_of[n])
        shape = tuple(domain for _ in intra_p) + tuple(domain for _ in cross_p)
        shape += tuple(2 for _ in exo_p)
        n_rows = int(np.prod(shape)) if shape else 1
        rows = rng.dirichlet(np.ones(domain), size=n_rows)
        cpts.append(SliceCpt(n, intra_p, cross_p, exo_p,
                             rows.reshape(shape + (domain,))))
    return DcnSpec(variables, tuple(intra), tuple(cross), tuple(intra_conf),
                   tuple(cross_conf), DcnMechanism(tuple(cpts), tuple(exos)))
