"""Active learning of causal graphs from least-cost interventions.

Phase 1 compares do-calculus predictions across candidate graphs and
performs the cheapest single-value interventions that split the
candidate set; phase 2 settles the remaining edge and hidden-confounder
differences with exact conditional-independence tests.

Every verdict comes from one place: ``PredictionTable.verdicts(e)``,
an (n, n) boolean matrix over the candidates.  It is a read-only slice
of one (values, n, n) tensor per group of experiments that share sorted
targets and sorted observed.  Groups that also share target domains are
filled together: each distinct evaluated sheet of a group is bound to
every value assignment at once with numpy indexing, the sheets of the
whole batch are classified pairwise into the seven-case table in one
broadcast, and each group's result is expanded to every candidate pair.
Each candidate's subproblems share the ID recursion's frames, and
sheets (unbound) and P(Y) share one memo of every subexpression.  The
partition, the splitting plan's coverage and the next-experiment
selection read many experiments' matrices stacked; ``distinguishable_by``
classifies a single pair with the same table.

Prediction precomputation is embarrassingly parallel over (experiment,
graph) pairs; the discovery loop itself is sequential because each
oracle answer conditions the next selection.  Oracle access, CI
experiments included, is serialized through a single
``InterventionOracle``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (InternalError, InvalidInputError, PartialSupportError,
                     PromiseViolationError)
from .factors import EPS_CMP, Factor, condition, equal_within, marginalize
from .graphs import Admg, _mask, _names_of, _reach, d_separated, mutilate
from .identify import (Expr, ObservedTerm, Prediction, _bind_effect, _evaluate, _identify,
                       _JointTerms)
from .scm import InterventionOracle, InterventionSpec, Scm, joint

__all__ = [
    "CandidateSet", "CostModel", "InterventionCaps", "Verdict", "Partition",
    "InterventionPlan", "PredictionTable", "enumerate_interventions",
    "distinguishable_by", "power_of_intervention", "partition_candidates",
    "minimal_splitting_sets", "select_intervention", "select_graphs",
    "id_edges", "id_hidden", "alcam_run", "DiscoveryResult",
]


@dataclass(frozen=True)
class CandidateSet:
    """Ordered candidate graphs over a common variable set."""

    graphs: tuple[Admg, ...]

    def __post_init__(self) -> None:
        if not self.graphs:
            raise InvalidInputError("candidate set must be nonempty")
        base = self.graphs[0].vars
        for g in self.graphs[1:]:
            if g.vars != base:
                raise InvalidInputError("candidates must share variables and domains")


@dataclass(frozen=True)
class CostModel:
    """Costs of intervening (per target set and value) and observing."""

    intervention_cost: Callable[[frozenset[str], Mapping[str, int]], float]
    observation_cost: Callable[[frozenset[str]], float]

    @staticmethod
    def unit() -> "CostModel":
        """Default: one unit per intervened and per observed variable."""
        return CostModel(lambda x, _v: float(len(x)), lambda y: float(len(y)))

    @staticmethod
    def per_variable(
        intervention_weights: Mapping[str, float],
        observation_weights: Mapping[str, float],
        default_intervention: float = 1.0,
        default_observation: float = 1.0,
    ) -> "CostModel":
        iw = dict(intervention_weights)
        ow = dict(observation_weights)
        # the cost search prunes by partial sums, so every weight is finite and >= 0
        for name, w in [*((f"intervention weight of {n!r}", w) for n, w in iw.items()),
                        *((f"observation weight of {n!r}", w) for n, w in ow.items()),
                        ("default_intervention", default_intervention),
                        ("default_observation", default_observation)]:
            if not 0.0 <= w < math.inf:
                raise InvalidInputError(f"{name} must be a finite number >= 0, got {w!r}")
        return CostModel(
            lambda x, _v: float(sum(iw.get(n, default_intervention) for n in x)),
            lambda y: float(sum(ow.get(n, default_observation) for n in y)),
        )

    def of(self, e: InterventionSpec) -> float:
        return self.intervention_cost(e.targets, e.values) + self.observation_cost(e.observed)


@dataclass(frozen=True)
class InterventionCaps:
    """Bounds on the enumerated experiment space (the full space is
    exponential)."""

    max_targets: int = 2
    max_observed: int = 2

    def __post_init__(self) -> None:
        for name in ("max_targets", "max_observed"):
            bound = getattr(self, name)
            if isinstance(bound, bool) or not isinstance(bound, (int, np.integer)) or bound < 1:
                raise InvalidInputError(f"{name} must be an integer >= 1, got {bound!r}")


@dataclass(frozen=True)
class Verdict:
    """Distinguishability classification of one candidate pair under one
    experiment; cases follow the seven-row table (2, 4 and 5 distinguish)."""

    case_id: int
    distinguishable: bool
    eps: float = EPS_CMP
    partial: bool = False


@dataclass(frozen=True)
class Partition:
    """Maximal non-distinguishable candidate subsets (indices into the
    candidate list); a graph may belong to several subsets."""

    subsets: tuple[frozenset[int], ...]

    def members(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for s in self.subsets:
            out |= s
        return out


@dataclass(frozen=True)
class InterventionPlan:
    interventions: tuple[InterventionSpec, ...]
    total_cost: float


def enumerate_interventions(g: Admg, caps: InterventionCaps = InterventionCaps()) -> list[InterventionSpec]:
    """All experiments E=(X,x,Y) within the caps, in deterministic order.

    Every single value assignment of each target set appears as its own
    experiment; performing one tests exactly one value.
    """
    names = sorted(g.names())
    out: list[InterventionSpec] = []
    for k in range(1, caps.max_targets + 1):
        for targets in itertools.combinations(names, k):
            domains = [range(g.var(n).domain) for n in targets]
            rest = [n for n in names if n not in targets]
            for values in itertools.product(*domains):
                assignment = dict(zip(targets, values))
                for m in range(1, caps.max_observed + 1):
                    for observed in itertools.combinations(rest, m):
                        # sorted and disjoint by construction
                        out.append(InterventionSpec._trusted(targets, assignment, observed,
                                                             (targets, values, observed)))
    out.sort(key=lambda e: e.key())
    return out


class PredictionTable:
    """Cache of do-calculus predictions for every (experiment, graph) pair.

    Identification depends only on (graph, X, Y).  Line 2 of ID reduces
    the triple to the ancestral subproblem (G[An(Y)], X & An(Y), Y), which
    many candidates share, so each distinct subproblem is identified and
    its sheet evaluated once; the sheet is unbound and covers every value
    of X.  The subproblems of one candidate share the recursion's frames
    (one memo per graph), since those that differ only in X & An(Y) often
    meet the same frame below lines 2-3.  Every subexpression of every
    identified expression, and P(Y), is evaluated once against the
    table's joint source: the Q-factor terms P(v | predecessors) recur
    across expressions, and the memo is keyed by value.

    Verdicts are computed per group, the experiments that share sorted
    targets and sorted observed, and many groups at once (``_fill``):
    each is kept as one read-only (values, n, n) tensor, and
    :meth:`verdicts` returns its slice for one experiment.
    :meth:`prediction` binds a single sheet for ``select_graphs`` and the
    public API.  Every cache lives and dies with the table.
    """

    def __init__(self, candidates: CandidateSet, p_star: Factor, eps: float = EPS_CMP):
        self.candidates = candidates
        self.p_star = p_star
        self.eps = eps
        self._domain = {v.name: v.domain for v in candidates.graphs[0].vars}
        # (graph, observed) -> (An(Y), index of the distinct G[An(Y)])
        self._ancestral: dict[tuple[int, tuple[str, ...]], tuple[frozenset[str], int]] = {}
        self._subgraphs: dict[tuple, int] = {}
        self._sheets: dict[tuple, Optional[Factor]] = {}  # (G[An(Y)] index, X & An(Y), Y)
        self._frames: dict[int, dict] = {}  # graph -> the ID frames run on it
        self._terms = _JointTerms(p_star)
        self._evaluated: dict[Expr, Factor] = {}
        self._tensors: dict[tuple[tuple[str, ...], tuple[str, ...]], np.ndarray] = {}
        self._predictions: dict[tuple[int, tuple], Prediction] = {}  # (id(sheet), e.key())

    def observational_marginal(self, observed: Iterable[str]) -> Factor:
        key = tuple(sorted(observed))
        return _evaluate(ObservedTerm(key), self._terms, self._evaluated).reorder(key)

    def _sheet(self, g_idx: int, targets: tuple[str, ...], observed: tuple[str, ...]) -> Optional[Factor]:
        """The evaluated effect of do(targets) on ``observed`` in graph
        ``g_idx``, None when the graph does not identify it.  Identifying
        the ancestral subproblem builds the same expression as
        identifying in the whole graph, because G[An(Y)]'s topological
        order is G's restricted to An(Y)."""
        g = self.candidates.graphs[g_idx]
        bit = g._bit
        if (g_idx, observed) not in self._ancestral:
            an = _reach(g._pa, g._all, _mask(g, observed, "prediction"))
            # the parts of G[An(Y)], all that graph equality compares;
            # An(Y) is ancestral, so it holds every parent of its
            # members.  Line 2 of ID reduces to that subproblem on its
            # own, so no subgraph is built.
            parts = (tuple(v for v in g.vars if bit[v.name] & an),
                     frozenset(e for e in g.directed if bit[e[1]] & an),
                     frozenset(p for p in g.bidirected if all(bit[n] & an for n in p)))
            sub = self._subgraphs.setdefault(parts, len(self._subgraphs))
            self._ancestral[g_idx, observed] = (an, sub)
        an, sub = self._ancestral[g_idx, observed]
        key = (sub, tuple(n for n in targets if bit[n] & an), observed)
        if key not in self._sheets:
            expr = _identify(g, key[1], observed, self._frames.setdefault(g_idx, {})).expr
            self._sheets[key] = (None if expr is None
                                 else _evaluate(expr, self._terms, self._evaluated))
        return self._sheets[key]

    def prediction(self, g_idx: int, e: InterventionSpec) -> Prediction:
        """The prediction of graph ``g_idx`` for ``e``.  Candidates that
        share a sheet share its binding, so each (sheet, experiment) is
        bound once; a sheet lives as long as the table, so its id is a
        key for that long."""
        targets, _values, observed = e.key()
        sheet = self._sheet(g_idx, targets, observed)
        if sheet is None:
            return Prediction(None)
        key = (id(sheet), e.key())
        if key not in self._predictions:
            self._predictions[key] = Prediction(_bind_effect(sheet, e.values, e.observed))
        return self._predictions[key]

    def verdicts(self, e: InterventionSpec) -> np.ndarray:
        """Read-only (n, n) boolean matrix: entry (k, l) says whether
        ``e`` distinguishes candidates k and l; a slice of the verdict
        tensor of ``e``'s group."""
        targets, values, observed = e.key()
        if (targets, observed) not in self._tensors:
            self._fill([(targets, observed)])
        return self._tensors[targets, observed][self._value_index(targets, values)]

    def _grouped(self, experiments: Sequence[InterventionSpec],
                 ) -> dict[tuple, tuple[list[int], list[int]]]:
        """The experiments by group (sorted targets, sorted observed): each
        group's positions in ``experiments`` and value indices in its
        tensor; every group's tensor is filled, all at once."""
        groups: dict[tuple, tuple[list[int], list[int]]] = {}
        for i, e in enumerate(experiments):
            targets, values, observed = e.key()
            at, index = groups.setdefault((targets, observed), ([], []))
            at.append(i)
            index.append(self._value_index(targets, values))
        self._fill(groups)
        return groups

    def _stacked(self, experiments: Sequence[InterventionSpec]) -> np.ndarray:
        """(experiments, n, n) boolean: :meth:`verdicts` of each experiment
        in order, gathered from the group tensors by one index each."""
        n = len(self.candidates.graphs)
        out = np.empty((len(experiments), n, n), dtype=bool)
        for group, (at, index) in self._grouped(experiments).items():
            out[at] = self._tensors[group][index]
        return out

    def _value_index(self, targets: tuple[str, ...], values: tuple[int, ...]) -> int:
        """The index of ``values`` of ``targets`` in ``itertools.product`` order."""
        index = 0
        for t, v in zip(targets, values):
            domain = self._domain[t]
            if not 0 <= v < domain:
                raise InvalidInputError(f"value {v} out of domain for {t}")
            index = index * domain + v
        return index

    def _fill(self, groups: Iterable[tuple[tuple[str, ...], tuple[str, ...]]]) -> None:
        """The verdict tensors of the groups (sorted targets, sorted
        observed) not yet held.  Groups with the same observed and target
        domains share P(Y) and the value grid, so each batch of them is
        classified in one broadcast over (groups, values, rows, cells); a
        group's rows are its distinct sheets, each bound once."""
        n = len(self.candidates.graphs)
        batches: dict[tuple, dict[tuple[str, ...], None]] = {}
        for targets, observed in groups:
            if (targets, observed) not in self._tensors:
                domains = tuple(self._domain[t] for t in targets)
                batches.setdefault((observed, domains), {})[targets] = None
        for (observed, domains), members in batches.items():
            grid = np.indices(domains).reshape(len(domains), -1)
            py = self.observational_marginal(observed).table.reshape(-1)
            rows = np.zeros((len(members), grid.shape[1], n, py.size))
            ident, partial = np.zeros((2, len(members), 1, n), dtype=bool)
            index = np.empty((len(members), 1, n), dtype=np.intp)  # candidate -> its row
            for b, targets in enumerate(members):
                row_of: dict[int, int] = {}
                for k in range(n):
                    sheet = self._sheet(k, targets, observed)
                    if id(sheet) not in row_of:
                        r = row_of[id(sheet)] = len(row_of)
                        if sheet is not None:
                            bound = _bind_all(sheet, targets, grid, observed)
                            rows[b, :, r] = bound.reshape(-1, py.size)
                            ident[b, 0, r], partial[b, 0, r] = True, sheet.partial
                    index[b, 0, k] = row_of[id(sheet)]
            m = index.max() + 1
            ident, partial = ident[..., :m], partial[..., :m]
            # cases 2, 4 and 5 distinguish, unless either prediction is partial
            split = (_SPLITS[_case_codes(rows[:, :, :m], ident, py, self.eps)]
                     & ~(partial[..., :, None] | partial[..., None, :]))
            # each group's rows expanded to every pair of candidates
            tensors = split[np.arange(len(members))[:, None, None, None],
                            np.arange(grid.shape[1])[:, None, None],
                            index[..., :, None], index[..., None, :]]
            tensors.flags.writeable = False
            for b, targets in enumerate(members):
                self._tensors[targets, observed] = tensors[b]


def _bind_all(sheet: Factor, targets: tuple[str, ...], grid: np.ndarray,
              observed: tuple[str, ...]) -> np.ndarray:
    """``_bind_effect`` for every value assignment at once: entry i is the
    sheet bound to the assignment ``grid[:, i]`` of ``targets``, over
    ``observed``; without a target axis in the sheet, the one binding of
    them all.  Rule-3 auxiliary axes are taken at 0."""
    names = sheet.names()
    if not set(observed) <= set(names):
        raise InternalError(f"effect scope {names} does not cover {list(observed)}")
    bound = [i for i, t in enumerate(targets) if t in names]
    aux = [a for a, n in enumerate(names) if n not in observed and n not in targets]
    table = np.transpose(sheet.table, [names.index(targets[i]) for i in bound] + aux
                         + [names.index(n) for n in observed])
    return table[tuple(grid[i] for i in bound) + (0,) * len(aux)]


def _stack(dists: Sequence[Optional[Factor]], py: Factor
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Predictions as rows over P(Y)'s scope order: (rows, identified,
    partial, P(Y) row); an unidentified prediction's row is zeros."""
    names = py.names()
    rows = np.zeros((len(dists), py.table.size))
    for k, f in enumerate(dists):
        if f is not None:
            rows[k] = f.reorder(names).table.reshape(-1)
    ident = np.array([f is not None for f in dists], dtype=bool)
    partial = np.array([f is not None and f.partial for f in dists], dtype=bool)
    return rows, ident, partial, py.table.reshape(-1)


def _case_of(k_id: bool, l_id: bool, k_py: bool, l_py: bool, same: bool) -> int:
    """The seven-case table for one pair: whether each prediction is
    identified and equals P(Y), and whether the two are equal."""
    if not (k_id or l_id):
        return 7
    if k_id != l_id:
        return 5 if k_py or l_py else 6
    if k_py and l_py:
        return 1
    if k_py != l_py:
        return 2
    return 3 if same else 4


# _case_of over all 32 inputs, indexed by the bits k_id l_id k_py l_py same
_CASES = np.array([_case_of(*bits) for bits in itertools.product((False, True), repeat=5)])
_SPLITS = np.isin(_CASES, (2, 4, 5))


def _case_codes(rows: np.ndarray, ident: np.ndarray, py: np.ndarray, eps: float) -> np.ndarray:
    """(..., m, m) indices into ``_CASES`` for every pair of stacked
    predictions ``rows`` (..., m, cells), over any leading batch axes.

    Equality is ``equal_within``'s max-abs test, taken pairwise, so it
    stays non-transitive: a~b and b~c within eps do not make a~c.
    """
    same = np.max(np.abs(rows[..., :, None, :] - rows[..., None, :, :]), axis=-1,
                  initial=0.0) <= eps
    is_py = ident & (np.max(np.abs(rows - py), axis=-1, initial=0.0) <= eps)
    k = 16 * ident + 4 * is_py
    l = 8 * ident + 2 * is_py
    return k[..., :, None] + l[..., None, :] + same


def _classify(pk: Optional[Factor], pl: Optional[Factor], py: Factor, eps: float) -> Verdict:
    rows, ident, partial, py_row = _stack([pk, pl], py)
    code = _case_codes(rows, ident, py_row, eps)[0, 1]
    is_partial = bool(partial.any())
    return Verdict(int(_CASES[code]), bool(_SPLITS[code]) and not is_partial, eps, is_partial)


def distinguishable_by(
    e: InterventionSpec,
    k_idx: int,
    l_idx: int,
    preds: PredictionTable,
) -> Verdict:
    """Classify a candidate pair under one experiment into the seven-case
    table; partial-support predictions demote to non-distinguishable.
    The discovery loop reads :meth:`PredictionTable.verdicts` instead."""
    pk = preds.prediction(k_idx, e).dist
    pl = preds.prediction(l_idx, e).dist
    py = preds.observational_marginal(e.observed)
    return _classify(pk, pl, py, preds.eps)


def power_of_intervention(
    e: InterventionSpec,
    graph_indices: Iterable[int],
    preds: PredictionTable,
) -> int:
    """Number of candidate pairs the experiment distinguishes."""
    idx = sorted(set(graph_indices))
    return int(np.triu(preds.verdicts(e)[np.ix_(idx, idx)], 1).sum())


def _maximal_cliques(n: int, adjacent: Callable[[int, int], bool]) -> list[frozenset[int]]:
    """Deterministic Bron-Kerbosch over the non-distinguishability relation."""
    cliques: list[frozenset[int]] = []

    def bk(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot_pool = p | x
        pivot = min(pivot_pool)
        candidates_ = sorted(v for v in p if not adjacent(pivot, v))
        for v in candidates_:
            nv = {u for u in range(n) if u != v and adjacent(u, v)}
            bk(r | {v}, p & nv, x & nv)
            p.remove(v)
            x.add(v)

    bk(set(), set(range(n)), set())
    return sorted(cliques, key=lambda s: (sorted(s), len(s)))


def partition_candidates(
    candidates: CandidateSet,
    preds: PredictionTable,
    interventions: Sequence[InterventionSpec],
) -> Partition:
    """All maximal subsets of pairwise non-distinguishable candidates.

    Within a subset every experiment has zero power; across any two
    subsets some experiment has positive power.  Subsets may overlap.
    """
    n = len(candidates.graphs)
    split = np.zeros((n, n), dtype=bool)
    for group, (_at, index) in preds._grouped(interventions).items():
        split |= preds._tensors[group][index].any(axis=0)

    def non_dist(a: int, b: int) -> bool:
        return a != b and not split[a, b]

    return Partition(tuple(_maximal_cliques(n, non_dist)))


def _pair_coverage(
    partition: Partition,
    preds: PredictionTable,
    interventions: Sequence[InterventionSpec],
) -> dict[int, frozenset[tuple[int, int]]]:
    """For each experiment index, the subset pairs it splits."""
    pairs = list(itertools.combinations(range(len(partition.subsets)), 2))
    upper = np.triu_indices(len(partition.subsets), 1)  # ``pairs``, in order
    rows = _splits(partition, preds, interventions)[:, upper[0], upper[1]].tolist()
    return {ei: frozenset(itertools.compress(pairs, row)) for ei, row in enumerate(rows)}


def _splits(partition: Partition, preds: PredictionTable,
            experiments: Sequence[InterventionSpec]) -> np.ndarray:
    """(experiments, subsets, subsets) boolean: entry (e, a, b) is
    ``verdicts(e)[np.ix_(subset_a, subset_b)].any()``, counted with the
    membership matrix on both sides."""
    member = np.zeros((len(partition.subsets), len(preds.candidates.graphs)))
    for a, s in enumerate(partition.subsets):
        member[a, sorted(s)] = 1.0
    return member @ preds._stacked(experiments) @ member.T > 0


def _exact_cover(
    universe: frozenset,
    sets: Sequence[tuple[float, tuple, frozenset]],
) -> Optional[list[int]]:
    """Min-cost cover by branch and bound; ``sets`` rows are
    (cost, tie_key, covered); returns indices into ``sets``."""
    order = sorted(range(len(sets)), key=lambda i: (sets[i][0], sets[i][1]))
    best_cost = float("inf")
    best: Optional[list[int]] = None

    def bound_remaining(missing: frozenset, start: int) -> bool:
        rest: set = set()
        for i in order[start:]:
            rest |= sets[i][2]
        return missing <= rest

    def walk(start: int, chosen: list[int], covered: frozenset, cost: float) -> None:
        nonlocal best_cost, best
        if universe <= covered:
            if cost < best_cost - 1e-12 or (abs(cost - best_cost) <= 1e-12 and best is not None
                                            and [sets[i][1] for i in chosen] < [sets[i][1] for i in best]):
                best_cost, best = cost, list(chosen)
            return
        if start >= len(order) or cost >= best_cost - 1e-12:
            return
        if not bound_remaining(universe - covered, start):
            return
        i = order[start]
        gain = sets[i][2] - covered
        if gain:
            walk(start + 1, chosen + [i], covered | sets[i][2], cost + sets[i][0])
        walk(start + 1, chosen, covered, cost)

    walk(0, [], frozenset(), 0.0)
    return best


def _greedy_cover(
    universe: frozenset,
    sets: Sequence[tuple[float, tuple, frozenset]],
) -> Optional[list[int]]:
    missing = set(universe)
    chosen: list[int] = []
    while missing:
        scored = []
        for i, (cost, key, covered) in enumerate(sets):
            gain = len(covered & missing)
            if gain:
                scored.append((cost / gain, key, i))
        if not scored:
            return None
        scored.sort()
        _, _, pick = scored[0]
        chosen.append(pick)
        missing -= sets[pick][2]
    return chosen


EXACT_COVER_MAX_SUBSETS = 8
EXACT_COVER_MAX_INTERVENTIONS = 20


def minimal_splitting_sets(
    partition: Partition,
    preds: PredictionTable,
    costs: CostModel,
    interventions: Sequence[InterventionSpec],
) -> InterventionPlan:
    """Least-total-cost experiment set splitting every pair of subsets.

    Exact for small instances (<= 8 subsets and <= 20 useful
    experiments), greedy weighted set cover beyond that; ties broken by
    lexicographic experiment ordering.
    """
    if len(partition.subsets) < 2:
        raise InvalidInputError("splitting needs at least two subsets")
    coverage = _pair_coverage(partition, preds, interventions)
    universe = frozenset(
        (a, b) for a, b in itertools.combinations(range(len(partition.subsets)), 2)
    )
    rows = [
        (costs.of(interventions[i]), interventions[i].key(), coverage[i])
        for i in range(len(interventions))
        if coverage[i]
    ]
    small = (len(partition.subsets) <= EXACT_COVER_MAX_SUBSETS
             and len(rows) <= EXACT_COVER_MAX_INTERVENTIONS)
    chosen = _exact_cover(universe, rows) if small else _greedy_cover(universe, rows)
    if chosen is None:
        raise InternalError("no experiment set splits all subsets; partition invariant broken")
    picked = sorted((rows[i][1] for i in chosen))
    by_key = {e.key(): e for e in interventions}
    plan = tuple(by_key[k] for k in picked)
    return InterventionPlan(plan, sum(costs.of(e) for e in plan))


def select_intervention(
    plan: Sequence[InterventionSpec],
    partition: Partition,
    preds: PredictionTable,
    costs: CostModel,
) -> Optional[InterventionSpec]:
    """Next experiment to perform: cheapest member of the cheapest
    sub-plan that splits one subset from all others; None when no
    remaining experiment has positive power."""
    if not plan:
        return None
    # an experiment has positive power over the members iff it splits a
    # pair within or across subsets
    splits = _splits(partition, preds, plan)
    if not splits.any():
        return None
    n_subs = len(partition.subsets)
    by_key = {e.key(): e for e in plan}
    best: Optional[tuple[float, tuple]] = None
    for i in range(n_subs):
        needed = frozenset(j for j in range(n_subs) if j != i)
        if not needed:
            continue
        rows = []
        for e, split in zip(plan, splits):
            covered = frozenset(j for j in needed if split[i, j])
            if covered:
                rows.append((costs.of(e), e.key(), covered))
        chosen = _exact_cover(needed, rows)
        if not chosen:
            continue
        cost = sum(rows[i2][0] for i2 in chosen)
        cheapest_key = min((rows[i2][0], rows[i2][1]) for i2 in chosen)[1]
        if best is None or (cost, cheapest_key) < best:
            best = (cost, cheapest_key)
    if best is None:
        # no remaining sub-plan isolates a single subset; fall back to the
        # cheapest experiment that still splits something
        useful = [(costs.of(e), e.key()) for e, split in zip(plan, splits) if split.any()]
        return by_key[min(useful)[1]]
    return by_key[best[1]]


def select_graphs(
    partition: Partition,
    e: InterventionSpec,
    oracle_answer: Factor,
    preds: PredictionTable,
) -> Partition:
    """Keep candidates consistent with the oracle answer.

    A candidate survives when its prediction matches the answer, or when
    its prediction is empty while the answer differs from the
    observational marginal of Y.  Subsets are re-derived as maximal
    non-distinguishable cliques over the survivors, so a graph is
    dropped only when it fails its own consistency condition.
    """
    py = preds.observational_marginal(e.observed)
    answer_is_py = equal_within(oracle_answer.reorder(py.names()), py, preds.eps)
    survivors = []
    for k in sorted(partition.members()):
        pk = preds.prediction(k, e).dist
        if pk is None:
            if not answer_is_py:
                survivors.append(k)
        elif equal_within(pk, oracle_answer.reorder(pk.names()), preds.eps):
            survivors.append(k)
    keep = frozenset(survivors)
    clipped: list[frozenset[int]] = []
    for s in partition.subsets:
        t = s & keep
        if t and not any(t < other & keep for other in partition.subsets):
            if t not in clipped:
                clipped.append(t)
    return Partition(tuple(sorted(clipped, key=lambda s: (sorted(s), len(s)))))


# -- conditional-independence fallbacks ----------------------------------


@dataclass
class CiRecord:
    """One conditional-independence test performed on the true model."""

    kind: str
    pair: tuple[str, str]
    do_set: tuple[str, ...]
    multi_value: bool
    interventions: int
    cost: float
    dependent: bool


def _edge_differences(graphs: Sequence[Admg]) -> list[tuple[str, str]]:
    all_edges = set()
    for g in graphs:
        all_edges |= g.directed
    return sorted(e for e in all_edges if not all(e in g.directed for g in graphs))


def _confounder_differences(graphs: Sequence[Admg]) -> list[frozenset[str]]:
    all_confs = set()
    for g in graphs:
        all_confs |= g.bidirected
    return sorted((c for c in all_confs if not all(c in g.bidirected for g in graphs)),
                  key=sorted)


def _min_dsep_intervention(
    graphs: Sequence[Admg],
    vi: str,
    vj: str,
) -> Optional[frozenset[str]]:
    """Smallest variable set whose intervention d-separates vi and vj in
    every given graph; may need to contain vi itself when confounders
    touch the pair.  Preference order: size, vi-free before vi, names."""
    rest = sorted(n for n in graphs[0].names() if n not in (vi, vj))

    def separates(d: frozenset[str]) -> bool:
        z = d - {vi}
        return all(
            d_separated(mutilate(g, remove_incoming=d), {vi}, {vj}, z)
            for g in graphs
        )

    # combinations of a sorted list come in name order, and adding vi to
    # each of them keeps that order, so no candidate list is built or sorted
    for size in range(len(rest) + 2):
        for combo in itertools.combinations(rest, size):
            if separates(frozenset(combo)):
                return frozenset(combo)
        if size:
            for combo in itertools.combinations(rest, size - 1):
                if separates(frozenset(combo) | {vi}):
                    return frozenset(combo) | {vi}
    return None


def _dependent_under(oracle: InterventionOracle, vi: str, vj: str, d: frozenset[str],
                     costs: CostModel, eps: float) -> tuple[bool, CiRecord]:
    """Exact dependence test of vi, vj under intervention on d."""
    context = {n: 0 for n in sorted(d)}
    if vi in d:
        # hidden confounders force intervening vi: test across all its values
        dists = []
        base = {n: 0 for n in sorted(d - {vi})}
        n_values = oracle.m_star.graph.var(vi).domain
        cost = 0.0
        for val in range(n_values):
            do_set = dict(base, **{vi: val})
            f = oracle.query(InterventionSpec(frozenset(do_set), do_set, frozenset({vj})))
            dists.append(f)
            cost += costs.intervention_cost(frozenset(do_set), do_set)
            cost += costs.observation_cost(frozenset({vj}))
        dep = any(
            not equal_within(dists[0], f.reorder(dists[0].names()), eps)
            for f in dists[1:]
        )
        rec = CiRecord("edge", (vi, vj), tuple(sorted(d)), True, n_values, cost, dep)
        return dep, rec
    cost = 0.0
    if d:
        cost += costs.intervention_cost(frozenset(d), context)
    cost += costs.observation_cost(frozenset({vi, vj}))
    independent = oracle.ci_test(vi, vj, context if d else {}, eps=eps)
    rec = CiRecord("edge", (vi, vj), tuple(sorted(d)), False, 1 if d else 0, cost, not independent)
    return not independent, rec


def id_edges(
    subset: CandidateSet,
    m_star: Scm,
    costs: Optional[CostModel] = None,
    eps: float = EPS_CMP,
    records: Optional[list[CiRecord]] = None,
    oracle: Optional[InterventionOracle] = None,
) -> CandidateSet:
    """Resolve edge differences with interventional CI tests.

    For each differing edge, intervenes on a minimal set d-separating its
    endpoints in the edge-free candidates and keeps the side consistent
    with the exact test.  Returns a candidate set with no edge
    differences.  Every experiment goes through ``oracle`` (a new one
    on ``m_star`` when None)."""
    costs = costs or CostModel.unit()
    oracle = oracle or InterventionOracle(m_star)
    graphs = list(subset.graphs)
    while True:
        diffs = _edge_differences(graphs)
        if not diffs:
            return CandidateSet(tuple(graphs))
        vi, vj = diffs[0]
        without = [g for g in graphs if (vi, vj) not in g.directed]
        d = _min_dsep_intervention(without, vi, vj)
        if d is None:
            raise InternalError(f"no separating intervention for edge {vi}->{vj}")
        dependent, rec = _dependent_under(oracle, vi, vj, d, costs, eps)
        if records is not None:
            records.append(rec)
        if dependent:
            graphs = [g for g in graphs if (vi, vj) in g.directed]
        else:
            graphs = [g for g in graphs if (vi, vj) not in g.directed]
        if not graphs:
            raise PromiseViolationError("edge tests eliminated every candidate")


def _hidden_test(
    oracle: InterventionOracle,
    parent: str,
    child: str,
    adjacent: bool,
    o_context: Mapping[str, int],
    costs: CostModel,
    eps: float,
) -> tuple[bool, float, int]:
    """Confoundedness test; returns (confounded, cost, interventions)."""
    o_set = frozenset(o_context)
    cost = 0.0
    n_int = 0
    # right-hand side: P(child | parent, do(O)) from a single experiment
    rhs_spec = InterventionSpec(o_set, dict(o_context), frozenset({parent, child}))
    rhs_joint = oracle.query(rhs_spec)
    if o_set:
        cost += costs.intervention_cost(o_set, dict(o_context))
        n_int += 1
    cost += costs.observation_cost(frozenset({parent, child}))
    rhs_cond = condition(rhs_joint, [parent])
    if rhs_cond.partial:
        raise PartialSupportError(
            f"value of {parent!r} with zero probability under do({sorted(o_set)})")
    rhs = rhs_cond.reorder([parent, child]).table

    if adjacent:
        # left-hand side: P(child | do(parent, O)), one experiment per value
        lhs_rows = []
        for val in range(oracle.m_star.graph.var(parent).domain):
            do_set = dict(o_context, **{parent: val})
            f = oracle.query(InterventionSpec(frozenset(do_set), do_set, frozenset({child})))
            lhs_rows.append(f.table)
            cost += costs.intervention_cost(frozenset(do_set), do_set)
            cost += costs.observation_cost(frozenset({child}))
            n_int += 1
        lhs = np.stack(lhs_rows)
    else:
        # left-hand side: P(child | do(O)), same experiment as the rhs
        lhs = np.broadcast_to(marginalize(rhs_joint, [parent]).table, rhs.shape)
    confounded = bool(np.max(np.abs(lhs - rhs)) > eps)
    return confounded, cost, n_int


def id_hidden(
    subset: CandidateSet,
    m_star: Scm,
    costs: Optional[CostModel] = None,
    eps: float = EPS_CMP,
    records: Optional[list[CiRecord]] = None,
    oracle: Optional[InterventionOracle] = None,
) -> CandidateSet:
    """Resolve hidden-confounder differences with exact CI tests.

    Uses the adjacent-pair criterion (compare P(Vj|do(Vi,O)) with
    P(Vj|Vi,do(O))) or the non-adjacent criterion (compare P(Vj|do(O))
    with P(Vj|Vi,do(O))), with O the union of the pair's observed
    parents held at a single context.  Every experiment goes through
    ``oracle`` (a new one on ``m_star`` when None)."""
    costs = costs or CostModel.unit()
    oracle = oracle or InterventionOracle(m_star)
    graphs = list(subset.graphs)
    base = graphs[0]
    for g in graphs[1:]:
        if g.directed != base.directed:
            raise InvalidInputError("id_hidden requires a shared observable graph")
    while True:
        diffs = _confounder_differences(graphs)
        if not diffs:
            return CandidateSet(tuple(graphs))
        pair = diffs[0]
        a, b = sorted(pair)
        if base.has_edge(a, b):
            parent, child, adjacent = a, b, True
        elif base.has_edge(b, a):
            parent, child, adjacent = b, a, True
        else:
            parent, child, adjacent = a, b, False
        o_vars = _names_of(base, (base._pa[base._index(parent)] | base._pa[base._index(child)])
                           & ~(base._bit[parent] | base._bit[child]))
        o_context = dict.fromkeys(o_vars, 0)
        confounded, cost, n_int = _hidden_test(oracle, parent, child, adjacent,
                                               o_context, costs, eps)
        if records is not None:
            records.append(CiRecord("hidden", (parent, child), tuple(o_vars),
                                    adjacent, n_int, cost, confounded))
        if confounded:
            graphs = [g for g in graphs if pair in g.bidirected]
        else:
            graphs = [g for g in graphs if pair not in g.bidirected]
        if not graphs:
            raise PromiseViolationError("confounder tests eliminated every candidate")


# -- the driver ----------------------------------------------------------


@dataclass
class DiscoveryResult:
    final: Admg
    interventions: list[dict]
    ci_records: list[CiRecord]
    n_candidates: int
    n_surviving_before_ci: int
    intervention_cost: float
    ci_cost: float

    @property
    def n_interventions(self) -> int:
        return len(self.interventions)

    @property
    def bound_ok(self) -> bool:
        """Single-value interventions <= |candidates| - |non-distinguishable set|."""
        return self.n_interventions <= self.n_candidates - self.n_surviving_before_ci

    @property
    def total_cost(self) -> float:
        return self.intervention_cost + self.ci_cost


def alcam_run(
    candidates: CandidateSet,
    m_star: Scm,
    costs: Optional[CostModel] = None,
    caps: InterventionCaps = InterventionCaps(),
    eps: float = EPS_CMP,
    oracle: Optional[InterventionOracle] = None,
) -> DiscoveryResult:
    """Learn the true graph by a least-cost sequence of single-value
    interventions plus, when needed, conditional-independence tests.

    The true model's induced graph must be among the candidates; if every
    candidate gets eliminated the promise was violated and an error is
    raised rather than returning a wrong graph."""
    costs = costs or CostModel.unit()
    oracle = oracle or InterventionOracle(m_star)
    if m_star.graph.vars != candidates.graphs[0].vars:
        raise InvalidInputError("true model and candidates must share variables")

    p_star = joint(m_star)
    preds = PredictionTable(candidates, p_star, eps)
    experiments = enumerate_interventions(candidates.graphs[0], caps)
    partition = partition_candidates(candidates, preds, experiments)

    log: list[dict] = []
    spent = 0.0
    if len(partition.subsets) > 1:
        plan = list(minimal_splitting_sets(partition, preds, costs, experiments).interventions)
        while len(partition.subsets) > 1:
            e = select_intervention(plan, partition, preds, costs)
            if e is None:
                # the plan ran dry while subsets remain (possible when an
                # unused splitter's witness pair was eliminated earlier);
                # re-derive a minimal splitting set for what is left
                plan = list(minimal_splitting_sets(partition, preds, costs,
                                                   experiments).interventions)
                e = select_intervention(plan, partition, preds, costs)
                if e is None:
                    raise InternalError("experiments exhausted with several subsets left")
            answer = oracle.query(e)
            partition = select_graphs(partition, e, answer, preds)
            plan.remove(e)
            spent += costs.of(e)
            log.append({
                "intervention": str(e),
                "cost": costs.of(e),
                "oracle_digest": [round(x, 12) for x in np.ravel(answer.table)],
                "surviving": sorted(partition.members()),
            })
            if not partition.subsets:
                raise PromiseViolationError("all candidate subsets eliminated")

    survivors = sorted(partition.members())
    if not survivors:
        raise PromiseViolationError("all candidates eliminated")
    remaining = CandidateSet(tuple(candidates.graphs[i] for i in survivors))

    ci_records: list[CiRecord] = []
    if len(set(remaining.graphs)) > 1 and _edge_differences(remaining.graphs):
        remaining = id_edges(remaining, m_star, costs, eps, ci_records, oracle)
    if len(set(remaining.graphs)) > 1 and _confounder_differences(remaining.graphs):
        remaining = id_hidden(remaining, m_star, costs, eps, ci_records, oracle)

    unique = sorted(set(remaining.graphs), key=lambda g: (sorted(g.directed), sorted(map(sorted, g.bidirected))))
    if len(unique) != 1:
        raise InternalError(f"{len(unique)} structurally distinct candidates remain")
    return DiscoveryResult(
        final=unique[0],
        interventions=log,
        ci_records=ci_records,
        n_candidates=len(candidates.graphs),
        n_surviving_before_ci=len(survivors),
        intervention_cost=spent,
        ci_cost=sum(r.cost for r in ci_records),
    )
