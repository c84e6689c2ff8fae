"""Active learning of causal graphs from least-cost interventions.

Phase 1 compares do-calculus predictions across candidate graphs and
performs the cheapest single-value interventions that split the
candidate set; phase 2 settles the remaining edge and hidden-confounder
differences with exact conditional-independence tests.  Phase 2 is one
loop (``_settle``) over two primitives: the oracle's CI test under one
intervened context (``_ci``), and one experiment per value of a
variable (``_per_value``).

Every comparison of predictions reads one set of rows: the predictions
``PredictionTable._fill`` binds, one group of experiments at a time.  A
group is (reaching targets, sorted observed Y): the targets that are an
ancestor of Y in some candidate.  The others change no candidate's
prediction, since each is identified on G_k[An_k(Y)] with X & An_k(Y)
(rule 3 of the do-calculus; line 2 of ID), so they are dropped.  The
groups of one observed set are filled as one batch: each distinct
evaluated sheet of a group is bound to every value assignment at once
(``identify._bind``), the rows of the whole batch, value grids padded to
its largest, are classified pairwise into the seven-case table in one
broadcast, and each group's result is expanded to every candidate pair,
one read-only (values, n, n) tensor per group, which
``PredictionTable.verdicts(e)`` slices.  The table keeps one record per
group: its tensor, its batch's rows and its position in the batch.  Each
candidate's subproblems share the ID recursion's frames, and sheets
(unbound) and P(Y) share one memo of every subexpression.  The partition
reads the tensors group by group; ``distinguishable_by`` classifies a
single pair from the rows, and ``select_graphs`` matches an oracle
answer against all of them at once.  The splitting plan and the
next-experiment selection reduce many experiments' matrices, stacked,
to the subsets each splits (``_splits``), and solve set covers whose
rows (``_cover_rows``) hold what an experiment covers as an int bitmask:
subset pairs for the plan, the other subsets for the selection.

Prediction precomputation is embarrassingly parallel over (experiment,
graph) pairs; the discovery loop itself is sequential because each
oracle answer conditions the next selection.  Oracle access, CI
experiments included, is serialized through a single
``InterventionOracle``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (InternalError, InvalidInputError, PartialSupportError,
                     PromiseViolationError)
from .factors import Factor, _within, condition
from .graphs import Admg, _mask, _names_of, _reach, d_separated, mutilate
from .identify import (Expr, ObservedTerm, Prediction, _bind, _bind_effect, _evaluate,
                       _identify, _JointTerms)
from .scm import InterventionOracle, InterventionSpec, Scm, _check_value, joint

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

    Verdicts are computed per group, (reaching targets, sorted observed
    Y), and many groups at once (``_fill``).  The reaching targets are
    those that are an ancestor of Y in some candidate.  Dropping the rest
    is exact: each sheet is identified on G_k[An_k(Y)] with X & An_k(Y)
    (line 2 of ID; rule 3) and its scope lies inside An_k(Y), so such a
    target changes no sheet key, bound axis or auxiliary.  A fill makes
    one batch per observed set.  Each experiment is located in its group
    once (``_locate``).  Each group has one record (``_group``): a
    read-only (values, n, n) tensor, whose slice for one experiment
    :meth:`verdicts` returns, and the rows its batch bound (``_bound``),
    from which ``distinguishable_by`` and ``select_graphs`` read.
    :meth:`prediction` binds a single sheet for the public API.  A
    variable name outside the candidates', a value that is not an integer
    of its domain and a candidate index outside 0..n-1 are refused with
    ``InvalidInputError``.  Every cache lives and dies with the table.
    """

    def __init__(self, candidates: CandidateSet, p_star: Factor):
        self.candidates = candidates
        self.p_star = p_star
        self._domain = {v.name: v.domain for v in candidates.graphs[0].vars}
        self._names = frozenset(self._domain)
        # (graph, observed) -> (An(Y) mask, index of the distinct G[An(Y)])
        self._ancestral: dict[tuple[int, tuple[str, ...]], tuple[int, int]] = {}
        # observed -> the variables an ancestor of it in some candidate, a mask
        self._reaching: dict[tuple[str, ...], int] = {}
        self._subgraphs: dict[tuple, int] = {}
        self._sheets: dict[tuple, Optional[Factor]] = {}  # (G[An(Y)] index, X & An(Y), Y)
        self._frames: dict[int, dict] = {}  # graph -> the ID frames run on it
        self._terms = _JointTerms(p_star)
        self._evaluated: dict[Expr, Factor] = {}
        # group -> (verdict tensor, its batch's rows (predictions,
        # identified, partial, row index, P(Y)), its position in the batch)
        self._groups: dict[tuple[tuple[str, ...], tuple[str, ...]],
                           tuple[np.ndarray, tuple, int]] = {}
        # id(experiment) -> (the experiment, its group and value index); holding
        # the experiment keeps its id from being reused while the table lives
        self._located: dict[int, tuple[InterventionSpec, tuple]] = {}
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
        an, sub = self._ancestry(g_idx, observed)
        try:
            key = (sub, tuple(n for n in targets if bit[n] & an), observed)
        except KeyError:
            raise InvalidInputError(
                f"prediction: unknown variables {sorted(set(targets) - bit.keys())}") from None
        if key not in self._sheets:
            expr = _identify(g, key[1], observed, self._frames.setdefault(g_idx, {})).expr
            self._sheets[key] = (None if expr is None
                                 else _evaluate(expr, self._terms, self._evaluated))
        return self._sheets[key]

    def _ancestry(self, g_idx: int, observed: tuple[str, ...]) -> tuple[int, int]:
        """(An(Y) in graph ``g_idx`` as a mask, the index of the distinct
        G[An(Y)]) for Y = ``observed``."""
        if (g_idx, observed) not in self._ancestral:
            g = self.candidates.graphs[g_idx]
            bit = g._bit
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
        return self._ancestral[g_idx, observed]

    def prediction(self, g_idx: int, e: InterventionSpec) -> Prediction:
        """The prediction of graph ``g_idx`` for ``e``.  Candidates that
        share a sheet share its binding, so each (sheet, experiment) is
        bound once; a sheet lives as long as the table, so its id is a
        key for that long."""
        self._locate(e)  # checks every name and value, the targets outside the sheet too
        targets, _values, observed = e.key()
        sheet = self._sheet(self._candidate(g_idx), targets, observed)
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
        group, value = self._locate(e)
        return self._group(group)[0][value]

    def _bound(self, e: InterventionSpec
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows the fill bound for ``e``: (predictions (rows, cells) over
        sorted observed, identified, partial, candidate -> row, P(Y)); an
        unidentified row is zeros."""
        group, value = self._locate(e)
        _tensor, (rows, ident, partial, index, py), b = self._group(group)
        return rows[b, value], ident[b], partial[b], index[b], py

    def _group(self, group: tuple[tuple[str, ...], tuple[str, ...]]
               ) -> tuple[np.ndarray, tuple, int]:
        """The record of ``group`` (reaching targets, sorted observed),
        filled when not yet held: (verdict tensor, its batch's rows, its
        position in the batch)."""
        if group not in self._groups:
            self._fill([group])
        return self._groups[group]

    def _locate(self, e: InterventionSpec) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], int]:
        """``e``'s group, (its targets that are an ancestor of its observed
        Y in some candidate, sorted Y), and the index of those targets'
        values in the group's tensor, in ``itertools.product`` order; the
        other targets change no sheet (rule 3, line 2 of ID).  Every name
        and value is checked, once per experiment and table: a name that
        is not a candidates' variable and a value that is not an integer
        of its domain are refused."""
        hit = self._located.get(id(e))
        if hit is not None:
            return hit[1]
        targets, values, observed = e.key()
        if not (self._names.issuperset(targets) and self._names.issuperset(observed)):
            unknown = sorted({*targets, *observed} - self._names)
            raise InvalidInputError(f"experiment {e} names unknown variables {unknown}")
        if observed not in self._reaching:
            self._reaching[observed] = functools.reduce(operator.or_, (
                self._ancestry(k, observed)[0] for k in range(len(self.candidates.graphs))))
        # candidates share ``vars``, so their bits agree
        reaching, bit = self._reaching[observed], self.candidates.graphs[0]._bit
        kept, index = [], 0
        for t, v in zip(targets, values):
            domain = self._domain[t]
            _check_value(t, v, domain)
            if bit[t] & reaching:
                kept.append(t)
                index = index * domain + v
        where = ((tuple(kept), observed), index)
        self._located[id(e)] = (e, where)
        return where

    def _candidate(self, k: int) -> int:
        """``k``, refused unless it indexes a candidate (no wrap-around)."""
        n = len(self.candidates.graphs)
        if not isinstance(k, (int, np.integer)) or not 0 <= k < n:
            raise InvalidInputError(f"candidate index {k!r} out of range for {n} candidates")
        return int(k)

    def _grouped(self, experiments: Sequence[InterventionSpec],
                 ) -> dict[tuple, tuple[list[int], list[int]]]:
        """The experiments by group (``_locate``): each group's positions
        in ``experiments`` and value indices in its tensor; every group's
        tensor is filled, all at once."""
        groups: dict[tuple, tuple[list[int], list[int]]] = {}
        for i, e in enumerate(experiments):
            group, value = self._locate(e)
            at, index = groups.setdefault(group, ([], []))
            at.append(i)
            index.append(value)
        self._fill(groups)
        return groups

    def _stacked(self, experiments: Sequence[InterventionSpec]) -> np.ndarray:
        """(experiments, n, n) boolean: :meth:`verdicts` of each experiment
        in order, gathered from the group tensors by one index each."""
        n = len(self.candidates.graphs)
        out = np.empty((len(experiments), n, n), dtype=bool)
        for group, (at, index) in self._grouped(experiments).items():
            out[at] = self._group(group)[0][index]
        return out

    def _fill(self, groups: Iterable[tuple[tuple[str, ...], tuple[str, ...]]]) -> None:
        """The verdict tensors of the groups (reaching targets, sorted
        observed) not yet held, one batch per observed set: its groups
        share P(Y), and their value grids are padded to the batch's
        largest, so each batch is classified in one broadcast over
        (groups, values, rows, cells); a group's rows are its distinct
        sheets, each bound once."""
        n = len(self.candidates.graphs)
        batches: dict[tuple[str, ...], dict[tuple[str, ...], None]] = {}
        for targets, observed in groups:
            if (targets, observed) not in self._groups:
                batches.setdefault(observed, {})[targets] = None
        for observed, members in batches.items():
            grids = [np.indices(d).reshape(len(d), math.prod(d))
                     for d in ([self._domain[t] for t in targets] for targets in members)]
            py = self.observational_marginal(observed).table.reshape(-1)
            rows = np.zeros((len(members), max(g.shape[1] for g in grids), n, py.size))
            ident, partial = np.zeros((2, len(members), 1, n), dtype=bool)
            index = np.empty((len(members), 1, n), dtype=np.intp)  # candidate -> its row
            for b, (targets, grid) in enumerate(zip(members, grids)):
                row_of: dict[int, int] = {}
                for k in range(n):
                    sheet = self._sheet(k, targets, observed)
                    if id(sheet) not in row_of:
                        r = row_of[id(sheet)] = len(row_of)
                        if sheet is not None:
                            bound = _bind(sheet, targets, grid, observed)
                            rows[b, :grid.shape[1], r] = bound.reshape(-1, py.size)
                            ident[b, 0, r], partial[b, 0, r] = True, sheet.partial
                    index[b, 0, k] = row_of[id(sheet)]
            m = index.max() + 1
            rows, ident, partial = rows[:, :, :m], ident[..., :m], partial[..., :m]
            batch = (rows, ident[:, 0], partial[:, 0], index[:, 0], py)
            # cases 2, 4 and 5 distinguish, unless either prediction is partial
            split = (_SPLITS[_case_codes(rows, ident, py)]
                     & ~(partial[..., :, None] | partial[..., None, :]))
            # each group's rows expanded to every pair of candidates
            tensors = split[np.arange(len(members))[:, None, None, None],
                            np.arange(rows.shape[1])[:, None, None],
                            index[..., :, None], index[..., None, :]]
            tensors.flags.writeable = False
            for b, (targets, grid) in enumerate(zip(members, grids)):
                self._groups[targets, observed] = (tensors[b, :grid.shape[1]], batch, b)


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


def _case_codes(rows: np.ndarray, ident: np.ndarray, py: np.ndarray) -> np.ndarray:
    """(..., m, m) indices into ``_CASES`` for every pair of stacked
    predictions ``rows`` (..., m, cells), over any leading batch axes.

    Equality is ``equal_within``'s max-abs test, taken pairwise, so it
    stays non-transitive: a~b and b~c within ``EPS_CMP`` do not make a~c.
    """
    same = _within(rows[..., :, None, :], rows[..., None, :, :], axis=-1)
    is_py = ident & _within(rows, py, axis=-1)
    k = 16 * ident + 4 * is_py
    l = 8 * ident + 2 * is_py
    return k[..., :, None] + l[..., None, :] + same


def distinguishable_by(
    e: InterventionSpec,
    k_idx: int,
    l_idx: int,
    preds: PredictionTable,
) -> Verdict:
    """Classify a candidate pair under one experiment into the seven-case
    table; partial-support predictions demote to non-distinguishable.
    Read off the rows the verdict fill bound; the discovery loop reads
    :meth:`PredictionTable.verdicts` instead."""
    rows, ident, partial, index, py = preds._bound(e)
    pair = index[[preds._candidate(k_idx), preds._candidate(l_idx)]]
    code = _case_codes(rows[pair], ident[pair], py)[0, 1]
    is_partial = bool(partial[pair].any())
    return Verdict(int(_CASES[code]), bool(_SPLITS[code]) and not is_partial, is_partial)


def power_of_intervention(
    e: InterventionSpec,
    graph_indices: Iterable[int],
    preds: PredictionTable,
) -> int:
    """Number of candidate pairs the experiment distinguishes."""
    idx = sorted({preds._candidate(k) for k in graph_indices})
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
        split |= preds._group(group)[0][index].any(axis=0)

    def non_dist(a: int, b: int) -> bool:
        return a != b and not split[a, b]

    return Partition(tuple(_maximal_cliques(n, non_dist)))


def _splits(partition: Partition, preds: PredictionTable,
            experiments: Sequence[InterventionSpec]) -> np.ndarray:
    """(experiments, subsets, subsets) boolean: entry (e, a, b) is
    ``verdicts(e)[np.ix_(subset_a, subset_b)].any()``, counted with the
    membership matrix on both sides."""
    member = np.zeros((len(partition.subsets), len(preds.candidates.graphs)))
    for a, s in enumerate(partition.subsets):
        member[a, sorted(s)] = 1.0
    return member @ preds._stacked(experiments) @ member.T > 0


def _cover_rows(covers: np.ndarray, experiments: Sequence[InterventionSpec], costs: CostModel
                ) -> list[tuple[float, tuple, int, InterventionSpec]]:
    """Set-cover rows (cost, key, covered, experiment) of the experiments
    whose row of ``covers`` (experiments, items), read off ``_splits``,
    covers some item; ``covered`` is a bitmask, bit j for item j."""
    packed = np.packbits(covers, axis=1, bitorder="little")
    rows = []
    for e, bits in zip(experiments, packed):
        covered = int.from_bytes(bits.tobytes(), "little")
        if covered:
            rows.append((costs.of(e), e.key(), covered, e))
    return rows


def _exact_cover(universe: int, sets: Sequence[tuple]) -> Optional[list[int]]:
    """Min-cost cover of the bitmask ``universe`` by branch and bound;
    ``sets`` rows start (cost, tie_key, covered); returns indices into
    ``sets``."""
    order = sorted(range(len(sets)), key=lambda i: (sets[i][0], sets[i][1]))
    # reach[start]: what the sets from ``order[start]`` on cover together
    reach = [0] * (len(order) + 1)
    for start in range(len(order) - 1, -1, -1):
        reach[start] = reach[start + 1] | sets[order[start]][2]
    best_cost = float("inf")
    best: Optional[list[int]] = None

    def walk(start: int, chosen: list[int], covered: int, cost: float) -> None:
        nonlocal best_cost, best
        missing = universe & ~covered
        if not missing:
            if cost < best_cost - 1e-12 or (abs(cost - best_cost) <= 1e-12 and best is not None
                                            and [sets[i][1] for i in chosen] < [sets[i][1] for i in best]):
                best_cost, best = cost, list(chosen)
            return
        if start >= len(order) or cost >= best_cost - 1e-12 or missing & ~reach[start]:
            return
        i = order[start]
        if sets[i][2] & ~covered:
            walk(start + 1, chosen + [i], covered | sets[i][2], cost + sets[i][0])
        walk(start + 1, chosen, covered, cost)

    walk(0, [], 0, 0.0)
    return best


def _greedy_cover(universe: int, sets: Sequence[tuple]) -> Optional[list[int]]:
    missing = universe
    chosen: list[int] = []
    while missing:
        scored = []
        for i, row in enumerate(sets):
            gain = (row[2] & missing).bit_count()
            if gain:
                scored.append((row[0] / gain, row[1], i))
        if not scored:
            return None
        scored.sort()
        _, _, pick = scored[0]
        chosen.append(pick)
        missing &= ~sets[pick][2]
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
    n_subs = len(partition.subsets)
    if n_subs < 2:
        raise InvalidInputError("splitting needs at least two subsets")
    # the items are the subset pairs (a, b), a < b, in row-major order
    upper = np.triu_indices(n_subs, 1)
    rows = _cover_rows(_splits(partition, preds, interventions)[:, upper[0], upper[1]],
                       interventions, costs)
    universe = (1 << len(upper[0])) - 1
    small = n_subs <= EXACT_COVER_MAX_SUBSETS and len(rows) <= EXACT_COVER_MAX_INTERVENTIONS
    chosen = _exact_cover(universe, rows) if small else _greedy_cover(universe, rows)
    if chosen is None:
        raise InternalError("no experiment set splits all subsets; partition invariant broken")
    plan = tuple(rows[i][3] for i in sorted(chosen, key=lambda i: rows[i][1]))
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
    best: Optional[tuple[float, tuple, InterventionSpec]] = None
    for i in range(n_subs):
        # the items are the other subsets; subset i's own entry is not one
        rows = _cover_rows(np.delete(splits[:, i], i, axis=1), plan, costs)
        chosen = _exact_cover((1 << (n_subs - 1)) - 1, rows)
        if not chosen:
            continue
        cost = sum(rows[i2][0] for i2 in chosen)
        _cost, key, _covered, e = min((rows[i2] for i2 in chosen), key=lambda r: r[:2])
        if best is None or (cost, key) < best[:2]:
            best = (cost, key, e)
    if best is None:
        # no remaining sub-plan isolates a single subset; fall back to the
        # cheapest experiment that still splits something
        useful = [(costs.of(e), e.key(), k) for k, (e, split) in enumerate(zip(plan, splits))
                  if split.any()]
        return plan[min(useful)[2]]
    return best[2]


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
    dropped only when it fails its own consistency condition.  Matching
    is ``equal_within``'s max-abs test, against every row the verdict
    fill bound for ``e`` at once.
    """
    rows, ident, _partial, index, py = preds._bound(e)
    observed = e.key()[2]
    answer = oracle_answer.reorder(observed)
    if [v.domain for v in answer.scope] != [preds._domain[n] for n in observed]:
        raise InvalidInputError(f"oracle answer {answer} is not over the domains of {observed}")
    answer = answer.table.reshape(-1)
    fits = _within(rows, answer, axis=-1)
    answer_is_py = _within(answer, py)
    survives = np.where(ident, fits, not answer_is_py)[index]
    keep = frozenset(k for k in partition.members() if survives[k])
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


def _differences(graphs: Sequence[Admg], kind: str) -> list:
    """The edges of ``kind`` ("directed" or "bidirected") that some but
    not all graphs hold: directed edges as sorted (tail, head) tuples,
    bidirected pairs sorted by their sorted names."""
    held = [getattr(g, kind) for g in graphs]
    differ = set().union(*held) - held[0].intersection(*held[1:])
    return sorted(differ, key=sorted if kind == "bidirected" else None)


def _settle(subset: CandidateSet, kind: str, test: Callable[[list[Admg], object], CiRecord],
            records: Optional[list[CiRecord]], what: str) -> CandidateSet:
    """Test the first edge of ``kind`` the graphs disagree on, keep the
    graphs that hold it exactly when the test finds dependence, and
    repeat until they agree on every edge of ``kind``."""
    graphs = list(subset.graphs)
    while diffs := _differences(graphs, kind):
        rec = test(graphs, diffs[0])
        if records is not None:
            records.append(rec)
        graphs = [g for g in graphs if (diffs[0] in getattr(g, kind)) == rec.dependent]
        if not graphs:
            raise PromiseViolationError(f"{what} tests eliminated every candidate")
    return CandidateSet(tuple(graphs))


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


def _add_cost(costs: CostModel, context: Mapping[str, int], observed: frozenset[str],
              cost: float = 0.0) -> float:
    """``cost`` plus the intervention cost of do(context), when it is not
    empty, then the observation cost of ``observed``."""
    if context:
        cost += costs.intervention_cost(frozenset(context), context)
    return cost + costs.observation_cost(observed)


def _ci(oracle: InterventionOracle, kind: str, vi: str, vj: str, context: Mapping[str, int],
        costs: CostModel) -> CiRecord:
    """The oracle's CI test of vi and vj under do(context): one
    experiment observing both (no intervention when ``context`` is empty)."""
    cost = _add_cost(costs, context, frozenset({vi, vj}))
    dependent = not oracle.ci_test(vi, vj, context)
    return CiRecord(kind, (vi, vj), tuple(context), False, 1 if context else 0, cost, dependent)


def _per_value(oracle: InterventionOracle, context: Mapping[str, int], var: str,
               observed: frozenset[str], costs: CostModel,
               cost: float = 0.0) -> tuple[np.ndarray, float]:
    """One experiment do(context, var=v) observing ``observed`` for each
    value v of ``var``: the answers' tables stacked by v, and ``cost``
    plus each experiment's cost."""
    rows = []
    for val in range(oracle.m_star.graph.var(var).domain):
        do_set = {**context, var: val}
        rows.append(oracle.query(InterventionSpec(frozenset(do_set), do_set, observed)).table)
        cost = _add_cost(costs, do_set, observed, cost)
    return np.stack(rows), cost


def id_edges(
    subset: CandidateSet,
    m_star: Scm,
    costs: Optional[CostModel] = None,
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

    def test(graphs: list[Admg], edge: tuple[str, str]) -> CiRecord:
        vi, vj = edge
        d = _min_dsep_intervention([g for g in graphs if edge not in g.directed], vi, vj)
        if d is None:
            raise InternalError(f"no separating intervention for edge {vi}->{vj}")
        if vi not in d:
            return _ci(oracle, "edge", vi, vj, dict.fromkeys(sorted(d), 0), costs)
        # hidden confounders force intervening vi: test across all its values
        rows, cost = _per_value(oracle, dict.fromkeys(sorted(d - {vi}), 0), vi,
                                frozenset({vj}), costs)
        dependent = not _within(rows[1:], rows[0])
        return CiRecord("edge", edge, tuple(sorted(d)), True, len(rows), cost, dependent)

    return _settle(subset, "directed", test, records, "edge")


def id_hidden(
    subset: CandidateSet,
    m_star: Scm,
    costs: Optional[CostModel] = None,
    records: Optional[list[CiRecord]] = None,
    oracle: Optional[InterventionOracle] = None,
) -> CandidateSet:
    """Resolve hidden-confounder differences with exact CI tests.

    Uses the adjacent-pair criterion (compare P(Vj|do(Vi,O)) with
    P(Vj|Vi,do(O))) or the non-adjacent criterion (compare P(Vj|do(O))
    with P(Vj|Vi,do(O)), the oracle's CI test), with O the union of the
    pair's observed parents held at a single context.  Every experiment
    goes through ``oracle`` (a new one on ``m_star`` when None)."""
    costs = costs or CostModel.unit()
    oracle = oracle or InterventionOracle(m_star)
    base = subset.graphs[0]
    if any(g.directed != base.directed for g in subset.graphs[1:]):
        raise InvalidInputError("id_hidden requires a shared observable graph")

    def test(graphs: list[Admg], pair: frozenset[str]) -> CiRecord:
        a, b = sorted(pair)
        parent, child = (b, a) if base.has_edge(b, a) else (a, b)
        o_vars = _names_of(base, (base._pa[base._index(parent)] | base._pa[base._index(child)])
                           & ~(base._bit[parent] | base._bit[child]))
        context = dict.fromkeys(o_vars, 0)
        if not base.has_edge(parent, child):
            return _ci(oracle, "hidden", parent, child, context, costs)
        # P(child | parent, do(O)) from one experiment, against
        # P(child | do(parent, O)) from one experiment per value
        pair_spec = InterventionSpec(frozenset(context), dict(context), frozenset({parent, child}))
        given = condition(oracle.query(pair_spec), [parent])
        if given.partial:
            raise PartialSupportError(
                f"value of {parent!r} with zero probability under do({sorted(context)})")
        cost = _add_cost(costs, context, pair_spec.observed)
        rows, cost = _per_value(oracle, context, parent, frozenset({child}), costs, cost)
        dependent = not _within(rows, given.reorder([parent, child]).table)
        return CiRecord("hidden", (parent, child), tuple(o_vars), True,
                        len(rows) + (1 if context else 0), cost, dependent)

    return _settle(subset, "bidirected", test, records, "confounder")


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
    preds = PredictionTable(candidates, p_star)
    experiments = enumerate_interventions(candidates.graphs[0], caps)
    partition = partition_candidates(candidates, preds, experiments)

    log: list[dict] = []
    spent = 0.0
    plan: list[InterventionSpec] = []
    while len(partition.subsets) > 1:
        e = select_intervention(plan, partition, preds, costs)
        if e is None:
            # no plan yet, or it ran dry while subsets remain (possible when
            # an unused splitter's witness pair was eliminated earlier):
            # derive a minimal splitting set for what is left
            plan = list(minimal_splitting_sets(partition, preds, costs, experiments).interventions)
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
    remaining = id_edges(remaining, m_star, costs, ci_records, oracle)
    remaining = id_hidden(remaining, m_star, costs, ci_records, oracle)

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
