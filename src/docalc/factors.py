"""Exact discrete probability algebra over finite variable scopes.

Tables are dense numpy arrays, row-major in scope order (the first
scope variable is the most significant index digit).  Factors are
immutable values over read-only tables.

Validation happens once, at the boundary.  ``Factor(...)`` is the
validating constructor for every table that enters from outside: p0,
user tables and the joints ``scm.joint`` tabulates from the CPTs and
priors, which their own row checks validate.  What the algebra derives
from validated factors is trusted: ``marginalize``, ``condition``,
``normalized``, ``multiply`` and ``divide`` build fresh tables of sums,
products and quotients of non-negative cells, so they are non-negative
(a conditional's cells are at most 1), and only mark them read-only.  They are finite too: the constructor bounds every
marginal by refusing a table whose total is not finite, and a product
or quotient that overflows raises ``InvalidInputError``.  ``reorder``
and ``restrict`` return read-only views of their input's table instead
of copies.

Numerical policy: 64-bit floats, ``EPS_NORM`` for normalization checks
and ``EPS_CMP`` for distribution equality.  Conditioning on a
zero-probability context yields zero cells and sets the ``partial``
flag, which propagates through downstream operations instead of
producing NaNs.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, PartialSupportError
from .graphs import Var

__all__ = [
    "EPS_NORM",
    "EPS_CMP",
    "Factor",
    "marginalize",
    "condition",
    "multiply",
    "divide",
    "equal_within",
    "TransitionMatrix",
]

EPS_NORM = 1e-9
EPS_CMP = 1e-9

Assignment = Mapping[str, int]


def _float_array(table: object, what: str) -> np.ndarray:
    """``table`` as a float array; a cell that is no number is refused."""
    try:
        return np.asarray(table, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must hold numbers: {exc}") from None


class Factor:
    """Non-negative table over an ordered scope of discrete variables.

    The constructor validates its input: a scope without duplicate
    names, a table of numbers with as many cells as the scope has (a
    flat table is reshaped), with a finite total, and non-negative up to
    -1e-12 (such cells are clipped to 0), stored as a read-only copy.
    Factors the algebra derives from validated ones skip those checks
    (``_trusted``).
    """

    __slots__ = ("scope", "table", "partial")

    def __init__(self, scope: Sequence[Var], table: np.ndarray, partial: bool = False):
        self.scope: tuple[Var, ...] = tuple(scope)
        names = [v.name for v in self.scope]
        if len(set(names)) != len(names):
            raise InvalidInputError("factor scope has duplicate variables")
        expected = tuple(v.domain for v in self.scope)
        arr = _float_array(table, "factor table")
        if arr.shape != expected:
            if arr.size != math.prod(expected):
                raise InvalidInputError(f"factor table has {arr.size} cells, "
                                        f"expected {math.prod(expected)} for shape {expected}")
            arr = arr.reshape(expected)
        # NaN and -inf show in the minimum, +inf in the total; a finite
        # total bounds every marginal.  A scope's domains are >= 1.  A total
        # that overflows is refused below, so the overflow warns of nothing.
        with np.errstate(over="ignore"):
            lo, total = float(arr.min()), float(arr.sum())
        if not (math.isfinite(lo) and math.isfinite(total)):
            raise InvalidInputError("factor table and its total must be finite")
        if lo < -1e-12:
            raise InvalidInputError("factor table must be non-negative")
        # a fresh copy clipped at 0, in the input's memory order (downstream
        # sums round by it); ``out`` keeps a 0-d result an array
        arr = np.maximum(arr, 0.0, out=np.empty_like(arr))
        arr.flags.writeable = False
        self.table = arr
        self.partial = bool(partial)

    @classmethod
    def _trusted(cls, scope: tuple[Var, ...], table: np.ndarray, partial: bool) -> "Factor":
        """Trusted constructor for a table derived from validated ones: a
        fresh array or a view, finite, non-negative and shaped like
        ``scope`` (a numpy scalar stands for a 0-d table).  It is marked
        read-only; nothing is checked or copied, so it keeps its memory
        order (downstream sums round by it)."""
        table = np.asarray(table)
        table.flags.writeable = False
        f = object.__new__(cls)
        f.scope = scope
        f.table = table
        f.partial = partial
        return f

    # -- constructors ----------------------------------------------------

    @classmethod
    def uniform(cls, scope: Sequence[Var]) -> "Factor":
        n = int(np.prod([v.domain for v in scope])) if scope else 1
        return cls(scope, np.full([v.domain for v in scope], 1.0 / n))

    @classmethod
    def ones(cls, scope: Sequence[Var]) -> "Factor":
        return cls(scope, np.ones([v.domain for v in scope]))

    @classmethod
    def scalar(cls, value: float) -> "Factor":
        return cls((), np.asarray(float(value)))

    @classmethod
    def point_mass(cls, scope: Sequence[Var], assignment: Assignment) -> "Factor":
        for v in scope:
            if v.name not in assignment:
                raise InvalidInputError(f"point mass: no value for {v.name}")
            if not (0 <= assignment[v.name] < v.domain):
                raise InvalidInputError(f"value {assignment[v.name]} out of domain for {v.name}")
        t = np.zeros([v.domain for v in scope])
        t[tuple(assignment[v.name] for v in scope)] = 1.0
        return cls(scope, t)

    # -- accessors -------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.scope)

    def total(self) -> float:
        return float(self.table.sum())

    def is_distribution(self) -> bool:
        return abs(self.total() - 1.0) <= EPS_NORM

    def __getitem__(self, assignment: Assignment) -> float:
        idx = tuple(assignment[v.name] for v in self.scope)
        return float(self.table[idx])

    def restrict(self, assignment: Assignment) -> "Factor":
        """Fix the given variables to values and drop them from the scope."""
        idx: list = []
        keep: list[Var] = []
        for v in self.scope:
            if v.name in assignment:
                val = assignment[v.name]
                if not (0 <= val < v.domain):
                    raise InvalidInputError(f"value {val} out of domain for {v.name}")
                idx.append(val)
            else:
                idx.append(slice(None))
                keep.append(v)
        # the trailing Ellipsis keeps a 0-d view when every variable is fixed
        return Factor._trusted(tuple(keep), self.table[tuple(idx) + (Ellipsis,)], self.partial)

    def normalized(self) -> "Factor":
        tot = self.total()
        if tot <= 0.0:
            raise PartialSupportError("cannot normalize a zero-mass factor")
        return Factor._trusted(self.scope, self.table / tot, self.partial)

    def reorder(self, names: Sequence[str]) -> "Factor":
        own = self.names()
        if tuple(names) == own:
            return self
        if set(names) != set(own) or len(names) != len(self.scope):
            raise InvalidInputError("reorder must permute the existing scope")
        perm = [own.index(n) for n in names]
        return Factor._trusted(tuple(self.scope[i] for i in perm),
                               np.transpose(self.table, perm), self.partial)

    def __repr__(self) -> str:
        flag = ", partial" if self.partial else ""
        return f"Factor({'x'.join(self.names()) or '()'}{flag}; sum={self.total():.6g})"


def marginalize(f: Factor, out: Iterable[str]) -> Factor:
    """Sum out the variables in ``out``; total mass is preserved."""
    out = frozenset(out)
    unknown = out - set(f.names())
    if unknown:
        raise InvalidInputError(f"marginalize: {sorted(unknown)} not in scope")
    if not out:
        return f
    axes = tuple(i for i, v in enumerate(f.scope) if v.name in out)
    keep = tuple(v for v in f.scope if v.name not in out)
    return Factor._trusted(keep, f.table.sum(axis=axes), f.partial)


def condition(f: Factor, given: Iterable[str]) -> Factor:
    """Turn a joint into a conditional P(rest | given), same scope.

    Cells whose conditioning context has zero mass are set to 0 and the
    result is flagged partial.
    """
    given = frozenset(given)
    unknown = given - set(f.names())
    if unknown:
        raise InvalidInputError(f"condition: {sorted(unknown)} not in scope")
    if given == set(f.names()):
        raise InvalidInputError("conditioning on the whole scope leaves nothing")
    if not given:
        return f.normalized()
    axes = tuple(i for i, v in enumerate(f.scope) if v.name not in given)
    ctx = f.table.sum(axis=axes, keepdims=True)
    positive = ctx > 0.0
    if positive.all():
        return Factor._trusted(f.scope, f.table / ctx, f.partial)
    # a zero-mass context of a non-negative table holds only zeros: 0 / 1
    return Factor._trusted(f.scope, f.table / np.where(positive, ctx, 1.0), True)


def _broadcast_pair(a: Factor, b: Factor) -> tuple[tuple[Var, ...], np.ndarray, np.ndarray]:
    for v in a.scope:
        for w in b.scope:
            if v.name == w.name and v.domain != w.domain:
                raise InvalidInputError(f"domain mismatch for shared variable {v.name!r}")
    scope = a.scope + tuple(w for w in b.scope if w.name not in a.names())
    names = [v.name for v in scope]

    def expanded(f: Factor) -> np.ndarray:
        src = [f.names().index(n) if n in f.names() else None for n in names]
        have = [i for i in src if i is not None]
        arr = np.transpose(f.table, have)
        shape = [scope[i].domain if src[i] is not None else 1 for i in range(len(scope))]
        return arr.reshape(shape)

    return scope, expanded(a), expanded(b)


def multiply(a: Factor, b: Factor) -> Factor:
    """Cellwise product over the union scope, broadcasting non-shared vars."""
    scope, ta, tb = _broadcast_pair(a, b)
    with np.errstate(over="raise"):
        try:
            out = ta * tb
        except FloatingPointError:
            raise InvalidInputError("multiply: a product overflows the float range") from None
    return Factor._trusted(scope, out, a.partial or b.partial)


def divide(a: Factor, b: Factor) -> Factor:
    """Cellwise quotient a/b; zero-denominator cells become 0 and flag the
    result partial."""
    scope, ta, tb = _broadcast_pair(a, b)
    shape = np.broadcast_shapes(ta.shape, tb.shape)
    num = np.broadcast_to(ta, shape)
    den = np.broadcast_to(tb, shape)
    zero = den <= 0.0
    with np.errstate(over="raise"):
        try:
            out = np.where(zero, 0.0, num / np.where(zero, 1.0, den))
        except FloatingPointError:
            raise InvalidInputError("divide: a quotient overflows the float range") from None
    partial = a.partial or b.partial or bool(np.any(zero))
    return Factor._trusted(scope, out, partial)


def equal_within(a: Factor, b: Factor) -> bool:
    """Max absolute cell difference <= ``EPS_CMP``, after aligning scopes."""
    if set(a.names()) != set(b.names()):
        raise InvalidInputError("equal_within: scopes differ")
    bb = b.reorder(a.names())
    for v, w in zip(a.scope, bb.scope):
        if v.domain != w.domain:
            raise InvalidInputError(f"domain mismatch for {v.name!r}")
    return bool(_within(a.table, bb.table))


def _within(a: np.ndarray, b: np.ndarray, axis=None):
    """max |a - b| <= ``EPS_CMP`` over ``axis`` (all axes when None), an empty
    difference being within: the one comparison of tables and rows."""
    return np.max(np.abs(a - b), axis=axis, initial=0.0) <= EPS_CMP


# -- transition matrices ------------------------------------------------


class TransitionMatrix:
    """Markov transition for the joint state of one slice.

    Stored column-stochastic: ``matrix[next, prev]`` is
    P(V_{t+1}=next | V_t=prev).  Use ``from_rows`` for data laid out the
    other way around (row-stochastic, entry (prev, next)).
    """

    __slots__ = ("state_vars", "matrix")

    def __init__(self, state_vars: Sequence[Var], matrix: np.ndarray):
        self.state_vars: tuple[Var, ...] = tuple(state_vars)
        n = int(np.prod([v.domain for v in self.state_vars]))
        arr = _float_array(matrix, "transition matrix")
        if arr.shape != (n, n):
            raise InvalidInputError(f"transition matrix must be {n}x{n}")
        # negated comparisons, so that a NaN fails them
        if not (np.all(arr >= -1e-12) and np.all(arr <= 1.0 + 1e-12)):
            raise InvalidInputError("transition entries must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        cols = arr.sum(axis=0)
        if not np.max(np.abs(cols - 1.0)) <= EPS_NORM:
            raise InvalidInputError("transition matrix columns must sum to 1")
        arr.flags.writeable = False
        self.matrix = arr

    @classmethod
    def from_rows(cls, state_vars: Sequence[Var], rows: np.ndarray) -> "TransitionMatrix":
        """Build from a row-stochastic layout (entry [prev, next])."""
        return cls(state_vars, _float_array(rows, "transition matrix").T)

    def n_states(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.state_vars == other.state_vars and np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"TransitionMatrix({'x'.join(v.name for v in self.state_vars)}, {self.n_states()} states)"
