"""Calibration probes: report operation times at one reference machine
speed.

On a shared host the same code runs 20-40% faster or slower from one
tenth of a second to the next (another tenant on the sibling
hyperthread, the host's clock), and CPU time does not remove that: the
thread is running, only slower.  On a 2-core Intel Xeon VM a fixed block
of 3,000 ``id_effect`` queries had an interquartile range of 0.22 of its
median in CPU time over 60 s.

So while a run is timed, a profiling timer interrupts the program every
``PERIOD_S`` of CPU time and a *probe* runs a fixed reference
computation and records its thread CPU time.  The probe runs inside the
benchmark's only thread, between two bytecodes of whatever operation is
running, so it samples the machine's speed while the operation runs,
also inside a trial that takes seconds.  An operation's time is its
thread CPU time less the probes that ran inside it, scaled by
``NOMINAL_S`` over the mean of those probes and the ``LOOKBACK`` probes
before it: what it would have taken on a machine that runs the probe in
``NOMINAL_S``.  The speed changes within tens of milliseconds, so the
nearest probes track it best; on the same VM, one earlier probe gave a
lower spread than 4, 16 or 64.

The reference computation uses nothing from docalc, so a change to the
library never changes it.  It mixes what docalc's operations are made
of: interpreter work that runs through many functions (fractions,
``pprint``, a graph search over frozensets) and through a few (tuples,
dicts and sorting); numpy calls on tiny arrays, where call overhead
dominates; and a numpy product over a few hundred kilobytes, where
memory bandwidth does.  Measured on the same VM at the same moments,
the interquartile range of the query block above fell from 0.22 to
0.044 with this mix (0.064 without the wide-footprint interpreter
parts), of a block of DCN operations from 0.25 to 0.036, and of one
discovery trial from 0.12 to 0.021.
"""

from __future__ import annotations

import pprint
import signal
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.01  # CPU time between probes; a probe takes 4-7% of it
NOMINAL_S = 0.0004  # the probe's CPU time on the reference machine (see README.md)
LOOKBACK = 1  # earlier probes that also count for an operation's speed

_SMALL = np.linspace(0.1, 0.9, 8).reshape(2, 2, 2)
_WIDE_A = np.linspace(0.0, 1.0, 1 << 15).reshape(32, 32, 32)
_WIDE_B = np.linspace(1.0, 2.0, 1 << 10).reshape(32, 32, 1)
_NESTED = {"a": [1, 2, {"b": (3, 4)}], "c": {"d": [5, 6, 7], "e": "text"}, "f": list(range(10))}
_GRAPH = {i: frozenset(((i * 3) % 23, (i * 7 + 1) % 23)) for i in range(23)}


def _tuples() -> float:
    acc: dict = {}
    for i in range(200):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + i
    return float(len(sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))))


def _graph() -> float:
    reached = 0
    for start in range(0, 23, 3):
        seen = {start}
        todo = [start]
        while todo:
            for m in _GRAPH[todo.pop()] - seen:
                seen.add(m)
                todo.append(m)
        reached += len(frozenset(seen) | _GRAPH[start])
    return float(reached)


def _fractions() -> float:
    x = Fraction(1, 3)
    for i in range(1, 13):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    return float(x)


def _small_arrays() -> float:
    total = 0.0
    for _ in range(15):
        total += float((_SMALL[:, :, :, None] * _SMALL[None, :, :, :]).sum(axis=(1, 2)).sum())
    return total


def _wide_array() -> float:
    return float((_WIDE_A * _WIDE_B).sum(axis=1)[0, 0])


PARTS = (_tuples, _graph, _fractions, lambda: float(len(pprint.pformat(_NESTED))),
         _small_arrays, _wide_array)


def chunk() -> float:
    """One fixed unit of reference work; returns a value so that none of
    it is skipped."""
    return sum(part() for part in PARTS)


class Probes:
    """The probes of one timed stretch, taken on a profiling timer.

    Use as a context manager around the timed code; inside it, take
    ``mark()`` before a timed piece and ``elapsed(mark)`` after it."""

    def __init__(self) -> None:
        self.times: list[int] = []  # each probe's thread CPU ns, in order
        self.total_ns = 0  # their sum
        self._busy = False
        self._previous = None

    def _probe(self, _signum=None, _frame=None) -> None:
        if self._busy:  # a timer tick that arrives during a probe is dropped
            return
        self._busy = True
        t0 = time.thread_time_ns()
        chunk()
        dt = time.thread_time_ns() - t0
        self.times.append(dt)
        self.total_ns += dt
        self._busy = False

    def __enter__(self) -> "Probes":
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        self._probe()  # every piece has at least one probe before it
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, int, int]:
        """A point in time: thread CPU ns, probes so far, their CPU ns.

        A probe can run between any two bytecodes, also between reading
        the clock and reading the counts; the reads are repeated until
        no probe ran in between."""
        while True:
            n, total = len(self.times), self.total_ns
            now = time.thread_time_ns()
            if len(self.times) == n:
                return now, n, total

    def elapsed(self, start: tuple[int, int, int]) -> float:
        """Seconds at the reference speed since the mark ``start``."""
        now, n, total = self.mark()
        window = self.times[max(0, start[1] - LOOKBACK):n]
        return ((now - start[0]) - (total - start[2])) * NOMINAL_S * len(window) / sum(window)

    def speed(self) -> float:
        """The machine's speed over all probes relative to the reference
        (above 1 is faster)."""
        return NOMINAL_S * 1e9 * len(self.times) / self.total_ns
