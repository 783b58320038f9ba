"""Host-speed calibration and in-memory spans.

The host this benchmark was built on slows every process by up to about 2x
for stretches of tens of seconds (other tenants on shared cores; CPU time
equals wall time, so it is not preemption).  ``calibrate`` times a fixed
pure-Python loop that does not touch crossnest; the runner scales every
measured interval by ``CAL_REF_S / calibrate()`` measured next to it, which
cancels most of those swings.  The unit stays seconds: reference
seconds, i.e. seconds on a host where the loop takes ``CAL_REF_S``.

A span is (name, start_ns, end_ns, parent, run_id), where parent is the
index of the enclosing span in the same list or -1.  Spans are only kept in
memory while a batch runs; the runner writes them out when the run ends.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict


# The loop's time on the host this benchmark was built on when nothing else
# slows it (5th percentile of 1,300 samples, 1.46-1.60 ms over two sets;
# the median was 2.0 ms).
CAL_REF_S = 0.0015


def calibrate() -> float:
    """Seconds one fixed loop of tuple hashing and dict inserts takes now.

    The collector is off while it runs: its tuples would otherwise trigger
    collections whose cost grows with whatever heap the caller has built,
    and the loop would measure that heap instead of the host.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        d = {}
        for i in range(8000):
            d[(i, i * 3, i ^ 7)] = i
        return time.perf_counter() - start
    finally:
        gc.enable()


# The first call in a process also pays for the fresh pages its dict takes
# from the system, about 1.5x a later call; every importer discards it here.
calibrate()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t.run_id])
        t._open.append(self.index)

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._open.pop()


class _NoSpan:
    """What an untraced batch uses: no clock reads, nothing recorded."""

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        pass


NO_SPAN = _NoSpan()


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start - child_ns[i]) / 1e9
    return dict(totals)
