"""Span recording and the arithmetic the per-layer metrics are built from.

A :class:`Tracer` keeps spans in memory: one ``(name, start, end,
parent, cell)`` tuple per timed call, where ``parent`` is the index of
the span that was open when the call began (``-1`` for none) and
``cell`` is the key of the sweep cell being executed (``None`` outside
cells).  Counters ride beside the spans in a plain dict.

Self time is a span's duration minus the part of its interval its
child spans cover; :func:`self_times` computes it per span and
:func:`union_length` measures how much of a window any set of spans
covers.  Both are pure functions, unit-tested in ``tests/``.
"""

from __future__ import annotations

import functools
import re
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# A span as recorded: name, start, end, parent index, cell key.
Span = Tuple[str, float, float, int, Optional[str]]

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` fits the benchmark's metric-name pattern."""
    return METRIC_NAME.fullmatch(name) is not None


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0.0 when the base is empty."""
    return numerator / base if base else 0.0


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.cell: Optional[str] = None

    def reset(self) -> None:
        """Drop every span and counter (a forked worker's inheritance)."""
        self.spans = []
        self.stack = []
        self.counts = {}
        self.cell = None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``on_result(tracer, result)`` runs after a call that returned,
        for counters that depend on the answer (cache hit or miss).
        """
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.cell)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def finished(self) -> List[Span]:
        """Every span, in call order; none may still be open."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} span(s) still open")
        return list(self.spans)


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    ``spans[i][3]`` is the index of span ``i``'s parent within
    ``spans`` (``-1`` for a root), as :class:`Tracer` records them.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _cell in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, _cell) in enumerate(spans):
        covered = union_length(children.get(index, ()), start, end)
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals
