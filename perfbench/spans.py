"""Spans around the program's public functions, recorded from outside.

Python resolves a module global when the call runs, so replacing the
attribute ``infmax.maximize.reach_mask_batch`` with a wrapper makes every
call that ``maximize`` makes to ``reach_mask_batch`` open a span, without
editing the program.  Each wrapped function is patched at every module
attribute through which another module (or this benchmark) calls it.

Spans are kept in memory while the workload runs and written out at the
end.  Each span holds its name, start, end, parent span, op id, the peak
memory allocated while it was open (from ``tracemalloc``) and any counts
derived from its arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    base_alloc: int
    end: float = 0.0
    peak_alloc: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for the calls made while ``active`` is true.

    With ``alloc`` set, ``tracemalloc`` runs while the wrappers are
    installed and each span records its peak allocation.  That hooks every
    allocation and slows allocation-heavy layers several-fold, so spans
    taken with ``alloc`` are used for their peaks only, not their times.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._peaks: list[int] = []

    def _fold_peak(self) -> None:
        # tracemalloc keeps one global peak; fold it into every open span
        # and restart it, so each span sees the peak of its own interval.
        peak = tracemalloc.get_traced_memory()[1]
        for i in range(len(self._peaks)):
            if peak > self._peaks[i]:
                self._peaks[i] = peak
        tracemalloc.reset_peak()

    def open(self, name: str) -> int:
        base = 0
        if self.alloc:
            self._fold_peak()
            base = tracemalloc.get_traced_memory()[0]
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent, self.op, base)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._peaks.append(span.base_alloc)
        span.start = time.perf_counter()
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        end = time.perf_counter()
        if self.alloc:
            self._fold_peak()
        span = self.spans[index]
        span.end = end
        span.peak_alloc = self._peaks.pop() - span.base_alloc
        self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        """Wrapper of ``fn`` that records a span named ``name``.

        ``counter(arguments, result)`` gets the call's arguments by parameter
        name and returns counts to attach; it runs after the span closes, so
        it is not part of the span's time.
        """
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[index].counts.update(counter(bound.arguments, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``targets`` and restore the originals after.

        ``targets`` lists ``(span_name, [(module_path, attr), ...], counter)``;
        an attr may be ``Class.method``.
        """
        saved = []
        try:
            for name, sites, counter in targets:
                for module_path, attr in sites:
                    owner = importlib.import_module(module_path)
                    *outer, leaf = attr.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = owner.__dict__[leaf]
                    saved.append((owner, leaf, original))
                    setattr(owner, leaf, self.wrap(original, name, counter))
            if self.alloc:
                tracemalloc.start()
            yield self
        finally:
            if self.alloc:
                tracemalloc.stop()
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    @contextmanager
    def op_scope(self, op: int):
        self.op = op
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.op = -1


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    peak_alloc: int = 0
    counts: dict = field(default_factory=dict)
    child_calls: dict = field(default_factory=dict)


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: calls, busy time, self time, peak allocation, counts.

    Busy time sums the spans that have no enclosing span of the same name,
    so a recursive call is not counted twice.  Self time is a span's
    duration minus the time its direct children cover.  ``child_calls``
    counts the descendant spans of each name below a span of this name.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    stats: dict[str, SpanStats] = {}
    for i, span in enumerate(spans):
        st = stats.setdefault(span.name, SpanStats())
        ancestors = []
        p = span.parent
        while p >= 0:
            ancestors.append(spans[p].name)
            p = spans[p].parent
        st.calls += 1
        if span.name not in ancestors:
            st.busy_s += span.duration
        st.self_s += span.duration - child_time[i]
        st.peak_alloc = max(st.peak_alloc, span.peak_alloc)
        for key, value in span.counts.items():
            st.counts[key] = st.counts.get(key, 0) + value
        for anc in set(ancestors):
            outer = stats.setdefault(anc, SpanStats())
            outer.child_calls[span.name] = outer.child_calls.get(span.name, 0) + 1
    return stats


def span_records(spans: list[Span]) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "peak_alloc_bytes": s.peak_alloc, "counts": s.counts}
            for s in spans]
