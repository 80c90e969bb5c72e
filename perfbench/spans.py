"""In-memory span tracing for the benchmark, installed from outside the package.

A span is one timed call: name, start, end, the index of the span that was
open when it started (its parent), and whether it ended by raising. The
tracer records spans around calls the benchmark makes itself
(``Tracer.span``) and around the package's public functions, which it wraps
at every name a caller resolves them by (``Tracer.patch``). ``restore``
puts every original object back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

NO_PARENT = -1


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans in memory; wraps functions and restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.amounts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.failed = not ok
        # A span is closed before its parent, so it is always on top.
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        ok = False
        try:
            yield idx
            ok = True
        finally:
            self._close(idx, ok)

    def wrap(self, fn, name: str, measure=None):
        """Wrapper recording one span per call of ``fn``.

        ``measure(result, args, kwargs)``, if given, returns a number that is
        added to ``amounts[name]`` after each successful call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            if measure is not None:
                self.amounts[name] += measure(result, args, kwargs)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, namespaces, fn, name: str, measure=None) -> int:
        """Replace ``fn`` by a traced wrapper wherever a namespace binds it.

        Every attribute of every namespace (module objects) that *is* ``fn``
        is rebound, so ``from``-imported aliases are covered as well as the
        defining module. Returns the number of names rebound.
        """
        wrapper = self.wrap(fn, name, measure)
        rebound = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._patches.append((ns, attr, fn))
                    setattr(ns, attr, wrapper)
                    rebound += 1
        return rebound

    def restore(self) -> None:
        """Put back every patched name, latest first."""
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ----------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent != NO_PARENT:
                kids[s.parent].append(i)
        return kids

    def self_time(self, idx: int, kids=None) -> float:
        """Duration of span ``idx`` minus the union of its children's intervals.

        Children are clipped to the parent's interval, so children that
        overlap each other or outlive the parent are not counted twice.
        """
        if kids is None:
            kids = self.children()
        s = self.spans[idx]
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in (self.spans[k] for k in kids[idx])
            if c.end > s.start and c.start < s.end
        )
        return s.duration - covered

    def summary(self, within: str | None = None) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, failures.

        Inclusive seconds sum only the outermost span of each name, so a
        function that reaches itself again is not counted twice. With
        ``within``, the table also counts ``calls_within``: calls made
        while a span of that name was open.
        """
        kids = self.children()
        ancestors: list[tuple] = []
        table: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            anc = () if s.parent == NO_PARENT else ancestors[s.parent] + (self.spans[s.parent].name,)
            ancestors.append(anc)
            row = table.setdefault(s.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0,
                                            "failed": 0, "calls_within": 0})
            row["calls"] += 1
            row["self_s"] += self.self_time(i, kids)
            row["failed"] += s.failed
            if s.name not in anc:
                row["inclusive_s"] += s.duration
            if within is not None and within in anc:
                row["calls_within"] += 1
        return table

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]
