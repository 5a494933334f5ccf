"""Spans around the benchmark's calls into the oddorient modules.

A traced run opens one instance span per instance and one child span per
public call the benchmark makes while running that instance.  Spans and
counters stay in memory; the runner writes them out after the run.  The
untraced run uses ``NullTracer``, whose spans cost one ``with`` statement.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    instance: int
    parent: Optional[int]          # index of the parent span, None for instances
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


_NULL_SPAN = nullcontext()


class NullTracer:
    """Records nothing; used for the runs that give end-to-end numbers."""

    enabled = False

    def instance(self, instance_id: int):
        return _NULL_SPAN

    def span(self, name: str, **attrs):
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        pass


class _OpenSpan:
    __slots__ = ("tracer", "name", "attrs", "start", "is_instance")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict, is_instance: bool):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.is_instance = is_instance

    def __enter__(self):
        if self.is_instance:
            self.tracer._parent = len(self.tracer.spans)
            self.tracer.spans.append(None)   # placeholder keeps the parent index
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        if self.is_instance:
            tr.spans[tr._parent] = Span(
                self.name, self.start, end, tr._instance, None, self.attrs
            )
            tr._parent = None
        else:
            tr.spans.append(
                Span(self.name, self.start, end, tr._instance, tr._parent, self.attrs)
            )
        return False


class Tracer:
    """Keeps every span and counter of a traced run in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._instance = -1
        self._parent: Optional[int] = None

    def instance(self, instance_id: int) -> _OpenSpan:
        self._instance = instance_id
        return _OpenSpan(self, "bench.instance", {}, True)

    def span(self, name: str, **attrs) -> _OpenSpan:
        return _OpenSpan(self, name, attrs, False)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out
