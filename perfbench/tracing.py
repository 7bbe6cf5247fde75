"""Spans recorded by the benchmark around its calls into rainrule.

A span holds its name, start and end (``perf_counter_ns``), the id of the
span that was open when it started, and the run id of the replayed command
it belongs to.  Spans stay in memory until :meth:`Tracer.dump` writes them
once, at the end of a traced run.  Span names are ``<layer>.<call>``, where
the layer is a module of ``src/rainrule/`` (``cli`` for a replayed
subcommand) or ``bench`` for the benchmark's own grouping spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _Open:
    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer._stack[-1] if tracer._stack else None
        self.span_id = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.span_id] = Span(
            self.span_id, self.name, self.start, end, self.parent, tracer.run_id
        )
        return False


class Tracer:
    """Collects spans; ``span(name)`` is a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump([asdict(s) for s in self.spans], f)


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    _noop = contextlib.nullcontext()

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""

    def span(self, name: str):
        return self._noop


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children never overlap and their
    durations add up to the time they cover.
    """
    by_id = {s.span_id for s in spans}
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent in by_id:
            covered[s.parent] += s.end_ns - s.start_ns
    return {s.span_id: (s.end_ns - s.start_ns - covered[s.span_id]) / 1e9 for s in spans}


def self_seconds_by_layer(spans: list[Span]) -> dict[str, float]:
    own = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.layer] += own[s.span_id]
    return dict(totals)
