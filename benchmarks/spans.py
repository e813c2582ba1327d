"""Spans and work counts recorded around the benchmark's own calls into
``opgroups``.

Nothing inside ``opgroups`` is patched: each op calls the library through
:meth:`Tracer.call`, which records a span only when tracing is on.  Work
counts (calls, characters, atoms, operators found, ...) are kept in both
modes because they are cheap and the report prints them.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple, Optional

OP_SPAN = "bench.op"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span in Tracer.spans
    op: int


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._op = -1
        self._op_span: Optional[int] = None
        self._op_start = 0.0

    def begin_op(self, op_id: int) -> None:
        if self.enabled:
            self._op = op_id
            self._op_span = len(self.spans)
            self.spans.append(None)  # filled in by end_op
            self._op_start = perf_counter()

    def end_op(self) -> None:
        if self.enabled:
            end = perf_counter()
            self.spans[self._op_span] = Span(OP_SPAN, self._op_start, end, None, self._op)
            self._op_span = None

    def call(self, name: str, fn, *args):
        """``fn(*args)``, counted under ``name`` and, when tracing, timed as a
        child span of the current op."""
        self.counts[name + ".calls"] += 1
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(name, start, perf_counter(), self._op_span, self._op))

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus that of its children.  Calls
        never nest, so every child is an op's direct child."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.end - s.start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
