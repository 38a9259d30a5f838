"""In-memory spans around the benchmark's calls into photoevap.

A span is (id, parent id, op id, name, start, end) with times from
``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC and is
therefore comparable between the runner and the CLI processes it spawns.
The span name's prefix before the first dot is the layer
(``fitkit.fit_angular`` belongs to ``fitkit``; the runner's own op span
``bench.op`` to ``bench``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    op_id: object
    name: str
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NoTracer:
    """The untraced mode: calls go straight through."""

    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, start, end, parent_id=None) -> int | None:
        return None

    def current(self) -> int | None:
        return None


class Tracer:
    """Records a span around every call made through :meth:`call`."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op_id: object = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children get higher ones
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, parent, self.op_id, name, start, end)

    def add(self, name, start, end, parent_id=None) -> int:
        """Record a span timed elsewhere, such as inside a child process."""
        span_id = len(self.spans)
        self.spans.append(Span(span_id, parent_id, self.op_id, name, start, end))
        return span_id

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def self_times(spans: list[Span], factor) -> dict[str, float]:
    """Seconds per layer: each span's duration minus what its children cover,
    scaled by ``factor(span.start)``.

    Spans of one thread nest without overlapping, so the covered part is
    the sum of the children's durations.
    """
    child_total: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_total[span.parent_id] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        own = (span.end - span.start) - child_total[span.span_id]
        out[span.layer] += own * factor(span.start)
    return dict(out)

