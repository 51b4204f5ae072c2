"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into `mol`; the
program itself is not instrumented. Each span keeps its name, start, end,
the index of its parent span and an optional input label.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    input: str | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "input": self.input}


class Tracer:
    """Records nested spans; `self_times` subtracts child time from parents."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, input: str | None = None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, input))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[tuple[Span, float]]:
        """Each span with its duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return [(s, s.end - s.start - child_time[i]) for i, s in enumerate(self.spans)]

