"""Span recorder for the benchmark's traced mode.

A span covers one call from the benchmark into the library, or one
benchmark phase that encloses such calls. It records the span's name,
start, end, parent span and the run id. Spans stay in memory and are
written out once, when the run ends.

Untraced runs use NullTracer, whose spans record nothing, so end-to-end
numbers carry no tracing cost beyond entering a shared no-op context.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext

clock = time.perf_counter

_NULL_SPAN = nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else -1
        self.sid = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.sid)
        self.start = clock()
        return self

    def __exit__(self, *exc):
        end = clock()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.sid] = (self.sid, self.parent, self.name, self.start, end)
        return False


class Tracer:
    """Records (id, parent, name, start, end) for every span, in memory."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the time its
        direct children cover, summed over spans whose name starts with
        "<layer>."."""
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            layers[name.split(".", 1)[0]] += (end - start) - covered[sid]
        return dict(layers)

    def write(self, path) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def span_cost_s(n: int = 20000) -> float:
    """Extra wall time one recorded span costs over the untraced no-op span."""

    def loop(tracer) -> float:
        t0 = clock()
        for _ in range(n):
            with tracer.span("calibration.span"):
                pass
        return clock() - t0

    null, traced = NullTracer(), Tracer("calibration")
    best_null = min(loop(null) for _ in range(3))
    best_traced = min(loop(traced) for _ in range(3))
    return max(best_traced - best_null, 0.0) / n
