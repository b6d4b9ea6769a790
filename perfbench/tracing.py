"""Spans around the calls into each ncphase layer, and their reduction.

Tracing wraps library names from outside: `interpose` swaps a module
attribute (or a GaussPoly method) for a wrapper that records a span and calls
the original, and puts the original back on exit. Library code that looks the
name up at call time, as `genvalue_residual` does for `star_product_poly_left`,
then reports its inner calls too. Nothing under src/ changes, and the traced
and untraced runs execute the same library code.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root
    request: int  # operation the span belongs to
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; `call` runs a function inside a span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, counts=None):
        """fn(*args, **kwargs) inside a span; counts(result, *args, **kwargs)
        adds work counts."""
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.request)
        self.spans.append(span)
        self._open.append(idx)
        span.start = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = self.clock()
            self._open.pop()
        if counts is not None:
            span.counts = counts(result, *args, **(kwargs or {}))
        return result


def _wrap(tracer: Tracer, name: str, fn, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counts)
    return traced


@contextlib.contextmanager
def interpose(tracer: Tracer, targets):
    """Wrap each (owner, attribute, span name, counts) target for the block."""
    saved = []
    try:
        for owner, attr, name, counts in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, counts))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def reduce_spans(spans: list[Span]) -> dict[str, float]:
    """Per span name: calls, busy_s (self time) and summed work counts.

    Self time is a span's duration minus the durations of its direct
    children, so nested layers are not counted twice. Count keys starting
    with "max_" keep their maximum instead of a sum.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = {}
    for span, inner in zip(spans, child_time):
        prefix = span.name + "."
        out[prefix + "calls"] = out.get(prefix + "calls", 0) + 1
        out[prefix + "busy_s"] = out.get(prefix + "busy_s", 0.0) + (span.end - span.start - inner)
        for key, value in span.counts.items():
            if key.startswith("max_"):
                out[prefix + key] = max(out.get(prefix + key, value), value)
            else:
                out[prefix + key] = out.get(prefix + key, 0) + value
    return out
