"""In-memory span recorder for the benchmark's own code.

Spans are recorded around the benchmark's calls into each layer (the
public client calls, and the in-process codec/filestore replay); the
program itself is not instrumented.  Spans are kept in a list and
written out once, when the run ends.

Concurrent clients share one event loop, so there is no implicit
"current span": every child names its parent explicitly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("name", "txn", "parent", "start", "end", "children_ns")

    def __init__(self, name: str, txn: int, parent: "Span | None"):
        self.name = name
        self.txn = txn
        self.parent = parent
        self.start = _clock()
        self.end = 0
        self.children_ns = 0


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.finish(self.span)


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullContext()


class Tracer:
    """Starts root spans while ``enabled``; costs one test when off."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []

    def begin(self, name: str, txn: int, parent: Span | None = None
              ) -> Span | None:
        if not self.enabled and parent is None:
            return None
        return Span(name, txn, parent)

    def finish(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = _clock()
        if span.parent is not None:
            span.parent.children_ns += span.end - span.start
        self.spans.append(span)

    def span(self, name: str, parent: Span | None, txn: int = 0):
        """Context manager for a child span.  A no-op when ``parent`` is
        None: the enclosing root began while tracing was off, and a
        root that began traced keeps all its children even if tracing
        is switched off meanwhile."""
        if parent is None:
            return _NULL
        return _SpanContext(self, Span(name, parent.txn or txn, parent))

    def self_times_us(self) -> dict[str, dict[str, float]]:
        """Per span name: count, median total and median self time (µs).

        Self time is the span's duration minus the time its children
        cover; children of one span never overlap (each root belongs
        to one sequential client task).
        """
        totals: dict[str, list[int]] = defaultdict(list)
        selfs: dict[str, list[int]] = defaultdict(list)
        for s in self.spans:
            totals[s.name].append(s.end - s.start)
            selfs[s.name].append(s.end - s.start - s.children_ns)
        out = {}
        for name in sorted(totals):
            tot = sorted(totals[name])
            own = sorted(selfs[name])
            out[name] = {
                "count": len(tot),
                "p50_us": tot[len(tot) // 2] / 1e3,
                "self_p50_us": own[len(own) // 2] / 1e3,
                "self_sum_ms": sum(own) / 1e6,
            }
        return out

    def dump(self, path: str) -> None:
        """Write every span as ``[name, txn, parent_index, start, end]``."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.name, s.txn,
                 index.get(id(s.parent), -1) if s.parent else -1,
                 s.start, s.end] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "txn", "parent", "start_ns",
                                  "end_ns"], "spans": rows}, fh)
