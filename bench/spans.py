"""Bench-side spans: one record per call into a layer, kept in memory.

The traced run wraps every call the benchmark makes into the library
(``session.build``, ``fit``, ``cluster.submit`` ...) in a span — name, start,
end, the span that caused it, and a trace id shared by the spans of one
round or request.  Nothing is written until :meth:`SpanRecorder.dump`, and
the untraced run uses a disabled recorder whose ``span()`` does nothing, so
end-to-end numbers never pay for tracing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    trace: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded nested span recorder with an injectable clock."""

    def __init__(self, enabled: bool = True,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None,
             **attrs) -> Iterator[Optional[Span]]:
        """Record one span; nested calls become its children.  A child
        inherits its parent's trace id unless it names its own.  Setting
        ``span.attrs["drop"] = True`` inside the block discards the record
        (an idle ``poll`` is not worth a row)."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            parent=parent.id if parent is not None else None,
            trace=trace if trace is not None else (parent.trace if parent else None),
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()
            if record.attrs.get("drop") and self.spans[-1] is record:
                self.spans.pop()

    def record(self, name: str, start: float, end: float,
               parent: Optional[Span] = None) -> None:
        """Add a span whose interval was measured elsewhere (the training
        loop inside ``fit`` is marked by a callback, not entered by us)."""
        if self.enabled:
            self.spans.append(Span(
                id=len(self.spans), name=name, start=start, end=end,
                parent=parent.id if parent is not None else None,
                trace=parent.trace if parent is not None else None,
            ))

    # ------------------------------------------------------------- analysis
    def by_name(self) -> Dict[str, dict]:
        """``name -> {count, total_s, self_s}`` over every recorded span."""
        own = self_times(self.spans)
        out: Dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += own[s.id]
        return out

    def dump(self, path: Path) -> None:
        """Write every span with its self time, one JSON object per line."""
        own = self_times(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "trace": s.trace, "self_s": own[s.id],
                    **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``span id -> self seconds``: the span's duration minus the part of its
    interval that its direct children cover (overlapping children are
    counted once)."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(child.start, edge)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = max(0.0, s.duration - covered)
    return out


def span_cost(samples: int = 20000) -> float:
    """Seconds one enabled, empty span costs (the traced run's overhead is
    this times the number of spans it recorded)."""
    rec = SpanRecorder()
    t0 = time.perf_counter()
    for _ in range(samples):
        with rec.span("x"):
            pass
    return (time.perf_counter() - t0) / samples
