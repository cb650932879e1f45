"""Shared metrics registry: counters, gauges, and reservoir histograms.

One :class:`MetricsRegistry` per process holds every named metric the
training loop, runtime workers, and serving cluster emit, so a single
``snapshot()`` exports the whole process and snapshots from many
processes fold together with :meth:`MetricsRegistry.merge_snapshot`
(that is how worker ranks ship their phase accounting back through the
launcher join path).

Naming convention: ``<subsystem>/<metric>`` with ``/`` as the separator —
``phase/allreduce`` (span-fed phase seconds), ``runtime/sync_s``,
``recovery/restarts``, ``serve/submitted``.  Keep names stable: the bench
reports and the ``repro.cli trace`` summary key off them.

Histograms are **bounded**: an exact running count/sum/max plus a
uniform reservoir (Vitter's Algorithm R) of at most ``cap`` samples, so
sustained traffic cannot grow memory without limit while percentiles stay
accurate to reservoir resolution.  ``count``/``mean``/``maximum`` remain
exact at any volume; only percentiles estimate once ``count > cap``.
Sampling uses a seeded ``numpy`` generator, keeping runs reproducible.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

DEFAULT_RESERVOIR_CAP = 8192


class Counter:
    """Monotonic float counter (thread-safe)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, value: float = 1.0) -> None:
        with self._lock:
            self._value += float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-write-wins value (thread-safe enough: float store is atomic)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Bounded histogram: exact count/sum/max + a uniform sample reservoir.

    ``record`` is O(1); once more than ``cap`` samples have been seen,
    Algorithm R replaces a random reservoir slot with probability
    ``cap / count`` so the reservoir stays a uniform sample of the full
    stream.  Percentile queries sort lazily and cache until the next write.
    """

    def __init__(self, name: str = "", cap: int = DEFAULT_RESERVOIR_CAP, seed: int = 0) -> None:
        if cap < 1:
            raise ValueError("histogram reservoir cap must be >= 1")
        self.name = name
        self.cap = int(cap)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._sorted: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- write
    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max or self._count == 1:
                self._max = value
            if len(self._samples) < self.cap:
                self._samples.append(value)
            else:
                # Algorithm R: keep with probability cap/count, uniform slot
                slot = int(self._rng.integers(0, self._count))
                if slot < self.cap:
                    self._samples[slot] = value
            self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.record(v)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (in place).

        Exact statistics add exactly.  Reservoirs concatenate when they fit
        under ``cap``; otherwise each side contributes a without-replacement
        subsample proportional to its true (pre-sampling) count, so the
        merged reservoir approximates a uniform sample of the combined
        stream.
        """
        return self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snap: dict) -> "Histogram":
        other_count = int(snap.get("count", 0))
        if other_count == 0:
            return self
        other_samples = [float(s) for s in snap.get("samples", [])]
        with self._lock:
            new_count = self._count + other_count
            self._sum += float(snap.get("sum", 0.0))
            other_max = float(snap.get("max", 0.0))
            if self._count == 0 or other_max > self._max:
                self._max = other_max if self._count == 0 else max(self._max, other_max)
            combined = self._samples + other_samples
            if len(combined) > self.cap:
                # proportional allocation by true counts, clamped to what
                # each side actually holds; leftover quota spills across
                take_self = min(
                    len(self._samples), int(round(self.cap * self._count / new_count))
                )
                take_other = min(len(other_samples), self.cap - take_self)
                take_self = min(len(self._samples), self.cap - take_other)
                keep: List[float] = []
                if take_self:
                    idx = self._rng.choice(len(self._samples), size=take_self, replace=False)
                    keep.extend(self._samples[i] for i in idx)
                if take_other:
                    idx = self._rng.choice(len(other_samples), size=take_other, replace=False)
                    keep.extend(other_samples[i] for i in idx)
                combined = keep
            self._samples = combined
            self._count = new_count
            self._sorted = None
        return self

    # ------------------------------------------------------------------ read
    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """q-th percentile in native units (0 when empty)."""
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = np.sort(np.asarray(self._samples))
        return float(np.percentile(self._sorted, q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "max": self.maximum,
        }

    def snapshot(self) -> dict:
        """Mergeable export: exact stats + the (bounded) reservoir."""
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
            "cap": self.cap,
            "samples": list(self._samples),
        }

    @classmethod
    def from_snapshot(cls, snap: dict, name: str = "", cap: Optional[int] = None) -> "Histogram":
        hist = cls(name=name, cap=cap if cap is not None else int(snap.get("cap", DEFAULT_RESERVOIR_CAP)))
        hist.merge_snapshot(snap)
        return hist

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name!r}, n={self.count}, p50={self.p50:.4g})"


class MetricsRegistry:
    """Get-or-create store of named metrics with a mergeable snapshot."""

    def __init__(self, histogram_cap: int = DEFAULT_RESERVOIR_CAP) -> None:
        self.histogram_cap = int(histogram_cap)
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: type, factory: Callable[[], object]):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, factory())
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, cap: Optional[int] = None) -> Histogram:
        return self._get(
            name,
            Histogram,
            lambda: Histogram(name, cap=cap if cap is not None else self.histogram_cap),
        )

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (default when absent)."""
        metric = self._metrics.get(name)
        return metric.value if isinstance(metric, (Counter, Gauge)) else default

    def snapshot(self) -> Dict[str, dict]:
        """JSON-serializable export of every metric (histograms bounded)."""
        with self._lock:
            items = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in items}

    def merge_snapshot(self, snap: Dict[str, dict]) -> "MetricsRegistry":
        """Fold another process's snapshot into this registry in place.

        Counters add, gauges take the incoming value, histograms merge via
        their reservoir-preserving path.
        """
        for name, entry in snap.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).add(float(entry.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name).set(float(entry.get("value", 0.0)))
            elif kind == "histogram":
                self.histogram(name, cap=entry.get("cap")).merge_snapshot(entry)
        return self

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


# --------------------------------------------------------------- global state
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry shared by train/runtime/serve."""
    return _REGISTRY


def reset_registry() -> None:
    """Clear the global registry (tests and fresh bench runs)."""
    _REGISTRY.reset()


def phase_totals(registry: Optional[MetricsRegistry] = None) -> Dict[str, float]:
    """Span-fed per-phase seconds: ``{phase_name: total_s}``.

    Sourced from the ``phase/<name>`` counters the tracer maintains — the
    per-rank ``phases`` of a process fit's ``meta["bench"]`` and the
    ``obs.phase_share.*`` rows of ``python3 bench/run.py`` come from here,
    not from inline timers.
    """
    registry = registry if registry is not None else _REGISTRY
    out: Dict[str, float] = {}
    for name in registry.names():
        if name.startswith("phase/"):
            metric = registry.get(name)
            if isinstance(metric, Counter):
                out[name[len("phase/"):]] = metric.value
    return out
