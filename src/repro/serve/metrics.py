"""Serving observability: latency histograms.

Latencies are recorded in seconds and summarized as percentiles (p50/p99 —
the numbers an SLO is written against).  Histograms are mergeable so a
cluster can aggregate per-replica instances into one fleet-wide view.

This module is now a thin serving-flavored veneer over the shared
:mod:`repro.obs.metrics` layer: :class:`LatencyHistogram` is a bounded
reservoir histogram (count/mean/max stay exact at any volume; percentiles
read a uniform downsample once traffic exceeds the cap), so a replica
under sustained load holds at most ``cap`` samples instead of growing
without limit.  Snapshots from many replicas/processes merge through the
same reservoir-preserving path every other subsystem uses.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..obs.metrics import DEFAULT_RESERVOIR_CAP, Histogram


class LatencyHistogram(Histogram):
    """Bounded reservoir of latency samples with percentile queries.

    Exact ``count``/``mean``/``maximum`` plus a uniform reservoir of at
    most ``cap`` samples for percentiles (Algorithm R downsampling kicks
    in past the cap).  Rejects negative latencies at the door.
    """

    def __init__(self, cap: int = DEFAULT_RESERVOIR_CAP, seed: int = 0) -> None:
        super().__init__(name="latency", cap=cap, seed=seed)

    # ----------------------------------------------------------------- write
    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency must be non-negative")
        super().record(seconds)

    def extend(self, seconds: Iterable[float]) -> None:
        for s in seconds:
            self.record(s)

    def merge(self, other: Histogram) -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (in place)."""
        super().merge(other)
        return self

    # ------------------------------------------------------------------ read
    def summary(self) -> Dict[str, float]:
        """Seconds-valued summary dict (callers convert to ms for display)."""
        return super().summary()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LatencyHistogram(n={self.count}, p50={self.p50 * 1e3:.2f}ms, "
            f"p99={self.p99 * 1e3:.2f}ms)"
        )
