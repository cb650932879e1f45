"""Replica autoscaling for the serving fleet.

DistTGL fixes ``k`` (the number of memory-parallel copies) at launch; a
production deployment wants ``k`` to follow load.  :class:`ReplicaAutoscaler`
is a small control loop over the signals the serving stack already exports —
per-replica queue depth and the front-door latency reservoir — that grows or
shrinks the fleet between ``min_replicas`` and ``max_replicas``:

* **scale up** when the mean queue depth per replica exceeds
  ``scale_up_queue``, or when the configured latency percentile breaches the
  SLO (``latency_slo`` seconds at ``slo_quantile``);
* **scale down** when the queue has drained below ``scale_down_queue`` per
  replica *and* latency is comfortably inside the SLO — the removed replica
  keeps flushing until its in-flight work completes (the cluster parks it on
  a draining list);
* decisions are rate-limited by ``interval`` seconds so one burst cannot
  thrash the fleet.

The controller is fleet-agnostic: it only calls ``cluster.add_replica()``
/ ``cluster.remove_replica()`` and reads ``cluster.pending_requests`` /
``cluster.latency()`` on the one :class:`ServingCluster` front door,
whichever replica fleet is behind it.  Drive it
synchronously with :meth:`step` (deterministic tests, the closed-loop
bench) or let :meth:`start` poll from a daemon thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..obs import get_registry

__all__ = ["AutoscaleDecision", "ReplicaAutoscaler"]


@dataclass(frozen=True)
class AutoscaleDecision:
    """One control-loop action (the bench and CI assert on these)."""

    at: float               # controller clock at decision time
    action: str             # 'up' | 'down'
    replicas: int           # fleet size AFTER the action
    queue_per_replica: float
    latency_q: float        # observed latency at slo_quantile (seconds)
    reason: str


@dataclass
class AutoscalerStats:
    scale_ups: int = 0
    scale_downs: int = 0
    decisions: List[AutoscaleDecision] = field(default_factory=list)


class ReplicaAutoscaler:
    """Queue-depth + tail-latency driven fleet sizing.

    Parameters
    ----------
    cluster:
        Any serving cluster exposing ``replicas`` / ``pending_requests`` /
        ``latency()`` / ``add_replica()`` / ``remove_replica()``.
    min_replicas, max_replicas:
        Inclusive fleet bounds.  The controller never moves outside them
        (and refuses to start outside them).
    scale_up_queue, scale_down_queue:
        Mean queued requests per replica triggering growth / allowing
        shrink.  Hysteresis is required: ``scale_down_queue`` must sit
        strictly below ``scale_up_queue``.
    latency_slo, slo_quantile:
        Optional tail-latency SLO in seconds: breaching
        ``latency().percentile(slo_quantile)`` forces a scale-up even with
        shallow queues (stragglers queue *inside* the batcher, not at the
        front door).
    interval:
        Minimum seconds between actions (cooldown).
    clock:
        Injectable time source; tests use a fake clock.
    """

    def __init__(
        self,
        cluster,
        *,
        min_replicas: int,
        max_replicas: int,
        scale_up_queue: float = 8.0,
        scale_down_queue: float = 1.0,
        latency_slo: Optional[float] = None,
        slo_quantile: float = 99.0,
        interval: float = 0.05,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if scale_down_queue >= scale_up_queue:
            raise ValueError("scale_down_queue must be below scale_up_queue")
        if not (min_replicas <= len(cluster.replicas) <= max_replicas):
            raise ValueError(
                f"cluster has {len(cluster.replicas)} replicas, outside "
                f"[{min_replicas}, {max_replicas}]"
            )
        self.cluster = cluster
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.scale_up_queue = scale_up_queue
        self.scale_down_queue = scale_down_queue
        self.latency_slo = latency_slo
        self.slo_quantile = slo_quantile
        self.interval = interval
        self.clock = clock
        self.stats = AutoscalerStats()
        self._last_action: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @classmethod
    def from_config(cls, cluster, serve_cfg, **overrides) -> "ReplicaAutoscaler":
        """Build from a :class:`repro.api.config.ServeConfig` with autoscale
        bounds set (``min_replicas`` / ``max_replicas``)."""
        if serve_cfg.min_replicas is None:
            raise ValueError(
                "ServeConfig has no autoscale bounds (set min_replicas/"
                "max_replicas)"
            )
        kwargs = dict(
            min_replicas=serve_cfg.min_replicas,
            max_replicas=serve_cfg.max_replicas,
            scale_up_queue=serve_cfg.scale_up_queue,
            scale_down_queue=serve_cfg.scale_down_queue,
            interval=serve_cfg.scale_interval_ms * 1e-3,
        )
        kwargs.update(overrides)
        return cls(cluster, **kwargs)

    # ----------------------------------------------------------------- signals
    def signals(self) -> tuple:
        """Current ``(queue_per_replica, latency_at_quantile)``."""
        k = max(1, len(self.cluster.replicas))
        queue = self.cluster.pending_requests / k
        latency = self.cluster.latency()
        lat_q = latency.percentile(self.slo_quantile) if latency.count else 0.0
        return queue, lat_q

    # ------------------------------------------------------------------- step
    def step(self) -> Optional[AutoscaleDecision]:
        """Evaluate the signals and take at most one scaling action.

        Returns the decision taken, or ``None`` (cooldown active, or the
        signals are inside the hysteresis band / fleet bounds).
        """
        now = self.clock()
        if self._last_action is not None and now - self._last_action < self.interval:
            return None
        queue, lat_q = self.signals()
        k = len(self.cluster.replicas)

        decision: Optional[AutoscaleDecision] = None
        slo_breached = self.latency_slo is not None and lat_q > self.latency_slo
        if (queue > self.scale_up_queue or slo_breached) and k < self.max_replicas:
            self.cluster.add_replica()
            reason = (
                f"p{self.slo_quantile:g}={lat_q * 1e3:.2f}ms > SLO"
                if slo_breached and queue <= self.scale_up_queue
                else f"queue/replica={queue:.1f} > {self.scale_up_queue:g}"
            )
            decision = AutoscaleDecision(now, "up", k + 1, queue, lat_q, reason)
            self.stats.scale_ups += 1
            get_registry().counter("serve/scale_ups").add()
        elif (
            queue < self.scale_down_queue
            and not slo_breached
            and k > self.min_replicas
        ):
            self.cluster.remove_replica()
            decision = AutoscaleDecision(
                now, "down", k - 1, queue, lat_q,
                f"queue/replica={queue:.1f} < {self.scale_down_queue:g}",
            )
            self.stats.scale_downs += 1
            get_registry().counter("serve/scale_downs").add()

        if decision is not None:
            self._last_action = now
            self.stats.decisions.append(decision)
        return decision

    # -------------------------------------------------------------- background
    def start(self) -> "ReplicaAutoscaler":
        """Poll :meth:`step` from a daemon thread every ``interval``."""
        if self._thread is not None:
            raise RuntimeError("autoscaler already running")
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.step()
                except Exception:  # pragma: no cover - backstop, never raise
                    # a scaling failure must not kill the control thread;
                    # the next tick retries with fresh signals
                    pass

        self._thread = threading.Thread(
            target=_loop, name="repro-autoscaler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "ReplicaAutoscaler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReplicaAutoscaler(k={len(self.cluster.replicas)} in "
            f"[{self.min_replicas}, {self.max_replicas}], "
            f"ups={self.stats.scale_ups}, downs={self.stats.scale_downs})"
        )
