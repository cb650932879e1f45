"""repro.serve — online TGNN serving: one front door over a replica fleet.

The serving subsystem layers six pieces on the inference stack:

* :class:`MicroBatcher` — work-conserving coalescing of concurrent
  rank/predict requests into fused engine batches (by default a poll
  flushes whatever queued, so batch size follows load; an explicit window
  holds work for larger batches), so TGOpt-style de-duplication and
  time-encoding memoization amortize *across* clients;
  per-request deadline budgets and cancellation support hedging/shedding;
* :class:`ServingCluster` — **the** front door (paper §3.2.3 applied to
  serving): the event stream reaches every replica's state through the
  WAL, reads are validated and routed round-robin or least-loaded,
  deadline-aware admission sheds requests whose budget cannot be met,
  hedged dispatch duplicates stragglers onto a second replica (first
  result wins, the loser is cancelled before compute), replicas come and
  go, weights hot-swap, state snapshots.  It runs over a *fleet* — the
  default :class:`ThreadFleet` of in-thread :class:`ServingReplica` copies
  (private state copies, one shared model) or
  :class:`repro.runtime.serving.ProcessFleet` (worker processes over one
  shared-memory state; ``Session.serve(process_replicas=True)``) — with
  identical behaviour, options and bytes on either;
* :class:`EventLog` — the write-ahead log every ingested batch lands in
  before replica state and the shared :class:`~repro.graph.TemporalGraph`
  advance (keeping sampled neighborhoods fresh); ``cluster.save()`` /
  ``restore()`` persist and restore the full serving state through
  :func:`~repro.serve.ingest.write_snapshot` /
  :func:`~repro.serve.ingest.read_snapshot`; named WAL cursors gate
  batch-granular truncation so the log stays bounded without stranding
  lagging readers;
* :class:`ReplicaAutoscaler` — a queue-depth + tail-latency control loop
  that grows and shrinks the fleet between configured bounds
  (``cluster.add_replica()`` / ``remove_replica()``);
* :class:`ContinualLearner` — train-while-serve: drains the WAL, refits
  with warm-started weights, hot-swaps the new checkpoint into the live
  fleet, and asserts the swap bitwise against a freshly loaded session;
* :class:`LatencyHistogram` / :class:`ThroughputMeter` + :func:`run_load`
  / :func:`run_elastic_bench` — p50/p99/p99.9 latency, QPS and hedge-rate
  accounting, open/closed-loop load generation, and the closed-loop
  elastic bench (the ``serve-bench`` CLI entry points).
"""

from .batcher import (
    BatcherStats,
    DeadlineExceeded,
    MicroBatcher,
    PendingResult,
    RequestCancelled,
)
from .cluster import ClusterStats, ServingCluster, ServingReplica, ThreadFleet
from .continual import ContinualLearner, RefitReport
from .elastic import AutoscaleDecision, ReplicaAutoscaler
from .ingest import EventLog
from .loadgen import LoadReport, LoadSpec, build_queries, event_stream, run_load
from .metrics import LatencyHistogram, ThroughputMeter

__all__ = [
    "MicroBatcher",
    "PendingResult",
    "BatcherStats",
    "RequestCancelled",
    "DeadlineExceeded",
    "ServingCluster",
    "ServingReplica",
    "ThreadFleet",
    "ClusterStats",
    "ReplicaAutoscaler",
    "AutoscaleDecision",
    "ContinualLearner",
    "RefitReport",
    "EventLog",
    "LatencyHistogram",
    "ThroughputMeter",
    "LoadSpec",
    "LoadReport",
    "run_load",
    "run_elastic_bench",
    "build_queries",
    "event_stream",
]


def __getattr__(name):
    # run_elastic_bench pulls in the api layer; keep the common import light
    if name == "run_elastic_bench":
        from .bench import run_elastic_bench

        return run_elastic_bench
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
