"""Load generation for the serving cluster: closed- and open-loop drivers.

* **closed loop** — ``num_clients`` simulated clients each keep exactly one
  request in flight: every round all clients submit, then the fleet blocks
  until the micro-batchers flush (size- or deadline-triggered).  Measures
  best-case batching behaviour — concurrency equals the client count.
* **open loop** — requests arrive on a Poisson process at ``target_qps``
  regardless of completions, the standard way to expose queueing/tail
  behaviour and to exercise admission control: when arrivals outpace
  service, the queue grows until the cluster sheds.

Both modes can interleave **streaming ingestion**: pass a ``stream``
iterator of event batches and one batch is ingested per client round
(closed) or every ``spec.stream_every`` arrivals (open), so queries run
against a graph that is gaining edges while being served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..graph.temporal_graph import TemporalGraph
from .cluster import ServingCluster
from .metrics import ThroughputMeter

Query = Tuple[int, np.ndarray, float]


@dataclass
class LoadSpec:
    """Workload shape for :func:`run_load`."""

    num_clients: int = 8
    requests_per_client: int = 25
    mode: str = "closed"              # 'closed' | 'open'
    target_qps: float = 500.0         # open-loop arrival rate
    candidates_per_request: int = 20
    stream_every: int = 8             # open-loop: arrivals between ingest batches
    seed: int = 0

    @property
    def total_requests(self) -> int:
        return self.num_clients * self.requests_per_client


@dataclass
class LoadReport:
    """What ``serve-bench`` prints: throughput, tails, redundancy, shedding."""

    mode: str
    completed: int
    shed: int
    elapsed: float
    qps: float
    p50: float                 # seconds
    p99: float
    mean_latency: float
    dedup_ratio: float
    memo_ratio: float
    flushes: int
    mean_batch_pairs: float
    routed: List[int]
    p999: float = 0.0          # seconds; reads the same latency reservoir
    hedge_rate: float = 0.0    # hedged / admitted (threaded front door)

    def row(self, label: str) -> list:
        """One table row (CLI/bench display, latencies in ms)."""
        return [
            label,
            self.completed,
            self.shed,
            f"{self.qps:.0f}",
            f"{self.p50 * 1e3:.2f}",
            f"{self.p99 * 1e3:.2f}",
            f"{self.p999 * 1e3:.2f}",
            f"{self.hedge_rate:.1%}",
            f"{self.dedup_ratio:.1%}",
            f"{self.mean_batch_pairs:.0f}",
        ]

    ROW_HEADERS = [
        "config", "ok", "shed", "qps", "p50 ms", "p99 ms", "p99.9 ms",
        "hedge%", "dedup", "pairs/flush",
    ]


def build_queries(
    graph: TemporalGraph,
    n: int,
    candidates_per_request: int,
    rng: np.random.Generator,
    start_time: Optional[float] = None,
) -> List[Query]:
    """Ranking queries in the classic serving shape: an active source node
    asks for scores over a sampled candidate set at a recent timestamp.

    Sources are drawn from observed event sources (traffic concentrates on
    active users); candidates come from the destination partition when the
    graph is bipartite.  Query times advance slightly past ``start_time``
    (default: the graph's current ``max_time``) so sampling sees the full
    history, mirroring "rank next interaction" serving.
    """
    if candidates_per_request < 1:
        raise ValueError("need at least one candidate")
    t0 = graph.max_time if start_time is None else start_time
    lo = graph.src_partition_size if graph.is_bipartite else 0
    srcs = rng.choice(graph.src, size=n)
    queries: List[Query] = []
    for i in range(n):
        cands = rng.integers(lo, graph.num_nodes, size=candidates_per_request)
        queries.append((int(srcs[i]), cands.astype(np.int64), float(t0) + 1.0 + 0.01 * i))
    return queries


def _drain(cluster: ServingCluster, handles: list) -> None:
    """Drive polls until every handle completes (deadline-based flushing).

    The stall backstop runs on wall time (``time.monotonic``), NOT the
    cluster's injected clock — a fake clock that never advances would never
    trip its own deadline, so measuring the stall with it would spin
    forever."""
    t0 = time.monotonic()
    while not all(h.done for h in handles):
        cluster.poll()
        if time.monotonic() - t0 > 1.0:
            cluster.flush_all()


def run_load(
    cluster: ServingCluster,
    spec: LoadSpec,
    stream: Optional[Iterator] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> LoadReport:
    """Drive ``cluster`` with the workload described by ``spec``.

    ``stream`` is an optional iterator yielding ``(src, dst, times[,
    edge_feats])`` batches to ingest while serving.
    """
    if spec.mode not in ("closed", "open"):
        raise ValueError(f"unknown load mode {spec.mode!r}")
    rng = np.random.default_rng(spec.seed)
    queries = build_queries(
        cluster.graph, spec.total_requests, spec.candidates_per_request, rng
    )
    handles: list = []
    meter = ThroughputMeter(clock=clock).start()

    def ingest_next() -> None:
        if stream is None:
            return
        batch = next(stream, None)
        if batch is not None:
            cluster.ingest(*batch)

    if spec.mode == "closed":
        qi = 0
        for _round in range(spec.requests_per_client):
            ingest_next()
            round_handles = []
            for _c in range(spec.num_clients):
                h = cluster.submit_rank(*queries[qi])
                qi += 1
                if h is not None:
                    round_handles.append(h)
            _drain(cluster, round_handles)
            handles.extend(round_handles)
    else:  # open loop
        interval = 1.0 / spec.target_qps
        next_arrival = clock()
        for qi, query in enumerate(queries):
            if spec.stream_every and qi % spec.stream_every == 0:
                ingest_next()
            while clock() < next_arrival:
                cluster.poll()
            h = cluster.submit_rank(*query)
            if h is not None:
                handles.append(h)
            next_arrival += interval
        _drain(cluster, handles)

    meter.add(len(handles))
    elapsed = meter.stop()

    lat = cluster.latency()
    stats = cluster.inference_stats()
    batch_pairs = [rep.batcher.stats for rep in cluster.replicas]
    return LoadReport(
        mode=spec.mode,
        completed=len(handles),
        shed=cluster.stats.shed,
        elapsed=elapsed,
        qps=len(handles) / elapsed if elapsed > 0 else 0.0,
        p50=lat.p50,
        p99=lat.p99,
        mean_latency=lat.mean,
        dedup_ratio=stats.dedup_ratio,
        memo_ratio=stats.memo_ratio,
        flushes=sum(s.flushes for s in batch_pairs),
        mean_batch_pairs=(
            sum(s.pairs for s in batch_pairs) / max(1, sum(s.flushes for s in batch_pairs))
        ),
        routed=list(cluster.stats.routed),
        p999=lat.percentile(99.9),
        hedge_rate=(
            cluster.stats.hedged
            / max(1, cluster.stats.submitted - cluster.stats.shed)
        ),
    )


def event_stream(
    graph: TemporalGraph, start: int, stop: int, chunk: int
) -> Iterator[tuple]:
    """Slice a source graph's events into ingestion batches.

    The canonical serve-bench setup: build the cluster on the training
    slice of a dataset and stream the held-out events back in while
    serving.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    stop = min(stop, graph.num_events)
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        feats = graph.edge_feats[lo:hi] if graph.edge_feats is not None else None
        yield graph.src[lo:hi], graph.dst[lo:hi], graph.timestamps[lo:hi], feats
