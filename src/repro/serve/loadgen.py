"""Query and event-stream builders for driving a serving cluster.

* :func:`build_queries` — ranking queries in the classic serving shape
  (an active source asks for scores over a candidate set at a recent
  timestamp); the elastic serving drill (``repro.cli serve-bench``) and
  the tests draw their traffic from it;
* :func:`event_stream` — a dataset's held-out events sliced into
  ingestion batches (``Session.held_out_stream``), so queries can run
  against a graph that gains edges while it is served.

Load generation and throughput measurement live in ``bench/`` (``python3
bench/run.py``), the repo's one measurement surface.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..graph.temporal_graph import TemporalGraph

Query = Tuple[int, np.ndarray, float]


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


def event_stream(
    graph: TemporalGraph, start: int, stop: int, chunk: int
) -> Iterator[tuple]:
    """Slice a source graph's events into ingestion batches.

    The canonical streaming setup: build the cluster on the training
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
