"""The benchmark's own load drivers over the surface both serving clusters
share: ``submit_rank`` / ``poll`` / ``ingest`` and handles with ``done`` /
``value``.

* **closed loop** — ``clients`` callers each keep one request in flight and
  send the next only when the previous one completed; latency runs from the
  submit.  A slow system therefore receives less load: this phase measures
  throughput.
* **open loop** — requests are due on a schedule fixed before the phase
  starts, whatever the system does, and event batches are ingested on a
  second fixed schedule by the same driver thread.  Latency runs from the
  time a request was *due*, so a stall (an ingest call, a slow flush) is
  charged to every request that was due behind it; how late the generator
  itself ran is reported as lag.

One driver thread generates all load — the threaded cluster computes inside
``submit_rank``/``poll`` on the caller's thread, so a second generator
thread would only add scheduler noise.  ``repro.serve.loadgen.run_load``
times from submit and interleaves ingest by request count; it is not used.

Clock and sleep are injected so the accounting is tested on a fake clock.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from spans import SpanRecorder

FAILED = math.inf          # latency of a request that was shed, failed or wrong
STALL_TIMEOUT = 20.0       # seconds without any completion before giving up
SLEEP_SLACK = 300e-6       # wake this early and spin the rest of the wait


@dataclass(frozen=True)
class Query:
    src: int
    candidates: np.ndarray
    at_time: float


@dataclass
class LoadResult:
    attempted: int = 0                      # requests sent or refused
    failed: int = 0                         # shed, raised, wrong length, non-finite, stalled
    latencies: List[float] = field(default_factory=list)   # seconds, FAILED for failures
    wall: float = 0.0                       # first submit -> last completion
    lags: List[float] = field(default_factory=list)        # actual start - due, per scheduled event
    ingest_calls: List[float] = field(default_factory=list)  # seconds per cluster.ingest
    ingested_events: int = 0
    ingests_rejected: int = 0
    responses: Dict[int, np.ndarray] = field(default_factory=dict)  # kept for re-asking

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


# ------------------------------------------------------------------ inputs
def build_queries(graph, n: int, candidates: int, rng: np.random.Generator,
                  after_time: float) -> List[Query]:
    """Seeded ranking queries in the serving shape: an active source asks for
    scores over a candidate set at a time past everything the cluster will
    ingest.  Sources are drawn from observed event sources (traffic follows
    activity); candidates from the destination partition of a bipartite
    graph."""
    if candidates < 1:
        raise ValueError("need at least one candidate per request")
    lo = graph.src_partition_size if graph.is_bipartite else 0
    srcs = rng.choice(graph.src, size=n)
    cands = rng.integers(lo, graph.num_nodes, size=(n, candidates)).astype(np.int64)
    return [
        Query(int(srcs[i]), cands[i], float(after_time) + 1.0 + 0.01 * i)
        for i in range(n)
    ]


def poisson_arrivals(n: int, rate: float, rng: np.random.Generator) -> List[float]:
    """``n`` due times (seconds from phase start) with exponential gaps,
    rescaled so the last request is due at exactly ``n / rate`` — the
    burstiness is seeded, the offered rate is the same for every seed."""
    if n < 1 or not rate > 0:
        raise ValueError("need n >= 1 and rate > 0")
    due = np.cumsum(rng.exponential(1.0, size=n))
    return (due * ((n / rate) / due[-1])).tolist()


def even_schedule(n: int, span_s: float, rng: np.random.Generator) -> List[float]:
    """``n`` due times evenly spaced over ``span_s`` seconds with one seeded
    phase offset (ingest arrives at a constant events/s)."""
    if n < 1:
        return []
    step = span_s / n
    phase = float(rng.uniform(0.0, step))
    return [phase + i * step for i in range(n)]


def response_ok(value, expected_len: int) -> bool:
    arr = np.asarray(value)
    return arr.shape == (expected_len,) and bool(np.isfinite(arr).all())


# ----------------------------------------------------------------- drivers
def _settle(handle, query: Query, index: int, latency: float,
            out: LoadResult, keep) -> None:
    try:
        value = handle.value
    except Exception:          # the request failed inside the cluster
        value = None
    if value is None or not response_ok(value, len(query.candidates)):
        out.failed += 1
        out.latencies.append(FAILED)
        return
    out.latencies.append(latency)
    if index in keep:
        out.responses[index] = np.array(value, copy=True)


def _poll(cluster, tracer: SpanRecorder) -> None:
    """Drive the cluster once; a poll that flushed nothing leaves no span."""
    with tracer.span("cluster.poll") as sp:
        flushed = cluster.poll()
        if sp is not None and not flushed:
            sp.attrs["drop"] = True


def run_closed(
    cluster,
    queries: Sequence[Query],
    clients: int,
    *,
    clock: Callable[[], float] = time.perf_counter,
    tracer: Optional[SpanRecorder] = None,
    keep: Iterable[int] = (),
    stall_timeout: float = STALL_TIMEOUT,
) -> LoadResult:
    """Closed loop: ``clients`` callers, one request in flight each."""
    if clients < 1:
        raise ValueError("need at least one client")
    tracer = tracer if tracer is not None else SpanRecorder(enabled=False)
    keep = frozenset(keep)
    out = LoadResult()
    slots: List[Optional[Tuple[object, float, int]]] = [None] * clients
    next_q = 0
    settled = 0
    start = last_progress = clock()
    while settled < len(queries):
        for c in range(clients):
            if slots[c] is None and next_q < len(queries):
                q = queries[next_q]
                sent = clock()
                with tracer.span("cluster.submit", trace=f"closed{next_q}"):
                    handle = cluster.submit_rank(q.src, q.candidates, q.at_time)
                out.attempted += 1
                if handle is None:             # shed at admission
                    out.failed += 1
                    out.latencies.append(FAILED)
                    settled += 1
                else:
                    slots[c] = (handle, sent, next_q)
                next_q += 1
        _poll(cluster, tracer)
        now = None
        for c, slot in enumerate(slots):
            if slot is not None and slot[0].done:
                now = clock() if now is None else now
                handle, sent, index = slot
                _settle(handle, queries[index], index, now - sent, out, keep)
                slots[c] = None
                settled += 1
                last_progress = now
        if clock() - last_progress > stall_timeout:
            stuck = sum(slot is not None for slot in slots)
            out.failed += stuck
            out.latencies.extend([FAILED] * stuck)
            break
    out.wall = clock() - start
    return out


def run_open(
    cluster,
    queries: Sequence[Query],
    arrivals: Sequence[float],
    ingests: Sequence[Tuple[float, tuple]] = (),
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    tracer: Optional[SpanRecorder] = None,
    stall_timeout: float = STALL_TIMEOUT,
) -> LoadResult:
    """Open loop: request ``i`` is due ``arrivals[i]`` seconds after the
    start, event batch ``k`` is due ``ingests[k][0]`` seconds after it; the
    one driver thread runs whichever is due next, and polls in between."""
    if len(arrivals) != len(queries):
        raise ValueError("one due time per query")
    tracer = tracer if tracer is not None else SpanRecorder(enabled=False)
    out = LoadResult()
    # (due offset, kind, index): kind 0 = request, 1 = ingest; at equal due
    # times the request goes first
    schedule = sorted(
        [(float(due), 0, i) for i, due in enumerate(arrivals)]
        + [(float(due), 1, k) for k, (due, _batch) in enumerate(ingests)]
    )
    pending: List[Tuple[object, float, int]] = []   # (handle, due_abs, query index)

    def harvest() -> None:
        nonlocal last_progress
        if not pending:
            return
        now = None
        keep_waiting = []
        for handle, due_abs, index in pending:
            if handle.done:
                now = clock() if now is None else now
                _settle(handle, queries[index], index, now - due_abs, out, ())
                last_progress = now
            else:
                keep_waiting.append((handle, due_abs, index))
        pending[:] = keep_waiting

    start = last_progress = clock()
    e = 0
    while e < len(schedule) or pending:
        now = clock()
        if e < len(schedule) and now >= start + schedule[e][0]:
            due, kind, index = schedule[e]
            e += 1
            out.lags.append(now - (start + due))
            if kind == 0:
                q = queries[index]
                with tracer.span("cluster.submit", trace=f"open{index}"):
                    handle = cluster.submit_rank(q.src, q.candidates, q.at_time)
                out.attempted += 1
                if handle is None:
                    out.failed += 1
                    out.latencies.append(FAILED)
                else:
                    pending.append((handle, start + due, index))
            else:
                batch = ingests[index][1]
                try:
                    with tracer.span("cluster.ingest", trace=f"ingest{index}"):
                        cluster.ingest(*batch)
                except ValueError:             # batch rejected by validation
                    out.ingests_rejected += 1
                else:
                    out.ingested_events += len(batch[0])
                out.ingest_calls.append(clock() - now)
                last_progress = clock()        # an ingest is progress, not a stall
            harvest()                          # a size-triggered flush may have finished some
            continue
        _poll(cluster, tracer)
        harvest()
        if pending:
            if clock() - last_progress > stall_timeout:
                out.failed += len(pending)
                out.latencies.extend([FAILED] * len(pending))
                pending.clear()
                last_progress = clock()
        elif e < len(schedule):
            gap = start + schedule[e][0] - clock()
            if gap > 2 * SLEEP_SLACK:
                sleep(gap - SLEEP_SLACK)
    out.wall = clock() - start
    return out


def run_ingest_burst(cluster, batches: Sequence[tuple], *,
                     clock: Callable[[], float] = time.perf_counter,
                     tracer: Optional[SpanRecorder] = None) -> LoadResult:
    """Back-to-back ``cluster.ingest`` calls (WAL + graph append + replica
    fold), nothing else running."""
    tracer = tracer if tracer is not None else SpanRecorder(enabled=False)
    out = LoadResult()
    start = clock()
    for k, batch in enumerate(batches):
        t0 = clock()
        try:
            with tracer.span("cluster.ingest", trace=f"burst{k}"):
                cluster.ingest(*batch)
        except ValueError:
            out.ingests_rejected += 1
        else:
            out.ingested_events += len(batch[0])
        out.ingest_calls.append(clock() - t0)
    out.wall = clock() - start
    return out
