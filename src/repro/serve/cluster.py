"""Replicated serving: one front door over a fleet of k replicas.

DistTGL's §3.2.3 memory parallelism keeps ``k`` copies (or ``k`` readers) of
the node memory so ``k`` workers proceed without serializing on one state.
:class:`ServingCluster` applies it to reads.  Everything a client touches
lives here **once** — routing, admission, hedging, the WAL, elasticity, hot
swap, snapshots, accounting — over a small *fleet* that owns only what
threads and processes genuinely do differently:

* :class:`ThreadFleet` (this module, the default) — ``k`` in-thread
  :class:`ServingReplica`\\ s, each a full :class:`InferenceEngine` (private
  node memory + mailbox + micro-batcher) over the **shared** model and
  graph.  Every replica folds every event, so all copies stay
  bitwise-consistent; one lock serializes the shared model's compute, so
  the fan-out buys queueing/batching structure and state redundancy, not
  FLOPs — the role the ``k`` memory copies play in the paper, where the
  compute lives on separate GPUs.
* :class:`repro.runtime.serving.ProcessFleet` — ``k`` worker processes with
  private model copies over **one** shared-memory state, folded once.

A fleet starts and retires replicas, advances their state by one event
batch, delivers new weights, exposes state for snapshots and heals itself;
a replica exposes ``index`` / ``load`` / ``estimate_wait()`` /
``submit(kind, payload, deadline) -> handle`` / ``poll()`` / ``flush()``,
and a handle ``done`` / ``_value`` / ``_error`` / ``cancelled`` /
``completed_at`` / ``cancel()``.  On top of that surface the front door
gives both fleets:

* **writes** — :meth:`~ServingCluster.ingest` validates a batch, appends
  it to the WAL, has the fleet fold it, then appends it to the graph;
* **reads** — rank/predict queries are validated, then routed to one
  replica (round-robin, least-loaded, or any registered router).  Only the
  routing *decision* runs under the front-door lock: the submit itself may
  size-trigger a full model forward, and holding the lock through that
  would stall every other replica's front door;
* **admission control** — requests are shed once the cluster-wide queue
  exceeds a limit, or, with a ``deadline`` budget, exactly when the routed
  replica cannot meet it (refusing beats queueing work that will expire);
* **hedging** — a request in flight longer than a latency quantile is
  duplicated onto a second replica; the first result wins and the loser is
  cancelled *before* it reaches an engine.  Hedged and unhedged answers
  are bitwise-identical because micro-batch composition is the only
  arithmetic variable and a singleton is a singleton on any replica (dedup
  computes each unique (node, time) once either way; a polled flush that
  splits a batch differently can move scores by an ulp on either fleet —
  a property of load-following batching, not of the topology);
* **elasticity** — :meth:`~ServingCluster.add_replica` /
  :meth:`~ServingCluster.remove_replica` grow and shrink the fleet under
  live traffic (a :class:`repro.serve.ReplicaAutoscaler` drives them);
* **hot swap** — :meth:`~ServingCluster.hot_swap` flushes queued work
  against the old weights, then loads new ones; serving state carries
  across (the :class:`repro.serve.ContinualLearner` path);
* **snapshots** — :meth:`~ServingCluster.save` / ``restore`` through the
  one format in :mod:`repro.serve.ingest`, interchangeable across fleets.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..graph.sampler import RecentNeighborSampler
from ..graph.temporal_graph import TemporalGraph
from ..infer.engine import InferenceEngine, InferenceStats
from ..models.decoders import LinkPredictor
from ..models.tgn import TGN
from ..obs import get_registry, span
from .batcher import (
    DEFAULT_MAX_DELAY,
    DeadlineExceeded,
    MicroBatcher,
    PendingResult,
    check_request,
)
from .ingest import (
    EventLog,
    load_state,
    read_snapshot,
    state_arrays,
    write_snapshot,
)
from .metrics import LatencyHistogram

ROUTING_POLICIES = ("round_robin", "least_loaded")


@dataclass
class ClusterStats:
    """Front-door accounting (admission + routing + hedging + stream)."""

    submitted: int = 0
    shed: int = 0
    shed_deadline: int = 0   # subset of shed: budget could not be met
    completed: int = 0       # front-door requests that returned a value
    expired: int = 0         # admitted but deadline ran out in the queue
    hedged: int = 0          # requests that dispatched a duplicate
    hedge_wins: int = 0      # hedges whose duplicate finished first
    ingested_events: int = 0
    recoveries: int = 0      # dead replicas respawned (process fleets)
    routed: List[int] = field(default_factory=list)  # requests per live replica

    @property
    def admitted(self) -> int:
        return self.submitted - self.shed


class FrontRequest:
    """Front-door handle over one admitted request (plus its hedge, if any).

    Mirrors the :class:`PendingResult` surface (``done`` / ``value`` /
    ``wait`` / ``latency``) so callers are agnostic to hedging and to the
    fleet.  ``wait`` drives :meth:`ServingCluster.poll`, which flushes due
    micro-batches, pumps and heals process replicas, and dispatches hedges — a
    fleet of blocked clients keeps the whole front door making progress.
    """

    __slots__ = (
        "_cluster", "_event", "_kind", "_payload", "_primary", "_primary_rep",
        "_hedge", "_hedge_rep", "_value", "_error", "_settled",
        "submitted_at", "completed_at", "deadline", "hedged", "hedge_won",
    )

    def __init__(
        self,
        cluster: "ServingCluster",
        kind: str,
        payload: tuple,
        submitted_at: float,
        deadline: Optional[float],
        replica,
    ) -> None:
        self._cluster = cluster
        self._event = threading.Event()
        self._kind = kind
        self._payload = payload
        self._primary = None   # replica handle, set once dispatched
        self._primary_rep = replica
        self._hedge = None
        self._hedge_rep = None
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._settled = False
        self.submitted_at = submitted_at
        self.completed_at: Optional[float] = None
        self.deadline = deadline
        self.hedged = False
        self.hedge_won = False

    # ------------------------------------------------------------- inspect
    @property
    def _primary_index(self) -> int:
        return self._primary_rep.index

    @property
    def _hedge_index(self) -> int:
        return -1 if self._hedge_rep is None else self._hedge_rep.index

    @property
    def done(self) -> bool:
        return self._try_settle()

    @property
    def value(self) -> np.ndarray:
        if not self._try_settle():
            raise RuntimeError("request not completed yet; call wait() or poll()")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def latency(self) -> float:
        """Submit-to-completion time in seconds (cluster clock)."""
        if self.completed_at is None:
            raise RuntimeError("request not completed yet")
        return self.completed_at - self.submitted_at

    def wait(self, timeout: Optional[float] = None, drive: bool = True) -> np.ndarray:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._try_settle():
            if drive:
                self._cluster.poll(until=self._ready)
            if self._event.wait(timeout=1e-4):
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("request not completed within timeout")
        if self._error is not None:
            raise self._error
        return self._value

    # -------------------------------------------------------------- settle
    def _ready(self) -> bool:
        """Whether the request can settle: a lane succeeded, or every lane
        failed.  Lock-free, so a batcher may ask it under the fleet lock
        (:meth:`_try_settle` takes the front-door lock, which comes first)."""
        prim, hedge = self._primary, self._hedge
        if self._settled:
            return True
        if prim is None:
            return False
        if any(lane is not None and lane.done and lane._error is None
               for lane in (prim, hedge)):
            return True  # a lane won
        return prim.done and (hedge is None or hedge.done)  # every lane failed

    def _try_settle(self) -> bool:
        """Resolve the race between the primary and its hedge exactly once.

        The first lane to complete *successfully* wins; the loser is
        cancelled before it can reach the engine.  A failed lane only
        settles the request once no other lane can still succeed.
        """
        cluster = self._cluster
        with cluster._lock:
            if self._settled:
                return True
            if not self._ready():
                return False  # dispatch in flight, or a lane can still succeed
            winner = loser = None
            hedge_won = False
            for cand, is_hedge in ((self._primary, False), (self._hedge, True)):
                if cand is not None and cand.done and cand._error is None:
                    winner, hedge_won = cand, is_hedge
                    loser = self._primary if is_hedge else self._hedge
                    break
            if winner is None:
                prim, hedge = self._primary, self._hedge
                self._error = prim._error if not prim.cancelled else hedge._error
                self.completed_at = prim.completed_at
            else:
                self._value = winner._value
                self.completed_at = winner.completed_at
                self.hedge_won = hedge_won
            self._settled = True
            self._event.set()
            cluster._finish(self, loser)
        return True


def replica_stats(index: int, engine: InferenceEngine, batcher: MicroBatcher) -> dict:
    """One replica's engine/batcher counters as a flat dict — what
    :meth:`ServingCluster.worker_stats` returns per replica on either fleet
    (a process replica sends exactly this in its ``stats_ack`` frame)."""
    s, b = engine.stats, batcher.stats
    return {
        "rank": index,
        "requests": b.requests,
        "queries": s.queries,
        "unique_queries": s.unique_queries,
        "time_encodings_requested": s.time_encodings_requested,
        "time_encodings_computed": s.time_encodings_computed,
        "flushes": b.flushes,
        "mean_batch_pairs": b.mean_batch_pairs,
        "cancelled": b.cancelled,
        "expired": b.expired,
    }


class ServingReplica:
    """One in-thread engine copy plus its micro-batcher."""

    def __init__(
        self,
        index: int,
        engine: InferenceEngine,
        max_batch_pairs: int,
        max_delay: float,
        clock: Callable[[], float],
        engine_lock: Optional[threading.RLock] = None,
        histogram_cap: Optional[int] = None,
    ) -> None:
        self.index = index
        self.engine = engine
        self.batcher = MicroBatcher(
            engine,
            max_batch_pairs=max_batch_pairs,
            max_delay=max_delay,
            clock=clock,
            engine_lock=engine_lock,
            histogram_cap=histogram_cap,
        )

    @property
    def load(self) -> int:
        """Queued (unflushed) requests on this replica."""
        return self.batcher.pending_requests

    def estimate_wait(self) -> float:
        return self.batcher.estimate_wait()

    def poll(self, until: Optional[Callable[[], bool]] = None) -> int:
        return self.batcher.poll(until)

    def flush(self) -> int:
        return self.batcher.flush()

    def submit(self, kind: str, payload: tuple, deadline: Optional[float]) -> PendingResult:
        """Queue one validated request (``deadline`` is absolute, on the
        cluster clock the batcher shares)."""
        if kind == "rank":
            return self.batcher.submit_rank(*payload, deadline=deadline)
        return self.batcher.submit_predict(*payload, deadline=deadline)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ServingReplica(index={self.index}, load={self.load})"


class ThreadFleet:
    """``k`` in-thread replicas: private state copies, one shared model.

    The fleet interface (shared with :class:`repro.runtime.serving.ProcessFleet`):
    ``lock`` serializes every state mutation; ``spawn()`` returns a replica
    seeded to the live state (the front door lists it); ``retire(rep)``
    releases a drained one; ``fold`` advances state by one event batch
    (``state=False``: structure only — a restore copies state directly);
    ``swap`` delivers weights; ``states()`` / ``load_states()`` expose state
    to snapshots; ``flush(reps)`` force-flushes; ``worker_stats()`` and
    ``close()``.  Threads cannot die, so there is nothing to recover.
    """

    def __init__(self, cluster: "ServingCluster", k: int) -> None:
        self.cluster = cluster
        # also handed to every batcher: the replicas share one model, so
        # concurrent flushes must not interleave its compute
        self.lock = threading.RLock()
        # one sampler shared by all replicas: the CSR cache is rebuilt once
        # per graph append, not once per replica
        self._sampler = RecentNeighborSampler(
            cluster.graph, k=cluster.model.config.num_neighbors
        )
        self.replicas: List[ServingReplica] = []
        for _ in range(k):
            self.replicas.append(self.spawn())

    def spawn(self) -> ServingReplica:
        cluster, opts = self.cluster, self.cluster.replica_opts
        engine = InferenceEngine(
            cluster.model,
            cluster.graph,
            decoder=cluster.decoder,
            sampler=self._sampler,
            dedup=opts["dedup"],
            memoize_time=opts["memoize_time"],
            append_on_observe=False,  # the front door appends exactly once
        )
        if self.replicas:
            # replaying the WAL from zero would rebuild the same state, but
            # the WAL may already be truncated — the running replicas *are*
            # the state, so copy one (bitwise-identical by construction)
            live = self.replicas[0].engine
            load_state(
                engine.memory, engine.mailbox,
                state_arrays(live.memory, live.mailbox),
            )
        return ServingReplica(
            len(self.replicas),
            engine,
            opts["max_batch_pairs"],
            opts["max_delay"],
            cluster.clock,
            self.lock,
            histogram_cap=opts["histogram_cap"],
        )

    def retire(self, replica: ServingReplica) -> None:
        """Nothing to release: a drained engine copy is just garbage."""

    def fold(self, src, dst, times, feats, *, state: bool = True) -> None:
        if state:
            for rep in self.replicas:
                rep.engine.observe(src, dst, times, edge_feats=feats)

    def swap(self, model_blob: bytes, decoder_blob: Optional[bytes], version: int) -> None:
        # ``from_bytes`` overwrites the shared parameter arrays in place
        # (compiled serving tapes read weights by reference, so they stay
        # valid); every engine then rebuilds its precomputed static projection
        self.cluster.model.from_bytes(model_blob)
        if decoder_blob is not None:
            self.cluster.decoder.from_bytes(decoder_blob)
        for rep in self.replicas:
            rep.engine.refresh_weights()

    def states(self) -> list:
        return [(rep.engine.memory, rep.engine.mailbox) for rep in self.replicas]

    def load_states(self, replica_arrays: List[dict]) -> None:
        for rep, arrays in zip(self.replicas, replica_arrays):
            load_state(rep.engine.memory, rep.engine.mailbox, arrays)

    def flush(self, replicas: List[ServingReplica]) -> int:
        return sum(rep.flush() for rep in replicas)

    def worker_stats(self) -> List[dict]:
        return [
            replica_stats(rep.index, rep.engine, rep.batcher)
            for rep in self.replicas
        ]

    def close(self) -> None:
        """No processes, no segments: nothing to release."""


class ServingCluster:
    """k-replica micro-batched serving over one trained TGN.

    Parameters
    ----------
    model, graph, decoder:
        The trained model, the serving-time temporal graph (typically the
        training slice — streamed events are appended to it), and the link
        decoder.
    k:
        Number of memory-parallel serving replicas (paper §3.2.3).
    fleet:
        ``(cluster, k) -> fleet`` factory; default :class:`ThreadFleet`.
        ``Session.serve(process_replicas=True)`` passes a
        :class:`repro.runtime.serving.ProcessFleet` — then use the cluster
        as a context manager (or call :meth:`shutdown`): the replicas are
        real processes and their shared segment must be unlinked.
    policy:
        ``'round_robin'``, ``'least_loaded'``, or any routing key added via
        :func:`repro.api.register_router`.
    admission_limit:
        Maximum queued requests across all replicas; beyond it submissions
        are shed (return ``None``) and counted in ``stats.shed``.
        ``None`` disables shedding.
    max_batch_pairs / max_delay / clock:
        Per-replica micro-batcher tuning (see :class:`MicroBatcher`);
        ``clock`` is the front-door clock (latency, deadlines, hedge delay).
        The default ``max_delay`` of 0
        (:data:`~repro.serve.batcher.DEFAULT_MAX_DELAY`) makes
        work-conserving replicas that flush whatever is queued whenever they
        are polled, so batch size follows load.  Pass a window to hold
        work for larger batches, or a very large one to pin batch
        composition to explicit :meth:`flush_all` calls.
    histogram_cap:
        Reservoir cap for the latency histograms (bounds sample memory
        under sustained traffic; ``None`` keeps the :mod:`repro.obs.metrics`
        default).
    deadline:
        Default per-request completion budget in seconds.  A request is
        shed at admission when the routed replica's estimated wait already
        exceeds the budget, and expired (failed with
        :class:`DeadlineExceeded`) if the budget runs out in the queue.
        ``None`` disables deadlines; an explicit ``deadline=`` on submit
        overrides per request.
    hedge_quantile:
        Arm hedged dispatch: a request in flight longer than this
        percentile of the front-door latency reservoir (e.g. ``99.0``) is
        duplicated onto a second replica — first result wins, the loser is
        cancelled before compute.  ``None`` disables hedging.
    hedge_min_delay:
        Floor for the hedge delay in seconds (guards against a cold/noisy
        reservoir triggering hedges instantly).
    auto_truncate_wal:
        Drop WAL batches every consumer has passed after each ingest
        (replicas fold synchronously, so without held cursors the floor is
        the full WAL).  See :meth:`hold_wal_cursor`.
    """

    def __init__(
        self,
        model: TGN,
        graph: TemporalGraph,
        decoder: LinkPredictor,
        k: int = 2,
        *,
        fleet: Optional[Callable] = None,
        policy: str = "round_robin",
        admission_limit: Optional[int] = None,
        max_batch_pairs: int = 256,
        max_delay: float = DEFAULT_MAX_DELAY,
        clock: Callable[[], float] = time.perf_counter,
        dedup: bool = True,
        memoize_time: bool = True,
        histogram_cap: Optional[int] = None,
        deadline: Optional[float] = None,
        hedge_quantile: Optional[float] = None,
        hedge_min_delay: float = 5e-4,
        auto_truncate_wal: bool = False,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        # routing policies live in the repro.api router registry (the two
        # ROUTING_POLICIES builtins plus anything @register_router added);
        # lazy import because api depends on serve, not vice versa
        from ..api.registry import ROUTERS

        if policy not in ROUTERS:
            raise ValueError(
                f"unknown policy {policy!r}; choose one of {list(ROUTERS.available())}"
            )
        self._router = ROUTERS.get(policy)
        if admission_limit is not None and admission_limit < 1:
            raise ValueError("admission_limit must be positive (or None)")
        if deadline is not None and not deadline > 0:
            raise ValueError("deadline must be positive (or None)")
        if hedge_quantile is not None and not (0 < hedge_quantile < 100):
            raise ValueError("hedge_quantile must be in (0, 100) (or None)")
        self.model = model
        self.decoder = decoder
        self.graph = graph
        self.policy = policy
        self.admission_limit = admission_limit
        self.deadline = deadline
        self.hedge_quantile = hedge_quantile
        self.hedge_min_delay = hedge_min_delay
        self.auto_truncate_wal = auto_truncate_wal
        self.clock = clock
        self.model_version = 0
        self.replica_opts = {
            "max_batch_pairs": max_batch_pairs,
            "max_delay": max_delay,
            "dedup": dedup,
            "memoize_time": memoize_time,
            "histogram_cap": histogram_cap,
        }
        self._lock = threading.RLock()          # front door (routing + shed)
        self._rr = 0
        self._closed = False
        self._inflight: List[FrontRequest] = []
        self._draining: list = []   # retired replicas a request may still reach
        self._wal_cursors: Dict[str, int] = {}
        self.request_latency = (
            LatencyHistogram(cap=histogram_cap)
            if histogram_cap is not None
            else LatencyHistogram()
        )
        self.wal = EventLog(edge_dim=graph.edge_dim)
        self.stats = ClusterStats(routed=[0] * k)
        self._fleet = (fleet or ThreadFleet)(self, k)
        self.replicas = self._fleet.replicas

    # ---------------------------------------------------------------- writes
    def ingest(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        edge_feats: Optional[np.ndarray] = None,
    ) -> int:
        """Broadcast one chronological event batch to the fleet and the
        graph (through the WAL); returns the WAL offset."""
        self._ensure_open()
        with span("ingest", events=int(len(src)), replicas=len(self.replicas)):
            with self._fleet.lock:
                # validate BEFORE mutating anything: a bad batch (unknown
                # node id, mis-shaped features) must fail atomically, not
                # leave the WAL, replica state and graph disagreeing
                src, dst, times, edge_feats = self.graph.check_events(
                    src, dst, times, edge_feats
                )
                if self.graph.edge_feats is not None and edge_feats is None:
                    # uniform zero-fill: WAL and graph pad missing features
                    # anyway, and the mailboxes require a feature payload
                    edge_feats = np.zeros(
                        (len(src), self.graph.edge_dim), dtype=np.float32
                    )
                offset = self.wal.append(src, dst, times, edge_feats)
                self._fleet.fold(src, dst, times, edge_feats)
                # exactly one graph append per batch, however many replicas
                # consumed it (appending k times would duplicate edges)
                self.graph.append_events(src, dst, times, edge_feats)
                self.stats.ingested_events += len(src)
        registry = get_registry()
        registry.counter("serve/ingested_events").add(float(len(src)))
        registry.counter("serve/ingest_batches").add()
        if self.auto_truncate_wal:
            self.truncate_wal()
        return offset

    # ------------------------------------------------------------ WAL cursors
    def hold_wal_cursor(self, name: str, offset: int) -> None:
        """Register a consumer at logical WAL ``offset``: truncation never
        drops events at or past the minimum held cursor.  The
        :class:`ContinualLearner` holds one while a refit drains the WAL;
        re-holding the same name moves it."""
        with self._lock:
            self._wal_cursors[name] = int(offset)

    def release_wal_cursor(self, name: str) -> None:
        with self._lock:
            self._wal_cursors.pop(name, None)

    def wal_cursor_floor(self) -> int:
        """The minimum catch-up cursor across consumers.

        Replicas fold every batch synchronously inside :meth:`ingest`, so
        their cursor is always ``len(wal)``; held cursors (refits in
        flight, external tailers) lower the floor.
        """
        with self._lock:
            cursors = list(self._wal_cursors.values())
        return min(cursors + [len(self.wal)])

    def truncate_wal(self) -> int:
        """Drop WAL batches below the cursor floor; returns events dropped."""
        before = self.wal.base_offset
        self.wal.truncate_until(self.wal_cursor_floor())
        dropped = self.wal.base_offset - before
        if dropped:
            get_registry().counter("serve/wal_truncated_events").add(float(dropped))
        get_registry().gauge("serve/wal_held_events").set(float(len(self.wal) - self.wal.base_offset))
        return dropped

    # ----------------------------------------------------------------- reads
    def submit_rank(
        self, src: int, candidates: np.ndarray, at_time: float,
        deadline: Optional[float] = None,
    ) -> Optional[FrontRequest]:
        """Route a ranking query; ``None`` means it was load-shed."""
        src, at_time = int(src), float(at_time)
        candidates = np.asarray(candidates, dtype=np.int64)
        check_request(
            self.graph.num_nodes, np.asarray([src]), candidates, np.asarray([at_time])
        )
        return self._route("rank", (src, candidates, at_time), deadline)

    def submit_predict(
        self, src: np.ndarray, dst: np.ndarray, times: np.ndarray,
        deadline: Optional[float] = None,
    ) -> Optional[FrontRequest]:
        """Route a link-probability query; ``None`` means it was load-shed."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if not (len(src) == len(dst) == len(times)):
            raise ValueError("src, dst, times must align")
        check_request(self.graph.num_nodes, src, dst, times)
        return self._route("predict", (src, dst, times), deadline)

    def _route(
        self, kind: str, payload: tuple, deadline: Optional[float]
    ) -> Optional[FrontRequest]:
        # The request is already validated (a malformed one raised in the
        # caller and never reaches a replica).  Only the routing/admission
        # *decision* runs under the front-door lock; the submit itself
        # happens outside it (see the module docstring).
        self._ensure_open()
        registry = get_registry()
        now = self.clock()
        if deadline is None and self.deadline is not None:
            deadline = now + self.deadline
        with self._lock:
            self.stats.submitted += 1
            registry.counter("serve/submitted").add()
            if (
                self.admission_limit is not None
                and self.pending_requests >= self.admission_limit
            ):
                self.stats.shed += 1
                registry.counter("serve/shed").add()
                return None
            replica = self._router(self)
            if deadline is not None and now + replica.estimate_wait() > deadline:
                # deadline-aware shedding: the routed replica cannot meet
                # the budget, so refusing now is strictly better than
                # queueing work that will expire before it flushes
                self.stats.shed += 1
                self.stats.shed_deadline += 1
                registry.counter("serve/shed").add()
                registry.counter("serve/shed_deadline").add()
                return None
            self.stats.routed[replica.index] += 1
            # listed before the dispatch: from here on a retiring replica
            # stays on the draining list until this request settles
            front = FrontRequest(self, kind, payload, now, deadline, replica)
            self._inflight.append(front)
        front._primary = replica.submit(kind, payload, deadline)
        return front

    def _finish(self, front: FrontRequest, loser) -> None:
        """Settle-time bookkeeping (called by ``FrontRequest._try_settle``
        under the front-door lock): record latency exactly once, count the
        outcome, cancel the losing hedge lane."""
        try:
            self._inflight.remove(front)
        except ValueError:
            pass
        registry = get_registry()
        if front._error is None:
            self.stats.completed += 1
            registry.counter("serve/completed").add()
            self.request_latency.record(max(0.0, front.latency))
            if front.hedge_won:
                self.stats.hedge_wins += 1
                registry.counter("serve/hedge_wins").add()
        elif isinstance(front._error, DeadlineExceeded):
            self.stats.expired += 1
            registry.counter("serve/expired").add()
        if loser is not None and not loser.done:
            loser.cancel()

    # ---------------------------------------------------------------- hedging
    def hedge_delay(self) -> Optional[float]:
        """Seconds in flight before a request is hedged (``None`` = off).

        Reads the configured quantile from the front-door latency
        reservoir; while the reservoir is cold it falls back to the batcher
        window, floored at ``hedge_min_delay`` (the floor alone under the
        default window of 0), so early traffic neither hedges instantly
        nor never.
        """
        if self.hedge_quantile is None:
            return None
        if self.request_latency.count >= 16:
            return max(
                self.hedge_min_delay,
                self.request_latency.percentile(self.hedge_quantile),
            )
        return max(self.hedge_min_delay, self.replica_opts["max_delay"])

    def _sweep(self) -> None:
        """Settle finished front requests, dispatch due hedges, release
        retired replicas nothing can reach any more."""
        with self._lock:
            inflight = list(self._inflight)
        if inflight:
            now = self.clock()
            delay = self.hedge_delay()
        for front in inflight:
            if front._try_settle():
                continue
            if (
                delay is not None
                and front._hedge is None
                and len(self.replicas) > 1
                and now - front.submitted_at >= delay
            ):
                with self._lock:
                    if front._settled or front._hedge_rep is not None:
                        continue
                    # least-loaded among the *other* replicas — hedging to
                    # the straggler itself would be pointless
                    others = [
                        rep for rep in self.replicas
                        if rep is not front._primary_rep
                    ]
                    if not others:
                        continue
                    target = min(others, key=lambda rep: (rep.load, rep.index))
                    front.hedged = True
                    front._hedge_rep = target
                    self.stats.hedged += 1
                    get_registry().counter("serve/hedged").add()
                # the duplicate submit runs outside the front-door lock
                # (it may size-trigger a full flush)
                front._hedge = target.submit(
                    front._kind, front._payload, front.deadline
                )
        if self._draining:
            self._release_drained()

    def _release_drained(self) -> None:
        """Hand retired replicas back to the fleet once they are empty and
        no in-flight request can still be dispatched to them.  The whole
        decision runs under the front-door lock, so concurrent pollers
        release each replica exactly once."""
        released = []
        with self._lock:
            for rep in list(self._draining):
                if not rep.load and not any(
                    f._primary_rep is rep or f._hedge_rep is rep
                    for f in self._inflight
                ):
                    self._draining.remove(rep)
                    released.append(rep)
        for rep in released:
            self._fleet.retire(rep)

    # ------------------------------------------------------------- batch mgmt
    @property
    def pending_requests(self) -> int:
        return sum(rep.load for rep in self.replicas)

    def poll(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Drive the cluster: due micro-batches (threads) / result frames
        and dead-slot recovery (processes), hedges, settlement.

        ``until`` is a waiting client's own completion test: the pass stops
        as soon as it holds (checked after each replica, and by each
        replica's batcher once the engine lock is free), so a client stops
        driving the moment its answer is ready instead of computing other
        clients' batches.
        Returns the number of requests flushed.
        """
        flushed = 0
        for rep in self.replicas:
            flushed += rep.poll(until)
            if until is not None and until():
                return flushed
        if self._draining:
            flushed += self._fleet.flush(list(self._draining))
        self._sweep()
        return flushed

    def flush_all(self) -> int:
        """Force-flush every replica (drain at shutdown); returns the
        number of requests flushed."""
        flushed = self._fleet.flush(self.replicas + self._draining)
        self._sweep()
        return flushed

    # -------------------------------------------------------------- elasticity
    def add_replica(self):
        """Grow the fleet by one replica, seeded to the live state (a copy
        of replica 0's arrays, or one more reader of the shared segment) and
        answering on the current model version immediately."""
        # front-door lock first, fleet lock second — the order every other
        # path takes them in (a flush holds the fleet lock and takes a
        # batcher lock only to dequeue; nothing holding the fleet lock waits
        # for the front-door lock)
        with self._lock, self._fleet.lock:
            rep = self._fleet.spawn()
            self.replicas.append(rep)
            self.stats.routed.append(0)
        registry = get_registry()
        registry.counter("serve/replicas_added").add()
        registry.gauge("serve/replicas").set(float(len(self.replicas)))
        return rep

    def remove_replica(self):
        """Shrink the fleet by retiring the newest replica.

        The retiree leaves the routing list at once but stays on the
        draining list — still flushed by :meth:`poll` / :meth:`flush_all` —
        until it is empty and no in-flight request points at it, so work
        admitted during (or dispatched just after) the scale-down still
        completes; only then does the fleet release it.
        """
        with self._lock, self._fleet.lock:
            if len(self.replicas) <= 1:
                raise ValueError("cannot remove the last replica")
            rep = self.replicas.pop()
            self.stats.routed.pop()
            self._draining.append(rep)
        registry = get_registry()
        registry.counter("serve/replicas_removed").add()
        registry.gauge("serve/replicas").set(float(len(self.replicas)))
        self._fleet.flush([rep])
        self._sweep()
        return rep

    # --------------------------------------------------------------- hot swap
    def hot_swap(
        self,
        model_blob: bytes,
        decoder_blob: Optional[bytes] = None,
        *,
        version: Optional[int] = None,
    ) -> int:
        """Load new model/decoder weights into the live fleet in place.

        Queued work is flushed against the old weights first (outside the
        fleet lock — :meth:`flush_all` settles requests under the front-door
        lock, which comes before it), then the fleet delivers the blobs to
        every replica.  Serving
        memory/mailbox state carries across — a swap changes the *model*,
        not the streamed history.
        """
        self.flush_all()
        with self._fleet.lock:
            self.model_version = (
                version if version is not None else self.model_version + 1
            )
            self._fleet.swap(model_blob, decoder_blob, self.model_version)
        registry = get_registry()
        registry.counter("serve/hot_swaps").add()
        registry.gauge("serve/model_version").set(float(self.model_version))
        return self.model_version

    # ------------------------------------------------------------ observability
    def worker_stats(self) -> List[dict]:
        """Per-replica engine/batcher counters (see :func:`replica_stats`)."""
        return self._fleet.worker_stats()

    def inference_stats(self) -> InferenceStats:
        """Summed TGOpt redundancy counters across replicas."""
        total = InferenceStats()
        for stats in self.worker_stats():
            for name in list(vars(total)):
                setattr(total, name, getattr(total, name) + stats[name])
        return total

    def latency(self) -> LatencyHistogram:
        """The front-door request-latency histogram.

        Recorded exactly once per completed admitted request — hedged
        requests contribute the winning lane only, so the reservoir the
        p50/p99/p99.9 columns and the hedge delay read from never
        double-counts.  (Each in-thread replica's batcher keeps its own
        per-lane view in ``rep.batcher.latency``.)
        """
        return self.request_latency

    def export_metrics(self) -> dict:
        """Fold cluster state into the shared registry; returns its snapshot.

        The front-door latency histogram lands under ``serve/latency_s``
        next to the ``serve/*`` counters the front door maintains, giving
        one export path for the whole process.
        """
        registry = get_registry()
        latency = self.latency()
        if latency.count:
            registry.histogram("serve/latency_s", cap=latency.cap).merge_snapshot(
                latency.snapshot()
            )
        registry.gauge("serve/pending_requests").set(float(self.pending_requests))
        registry.gauge("serve/replicas").set(float(len(self.replicas)))
        registry.gauge("serve/model_version").set(float(self.model_version))
        return registry.snapshot()

    # ---------------------------------------------------------------- state
    def save(self, path) -> "Path":
        """Snapshot serving state (memory + mailbox + WAL) to ``path``.

        In-thread replicas write their k private copies, process replicas
        their one shared state once per slot — byte-identical payloads
        after the same stream, so either fleet restores the other's file.
        """
        with self._fleet.lock:
            return write_snapshot(
                path, graph=self.graph, wal=self.wal,
                replica_states=self._fleet.states(),
            )

    def restore(self, path) -> dict:
        """Restore a snapshot into this *pristine* cluster (freshly built
        on the same training-time graph, same replica count, empty WAL);
        returns the snapshot metadata.  Queries afterwards score
        identically to the snapshotted cluster."""
        with self._fleet.lock:
            meta, batch, replica_arrays = read_snapshot(
                path, graph=self.graph, wal=self.wal, k=len(self.replicas)
            )
            if len(batch[0]):
                # replay structure only — replica state is restored directly
                # below, so the events must NOT be re-observed
                self._fleet.fold(*batch, state=False)
                self.wal.append(*batch)
                self.graph.append_events(*batch)
                self.stats.ingested_events += len(batch[0])
            self._fleet.load_states(replica_arrays)
        return meta

    # ------------------------------------------------------------- lifecycle
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("serving cluster already shut down")

    def shutdown(self) -> None:
        """Release the fleet (idempotent): nothing for threads; stop + reap
        the workers and unlink the shared segment for processes.  Later
        submits raise ``RuntimeError``."""
        if not self._closed:
            self._closed = True
            self._fleet.close()

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ServingCluster(k={len(self.replicas)}, policy={self.policy!r}, "
            f"pending={self.pending_requests}, shed={self.stats.shed})"
        )
