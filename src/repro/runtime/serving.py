"""Process-replica serving: k worker processes over one shared serving state.

The threaded :class:`~repro.serve.cluster.ServingCluster` multiplies
queueing capacity with k replica engines, but they share one mutable model
object, so a single lock serializes all compute.  The process cluster
removes that ceiling: each replica is an OS process with its **own** model
copy (true compute parallelism on multi-core hosts), while the node
memory + mailbox live in one shared-memory segment
(:mod:`repro.runtime.sharedmem`) — §3.2.3's "k readers of one state"
applied to serving.  Because the state is shared, the event stream is
folded **once** (by the fold leader, worker 0) instead of k times; every
replica reads the same bytes the threaded replicas would each have
computed, so predictions are bit-identical to the threaded cluster
whenever the micro-batch compositions match (composition is the only
arithmetic variable: a deadline flush that splits a batch differently
changes the dedup set, which can move scores by an ulp on either cluster
kind — that is a property of deadline batching, not of the process
topology).

Protocol (all frames over the worker's control channel):

* reads — ``rank`` / ``predict`` requests are routed round-robin or
  least-loaded, queue into the worker's own
  :class:`~repro.serve.batcher.MicroBatcher` (micro-batching semantics
  identical to the threaded path) and come back as ``result`` frames that
  resolve parent-side :class:`ProcessPendingResult` handles.
* writes — :meth:`ProcessServingCluster.ingest` runs a two-phase commit:
  **drain** (every worker flushes its queued reads and acks, so no flush
  can race the fold) then **fold/append** (worker 0 folds the events into
  the shared state and its graph; the others append to their graph copies
  only).  This is the cross-process equivalent of the threaded cluster's
  engine lock, held exactly as long as an ingest needs it.
* control — ``swap`` hot-loads new model/decoder weights (the worker
  flushes queued work against the old weights first, then overwrites its
  parameter arrays in place and refreshes the precomputed static
  projection); ``stop`` retires the worker.

Elasticity & recovery: the parent owns every worker *individually*, so
:meth:`~ProcessServingCluster.add_replica` spawns one more process into
the fleet, :meth:`~ProcessServingCluster.remove_replica` drains and
retires the newest, and a replica that dies mid-stream (``SIGKILL``, a
``serve.replica`` crash failpoint) is respawned into its slot with
failpoints neutralized.  The shared segment makes the respawn's state
instantly correct; its private graph catches up from the parent's copy
(which outlives WAL truncation), and the dead worker's outstanding
requests are re-sent to the fresh replica — re-execution against the same
shared state computes the same bytes, so recovery is invisible in the
response stream as long as no fold landed between submit and replay (the
cluster's synchronous two-phase ingest guarantees exactly that for
requests in flight when a fold starts).

Workers rebuild their serving graph from the declarative config (same
"reconstruct from description" contract as the training runtime) and
receive only the trained weight blobs over the wire.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..api.config import ExperimentConfig
from ..obs import get_registry
from ..serve.ingest import EventLog, read_snapshot, write_snapshot
from ..serve.metrics import LatencyHistogram
from .launcher import DEFAULT_TIMEOUT, _worker_shell
from .sharedmem import SharedGroupState, SharedStateSpec, create_group_states
from .transport import TransportError, TransportTimeout, pipe_channel_pair


# ----------------------------------------------------------------- worker
def serve_worker(
    rank: int,
    channel,
    *,
    config_dict: dict,
    shared_spec: dict,
    serve_meta: dict,
    clear_failpoints: bool = False,
):
    """One serving replica: rebuild graph + model, serve until ``stop``."""
    from ..api.registry import MODELS
    from ..infer.engine import InferenceEngine
    from ..models.decoders import LinkPredictor
    from ..models.tgn import DirectMemoryView, TGNConfig
    from ..serve.batcher import MicroBatcher
    from ..testing import failpoints

    if clear_failpoints:
        # a respawned replica inherits REPRO_FAILPOINTS from the parent's
        # environment; it must not re-trip the failure that killed its
        # predecessor
        failpoints.neutralize()

    cfg = ExperimentConfig.from_dict(config_dict)
    dataset = cfg.build_dataset()
    split = dataset.graph.chronological_split(
        train_frac=cfg.train.train_frac, val_frac=cfg.train.val_frac
    )
    graph = dataset.graph.slice_events(split.train)

    mc = cfg.model
    # same rebuild path as the trainer: the model key resolves through the
    # repro.api registry, so plug-in models serve like the builtin
    model = MODELS.get(mc.model)(
        TGNConfig(
            num_nodes=graph.num_nodes,
            memory_dim=mc.memory_dim,
            time_dim=mc.time_dim,
            embed_dim=mc.embed_dim,
            edge_dim=graph.edge_dim,
            static_dim=mc.static_dim,
            num_neighbors=mc.num_neighbors,
            num_heads=mc.num_heads,
            updater=mc.updater,
            seed=cfg.train.seed,
        )
    )
    decoder = LinkPredictor(mc.embed_dim, rng=np.random.default_rng(cfg.train.seed + 1))
    model.from_bytes(serve_meta.pop("_model_blob"))
    decoder.from_bytes(serve_meta.pop("_decoder_blob"))
    static = serve_meta.pop("_static_table", None)
    if static is not None:
        model.attach_static_memory(static)

    shared = SharedGroupState(SharedStateSpec.from_dict(shared_spec), create=False)
    engine = InferenceEngine(
        model,
        graph,
        decoder=decoder,
        dedup=bool(serve_meta["dedup"]),
        memoize_time=bool(serve_meta["memoize_time"]),
        append_on_observe=False,
    )
    # replica engines serve from the one shared state instead of private copies
    engine.memory = shared.memory
    engine.mailbox = shared.mailbox
    engine.view = DirectMemoryView(shared.memory, shared.mailbox)

    batcher = MicroBatcher(
        engine,
        max_batch_pairs=int(serve_meta["max_batch_pairs"]),
        max_delay=float(serve_meta["max_delay"]),
    )
    pending: Dict[int, object] = {}
    max_delay = float(serve_meta["max_delay"])
    idle_wait = min(max(max_delay / 2, 1e-3), 0.05)

    def sweep() -> None:
        done = [rid for rid, res in pending.items() if res.done]
        for rid in done:
            res = pending.pop(rid)
            try:
                channel.send(
                    "result",
                    meta={"req_id": rid, "latency": res.latency},
                    arrays={"scores": np.asarray(res.value)},
                )
            except Exception as exc:  # noqa: BLE001 - value may carry the error
                channel.send("req_error", meta={"req_id": rid, "error": repr(exc)})

    channel.send("ready", meta={"rank": rank})
    requests = 0
    while True:
        if not channel.poll(idle_wait):
            batcher.poll()
            sweep()
            continue
        frame = channel.recv(timeout=5.0)
        # deadline-check on *every* loop turn: sustained sub-threshold
        # traffic must not starve the max_delay flush trigger (the parent
        # cannot drive worker-side polls the way a threaded waiter can)
        batcher.poll()
        if frame.tag == "rank":
            # chaos hook: fires before the request is served, so a crash
            # leaves it outstanding in the parent for recovery to replay
            failpoints.fire("serve.replica", rank=rank)
            requests += 1
            pending[frame.meta["req_id"]] = batcher.submit_rank(
                int(frame.meta["src"]),
                frame.array("candidates"),
                float(frame.meta["at_time"]),
            )
        elif frame.tag == "predict":
            failpoints.fire("serve.replica", rank=rank)
            requests += 1
            pending[frame.meta["req_id"]] = batcher.submit_predict(
                frame.array("src"), frame.array("dst"), frame.array("times")
            )
        elif frame.tag == "drain":
            batcher.flush()
            sweep()
            channel.send("drain_ack", meta={"rank": rank})
            continue
        elif frame.tag == "fold":
            src, dst = frame.array("src"), frame.array("dst")
            times = frame.array("times")
            ef = frame.arrays.get("edge_feats")
            # the fold leader advances the shared state exactly once for the
            # whole fleet; everyone (leader included) appends to their graph
            # copy so samplers keep seeing fresh neighborhoods
            if frame.meta["fold_state"]:
                engine.observe(src, dst, times, edge_feats=ef)
            graph.append_events(src, dst, times, ef)
            channel.send("fold_ack", meta={"rank": rank, "events": len(src)})
            continue
        elif frame.tag == "swap":
            # hot swap: queued work completes against the old weights, then
            # from_bytes overwrites the parameter arrays in place (compiled
            # tapes read weights by reference, so they stay valid) and the
            # engine rebuilds its precomputed static projection
            batcher.flush()
            sweep()
            model.from_bytes(frame.array("model_blob").tobytes())
            if "decoder_blob" in frame.arrays:
                decoder.from_bytes(frame.array("decoder_blob").tobytes())
            engine.refresh_weights()
            channel.send(
                "swap_ack",
                meta={"rank": rank, "version": int(frame.meta.get("version", -1))},
            )
            continue
        elif frame.tag == "flush":
            batcher.flush()
            sweep()
            channel.send("flush_ack", meta={"rank": rank})
            continue
        elif frame.tag == "stats":
            s = engine.stats
            channel.send(
                "stats_ack",
                meta={
                    "rank": rank,
                    "requests": requests,
                    "queries": s.queries,
                    "unique_queries": s.unique_queries,
                    "time_encodings_requested": s.time_encodings_requested,
                    "time_encodings_computed": s.time_encodings_computed,
                    "flushes": batcher.stats.flushes,
                    "mean_batch_pairs": batcher.stats.mean_batch_pairs,
                },
            )
            continue
        elif frame.tag == "stop":
            batcher.flush()
            sweep()
            break
        else:
            raise TransportError(f"serve worker got unknown frame {frame.tag!r}")
        # size-triggered flushes may have completed requests synchronously
        sweep()

    shared.close()
    return {"rank": rank, "ok": True, "requests": requests}, {}


# ------------------------------------------------------------------ parent
class ProcessPendingResult:
    """Parent-side handle for one routed request (mirrors
    :class:`repro.serve.batcher.PendingResult`'s wait/value/done surface)."""

    def __init__(self, link: "_ReplicaLink", req_id: int, submitted_at: float) -> None:
        self._link = link
        self._cluster: Optional["ProcessServingCluster"] = None
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[str] = None
        self.req_id = req_id
        self.submitted_at = submitted_at
        self.completed_at: Optional[float] = None
        # the original (tag, meta, arrays) so a replica failure can replay
        # the request verbatim on the respawned worker
        self.resend: Optional[Tuple[str, dict, dict]] = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def value(self) -> np.ndarray:
        if not self.done:
            raise RuntimeError("request not completed yet; call wait()")
        if self._error is not None:
            raise RuntimeError(self._error)
        return self._value

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise RuntimeError("request not completed yet")
        return self.completed_at - self.submitted_at

    def wait(self, timeout: Optional[float] = None) -> np.ndarray:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._event.is_set():
            self._link.pump(0.05)
            if self._link.dead and self._cluster is not None:
                # replica died with this request outstanding: drive the
                # cluster's recovery, which respawns the slot and re-sends
                # the request (rebinding self._link)
                self._cluster.poll()
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("request not completed within timeout")
        return self.value

    def _fulfill(self, value: np.ndarray, error: Optional[str]) -> None:
        self._value = value
        self._error = error
        self.completed_at = time.perf_counter()
        self._event.set()


class _ReplicaLink:
    """Parent's view of one serve worker: process + channel + outstanding
    requests."""

    def __init__(
        self,
        index: int,
        channel,
        proc=None,
        on_result: Optional[Callable[[ProcessPendingResult], None]] = None,
    ) -> None:
        self.index = index
        self.channel = channel
        self.proc = proc
        self.on_result = on_result
        self.lock = threading.RLock()
        self.failed = False
        self.outstanding: Dict[int, ProcessPendingResult] = {}
        self.acks: Dict[str, List[dict]] = {}

    @property
    def load(self) -> int:
        return len(self.outstanding)

    @property
    def dead(self) -> bool:
        """The worker can no longer answer: its pipe broke or its process
        exited while the cluster still expects it to serve."""
        return self.failed or (self.proc is not None and not self.proc.is_alive())

    def send(self, tag: str, meta: Optional[dict] = None, arrays=None) -> bool:
        """Best-effort frame send; a broken pipe marks the link dead
        instead of raising (recovery picks the slot up)."""
        try:
            with self.lock:
                self.channel.send(tag, meta=meta or {}, arrays=arrays or {})
            return True
        except (TransportError, OSError):
            self.failed = True
            return False

    def pump(self, timeout: float = 0.0) -> None:
        """Dispatch any frames the worker sent.

        Results fulfill their handles; everything else (acks, ready) lands
        in :attr:`acks` for whoever is waiting on it — concurrent pumpers
        (a waiting client, an in-flight ingest) can therefore never steal
        each other's frames.  EOF on a dead worker's pipe marks the link
        failed rather than raising: death is a recoverable condition here.
        """
        with self.lock:
            while True:
                try:
                    if not self.channel.poll(timeout):
                        return
                    frame = self.channel.recv(timeout=1.0)
                except (TransportError, TransportTimeout, OSError):
                    self.failed = True
                    return
                if frame.tag == "result":
                    res = self.outstanding.pop(frame.meta["req_id"], None)
                    if res is not None:
                        res._fulfill(frame.array("scores"), None)
                        if self.on_result is not None:
                            self.on_result(res)
                elif frame.tag == "req_error":
                    res = self.outstanding.pop(frame.meta["req_id"], None)
                    if res is not None:
                        res._fulfill(None, frame.meta.get("error", "request failed"))
                elif frame.tag == "error":
                    raise TransportError(
                        f"serve worker {self.index} failed: "
                        f"{frame.meta.get('error', 'unknown')}"
                    )
                else:
                    self.acks.setdefault(frame.tag, []).append(dict(frame.meta))
                timeout = 0.0  # only the first poll blocks

    def await_ack(self, tag: str, timeout: float) -> dict:
        """Pump until one ``tag`` frame arrives; returns its metadata.

        Raises :class:`TransportError` promptly when the worker dies while
        waiting (instead of burning the whole timeout) — callers translate
        that into slot recovery.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                queued = self.acks.get(tag)
                if queued:
                    return queued.pop(0)
            self.pump(0.05)
            if self.dead:
                # one last drain: the ack may have raced the death
                self.pump(0.0)
                with self.lock:
                    queued = self.acks.get(tag)
                    if queued:
                        return queued.pop(0)
                raise TransportError(
                    f"serve worker {self.index} died awaiting {tag!r}"
                )
        raise TransportTimeout(f"worker {self.index}: no {tag!r} within {timeout:.0f}s")

    def close(self) -> None:
        try:
            self.channel.close()
        except Exception:  # pragma: no cover - defensive
            pass


@dataclass
class ProcessClusterStats:
    """Front-door accounting (mirrors the threaded ``ClusterStats``)."""

    submitted: int = 0
    shed: int = 0
    completed: int = 0
    ingested_events: int = 0
    recoveries: int = 0
    routed: List[int] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return self.submitted - self.shed


class ProcessServingCluster:
    """k process replicas over one shared serving state, one front door.

    Built by ``Session.serve(process_replicas=True)``.  Use as a context
    manager (or call :meth:`shutdown`) — the replicas are real processes
    and the shared segment must be unlinked.

    Elasticity parity with the threaded cluster: :meth:`add_replica` /
    :meth:`remove_replica` grow and shrink the fleet (the
    :class:`~repro.serve.elastic.ReplicaAutoscaler` drives either cluster
    kind), :meth:`hot_swap` rolls new weights through every worker, and
    WAL cursors + :meth:`truncate_wal` bound the front-door log.  Hedged
    duplicate dispatch is a threaded-cluster feature only: true loser
    cancellation needs the pre-compute queue access that worker processes
    do not expose over the wire.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        serve_graph,
        model,
        decoder,
        k: int = 2,
        *,
        policy: str = "round_robin",
        admission_limit: Optional[int] = None,
        max_batch_pairs: int = 256,
        max_delay: float = 2e-3,
        dedup: bool = True,
        memoize_time: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
        histogram_cap: Optional[int] = None,
        auto_truncate_wal: bool = False,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        from ..api.registry import ROUTERS

        if policy not in ROUTERS:
            raise ValueError(
                f"unknown policy {policy!r}; choose one of {list(ROUTERS.available())}"
            )
        if admission_limit is not None and admission_limit < 1:
            raise ValueError("admission_limit must be positive (or None)")
        self._router = ROUTERS.get(policy)
        self.policy = policy
        self.admission_limit = admission_limit
        self.graph = serve_graph
        # the front door keeps the WAL (batch boundaries included), so the
        # process cluster snapshots/restores exactly like the threaded one
        self.wal = EventLog(edge_dim=serve_graph.edge_dim)
        self.timeout = timeout
        self.auto_truncate_wal = auto_truncate_wal
        self.model_version = 0
        self._lock = threading.RLock()
        self._rr = 0
        self._req_counter = 0
        self._closed = False
        self._wal_cursors: Dict[str, int] = {}
        # events the workers' config-rebuilt serve graphs start with; the
        # parent graph tail past this point is what a freshly spawned
        # worker replays to catch up (it outlives WAL truncation)
        self._base_events = serve_graph.num_events
        self.stats = ProcessClusterStats(routed=[0] * k)
        self.request_latency = (
            LatencyHistogram(cap=histogram_cap)
            if histogram_cap is not None
            else LatencyHistogram()
        )
        self._ctx = mp.get_context("spawn")
        self._retired: List = []

        (self._state,) = create_group_states(
            1,
            num_nodes=serve_graph.num_nodes,
            memory_dim=model.config.memory_dim,
            edge_dim=serve_graph.edge_dim,
            name_prefix="repro-serve",
        )
        # spawn arguments travel through the multiprocessing pickler, so
        # the weight blobs ride along as plain bytes (frames are for live
        # traffic); hot_swap updates them so respawns and added replicas
        # always start on the current model version
        self._model_blob = model.to_bytes()
        self._decoder_blob = decoder.to_bytes()
        self._static_table = (
            model._static_table.copy() if model.has_static_memory else None
        )
        self._serve_opts = {
            "max_batch_pairs": max_batch_pairs,
            "max_delay": max_delay,
            "dedup": dedup,
            "memoize_time": memoize_time,
        }
        self._config_dict = config.to_dict()
        self.replicas: List[_ReplicaLink] = []
        try:
            for index in range(k):
                self.replicas.append(self._spawn_link(index))
        except BaseException:
            # a half-built cluster must not strand processes or the segment
            for link in self.replicas:
                if link.proc is not None and link.proc.is_alive():
                    link.proc.terminate()
                link.close()
            self._state.close()
            self._state.unlink()
            raise

    # ------------------------------------------------------------- spawning
    def _spawn_link(self, index: int, *, clear_failpoints: bool = False) -> _ReplicaLink:
        """Start one serve worker and wait for its ``ready`` frame."""
        parent_ch, child_ch = pipe_channel_pair(self.timeout)
        kwargs = {
            "config_dict": self._config_dict,
            "shared_spec": self._state.spec.to_dict(),
            "serve_meta": {
                **self._serve_opts,
                "_model_blob": self._model_blob,
                "_decoder_blob": self._decoder_blob,
                "_static_table": self._static_table,
            },
            "clear_failpoints": clear_failpoints,
        }
        proc = self._ctx.Process(
            target=_worker_shell,
            args=(serve_worker, index, child_ch, kwargs),
            name=f"repro-serve-{index}",
            daemon=True,
        )
        proc.start()
        child_ch.close()
        link = _ReplicaLink(index, parent_ch, proc=proc, on_result=self._on_result)
        try:
            link.await_ack("ready", self.timeout)
        except BaseException:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            link.close()
            raise
        return link

    def _catch_up(self, link: _ReplicaLink) -> None:
        """Replay the parent graph's post-construction tail into a freshly
        spawned worker's private graph (state is shared memory, so it is
        already correct)."""
        tail = self.graph.num_events - self._base_events
        if not tail:
            return
        arrays = {
            "src": self.graph.src[self._base_events:],
            "dst": self.graph.dst[self._base_events:],
            "times": self.graph.timestamps[self._base_events:],
        }
        if self.graph.edge_feats is not None:
            arrays["edge_feats"] = self.graph.edge_feats[self._base_events:]
        link.send("fold", meta={"fold_state": False}, arrays=arrays)
        link.await_ack("fold_ack", self.timeout)

    def _on_result(self, res: ProcessPendingResult) -> None:
        self.stats.completed += 1
        self.request_latency.record(max(0.0, res.latency))
        get_registry().counter("serve/completed").add()

    # ------------------------------------------------------------- recovery
    def _check_replicas(self) -> None:
        """Pump every link; respawn any slot whose worker died."""
        for index in range(len(self.replicas)):
            link = self.replicas[index]
            link.pump(0.0)
            if link.dead:
                self._recover(index)

    def _recover(self, index: int) -> _ReplicaLink:
        """Respawn slot ``index`` and replay its outstanding requests.

        The respawn neutralizes inherited failpoints (a crash failpoint
        must take a replica down once, not turn recovery into a crash
        loop).  Re-executed requests read the same shared state the dead
        worker would have — the synchronous two-phase ingest means no fold
        can have landed between the original submit and this replay — so
        the response stream is bitwise what an unfaulted run produces.
        """
        old = self.replicas[index]
        if old.proc is not None:
            old.proc.join(timeout=5.0)
        old.close()
        link = self._spawn_link(index, clear_failpoints=True)
        self._catch_up(link)
        for req_id, res in sorted(old.outstanding.items()):
            tag, meta, arrays = res.resend
            res._link = link
            link.outstanding[req_id] = res
            link.send(tag, meta={**meta, "req_id": req_id}, arrays=arrays)
        old.outstanding.clear()
        self.replicas[index] = link
        self.stats.recoveries += 1
        get_registry().counter("serve/replica_recoveries").add()
        return link

    def _ack_or_recover(
        self,
        index: int,
        tag: str,
        resend: Optional[Callable[[_ReplicaLink], None]],
    ) -> dict:
        """Await ``tag`` from slot ``index``; if the worker died, recover
        the slot, re-issue the phase's frame via ``resend`` and await once
        more.  ``resend=None`` means the phase cannot be replayed safely
        (the fold leader mid-state-fold) — death propagates."""
        for attempt in range(2):
            link = self.replicas[index]
            try:
                return link.await_ack(tag, self.timeout)
            except TransportError:
                if resend is None or attempt or not link.dead:
                    raise
                fresh = self._recover(index)
                resend(fresh)
        raise TransportError(f"worker {index} failed twice awaiting {tag!r}")

    # ----------------------------------------------------------------- reads
    def submit_rank(
        self, src: int, candidates: np.ndarray, at_time: float
    ) -> Optional[ProcessPendingResult]:
        """Route a ranking query; ``None`` means it was load-shed."""
        candidates = np.asarray(candidates, dtype=np.int64)
        return self._route(
            "rank",
            meta={"src": int(src), "at_time": float(at_time)},
            arrays={"candidates": candidates},
        )

    def submit_predict(
        self, src: np.ndarray, dst: np.ndarray, times: np.ndarray
    ) -> Optional[ProcessPendingResult]:
        """Route a link-probability query; ``None`` means it was load-shed."""
        return self._route(
            "predict",
            meta={},
            arrays={
                "src": np.asarray(src, dtype=np.int64),
                "dst": np.asarray(dst, dtype=np.int64),
                "times": np.asarray(times, dtype=np.float64),
            },
        )

    def _route(self, tag, meta, arrays) -> Optional[ProcessPendingResult]:
        self._ensure_open()
        with self._lock:
            self.stats.submitted += 1
            self._check_replicas()
            if (
                self.admission_limit is not None
                and self.pending_requests >= self.admission_limit
            ):
                self.stats.shed += 1
                return None
            link = self._router(self)
            self.stats.routed[link.index] += 1
            self._req_counter += 1
            req_id = self._req_counter
            result = ProcessPendingResult(link, req_id, time.perf_counter())
            result._cluster = self
            result.resend = (tag, dict(meta), dict(arrays))
            with link.lock:
                link.outstanding[req_id] = result
                sent = link.send(tag, meta={**meta, "req_id": req_id}, arrays=arrays)
            if not sent:
                # the pipe broke on the send itself: recover now so the
                # request replays immediately on the fresh worker
                self._recover(link.index)
            return result

    # ---------------------------------------------------------------- writes
    def ingest(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        edge_feats: Optional[np.ndarray] = None,
    ) -> int:
        """Two-phase broadcast of one chronological event batch.

        Phase 1 (*drain*) flushes every replica's queued reads so no flush
        can race the state fold; phase 2 folds once (worker 0) and appends
        the events to every replica's graph copy.  Returns total events
        ingested so far (the WAL-offset contract of the threaded cluster).

        A non-leader replica that dies mid-ingest is recovered in place
        (its catch-up replays through the parent graph, then this batch is
        re-sent structure-only).  A fold-leader death between the state
        fold starting and its ack is not recoverable — the parent cannot
        know whether the shared state advanced — and propagates as a
        transport error.
        """
        self._ensure_open()
        with self._lock:
            self._check_replicas()
            src, dst, times, edge_feats = self.graph.check_events(
                src, dst, times, edge_feats
            )
            if self.graph.edge_feats is not None and edge_feats is None:
                edge_feats = np.zeros(
                    (len(src), self.graph.edge_dim), dtype=np.float32
                )
            self.wal.append(src, dst, times, edge_feats)
            arrays = {"src": src, "dst": dst, "times": times}
            if edge_feats is not None:
                arrays["edge_feats"] = edge_feats
            for link in self.replicas:
                link.send("drain")
            for index in range(len(self.replicas)):
                self._ack_or_recover(index, "drain_ack", lambda l: l.send("drain"))
            for link in self.replicas:
                link.send(
                    "fold", meta={"fold_state": link.index == 0}, arrays=arrays
                )
            for index in range(len(self.replicas)):
                self._ack_or_recover(
                    index,
                    "fold_ack",
                    None
                    if index == 0
                    else (
                        lambda l: l.send(
                            "fold", meta={"fold_state": False}, arrays=arrays
                        )
                    ),
                )
            # keep the parent's reference graph in lockstep with the workers
            self.graph.append_events(src, dst, times, edge_feats)
            self.stats.ingested_events += len(src)
            registry = get_registry()
            registry.counter("serve/ingested_events").add(float(len(src)))
            registry.counter("serve/ingest_batches").add()
            if self.auto_truncate_wal:
                self.truncate_wal()
            return self.stats.ingested_events

    # ------------------------------------------------------------ WAL cursors
    def hold_wal_cursor(self, name: str, offset: int) -> None:
        """Register a consumer at logical WAL ``offset``: truncation never
        drops events at or past the minimum held cursor."""
        with self._lock:
            self._wal_cursors[name] = int(offset)

    def release_wal_cursor(self, name: str) -> None:
        with self._lock:
            self._wal_cursors.pop(name, None)

    def wal_cursor_floor(self) -> int:
        """The minimum catch-up cursor across consumers (replicas fold
        synchronously inside :meth:`ingest`, so theirs is ``len(wal)``)."""
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
        get_registry().gauge("serve/wal_held_events").set(
            float(len(self.wal) - self.wal.base_offset)
        )
        return dropped

    # ------------------------------------------------------------- batch mgmt
    @property
    def pending_requests(self) -> int:
        return sum(link.load for link in self.replicas)

    def poll(self) -> None:
        """Collect completed results; recover any dead replica slots."""
        with self._lock:
            self._check_replicas()

    def flush_all(self) -> None:
        """Force-flush every replica and collect the results."""
        self._ensure_open()
        with self._lock:
            self._check_replicas()
            for link in self.replicas:
                link.send("flush")
            for index in range(len(self.replicas)):
                self._ack_or_recover(index, "flush_ack", lambda l: l.send("flush"))
            self._check_replicas()

    # -------------------------------------------------------------- elasticity
    def add_replica(self) -> _ReplicaLink:
        """Grow the fleet by one worker process.

        The shared segment makes the newcomer's serving state correct by
        construction; its private graph catches up from the parent's copy
        (which holds the full ingested history even after WAL truncation),
        and it starts answering on the current model version — hot_swap
        keeps the spawn-template weight blobs fresh.
        """
        self._ensure_open()
        with self._lock:
            index = len(self.replicas)
            link = self._spawn_link(index)
            self._catch_up(link)
            self.replicas.append(link)
            self.stats.routed.append(0)
        registry = get_registry()
        registry.counter("serve/replicas_added").add()
        registry.gauge("serve/replicas").set(float(len(self.replicas)))
        return link

    def remove_replica(self) -> _ReplicaLink:
        """Shrink the fleet by draining and retiring the newest worker.

        The retiree flushes its queued reads (every outstanding request
        completes before the ``stop``), so a scale-down is invisible in
        the response stream.
        """
        self._ensure_open()
        with self._lock:
            if len(self.replicas) <= 1:
                raise ValueError("cannot remove the last replica")
            link = self.replicas[-1]
            try:
                link.send("flush")
                link.await_ack("flush_ack", self.timeout)
                link.pump(0.0)
            except (TransportError, TransportTimeout):
                pass  # a dying retiree's requests replay below
            self.replicas.pop()
            # anything still outstanding (the worker died mid-drain) is
            # re-routed to a surviving replica
            for req_id, res in sorted(link.outstanding.items()):
                target = self.replicas[0]
                tag, meta, arrays = res.resend
                res._link = target
                target.outstanding[req_id] = res
                target.send(tag, meta={**meta, "req_id": req_id}, arrays=arrays)
            link.outstanding.clear()
            link.send("stop")
            if link.proc is not None:
                # reaped lazily at shutdown so scale-down never blocks on
                # the worker's exit
                self._retired.append(link.proc)
        registry = get_registry()
        registry.counter("serve/replicas_removed").add()
        registry.gauge("serve/replicas").set(float(len(self.replicas)))
        return link

    # --------------------------------------------------------------- hot swap
    def hot_swap(
        self,
        model_blob: bytes,
        decoder_blob: Optional[bytes] = None,
        *,
        version: Optional[int] = None,
    ) -> int:
        """Roll new model/decoder weights through every worker in place.

        Queued work flushes against the old weights first; then each
        worker overwrites its parameter arrays and refreshes its static
        projection.  Serving memory/mailbox state carries across — a swap
        changes the *model*, not the streamed history.  The spawn-template
        blobs update too, so respawns and added replicas join on the new
        version.
        """
        self._ensure_open()
        with self._lock:
            self.flush_all()
            self._model_blob = bytes(model_blob)
            if decoder_blob is not None:
                self._decoder_blob = bytes(decoder_blob)
            self.model_version = (
                version if version is not None else self.model_version + 1
            )
            arrays = {"model_blob": np.frombuffer(self._model_blob, dtype=np.uint8)}
            if decoder_blob is not None:
                arrays["decoder_blob"] = np.frombuffer(
                    self._decoder_blob, dtype=np.uint8
                )
            meta = {"version": self.model_version}
            for link in self.replicas:
                link.send("swap", meta=meta, arrays=arrays)
            for index in range(len(self.replicas)):
                # a slot recovered mid-swap respawns from the already-
                # updated template blobs; the re-sent swap is idempotent
                self._ack_or_recover(
                    index,
                    "swap_ack",
                    lambda l: l.send("swap", meta=meta, arrays=arrays),
                )
        registry = get_registry()
        registry.counter("serve/hot_swaps").add()
        registry.gauge("serve/model_version").set(float(self.model_version))
        return self.model_version

    # ------------------------------------------------------ snapshot/restore
    def _drain_replicas(self) -> None:
        for link in self.replicas:
            link.send("drain")
        for index in range(len(self.replicas)):
            self._ack_or_recover(index, "drain_ack", lambda l: l.send("drain"))

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the serving state — WAL + the shared memory/mailbox — in
        the exact snapshot format of the threaded cluster.

        Because the k process replicas read **one** shared state, the file
        records that state once per replica slot; a threaded cluster that
        ingested the same stream writes byte-identical replica payloads, so
        the two cluster kinds restore from each other's snapshots.
        """
        self._ensure_open()
        with self._lock:
            # quiesce queued reads so no micro-batch flush mutates the
            # shared state while it is being serialized
            self._drain_replicas()
            return write_snapshot(
                path,
                graph=self.graph,
                wal=self.wal,
                replica_states=[
                    (self._state.memory, self._state.mailbox)
                    for _ in self.replicas
                ],
            )

    def restore(self, path: Union[str, Path]) -> dict:
        """Restore a snapshot into this *pristine* cluster (same validation
        as the threaded restore); returns the snapshot metadata.

        The WAL replays into every replica's graph copy (structure only —
        the ``fold`` frames carry ``fold_state=False``) and the snapshot's
        replica-0 state is written into the shared segment, which every
        replica reads; queries afterwards score identically to the
        snapshotted cluster.
        """
        self._ensure_open()
        with self._lock:
            meta, (src, dst, times, feats), replica_arrays = read_snapshot(
                path, graph=self.graph, wal=self.wal, k=len(self.replicas)
            )
            self._drain_replicas()
            if len(src):
                arrays = {"src": src, "dst": dst, "times": times}
                if feats is not None:
                    arrays["edge_feats"] = feats
                for link in self.replicas:
                    link.send("fold", meta={"fold_state": False}, arrays=arrays)
                for index in range(len(self.replicas)):
                    self._ack_or_recover(
                        index,
                        "fold_ack",
                        lambda l: l.send(
                            "fold", meta={"fold_state": False}, arrays=arrays
                        ),
                    )
                self.wal.append(src, dst, times, feats)
                self.graph.append_events(src, dst, times, feats)
                self.stats.ingested_events += len(src)
            state = replica_arrays[0]
            self._state.memory.memory[...] = state["memory"]
            self._state.memory.last_update[...] = state["last_update"]
            self._state.mailbox.mail[...] = state["mail"]
            self._state.mailbox.mail_time[...] = state["mail_time"]
            self._state.mailbox.has_mail[...] = state["has_mail"]
            return meta

    # ---------------------------------------------------------- observability
    def worker_stats(self) -> List[dict]:
        """Per-replica engine/batcher counters (dedup, memoization, flushes)."""
        self._ensure_open()
        with self._lock:
            self._check_replicas()
            for link in self.replicas:
                link.send("stats")
            return [
                self._ack_or_recover(index, "stats_ack", lambda l: l.send("stats"))
                for index in range(len(self.replicas))
            ]

    def latency(self) -> LatencyHistogram:
        """Front-door request latency (recorded once per completed
        request, submit to result-frame arrival)."""
        return self.request_latency

    def export_metrics(self) -> dict:
        """Fold cluster state into the shared registry; returns its snapshot."""
        registry = get_registry()
        if self.request_latency.count:
            registry.histogram(
                "serve/latency_s", cap=self.request_latency.cap
            ).merge_snapshot(self.request_latency.snapshot())
        registry.gauge("serve/pending_requests").set(float(self.pending_requests))
        registry.gauge("serve/replicas").set(float(len(self.replicas)))
        registry.gauge("serve/model_version").set(float(self.model_version))
        return registry.snapshot()

    # ------------------------------------------------------------- lifecycle
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("serving cluster already shut down")

    def shutdown(self) -> None:
        """Stop the replicas, release the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        procs = [
            link.proc for link in self.replicas if link.proc is not None
        ] + self._retired
        try:
            for link in self.replicas:
                link.send("stop")
            deadline = time.monotonic() + min(self.timeout, 60.0)
            for proc in procs:
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
                    if proc.is_alive():  # pragma: no cover - last resort
                        proc.kill()
                        proc.join(timeout=5.0)
            for link in self.replicas:
                link.close()
            self._state.close()
            self._state.unlink()

    def __enter__(self) -> "ProcessServingCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.shutdown()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ProcessServingCluster(k={len(self.replicas)}, policy={self.policy!r}, "
            f"pending={self.pending_requests}, shed={self.stats.shed})"
        )
