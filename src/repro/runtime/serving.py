"""Process replicas: the second fleet behind :class:`repro.serve.ServingCluster`.

In-thread replicas (:class:`repro.serve.cluster.ThreadFleet`) multiply
queueing capacity, but they share one mutable model object, so a single
lock serializes all compute.  :class:`ProcessFleet` removes that ceiling:
each replica is an OS process with its **own** model copy (true compute
parallelism on multi-core hosts), while the node memory + mailbox live in
one shared-memory segment (:mod:`repro.runtime.sharedmem`) — §3.2.3's "k
readers of one state" applied to serving.  Because the state is shared the
event stream is folded **once** (by the fold leader, worker 0) instead of
k times; every replica reads the same bytes the in-thread replicas would
each have computed, so responses are bit-identical across fleets whenever
the micro-batch compositions match.

The front door (routing, admission, hedging, WAL, snapshots, accounting)
is the one in :mod:`repro.serve.cluster`; this module holds only what
processes do differently.  All frames travel over each worker's control
channel:

* **reads** — a :class:`ProcessReplica` turns ``submit`` into a ``rank`` /
  ``predict`` frame that queues into the worker's own
  :class:`~repro.serve.batcher.MicroBatcher` (micro-batching semantics
  identical to the in-thread path; the worker reads every frame already
  waiting before it polls, so a burst of requests becomes one batch) and
  comes back as a ``result`` — or a
  ``req_error`` carrying the error *kind*, so ``DeadlineExceeded`` /
  ``RequestCancelled`` / ``ValueError`` survive the wire — resolving a
  :class:`ProcessPendingResult`.  Deadlines travel as *remaining budget*
  (no cross-process clock is assumed); ``cancel`` withdraws a queued
  request before it reaches the engine (the hedge loser).
* **writes** — :meth:`ProcessFleet.fold` is a two-phase commit: **drain**
  (every worker flushes its queued reads and acks, so no flush can race
  the fold) then **fold/append** (worker 0 folds the events into the
  shared state; every worker appends them to its private graph copy).
  This is the cross-process equivalent of the thread fleet's engine lock,
  held exactly as long as an ingest needs it.
* **control** — ``swap`` hot-loads weights (the worker flushes queued work
  against the old ones first), ``flush`` / ``stats`` do what they say,
  ``stop`` retires the worker.

Recovery: the fleet owns every worker *individually*, so a replica that
dies mid-stream (``SIGKILL``, a ``serve.replica`` crash failpoint) is
respawned **in place** — same :class:`ProcessReplica`, new process — with
failpoints neutralized (a crash failpoint must take a replica down once,
not turn recovery into a crash loop).  The shared segment makes the
respawn's state instantly correct; its private graph catches up from the
parent's copy (which outlives WAL truncation), and its outstanding
requests are re-sent.  Re-execution against the same shared state computes
the same bytes, and no fold can land between a submit and its replay (a
fold holds every replica's submit lock from drain to the last ack, and
drains first), so recovery is invisible in the response stream.  The one
unrecoverable death is the fold leader's between the state fold starting
and its ack: the parent cannot know whether the shared state advanced.

Workers rebuild their serving graph from the declarative config (same
"reconstruct from description" contract as the training runtime) and
receive only the trained weight blobs.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional

import numpy as np

from ..api.config import ExperimentConfig
from ..obs import get_registry
from ..serve.batcher import DeadlineExceeded, RequestCancelled
from ..serve.ingest import load_state
from .launcher import DEFAULT_TIMEOUT, _worker_shell
from .sharedmem import SharedGroupState, SharedStateSpec, create_group_states
from .transport import TransportError, TransportTimeout, pipe_channel_pair

#: request errors that keep their type across the wire (``req_error.kind``)
_ERROR_KINDS = {
    cls.__name__: cls for cls in (DeadlineExceeded, RequestCancelled, ValueError)
}


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
    from ..serve.cluster import replica_stats
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

    max_delay = float(serve_meta["max_delay"])
    batcher = MicroBatcher(
        engine,
        max_batch_pairs=int(serve_meta["max_batch_pairs"]),
        max_delay=max_delay,
    )
    pending: Dict[int, object] = {}
    idle_wait = min(max(max_delay / 2, 1e-3), 0.05)

    def refuse(rid: int, exc: BaseException) -> None:
        channel.send(
            "req_error",
            meta={"req_id": rid, "kind": type(exc).__name__, "error": str(exc)},
        )

    def sweep() -> None:
        for rid in [rid for rid, res in pending.items() if res.done]:
            res = pending.pop(rid)
            if res._error is not None:
                refuse(rid, res._error)
            else:
                channel.send(
                    "result",
                    meta={"req_id": rid, "latency": res.latency},
                    arrays={"scores": np.asarray(res._value)},
                )

    channel.send("ready", meta={"rank": rank})
    while True:
        # read every frame already waiting before polling the batcher, so a
        # burst of requests becomes one batch; block only while nothing is
        # queued — or, under a window, until the oldest request is due (the
        # parent cannot drive worker-side polls the way an in-thread waiter
        # can, so the loop keeps the window itself)
        due = batcher.time_to_flush()
        if not channel.poll(idle_wait if due is None else min(due, idle_wait)):
            batcher.poll()
            sweep()
            continue
        frame = channel.recv(timeout=5.0)
        if frame.tag in ("rank", "predict"):
            # chaos hook: fires before the request is served, so a crash
            # leaves it outstanding in the parent for recovery to replay
            failpoints.fire("serve.replica", rank=rank)
            rid, budget = frame.meta["req_id"], frame.meta.get("budget")
            deadline = None if budget is None else batcher.clock() + budget
            try:
                if frame.tag == "rank":
                    pending[rid] = batcher.submit_rank(
                        int(frame.meta["src"]),
                        frame.array("candidates"),
                        float(frame.meta["at_time"]),
                        deadline=deadline,
                    )
                else:
                    pending[rid] = batcher.submit_predict(
                        frame.array("src"), frame.array("dst"),
                        frame.array("times"), deadline=deadline,
                    )
            except ValueError as exc:
                # frames are outside input: a malformed request is answered,
                # it never unwinds the loop (a dead worker would be respawned
                # and handed the same poison request again)
                refuse(rid, exc)
        elif frame.tag == "cancel":
            res = pending.get(frame.meta["req_id"])
            if res is not None:
                res.cancel()  # no-op once flushed: completion wins
        elif frame.tag in ("drain", "flush"):
            flushed = batcher.flush()
            sweep()
            channel.send(f"{frame.tag}_ack", meta={"rank": rank, "flushed": flushed})
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
        elif frame.tag == "stats":
            channel.send("stats_ack", meta=replica_stats(rank, engine, batcher))
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
    return {"rank": rank, "ok": True, "requests": batcher.stats.requests}, {}


# ------------------------------------------------------------------ parent
def _event_arrays(src, dst, times, feats) -> dict:
    """The array payload of a ``fold`` frame."""
    arrays = {"src": src, "dst": dst, "times": times}
    if feats is not None:
        arrays["edge_feats"] = feats
    return arrays


class ProcessPendingResult:
    """Parent-side handle for one request on a process replica: the handle
    surface :class:`repro.serve.cluster.FrontRequest` races (``done`` /
    ``_value`` / ``_error`` / ``cancelled`` / ``completed_at`` / ``cancel``).
    ``request`` keeps the original ``(kind, payload, deadline)`` so a replica
    failure can replay it verbatim on the respawned worker."""

    __slots__ = (
        "_replica", "req_id", "request", "done", "_value", "_error",
        "cancelled", "completed_at",
    )

    def __init__(self, replica: "ProcessReplica", req_id: int, request: tuple) -> None:
        self._replica = replica
        self.req_id = req_id
        self.request = request
        self.done = False
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.cancelled = False
        self.completed_at: Optional[float] = None

    def cancel(self) -> bool:
        """Ask the worker to withdraw the request before it flushes.  The
        worker's answer resolves the handle: ``RequestCancelled`` if it was
        still queued, the result if the flush won."""
        return not self.done and self._replica.send("cancel", {"req_id": self.req_id})


class ProcessReplica:
    """The front door's view of one serve worker — process + channel +
    outstanding requests — behind the replica surface the routers, the
    hedge race and the front door touch."""

    def __init__(self, fleet: "ProcessFleet", index: int) -> None:
        self.fleet = fleet
        self.index = index
        self.channel = None
        self.proc = None
        self.lock = threading.RLock()   # channel I/O + ``outstanding``
        self.failed = False
        self.outstanding: Dict[int, ProcessPendingResult] = {}
        self.acks: Dict[str, List[dict]] = {}
        self.wait_ewma = 0.0            # of the worker-reported latencies
        self._req_counter = 0

    @property
    def load(self) -> int:
        return len(self.outstanding)

    @property
    def dead(self) -> bool:
        """The worker can no longer answer: its pipe broke or its process
        exited while the cluster still expects it to serve."""
        return self.failed or (self.proc is not None and not self.proc.is_alive())

    def estimate_wait(self) -> float:
        """Pessimistic time-to-completion for a request submitted now:
        worst-case queueing delay plus the recent worker-side latency."""
        return self.fleet.cluster.replica_opts["max_delay"] + self.wait_ewma

    # ------------------------------------------------------------- requests
    def submit(self, kind: str, payload: tuple, deadline: Optional[float]) -> ProcessPendingResult:
        with self.lock:
            self._req_counter += 1
            handle = ProcessPendingResult(
                self, self._req_counter, (kind, payload, deadline)
            )
            self.outstanding[handle.req_id] = handle
            # a broken pipe only marks the link dead: the request stays
            # outstanding and the next poll() respawns the worker and replays
            self._send_request(handle)
        return handle

    def _send_request(self, handle: ProcessPendingResult) -> None:
        kind, payload, deadline = handle.request
        meta = {"req_id": handle.req_id}
        if deadline is not None:
            # remaining budget, re-derived on every (re)send
            meta["budget"] = deadline - self.fleet.cluster.clock()
        if kind == "rank":
            src, candidates, at_time = payload
            meta.update(src=src, at_time=at_time)
            arrays = {"candidates": candidates}
        else:
            arrays = dict(zip(("src", "dst", "times"), payload))
        self.send(kind, meta, arrays)

    def poll(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Collect finished requests; respawn the worker if it died
        (``until`` is accepted for the replica interface: nothing here
        computes a batch)."""
        resolved = self.pump(0.0)
        if self.dead:
            self.fleet.recover(self)
        return resolved

    def flush(self) -> int:
        return self.fleet.flush([self])

    # --------------------------------------------------------------- frames
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

    def pump(self, timeout: float = 0.0) -> int:
        """Dispatch any frames the worker sent; returns requests resolved.

        Results resolve their handles; everything else (acks, ready) lands
        in :attr:`acks` for whoever is waiting on it — concurrent pumpers
        (a waiting client, an in-flight ingest) can therefore never steal
        each other's frames.  EOF on a dead worker's pipe marks the link
        failed rather than raising: death is a recoverable condition here.
        """
        resolved = 0
        with self.lock:
            while True:
                try:
                    if not self.channel.poll(timeout):
                        return resolved
                    frame = self.channel.recv(timeout=1.0)
                except (TransportError, OSError):
                    self.failed = True
                    return resolved
                if frame.tag in ("result", "req_error"):
                    handle = self.outstanding.pop(frame.meta["req_id"], None)
                    if handle is not None:
                        self._resolve(handle, frame)
                        resolved += 1
                elif frame.tag == "error":
                    raise TransportError(
                        f"serve worker {self.index} failed: "
                        f"{frame.meta.get('error', 'unknown')}"
                    )
                else:
                    self.acks.setdefault(frame.tag, []).append(dict(frame.meta))
                timeout = 0.0  # only the first poll blocks

    def _resolve(self, handle: ProcessPendingResult, frame) -> None:
        if frame.tag == "result":
            handle._value = frame.array("scores")
            latency = float(frame.meta["latency"])
            self.wait_ewma = (
                latency if self.wait_ewma == 0.0
                else 0.8 * self.wait_ewma + 0.2 * latency
            )
        else:
            kind = frame.meta.get("kind")
            handle._error = _ERROR_KINDS.get(kind, RuntimeError)(
                frame.meta.get("error", "request failed")
            )
            handle.cancelled = kind == RequestCancelled.__name__
        handle.completed_at = self.fleet.cluster.clock()
        handle.done = True

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


class ProcessFleet:
    """``k`` worker processes over one shared serving state — the fleet
    interface of :class:`repro.serve.cluster.ThreadFleet`, plus death.

    Built by ``Session.serve(process_replicas=True)`` as
    ``ServingCluster(..., fleet=partial(ProcessFleet, config=cfg))``.
    """

    def __init__(
        self,
        cluster,
        k: int,
        *,
        config: ExperimentConfig,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.cluster = cluster
        self.timeout = timeout
        self.lock = threading.RLock()   # one control exchange at a time
        self.closed = False
        graph, model = cluster.graph, cluster.model
        # events the workers' config-rebuilt serve graphs start with; the
        # parent graph tail past this point is what a freshly spawned
        # worker replays to catch up (it outlives WAL truncation)
        self._base_events = graph.num_events
        self._ctx = mp.get_context("spawn")
        self._spawned: List[ProcessReplica] = []   # every replica, for close()
        self._procs: List = []                     # every process, for close()
        (self._state,) = create_group_states(
            1,
            num_nodes=graph.num_nodes,
            memory_dim=model.config.memory_dim,
            edge_dim=graph.edge_dim,
            name_prefix="repro-serve",
        )
        # spawn arguments travel through the multiprocessing pickler, so
        # the weight blobs ride along as plain bytes (frames are for live
        # traffic); swap() updates them so respawns and added replicas
        # always start on the current model version
        self._model_blob = model.to_bytes()
        self._decoder_blob = cluster.decoder.to_bytes()
        self._static_table = (
            model._static_table.copy() if model.has_static_memory else None
        )
        self._config_dict = config.to_dict()
        self.replicas: List[ProcessReplica] = []
        try:
            for _ in range(k):
                self.replicas.append(self.spawn())
        except BaseException:
            # a half-built fleet must not strand processes or the segment
            self.close()
            raise

    # ------------------------------------------------------------- spawning
    def spawn(self) -> ProcessReplica:
        """One more reader of the shared segment: its serving state is
        correct by construction, its private graph catches up from the
        parent's copy, and it starts on the current model version."""
        replica = ProcessReplica(self, len(self.replicas))
        self._start(replica)
        self._spawned.append(replica)
        return replica

    def _start(self, replica: ProcessReplica, *, clear_failpoints: bool = False) -> None:
        """Start a worker process behind ``replica``, wait for its
        ``ready`` frame and replay the parent graph's post-construction
        tail into its private graph."""
        parent_ch, child_ch = pipe_channel_pair(self.timeout)
        kwargs = {
            "config_dict": self._config_dict,
            "shared_spec": self._state.spec.to_dict(),
            "serve_meta": {
                **self.cluster.replica_opts,
                "_model_blob": self._model_blob,
                "_decoder_blob": self._decoder_blob,
                "_static_table": self._static_table,
            },
            "clear_failpoints": clear_failpoints,
        }
        proc = self._ctx.Process(
            target=_worker_shell,
            args=(serve_worker, replica.index, child_ch, kwargs),
            name=f"repro-serve-{replica.index}",
            daemon=True,
        )
        proc.start()
        child_ch.close()
        self._procs.append(proc)
        replica.channel, replica.proc, replica.failed = parent_ch, proc, False
        replica.acks.clear()
        graph, base = self.cluster.graph, self._base_events
        try:
            replica.await_ack("ready", self.timeout)
            if graph.num_events > base:
                feats = graph.edge_feats
                tail = _event_arrays(
                    graph.src[base:], graph.dst[base:], graph.timestamps[base:],
                    None if feats is None else feats[base:],
                )
                replica.send("fold", {"fold_state": False}, tail)
                replica.await_ack("fold_ack", self.timeout)
        except BaseException:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            replica.close()
            raise

    def retire(self, replica: ProcessReplica) -> None:
        """Stop a drained worker; it is reaped at :meth:`close` so a
        scale-down never blocks on the worker's exit."""
        replica.send("stop")

    # ------------------------------------------------------------- recovery
    def recover(self, replica: ProcessReplica) -> None:
        """Respawn ``replica``'s worker in place and replay its
        outstanding requests (see the module docstring for why the replay
        is invisible).  No-op if another thread already healed it."""
        with self.lock, replica.lock:
            if self.closed or not replica.dead:
                return
            replica.proc.join(timeout=5.0)
            if replica.proc.is_alive():  # pipe broke under a wedged worker
                replica.proc.terminate()
            replica.close()
            self._start(replica, clear_failpoints=True)
            for _, handle in sorted(replica.outstanding.items()):
                replica._send_request(handle)
        self.cluster.stats.recoveries += 1
        get_registry().counter("serve/replica_recoveries").add()

    def _round(
        self,
        replicas: List[ProcessReplica],
        tag: str,
        meta: Optional[dict] = None,
        arrays: Optional[dict] = None,
        *,
        leader_meta: Optional[dict] = None,
    ) -> List[dict]:
        """One control exchange: send ``tag`` to every replica, then collect
        each ``{tag}_ack``.  A worker that died is recovered in place and
        the frame re-sent once (every control frame is idempotent on a
        fresh worker).  ``leader_meta`` replaces ``meta`` for
        ``replicas[0]`` and marks its frame unreplayable — the fold leader
        mid-state-fold — so its death propagates."""
        if self.closed:
            raise RuntimeError("serving cluster already shut down")
        replicas = list(replicas)  # a scale-down must not shift it mid-round
        leader = replicas[0] if leader_meta is not None else None
        with self.lock:
            for rep in replicas:
                rep.send(tag, leader_meta if rep is leader else meta, arrays)
            acks = []
            for rep in replicas:
                try:
                    acks.append(rep.await_ack(f"{tag}_ack", self.timeout))
                except TransportError:
                    if rep is leader or not rep.dead:
                        raise
                    self.recover(rep)
                    rep.send(tag, meta, arrays)
                    acks.append(rep.await_ack(f"{tag}_ack", self.timeout))
            return acks

    # ------------------------------------------------------ fleet interface
    def fold(self, src, dst, times, feats, *, state: bool = True) -> None:
        """Two-phase broadcast of one event batch (``state=False``:
        structure only).  A non-leader replica that dies mid-fold is
        recovered in place: its catch-up replays through the parent graph,
        then this batch is re-sent structure-only."""
        arrays = _event_arrays(src, dst, times, feats)
        replicas = list(self.replicas)
        with self.lock, ExitStack() as submits:
            for rep in replicas:
                submits.enter_context(rep.lock)
            self._round(replicas, "drain")
            self._round(
                replicas, "fold", {"fold_state": False}, arrays,
                leader_meta={"fold_state": True} if state else None,
            )

    def swap(self, model_blob: bytes, decoder_blob: Optional[bytes], version: int) -> None:
        # templates first: a slot recovered mid-swap respawns from the
        # already-updated blobs, and the re-sent swap is idempotent
        self._model_blob = bytes(model_blob)
        arrays = {"model_blob": np.frombuffer(self._model_blob, dtype=np.uint8)}
        if decoder_blob is not None:
            self._decoder_blob = bytes(decoder_blob)
            arrays["decoder_blob"] = np.frombuffer(self._decoder_blob, dtype=np.uint8)
        self._round(self.replicas, "swap", {"version": version}, arrays)

    def states(self) -> list:
        # quiesce queued reads so no micro-batch flush touches the shared
        # state while it is being serialized
        self._round(self.replicas, "drain")
        return [(self._state.memory, self._state.mailbox)] * len(self.replicas)

    def load_states(self, replica_arrays: List[dict]) -> None:
        # every replica reads the one segment: slot 0's arrays are the state
        load_state(self._state.memory, self._state.mailbox, replica_arrays[0])

    def flush(self, replicas: List[ProcessReplica]) -> int:
        # results precede their worker's flush_ack on the pipe, so every
        # flushed request is resolved by the time the round returns
        return sum(ack["flushed"] for ack in self._round(replicas, "flush"))

    def worker_stats(self) -> List[dict]:
        return self._round(self.replicas, "stats")

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the workers, release the shared segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        try:
            for replica in self._spawned:
                replica.send("stop")
            deadline = time.monotonic() + min(self.timeout, 60.0)
            for proc in self._procs:
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
        finally:
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
                    if proc.is_alive():  # pragma: no cover - last resort
                        proc.kill()
                        proc.join(timeout=5.0)
            for replica in self._spawned:
                replica.close()
            self._state.close()
            self._state.unlink()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass
