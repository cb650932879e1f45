"""Fit orchestration: one supervisor over two spawners.

:func:`run_process_fit` (and :func:`~repro.runtime.fabric.run_fabric_fit`
over the same :func:`_run_fit`) executes a config across real OS
processes, **continuing** from a local trainer's state: it allocates the
shared-memory segments (live node state per memory group, double-buffered
shadow slots, one :class:`~repro.runtime.sharedmem.CommitSlab` holding the
sealed initial commit), runs the fleet of
:func:`~repro.runtime.worker.run_rank` ranks under the
:class:`Supervisor`, and folds rank 0's result plus the final shared state
back into a :class:`~repro.train.distributed.TrainResult` the Session
applies to its local trainer.

The :class:`Supervisor` is the parent half of the rank loop's
commit / park / rollback protocol, and exists once.  Every rank has a
control :class:`~repro.runtime.transport.Channel` carrying ``result``,
``error`` (with the remote traceback) and ``parked`` frames up and
``resume`` / ``abort`` down; every failure mode becomes either a recovery
or one raised :class:`WorkerFailure`, never a hang:

* a rank raises → its traceback travels back in the error frame;
* a rank dies without a frame (segfault, ``kill -9``, a lost machine) →
  its spawner reports the death;
* a rank wedges → its peers park on their collective timeout, and after
  ``RecoveryPolicy.grace`` the supervisor kills the straggler;
* the whole fit overruns ``timeout`` → the fleet is torn down and the
  timeout is reported.

**Recovery** (:class:`RecoveryPolicy`): once every rank is parked, dead or
done, the supervisor restores the live segments from the last sealed
commit's shadow slots, resumes the parked ranks on the next generation,
has the spawner respawn the dead ones (failpoints neutralized) and wire
that generation, and the fleet rolls back to the sealed block boundary and
re-executes.  Commits are barrier-guarded and double-buffered, so the
rollback target is always a complete consistent state, and every backend
executes bit-exact arithmetic, so a recovered run finishes **bitwise
identical** to an unfaulted one.  If the sealed commit already covers the
iteration plan the fault landed in the *finalization window*: done ranks
stay done and the rest replay finalization from the seal with no
collectives and no new generation.  Restarts are counted per **episode** —
every recovery that rolls back to the same sealed commit (a second rank
dying while the first rollback re-executes, a fault inside recovery
itself, a finalization replay) is one failure event — and bounded by
``max_restarts``; past the budget the run raises :class:`WorkerFailure`.

What genuinely differs between backends lives in a **spawner** — start or
kill a rank, obtain its control channel, observe its death, wire a
generation's communicators:

* :class:`LocalSpawner` (``backend="process"``) — ``i×k`` ``spawn``-method
  children of this process over duplex pipes, death observed through
  process sentinels, ``max_restarts + 3`` communicator generations
  pre-wired over pipes and handed to each rank with its spawn arguments.
* :class:`~repro.runtime.fabric.launcher.AgentSpawner`
  (``backend="fabric"``) — ``i×j×k`` ranks started by host agents joined
  over a TCP rendezvous, death observed through agent reports, heartbeats
  and channel EOF, each generation wired peer-to-peer from a link plan.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs import get_registry
from ..obs.merge import merge_trace_dir
from ..obs.trace import Tracer, resolve_trace_dir
from ..testing import failpoints
from ..utils.fingerprint import pin_blas_threads
from .collectives import (
    Communicator,
    make_local_communicators,
    make_topology_communicators,
)
from .sharedmem import (
    CommitSlab,
    SharedGroupState,
    create_group_states,
    destroy_states,
)
from .transport import (
    Channel,
    Frame,
    TransportError,
    decode_frame,
    encode_frame,
    pipe_channel_pair,
)

DEFAULT_TIMEOUT = 600.0


class WorkerFailure(RuntimeError):
    """One or more ranks failed; carries per-rank diagnostics."""

    def __init__(self, failures: Dict[int, str]) -> None:
        self.failures = dict(failures)
        detail = "\n".join(
            f"--- rank {rank} ---\n{msg}" for rank, msg in sorted(failures.items())
        )
        super().__init__(f"{len(failures)} worker(s) failed:\n{detail}")


def _worker_shell(target: Callable, rank: int, channel: Channel, kwargs: dict) -> None:
    """Child-side wrapper: run the target, report result or failure.

    Every spawned rank and serving replica runs at one BLAS thread unless
    the caller set a thread count in the environment
    (:func:`repro.utils.fingerprint.pin_blas_threads`).
    """
    pin_blas_threads()
    try:
        meta, arrays = target(rank, channel, **kwargs)
        channel.send("result", meta=meta or {}, arrays=arrays or {})
    except BaseException:  # noqa: BLE001 - every failure must reach the parent
        try:
            channel.send("error", meta={"error": traceback.format_exc()})
        except Exception:
            pass  # parent still sees the nonzero exit code
        raise SystemExit(1)


# ----------------------------------------------------------- commit codec
def snapshot_trainer_state(trainer) -> dict:
    """The resumable half of a trainer: weights, optimizer, cursors.

    This is what makes a process fit *continue* the session exactly like a
    local fit would — a freshly-built worker loads this plus the shared
    memory segments and is indistinguishable from the parent's trainer.
    Node memory/mailbox contents travel separately (they are copied into
    the shared segments, not serialized twice).
    """
    m_arrs, v_arrs, opt_step = trainer.optimizer.state_arrays()
    arrays = {
        "model": np.frombuffer(trainer.model.to_bytes(), dtype=np.uint8),
        "decoder": np.frombuffer(trainer.decoder.to_bytes(), dtype=np.uint8),
    }
    for idx, (mi, vi) in enumerate(zip(m_arrs, v_arrs)):
        arrays[f"opt/m{idx}"] = mi.copy()
        arrays[f"opt/v{idx}"] = vi.copy()
    meta = {
        "opt_step": opt_step,
        "iteration": trainer._iteration,
        "sweep_negative_offset": trainer._sweep_negative_offset,
        "groups": [
            {
                "index": g.index,
                "position": g.position,
                "prev_batch": g.prev_batch,
                "sweeps_completed": g.sweeps_completed,
            }
            for g in trainer.groups
        ],
    }
    return {"meta": meta, "arrays": arrays}


def load_trainer_state(trainer, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Inverse of :func:`snapshot_trainer_state` (weights/optimizer/cursors)."""
    trainer.model.from_bytes(arrays["model"].tobytes())
    trainer.decoder.from_bytes(arrays["decoder"].tobytes())
    m_arrs, v_arrs, _ = trainer.optimizer.state_arrays()
    for idx, (mi, vi) in enumerate(zip(m_arrs, v_arrs)):
        mi[...] = arrays[f"opt/m{idx}"]
        vi[...] = arrays[f"opt/v{idx}"]
    trainer.optimizer._step = int(meta["opt_step"])
    for g, cursor in zip(trainer.groups, meta["groups"]):
        g.position = int(cursor["position"])
        g.prev_batch = int(cursor["prev_batch"])
        g.sweeps_completed = int(cursor["sweeps_completed"])
    trainer._iteration = int(meta["iteration"])
    trainer._sweep_negative_offset = int(meta["sweep_negative_offset"])


def encode_commit(trainer, book: dict) -> bytes:
    """Serialize the whole resumable run (trainer snapshot + loop
    bookkeeping) into one commit-slab payload."""
    snap = snapshot_trainer_state(trainer)
    return encode_frame(
        Frame("commit", meta={**snap["meta"], "book": book}, arrays=snap["arrays"])
    )


def decode_commit(payload: bytes) -> Tuple[dict, Dict[str, np.ndarray], dict]:
    """Inverse of :func:`encode_commit` → ``(trainer_meta, arrays, book)``."""
    frame = decode_frame(payload)
    meta = dict(frame.meta)
    book = meta.pop("book")
    return meta, frame.arrays, book


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a process fit responds to rank failures.

    ``max_restarts``
        Recovery attempts before the run gives up and raises
        :class:`WorkerFailure` (0 = fail on the first fault, the pre-
        elastic behavior).
    ``collective_timeout``
        Per-operation deadline on the worker collectives; it bounds both
        how long a survivor waits on a dead peer before parking and the
        longest legitimate wait (rank 0's evaluation at a barrier), so it
        must exceed one evaluation sweep.
    ``commit_every``
        Commit cadence in block boundaries (1 = every block): smaller
        loses less work per rollback, larger pays fewer commit barriers.
    ``park_grace``
        How long the supervisor waits for survivors to park (and for a
        suspected-wedged rank to show life) before killing stragglers;
        default ``collective_timeout + 15``.
    """

    max_restarts: int = 2
    collective_timeout: float = 120.0
    commit_every: int = 1
    park_grace: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.collective_timeout <= 0:
            raise ValueError("collective_timeout must be positive")
        if self.commit_every < 1:
            raise ValueError("commit_every must be >= 1")

    @property
    def grace(self) -> float:
        return (
            self.park_grace
            if self.park_grace is not None
            else self.collective_timeout + 15.0
        )


def prepare_recovery_state(
    config, trainer, *, book: Optional[dict] = None, name_prefix: str = "repro-rt"
) -> Tuple[CommitSlab, List[List[SharedGroupState]], dict]:
    """Allocate the commit slab + per-group shadow slot pairs and seal the
    initial commit (slot 0 = the parent trainer's current state).

    Returns ``(slab, shadow_pairs, shadow_specs)`` where ``shadow_pairs[g]``
    is group ``g``'s ``[slot0, slot1]`` states and ``shadow_specs`` is the
    wire description workers attach from.  The caller owns everything and
    must close + unlink it (``run_process_fit`` does).
    """
    graph = trainer.graph
    plan = config.parallel
    slot_states: List[List[SharedGroupState]] = []
    slab: Optional[CommitSlab] = None
    try:
        for slot in range(2):
            slot_states.append(
                create_group_states(
                    plan.k,
                    num_nodes=graph.num_nodes,
                    memory_dim=config.model.memory_dim,
                    edge_dim=graph.edge_dim,
                    comb=config.train.comb,
                    name_prefix=f"{name_prefix}-shd{slot}",
                )
            )
        # slot 0 backs the initial commit: it must hold the starting memory
        for st, g in zip(slot_states[0], trainer.groups):
            st.memory.copy_from(g.memory)
            st.mailbox.copy_from(g.mailbox)
        from .worker import initial_book

        payload = encode_commit(trainer, book if book is not None else initial_book())
        token = np.random.SeedSequence().entropy % (1 << 32)
        slab = CommitSlab(
            f"{name_prefix}-{token:08x}-commit",
            capacity=len(payload) + max(1 << 20, len(payload)),
            create=True,
        )
        slab.write(0, payload)
        slab.seal(0, trainer._iteration)
    except BaseException:
        for states in slot_states:
            destroy_states(states)
        if slab is not None:
            slab.close()
            slab.unlink()
        raise
    shadow_pairs = [
        [slot_states[0][g], slot_states[1][g]] for g in range(plan.k)
    ]
    shadow_specs = [
        [pair[0].spec.to_dict(), pair[1].spec.to_dict()] for pair in shadow_pairs
    ]
    return slab, shadow_pairs, shadow_specs


class SlabCheckpointer:
    """Parent-side periodic checkpoint export from the sealed commit slab.

    The local backend checkpoints from inside the training loop
    (``Session._checkpoint_callback``); the process and fabric backends
    cannot — the trainer lives in the workers.  But every ``commit_every``
    blocks the fleet seals a complete resumable state into the commit slab
    + shadow segments, and the parent can read both.  This exporter turns
    the latest sealed commit into exactly the artifacts the local backend
    writes — ``config.json`` once, then ``checkpoint.npz`` + ``resume.json``
    via write-to-temp + rename, checkpoint first — so ``Session.resume``
    is backend-agnostic and a resumed process/fabric fit equals an
    uninterrupted one bitwise.

    Export is torn-read safe without stalling the fleet: the sealed slot is
    copied optimistically, then the slab header is re-read — commits only
    move forward, so *any* concurrent seal changes the header and the copy
    is discarded until the next supervise-loop tick.
    """

    def __init__(
        self,
        *,
        directory,
        config,
        trainer,
        slab: CommitSlab,
        shadow_pairs: List[List[SharedGroupState]],
        target_iteration: int,
        start_iteration: int,
        every: int,
    ) -> None:
        self.directory = Path(directory)
        self.slab = slab
        self.shadow_pairs = shadow_pairs
        self.target_iteration = int(target_iteration)
        self.start_iteration = int(start_iteration)
        self.every = max(1, int(every))
        # one block advances the global iteration by j (the j sub-steps of
        # a block are iterations); cadence counts block boundaries, like
        # the local backend's on_block_boundary callback
        self.iterations_per_block = max(1, int(config.parallel.j))
        self.marks = 0                 # cadence marks already exported
        self.last_exported = int(start_iteration)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / "config.json").write_text(config.to_json() + "\n")
        # static metadata the slab payload does not carry (the checkpoint
        # layout is train.checkpoint's format 2, byte-compatible)
        self.base_meta = {
            "format_version": 2,
            "config": config.parallel.label(),
            "machines": config.parallel.machines,
            "dataset": trainer.dataset.name,
            "task": trainer.dataset.task,
            "rank_rng": trainer.rank_rng.bit_generator.state,
        }

    def tick(self) -> None:
        """Export the latest sealed commit if a cadence mark is due."""
        slot, sealed = self.slab.header
        if sealed < 0 or int(sealed) <= self.last_exported:
            return
        blocks = (int(sealed) - self.start_iteration) // self.iterations_per_block
        due = blocks // self.every
        if due <= self.marks:
            return
        meta, arrays, book = decode_commit(self.slab.read())
        groups: Dict[str, np.ndarray] = {}
        for g, pair in enumerate(self.shadow_pairs):
            st = pair[slot]
            groups[f"group{g}/memory"] = np.array(st.memory.memory, copy=True)
            groups[f"group{g}/last_update"] = np.array(
                st.memory.last_update, copy=True
            )
            groups[f"group{g}/mail"] = np.array(st.mailbox.mail, copy=True)
            groups[f"group{g}/mail_time"] = np.array(st.mailbox.mail_time, copy=True)
            groups[f"group{g}/has_mail"] = np.array(st.mailbox.has_mail, copy=True)
        if tuple(self.slab.header) != (slot, sealed) or int(
            meta["iteration"]
        ) != int(sealed):
            return  # a commit raced the copy; pick it up next tick
        ckpt: Dict[str, np.ndarray] = {
            "meta/json": np.frombuffer(
                json.dumps(
                    {
                        **self.base_meta,
                        "iteration": int(meta["iteration"]),
                        "sweep_negative_offset": int(
                            meta["sweep_negative_offset"]
                        ),
                    }
                ).encode("utf-8"),
                dtype=np.uint8,
            ),
            "model/blob": arrays["model"],
            "decoder/blob": arrays["decoder"],
            "opt/step": np.array([int(meta["opt_step"])], dtype=np.int64),
        }
        idx = 0
        while f"opt/m{idx}" in arrays:
            ckpt[f"opt/m{idx}"] = arrays[f"opt/m{idx}"]
            ckpt[f"opt/v{idx}"] = arrays[f"opt/v{idx}"]
            idx += 1
        for cursor in meta["groups"]:
            ckpt[f"group{cursor['index']}/cursor"] = np.array(
                [
                    cursor["position"],
                    cursor["prev_batch"],
                    cursor["sweeps_completed"],
                ],
                dtype=np.int64,
            )
        ckpt.update(groups)
        tmp_ckpt = self.directory / "checkpoint.tmp.npz"
        np.savez_compressed(tmp_ckpt, **ckpt)
        tmp_ckpt.replace(self.directory / "checkpoint.npz")
        state = {
            "target_iteration": self.target_iteration,
            "history": book["history"],
            "recent": book["recent"],
            "last_eval_sweeps": book["last_eval_sweeps"],
            "iteration": int(meta["iteration"]),
        }
        tmp_json = self.directory / "resume.json.tmp"
        tmp_json.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n")
        tmp_json.replace(self.directory / "resume.json")
        self.marks = due
        self.last_exported = int(sealed)


class Supervisor:
    """Parent-side fleet supervisor with rollback recovery (see the module
    docstring for the protocol; a spawner supplies the mechanics).

    A spawner provides ``start(sup)`` (bring up the initial fleet),
    ``spawn(rank)`` (start a replacement from ``sup.spawn_bundle()``),
    ``kill(rank)``, ``wire(deadline, finalize)`` (make the current
    generation's fleet reachable and, unless finalizing, connected),
    ``pump(timeout)`` (wait for events and feed them to :meth:`drain` /
    :meth:`mark_dead`), ``close(kill)`` (idempotent teardown), ``world``
    (its rank count — where ``j`` runs is the spawner's fixed layout),
    ``chans`` (rank → control channel) and ``generations`` (pre-wired
    generation count, ``None`` when generations are wired on demand).
    """

    def __init__(
        self,
        *,
        spawner,
        bundle: dict,
        slab: CommitSlab,
        shadow_pairs: List[List[SharedGroupState]],
        live_states: List[SharedGroupState],
        policy: RecoveryPolicy,
        timeout: float,
        tracer: Optional[Tracer] = None,
        checkpointer: Optional[SlabCheckpointer] = None,
    ) -> None:
        self.spawner = spawner
        self.world = world = spawner.world
        self.bundle = bundle
        self.slab = slab
        self.shadow_pairs = shadow_pairs
        self.live_states = live_states
        self.policy = policy
        self.timeout = timeout
        self.tracer = tracer              # supervisor lane of the run trace
        self.checkpointer = checkpointer
        # the iteration plan's absolute target: a sealed commit at (or
        # past) it means faults land in the finalization window
        self.target_iteration = int(bundle["train_meta"]["target_iteration"])
        # running | parked | dead | done ("dead" also covers not-yet-started)
        self.status: Dict[int, str] = {rank: "dead" for rank in range(world)}
        self.diags: Dict[int, str] = {}
        self.park_iters: Dict[int, int] = {}  # iteration each rank parked at
        self.results: Dict[int, Frame] = {}
        self.generation = 0
        self.restarts = 0
        self._episode_seal: Optional[Tuple[int, int]] = None
        self._episode_retries = 0
        # once the fleet enters finalize recovery, every later spawn is a
        # finalize-only replay (the seal cannot move backwards)
        self._finalizing = False

    # ------------------------------------------------------------ telemetry
    def span(self, name: str, **args):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **args)

    def instant(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, **args)

    # ------------------------------------------------------- spawner-facing
    def spawn_bundle(self) -> dict:
        """The bundle for a rank started *now*: current generation,
        failpoints neutralized once any recovery has begun, finalize-only
        once the run is in finalize recovery."""
        return {
            **self.bundle,
            "generation": self.generation,
            "clear_failpoints": self.restarts > 0,
            "finalize_only": self._finalizing,
        }

    def drain(self, rank: int, ch: Channel) -> bool:
        """Dispatch whatever frames ``rank`` has sent (non-blocking);
        ``False`` once its channel is dead.  A rank already declared dead
        stays dead until respawned — a ``parked`` frame still in flight
        from a rank on a lost machine must not resurrect it."""
        try:
            while self.status[rank] in ("running", "parked") and ch.poll(0.0):
                frame = ch.recv(timeout=1.0)
                if frame.tag == "result":
                    self.results[rank] = frame
                    self.status[rank] = "done"
                elif frame.tag == "parked":
                    self.status[rank] = "parked"
                    self.diags.setdefault(
                        rank, f"parked: {frame.meta.get('error', 'peer failure')}"
                    )
                    if "iteration" in frame.meta:
                        self.park_iters[rank] = int(frame.meta["iteration"])
                elif frame.tag == "error":
                    self.diags[rank] = frame.meta.get("error", "unknown error")
        except TransportError:
            return False
        return True

    def mark_dead(self, rank: int, why: str) -> None:
        if self.status[rank] != "done":
            self.status[rank] = "dead"
            self.diags.setdefault(rank, why)

    def fail(self, default: str) -> None:
        failures = dict(self.diags)
        for rank, st in self.status.items():
            if st != "done":
                failures.setdefault(rank, default)
        raise WorkerFailure(failures or {0: default})

    # -------------------------------------------------------------- running
    def run(self) -> List[Frame]:
        """Supervise until every rank reports a result; recover (within the
        restart budget) from crashes, wedges, dropped links and lost
        machines.  The fleet is torn down on every way out."""
        deadline = time.monotonic() + self.timeout
        try:
            self.spawner.start(self)
            self.spawner.wire(deadline)
            self._monitor(deadline)
            self.spawner.close(kill=False)
        except BaseException:
            self.spawner.close(kill=True)
            raise
        return [self.results[r] for r in range(self.world)]

    def _monitor(self, deadline: float) -> None:
        park_deadline: Optional[float] = None
        while any(st != "done" for st in self.status.values()):
            if time.monotonic() > deadline:
                self.fail(f"no result within {self.timeout:.0f}s")
            self.spawner.pump(0.5)
            if self.checkpointer is not None:
                self.checkpointer.tick()
            if not any(st in ("parked", "dead") for st in self.status.values()):
                continue
            if park_deadline is None:
                park_deadline = time.monotonic() + self.policy.grace
            undecided = [r for r, st in self.status.items() if st == "running"]
            if undecided and time.monotonic() <= park_deadline:
                continue
            for rank in undecided:
                # stragglers are wedged (alive, not parked, not dead): kill
                # them so recovery can proceed
                self.diags.setdefault(
                    rank,
                    f"unresponsive for {self.policy.grace:.0f}s (wedged); killed",
                )
                self.spawner.kill(rank)
                self.status[rank] = "dead"
            self._recover_guarded()
            park_deadline = None

    def _recover_guarded(self) -> None:
        """Run one recovery attempt, folding *its own* failures back into
        the monitor loop instead of hanging or double-restoring.

        ``_recover`` is re-entrant: every mutation it performs (restoring
        live segments from the sealed slot, resuming parked ranks,
        respawning dead ones) is idempotent against a retry from the same
        sealed commit, and the episode accounting makes the retry free.  So
        a fault *inside* recovery — the ``supervisor.recover`` failpoint, a
        rank dying mid-rollback, an I/O error wiring a generation — leaves
        a state the next loop pass recognizes as still-troubled: ranks the
        aborted attempt already resumed or respawned park again on their
        collective timeout, the ones it never reached are still parked or
        dead, and either way the loop re-enters the same episode.
        """
        try:
            self._recover()
        except WorkerFailure:
            raise
        except Exception as exc:  # noqa: BLE001 - fold into the episode
            self.instant(
                "recover-fault", generation=self.generation, error=repr(exc)
            )
            if self.tracer is not None:
                self.tracer.flush()
            get_registry().counter("recovery/recover_faults").add()

    def _recover(self) -> None:
        """Roll the fleet back to the last sealed commit and resume it —
        or, when that commit already covers the whole iteration plan,
        replay finalization from it.

        The whole recovery is one ``rollback`` span on the supervisor lane
        (with per-rank ``respawn`` sub-spans) and a set of ``recovery/*``
        registry metrics, so a chaos run's recovery is auditable from the
        trace/metrics alone.
        """
        # the supervisor is not exempt from chaos: this site lets tests
        # land a fault inside recovery itself (the re-entrancy drill)
        failpoints.fire("supervisor.recover")
        registry = get_registry()
        slot, sealed = (int(x) for x in self.slab.header)
        if (slot, sealed) == self._episode_seal:
            # same rollback target as the previous recovery: a concurrent
            # fault within one episode — no fresh progress was lost, so it
            # consumes a bounded retry, not a restart
            self._episode_retries += 1
            if self._episode_retries > 8:
                self.fail("repeated faults within one recovery episode")
        else:
            self._episode_seal = (slot, sealed)
            self._episode_retries = 0
            self.restarts += 1
            registry.counter("recovery/restarts").add()
        if self.restarts > self.policy.max_restarts:
            self.fail("failed and restart budget exhausted")
        finalize = sealed >= self.target_iteration
        depth = 0
        if finalize:
            # the final commit (sealed just before the end barrier) holds
            # the complete end-of-run state and the window holds no
            # collectives a finished rank would be missed from: done ranks
            # stay done, nothing re-executes, no generation bump
            self._finalizing = True
            registry.counter("recovery/finalize_recoveries").add()
        else:
            if any(st == "done" for st in self.status.values()):
                # a rank only finishes past the end barrier, after the final
                # seal; reaching here means the slab went backwards — give
                # up loudly rather than diverge
                self.fail("fleet failed after some ranks completed")
            generations = self.spawner.generations
            if generations is not None and self.generation + 1 >= generations:
                self.fail("failed and communicator generations exhausted")
            self.generation += 1
            registry.gauge("recovery/generation").set(float(self.generation))
            # rollback depth: iterations of re-execution the fleet pays —
            # how far past the seal the furthest surviving rank had run
            depth = max(
                [it - sealed for it in self.park_iters.values()] + [0]
            )
        registry.gauge("recovery/rollback_depth").set(float(depth))
        dead = [r for r, st in self.status.items() if st == "dead"]
        try:
            with self.span(
                "rollback",
                generation=self.generation,
                restart=self.restarts,
                slot=slot,
                sealed_iteration=sealed,
                depth=depth,
                dead_ranks=dead,
                finalize=finalize,
            ):
                for live, pair in zip(self.live_states, self.shadow_pairs):
                    live.memory.copy_from(pair[slot].memory)
                    live.mailbox.copy_from(pair[slot].mailbox)
                for rank, st in self.status.items():
                    if st != "parked":
                        continue
                    try:
                        self.spawner.chans[rank].send(
                            "resume",
                            meta={"generation": self.generation, "finalize": finalize},
                        )
                        self.status[rank] = "running"
                    except TransportError:
                        # parked rank died in the meantime: respawn it too
                        self.mark_dead(rank, "died while parked")
                        dead.append(rank)
                t0 = time.perf_counter()
                for rank in dead:
                    with self.span("respawn", rank=rank, generation=self.generation):
                        self.spawner.spawn(rank)
                self.spawner.wire(
                    time.monotonic() + self.policy.grace + 60.0, finalize
                )
                if dead:
                    registry.counter("recovery/respawns").add(len(dead))
                    registry.histogram("recovery/respawn_latency_s").record(
                        time.perf_counter() - t0
                    )
        finally:
            if self.tracer is not None:
                self.tracer.flush()
        self.park_iters.clear()


def _wire_local(plan, topology: str, timeout: float) -> list:
    """One pipe-wired generation: a ``RankComms`` per ``i×k`` rank.  The
    group's ``i`` shards form the row, the slot is the trivial world of
    one (the rank owns all ``j`` rows), and the gradient allreduce rides
    the world star itself or a dedicated ring/tree communicator — all
    three reduce in rank order, so the topology only changes who moves
    the bytes."""
    from .fabric.wire import RankComms

    world = make_local_communicators(plan.i * plan.k, default_timeout=timeout)
    rows: List[Communicator] = []
    for _ in range(plan.k):
        rows.extend(make_local_communicators(plan.i, default_timeout=timeout))
    leaders = (
        world
        if topology == "star"
        else make_topology_communicators(topology, plan.i * plan.k, timeout)
    )
    return [
        RankComms(world=w, row=r, slot=Communicator(0, 1), leader=lead)
        for w, r, lead in zip(world, rows, leaders)
    ]


def _local_rank(rank: int, channel: Channel, *, bundle: dict, comms: dict):
    """A local rank's seat: all ``j`` rows in-rank, generations pre-wired."""
    from .worker import run_rank

    return run_rank(rank, channel, bundle, fanout=False, connect=comms.__getitem__)


class LocalSpawner:
    """``spawn``-method children of this process, wired over pipes.

    Children rebuild state from their arguments rather than inheriting an
    address space, matching the runtime's "reconstruct from config"
    contract.  Communicator generations cannot be created after the fact
    (a running rank cannot be handed new pipe ends), so ``max_restarts + 3``
    of them — one per counted restart plus headroom for the same-episode
    retries that do not consume the budget — are wired up front and every
    rank receives its ends of all generations still ahead.
    """

    def __init__(self, plan, topology: str) -> None:
        self.plan = plan
        self.topology = topology
        self.world = plan.i * plan.k
        self.generations = 0              # set from the policy at start
        self.ctx = mp.get_context("spawn")
        self.gens: Dict[int, list] = {}   # generation → parent-side pipe ends
        self.procs: Dict[int, mp.Process] = {}
        self.chans: Dict[int, Channel] = {}
        self.reaped: set = set()

    def start(self, sup: Supervisor) -> None:
        self.sup = sup
        self.generations = sup.policy.max_restarts + 3
        for generation in range(self.generations):
            self.gens[generation] = _wire_local(
                self.plan, self.topology, sup.policy.collective_timeout
            )
        for rank in range(self.world):
            self.spawn(rank)

    def spawn(self, rank: int) -> None:
        old = self.chans.pop(rank, None)
        if old is not None:
            old.close()
        parent_ch, child_ch = pipe_channel_pair(self.sup.timeout)
        kwargs = {
            "bundle": self.sup.spawn_bundle(),
            "comms": {g: comms[rank] for g, comms in self.gens.items()},
        }
        proc = self.ctx.Process(
            target=_worker_shell,
            args=(_local_rank, rank, child_ch, kwargs),
            name=f"repro-rt-{rank}g{self.sup.generation}",
            daemon=True,
        )
        proc.start()
        child_ch.close()
        self.procs[rank] = proc
        self.chans[rank] = parent_ch
        self.reaped.discard(rank)
        self.sup.status[rank] = "running"

    def wire(self, deadline: float, finalize: bool = False) -> None:
        """The current generation's ranks all hold their pipe ends now, so
        drop the parent's duplicates: while they stay open a SIGKILLed
        rank's pipes never EOF and its peers park by timeout, not at once."""
        if not finalize:
            for comms in self.gens.pop(self.sup.generation):
                comms.close()

    def kill(self, rank: int) -> None:
        proc = self.procs.get(rank)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)

    def pump(self, timeout: float) -> None:
        sup = self.sup
        waitables = {}
        for rank, st in sup.status.items():
            if st in ("running", "parked"):
                waitables[self.chans[rank].endpoint.conn] = ("chan", rank)
            # a dead process's sentinel stays readable until reaped — that
            # readiness IS the death notification, so keep watching it even
            # when is_alive() already returns False
            if st != "done" and rank not in self.reaped:
                waitables[self.procs[rank].sentinel] = ("proc", rank)
        for obj in mp.connection.wait(list(waitables), timeout=timeout):
            kind, rank = waitables[obj]
            # EOF on a dead rank's pipe is not a verdict; the sentinel decides
            sup.drain(rank, self.chans[rank])
            if kind == "proc":
                self.procs[rank].join(timeout=0.1)
                self.reaped.add(rank)
                sup.mark_dead(rank, f"exited with code {self.procs[rank].exitcode}")

    def close(self, kill: bool) -> None:
        if kill:
            for rank in self.procs:
                self.kill(rank)
        for proc in self.procs.values():
            proc.join(timeout=5.0)
        for ch in self.chans.values():
            ch.close()
        while self.gens:
            for comms in self.gens.popitem()[1]:
                comms.close()


def _run_fit(
    config,
    trainer,
    spawner,
    *,
    epochs: Optional[int] = None,
    max_iterations: Optional[int] = None,
    eval_every_sweeps: int = 1,
    verbose: bool = False,
    timeout: float = DEFAULT_TIMEOUT,
    recovery: Optional[RecoveryPolicy] = None,
    run_state: Optional[dict] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
) -> Tuple[dict, Dict[str, np.ndarray], List[SharedGroupState]]:
    """The fit every multi-process backend runs: iteration plan, tracer,
    shared segments + commit slab, supervised fleet, teardown.  The
    backend contributes its ``spawner``."""
    from .worker import initial_book

    policy = recovery if recovery is not None else RecoveryPolicy()
    plan = config.parallel
    graph = trainer.graph
    world = spawner.world

    # ---- iteration plan (the logical trainer's fairness arithmetic): one
    # absolute target, identical for fresh runs, continues and rollbacks
    if run_state is not None:
        target_iteration = int(run_state["target_iteration"])
        book = {
            "history": list(run_state["history"]),
            "recent": list(run_state["recent"]),
            "last_eval_sweeps": int(run_state["last_eval_sweeps"]),
        }
    else:
        epochs_eq = epochs if epochs is not None else config.train.epochs
        total_batch_visits = epochs_eq * trainer.num_batches
        iterations = max(1, total_batch_visits // (plan.j * plan.k))
        if max_iterations is not None:
            iterations = min(iterations, int(max_iterations))
        target_iteration = trainer._iteration + iterations
        book = initial_book()

    # telemetry: resolve the trace directory once (env beats config) and
    # ship it to every rank; the supervisor gets its own lane so recovery
    # spans interleave with rank spans on the merged timeline
    trace_dir = resolve_trace_dir(config)
    tracer: Optional[Tracer] = None
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        tracer = Tracer(
            rank=world,
            lane="supervisor",
            path=Path(trace_dir) / "trace-supervisor.jsonl",
        )
        # a lifecycle mark so the supervisor lane exists on the merged
        # timeline even for runs that never needed a recovery
        tracer.instant("launch", world=world, machines=plan.machines)

    group_states = create_group_states(
        plan.k,
        num_nodes=graph.num_nodes,
        memory_dim=config.model.memory_dim,
        edge_dim=graph.edge_dim,
        comb=config.train.comb,
    )
    slab: Optional[CommitSlab] = None
    shadow_pairs: List[List[SharedGroupState]] = []
    try:
        # continue from the parent's node memory, not from zero state
        for st, g in zip(group_states, trainer.groups):
            st.memory.copy_from(g.memory)
            st.mailbox.copy_from(g.mailbox)
        slab, shadow_pairs, shadow_specs = prepare_recovery_state(
            config, trainer, book=book
        )
        train_meta = {
            "target_iteration": target_iteration,
            "eval_every_sweeps": eval_every_sweeps,
            "verbose": verbose,
            "commit_every": policy.commit_every,
        }
        if trace_dir is not None:
            train_meta["trace_dir"] = str(trace_dir)
        # the spawn bundle: everything a rank needs to rebuild its slice —
        # names and plain data only, so it travels as JSON to a host agent
        bundle = {
            "config_dict": config.to_dict(),
            "shared_specs": [st.spec.to_dict() for st in group_states],
            "commit_spec": slab.to_dict(),
            "shadow_specs": shadow_specs,
            "train_meta": train_meta,
            "collective_timeout": policy.collective_timeout,
            "timeout": timeout,
        }
        checkpointer: Optional[SlabCheckpointer] = None
        if checkpoint_dir is not None:
            checkpointer = SlabCheckpointer(
                directory=checkpoint_dir,
                config=config,
                trainer=trainer,
                slab=slab,
                shadow_pairs=shadow_pairs,
                target_iteration=target_iteration,
                start_iteration=trainer._iteration,
                every=checkpoint_every,
            )
        results = Supervisor(
            spawner=spawner,
            bundle=bundle,
            slab=slab,
            shadow_pairs=shadow_pairs,
            live_states=group_states,
            policy=policy,
            timeout=timeout,
            tracer=tracer,
            checkpointer=checkpointer,
        ).run()
    except BaseException:
        destroy_states(group_states)
        raise
    finally:
        for pair in shadow_pairs:
            destroy_states(pair)
        if slab is not None:
            slab.close()
            slab.unlink()
        if tracer is not None:
            # always leave a merged timeline — a failed chaos run's partial
            # traces are exactly when you want one.  Best effort: telemetry
            # must never turn a completed fit into a failure.
            try:
                tracer.instant("join")
                tracer.flush()
                merge_trace_dir(trace_dir)
            except Exception:  # pragma: no cover - defensive
                pass
    root = results[0]
    return root.meta, root.arrays, group_states


def run_process_fit(
    config,
    trainer,
    *,
    epochs: Optional[int] = None,
    max_iterations: Optional[int] = None,
    eval_every_sweeps: int = 1,
    verbose: bool = False,
    timeout: float = DEFAULT_TIMEOUT,
    recovery: Optional[RecoveryPolicy] = None,
    run_state: Optional[dict] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
) -> Tuple[dict, Dict[str, np.ndarray], List[SharedGroupState]]:
    """Execute ``config`` across ``i×k`` worker processes, **continuing**
    from ``trainer``'s current state (weights, optimizer moments, node
    memory, cursors) — the same semantics as calling ``trainer.train``
    locally.  The shared segments start as copies of the trainer's group
    states; the resumable state travels through the sealed commit slab.

    ``recovery`` selects the :class:`RecoveryPolicy` (default: elastic
    restart with 2 attempts).  ``run_state`` is a resumed run's bookkeeping
    (``Session.resume``): ``{"target_iteration", "history", "recent",
    "last_eval_sweeps"}`` — when given, the fit continues *that* run to its
    original target instead of starting a fresh iteration plan.
    ``checkpoint_dir`` makes the supervisor export every ``checkpoint_every``
    sealed block boundaries to a :class:`SlabCheckpointer` directory that
    ``Session.resume`` continues from, exactly like a local-backend fit.

    Returns ``(meta, arrays, group_states)`` from rank 0: the training
    result + cursor metadata, the trained weight/optimizer arrays, and the
    (closed-pending) shared group states still holding the final node
    memory of every group.  The caller copies what it needs and must call
    ``close()``/``unlink()`` on each group state (``apply_process_result``
    does all of this for a Session trainer).
    """
    return _run_fit(
        config,
        trainer,
        LocalSpawner(config.parallel, config.train.topology),
        epochs=epochs,
        max_iterations=max_iterations,
        eval_every_sweeps=eval_every_sweeps,
        verbose=verbose,
        timeout=timeout,
        recovery=recovery,
        run_state=run_state,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )


def apply_process_result(
    trainer,
    meta: dict,
    arrays: Dict[str, np.ndarray],
    group_states: List[SharedGroupState],
):
    """Fold a process fit's final state into a local trainer, so the
    Session's ``evaluate`` / ``save`` / ``serve`` continue from exactly the
    state rank 0 finished with.  Consumes (and unlinks) the shared states.
    Returns the reconstructed :class:`~repro.train.TrainResult`.
    """
    from ..train.distributed import HistoryPoint, TrainResult

    # worker result meta matches the snapshot layout except the iteration
    # count, which it reports as "iterations_run"
    load_trainer_state(
        trainer, {**meta, "iteration": meta["iterations_run"]}, arrays
    )
    for g, st in zip(trainer.groups, group_states):
        g.memory.copy_from(st.memory)
        g.mailbox.copy_from(st.mailbox)
        st.close()
        st.unlink()

    result = TrainResult(config_label=meta["config_label"])
    result.history = [HistoryPoint(**point) for point in meta["history"]]
    result.best_val = float(meta["best_val"])
    result.iterations_to_best = int(meta["iterations_to_best"])
    result.iterations_run = int(meta["iterations_run"])
    result.test_metric = float(meta["test_metric"])
    return result
