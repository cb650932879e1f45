"""The rank loop: one implementation for every multi-process backend.

A rank **rebuilds** its slice of the experiment from the declarative
:class:`~repro.api.config.ExperimentConfig` — dataset, sampler, model,
decoder, negative stores all resolve through the ``repro.api`` registries,
exactly as in the parent — so nothing crosses the process boundary except
the spawn bundle: the config dict, the shared-memory segment names and the
commit slab that carries the resumable run state.  A rank can live on
another host and still reconstruct identical state from that description.

:func:`run_rank` is the logical trainer's loop
(:meth:`repro.train.distributed.DistTGLTrainer.train`) re-derived for real
parallelism.  The arithmetic stays in the trainer (``_read_shard`` /
``_forward_shard`` / ``_accumulate_term``: one implementation, so backends
cannot drift); the loop only *orders* it over a
:class:`~repro.runtime.fabric.wire.RankComms` and the list of epoch rows
the rank owns.  The two backends differ in exactly that:

* ``backend="process"`` — ``world = i × k``; rank ``m·i + s`` owns **all**
  ``j`` rows of its block (they share the rank's cached preparations), its
  ``slot`` communicator is the trivial world of one, and its generations of
  communicators arrive pre-wired over pipes with the spawn arguments.
* ``backend="fabric"`` — ``world = i × j × k``; rank ``m·(i·j) + r·i + s``
  owns row ``r`` only, and each generation is wired peer-to-peer over
  sockets from the controller's ``wire`` frame
  (:mod:`repro.runtime.fabric.worker`).

The protocol, per block of ``j`` iterations:

* **canonical pass** (sub-step 0) — every rank advances every group's
  cursor (integers only, so wrap flags and commit metadata need no
  messages).  A group's rows run in order: a rank walks the rows it owns,
  and between ranks a token chain hands row ``r`` over as soon as row
  ``r-1``'s write-back committed (pipelined against the later rows still
  working).  Within a row the ``i`` shards hold a barrier whose root
  section applies the wrap-around memory reset, read the shared state,
  hold a second barrier (**readers before writers**), run the forward, and
  commit the write-back through a rank-ordered serial section — shards are
  chronological slices, so ordered commits reproduce the logical trainer's
  single fancy-assignment write-back.
* **gradient step** — each owned row's loss term, weighted
  ``(shard/global batch size) / (j·k)``, is backpropagated alone into a
  float64 :class:`~repro.parallel.allreduce.TermGradAccumulator` partial.
  The reduction is two hops that both fold in a fixed order: the rows of a
  gradient slot fold at the slot leader **in row order** (the ``+=`` loop
  a rank owning all rows runs privately), the slot leaders allreduce **in
  block order** on the configured star/ring/tree overlay (the loop
  ``reduce_partials`` runs), and the total fans back out through the slot.
  Every rank applies the identical reduced gradient to its own Adam
  replica, so replicas stay bitwise in lockstep without weight broadcasts.
* **evaluation** — rank 0 evaluates at the logical cadence (group 0 sweep
  boundaries) from the shared group-0 state while the fleet waits at a
  barrier; the negative-group sweep offset advances on every rank.
* **commit** — at every ``commit_every``-th block boundary the fleet holds
  a two-barrier window: between the barriers each group leader copies its
  live segment into the inactive shadow slot and rank 0 serializes the
  resumable run (trainer snapshot + history/recent/eval bookkeeping) into
  the inactive :class:`~repro.runtime.sharedmem.CommitSlab` slot; the
  second barrier's root section seals the slab — **seal-last**, the atomic
  flip that makes the new commit current only after every byte of it is
  durable, so a crash at any instant leaves a consistent anchor.
* **park** — any :class:`~repro.runtime.transport.TransportError` inside
  the loop (a peer crashed, wedged, or dropped its links) makes the rank
  **close all its communicators first** — cascading EOF through the fleet
  so every survivor parks within one collective op instead of one timeout
  — then report ``parked`` on its control channel and wait.  The
  supervisor (:mod:`repro.runtime.launcher`) restores the live segments
  from the sealed shadows, respawns dead ranks, and answers ``resume``
  with the next generation; the rank reloads the sealed commit and
  re-enters the loop.  Both the rollback target and the re-executed
  arithmetic are bit-exact, so a recovered run finishes **bitwise
  identical** to an unfaulted one.
* **finalization window** — the loop seals a *final* commit before the end
  barrier, so a fault at any later instant (trailing eval, bench gather,
  result report) recovers by replaying finalization from that commit: the
  supervisor resumes parked ranks with ``finalize=True`` (or respawns dead
  ones ``finalize_only``) and they finish without joining any collective,
  still bitwise identical (only the bench gather is lost).

Failpoints: ``worker.step`` and ``fabric.machine`` (keyed on the global
iteration) each iteration — the latter's ``crash`` takes down the rank's
whole machine, which for a fabric rank is its host agent and for a local
rank is itself — and ``worker.finalize`` (hit-counter keyed) right after
the end barrier.  Respawned ranks neutralize inherited failpoints so a
crash schedule fires once, not once per restart.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..api.config import ExperimentConfig
from ..models.tgn import TGN, DirectMemoryView
from ..nn import clip_grad_norm, use_fused
from ..obs import configure as obs_configure
from ..obs import flush as obs_flush
from ..obs import get_tracer
from ..obs import instant as obs_instant
from ..obs import span
from ..obs.metrics import phase_totals
from ..parallel.allreduce import TermGradAccumulator, load_reduced
from ..testing import failpoints
from ..utils.fingerprint import numeric_fingerprint
from .sharedmem import CommitSlab, SharedGroupState, SharedStateSpec
from .transport import Channel, TransportError


def initial_book() -> dict:
    """A fresh run's loop bookkeeping (the mutable half of a commit)."""
    return {"history": [], "recent": [], "last_eval_sweeps": 0}


def _attach_states(specs: List[dict]) -> List[SharedGroupState]:
    return [
        SharedGroupState(SharedStateSpec.from_dict(d), create=False) for d in specs
    ]


def _park(
    ctrl: Channel, rank: int, exc: BaseException, iteration: int
) -> Tuple[int, bool]:
    """Report a collective failure and wait for the supervisor's verdict.

    Returns ``(generation, finalize)``: the communicator generation to
    resume on, and whether the fault landed in the finalization window
    (resume by replaying finalization from the sealed final commit instead
    of rejoining collectives).  If the supervisor is gone (or answers
    ``abort``) the rank exits instead of lingering.
    """
    # mark the park on the timeline and make the trace durable before
    # blocking — if recovery never comes, the events are already on disk
    obs_instant("park", iteration=int(iteration), error=repr(exc))
    obs_flush()
    try:
        ctrl.send(
            "parked",
            meta={"rank": rank, "error": repr(exc), "iteration": int(iteration)},
        )
    except Exception:
        raise SystemExit(1) from exc
    while True:
        frame = ctrl.recv()  # channel default timeout bounds the wait
        if frame.tag == "resume":
            return int(frame.meta["generation"]), bool(
                frame.meta.get("finalize", False)
            )
        if frame.tag == "abort":
            raise SystemExit(1)


def run_rank(
    rank: int,
    ctrl: Channel,
    bundle: dict,
    *,
    fanout: bool,
    connect: Callable[[int], object],
    kill_machine: Optional[Callable[[], None]] = None,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Execute one rank of a multi-process ``fit``; returns the result
    frame payload (rank 0 carries the trained state, peers ack).

    ``fanout`` is the backend's fixed layout choice — ``False``: the rank
    owns all ``j`` rows of its block, ``True``: one row per rank.
    ``connect(generation)`` delivers that generation's
    :class:`~repro.runtime.fabric.wire.RankComms`.
    """
    from ..train.distributed import DistTGLTrainer
    from .launcher import (
        decode_commit,
        encode_commit,
        load_trainer_state,
        snapshot_trainer_state,
    )

    if bundle.get("clear_failpoints"):
        # a respawned rank must not re-trip the failure that killed its
        # predecessor: the env var still carries the schedule, ignore it
        failpoints.neutralize()

    cfg = ExperimentConfig.from_dict(bundle["config_dict"])
    plan = cfg.parallel
    i, j, k = plan.i, plan.j, plan.k
    fan = j if fanout else 1
    world = i * fan * k
    if not 0 <= rank < world:
        raise ValueError(f"rank {rank} inconsistent with plan {plan.label()}")
    m, rem = divmod(rank, i * fan)
    row0, s = divmod(rem, i)
    rows = [row0] if fanout else list(range(j))
    machine = m // plan.copies_per_machine
    train_meta = bundle["train_meta"]

    # span tracing: the launcher resolves the trace directory (env/config)
    # once and ships it in train_meta; each rank appends to its own file so
    # a SIGKILLed peer cannot corrupt anyone else's trace.  A host agent's
    # measured clock offset re-anchors wall-clock timestamps into the
    # controller's timebase.
    if train_meta.get("trace_dir"):
        obs_configure(
            train_meta["trace_dir"], rank=rank, lane=bundle.get("lane", f"rank{rank}")
        )
        offset = float(bundle.get("clock_offset") or 0.0)
        tracer = get_tracer()
        if offset and tracer is not None:
            tracer.epoch_anchor += offset

    dataset = cfg.build_dataset()
    trainer = DistTGLTrainer(dataset, plan, cfg.trainer_spec(), rank=rank)
    spec = trainer.spec

    # ---- shared state: this group's segment replaces the private arrays
    shared = SharedGroupState(
        SharedStateSpec.from_dict(bundle["shared_specs"][m]), create=False
    )
    own_group = trainer.groups[m]
    own_group.memory = shared.memory
    own_group.mailbox = shared.mailbox
    own_group.view = DirectMemoryView(shared.memory, shared.mailbox)
    for g in trainer.groups:
        if g.index != m:          # cursor bookkeeping only; free the arrays
            g.memory = None
            g.mailbox = None
            g.view = None
    view = own_group.view

    # ---- recovery state: the commit slab is the single source of truth for
    # the resumable run — fresh starts load the parent's commit 0, restarts
    # load whatever the fleet last sealed.  The group leader (row 0, shard
    # 0) also maps its group's two shadow slots for the commit-window copies.
    slab = CommitSlab.attach(bundle["commit_spec"])
    shadows: Optional[List[SharedGroupState]] = None
    if s == 0 and rows[0] == 0:
        shadows = _attach_states(bundle["shadow_specs"][m])

    # ---- iteration plan: the launcher owns the fairness arithmetic and
    # ships one absolute target, so fresh runs, session continues and
    # post-crash rollbacks all execute "until iteration == target"
    target = int(train_meta["target_iteration"])
    eval_every = int(train_meta.get("eval_every_sweeps", 1))
    verbose = bool(train_meta.get("verbose", False))
    commit_every = max(1, int(train_meta.get("commit_every", 1)))
    visits_per_iteration = j * k

    history: List[dict] = []
    recent: List[float] = []
    last_eval_sweeps = 0
    prev_batch: Dict[int, int] = {}
    cache: Dict[int, object] = {}     # this rank's block entries, by row
    substep = 0
    blocks_done = 0
    sync_time = 0.0
    commit_work = 0.0
    comms = None
    generation = int(bundle.get("generation", 0))

    def load_committed() -> None:
        nonlocal history, recent, last_eval_sweeps, prev_batch
        nonlocal cache, substep, blocks_done
        meta, arrays, book = decode_commit(slab.read())
        load_trainer_state(trainer, meta, arrays)
        history = list(book["history"])
        recent = list(book["recent"])
        last_eval_sweeps = int(book["last_eval_sweeps"])
        prev_batch = {g.index: g.prev_batch for g in trainer.groups}
        cache = {}
        substep = 0
        blocks_done = 0

    load_committed()
    loop_start = time.perf_counter()
    cpu_start = time.process_time()

    def synced(phase, fn, *args, **kwargs):
        """Run a collective under telemetry: one ``cat="sync"`` span named
        after the phase (``barrier``/``allreduce``/``serial``) plus the
        always-on ``sync_time`` accounting the bench reports."""
        nonlocal sync_time
        tag = args[0] if args and isinstance(args[0], str) else kwargs.get("tag")
        span_args = {"cat": "sync"}
        if tag is not None:
            span_args["tag"] = tag
        with span(phase, **span_args):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            sync_time += time.perf_counter() - t0
        return out

    def commit_window() -> None:
        """Two-barrier durable commit of the whole resumable run."""
        nonlocal commit_work
        synced("barrier", comms.world.barrier, "commit/enter")
        slot = slab.next_slot
        t0 = time.perf_counter()
        with span("commit", cat="commit", slot=int(slot)):
            if shadows is not None:
                shadows[slot].memory.copy_from(shared.memory)
                shadows[slot].mailbox.copy_from(shared.mailbox)
            if rank == 0:
                for g in trainer.groups:
                    g.prev_batch = prev_batch[g.index]
                slab.write(
                    slot,
                    encode_commit(
                        trainer,
                        {
                            "history": history,
                            "recent": recent,
                            "last_eval_sweeps": last_eval_sweeps,
                        },
                    ),
                )
        commit_work += time.perf_counter() - t0
        iteration = trainer._iteration
        synced(
            "barrier",
            comms.world.barrier,
            "commit/seal",
            root_section=lambda: slab.seal(slot, iteration),
        )
        # a sealed commit is a durable rollback point — make the trace as
        # durable, so a kill after this instant still shows the full run-up
        obs_flush()

    def canonical_row(r: int, b_idx: int, wrap: bool) -> None:
        nonlocal commit_work
        if comms.tok_prev is not None:
            # pipelined canonical pass: this row may start as soon as the
            # previous row's write-back has committed
            synced("barrier", comms.tok_prev.expect, "tok/pass")

        def reset_if_wrap():
            if wrap:
                shared.memory.reset()
                shared.mailbox.reset()

        # barrier 1: previous batch's writes are committed and the row
        # leader applies the wrap reset pre-read
        synced("barrier", comms.row.barrier, "pre-read", root_section=reset_if_wrap)
        batch = trainer.loader.batch(b_idx)
        shard = batch.split_local(i)[s] if i > 1 else batch
        read = trainer._read_shard(shard, view)
        # barrier 2: every shard finished reading shared
        synced("barrier", comms.row.barrier, "post-read")
        entry, wb = trainer._forward_shard(read, batch.size, row=r)

        def writeback():
            # the writeback is compute, not waiting: keep it out of sync_time
            nonlocal commit_work
            t0 = time.perf_counter()
            with span("writeback", cat="commit"):
                if wb is not None:
                    TGN.apply_writeback(wb, shared.memory, shared.mailbox)
            commit_work += time.perf_counter() - t0

        # rank-ordered commit: chronological shards in sequence reproduce
        # the logical single-writer pass
        synced("serial", comms.row.serial_section, writeback, tag="writeback")
        if comms.tok_next is not None:
            comms.tok_next.send("tok/pass")
        cache[r] = entry

    def reduce_gradient(vec: np.ndarray) -> np.ndarray:
        """Row-order slot fold, block-order leader allreduce, slot fan-out.
        World-1 communicators are skipped outright (no span, no copy), so a
        rank owning all its rows pays exactly one flat allreduce."""
        slot, leader = comms.slot, comms.leader
        if slot.world > 1:
            vec = synced("allreduce", slot.reduce_to_root, vec)
        if slot.rank != 0:
            return synced("allreduce", slot.broadcast).array("vec")
        if leader.world > 1:
            vec = synced("allreduce", leader.allreduce_sum, vec)
        if slot.world > 1:
            synced("allreduce", slot.broadcast, {"vec": vec})
        return vec

    def run_loop() -> None:
        nonlocal substep, blocks_done, last_eval_sweeps
        synced("barrier", comms.world.barrier, "start")
        while trainer._iteration < target:
            failpoints.fire(
                "worker.step", rank=rank, step=trainer._iteration,
                pipe_drop=comms.close,
            )
            failpoints.fire(
                "fabric.machine", rank=rank, step=trainer._iteration,
                crash=kill_machine,
            )
            with use_fused(spec.fused):
                if substep == 0:
                    blocks = {g.index: g.next_block(j) for g in trainer.groups}
                    own_block = blocks[m]
                    wraps = [
                        b <= prev
                        for prev, b in zip([prev_batch[m]] + own_block, own_block)
                    ]
                    for g_idx, block in blocks.items():
                        prev_batch[g_idx] = block[-1]
                    cache.clear()
                    for r in rows:
                        canonical_row(r, own_block[r], wraps[r])

                # ---- gradient step: the owned rows' loss terms through the
                # trainer's own per-term arithmetic into the float64 partial
                acc = TermGradAccumulator(trainer.optimizer.params)
                for r in rows:
                    if cache[r] is not None:
                        trainer._accumulate_term(acc, cache[r], r, substep)
                total = reduce_gradient(acc.to_vector())
                global_loss = load_reduced(trainer.optimizer.params, total)
                clip_grad_norm(trainer.optimizer.params, spec.grad_clip)
                trainer.optimizer.step()
                recent.append(global_loss)

            substep = (substep + 1) % j
            trainer._iteration += 1

            group0 = trainer.groups[0]
            if group0.sweeps_completed >= last_eval_sweeps + eval_every:
                last_eval_sweeps = group0.sweeps_completed
                trainer._sweep_negative_offset += j
                synced("barrier", comms.world.barrier, "pre-eval")
                if rank == 0:
                    history.append(history_point())
                    if verbose:
                        print(
                            f"[{plan.label()}|"
                            f"{'fabric' if fanout else 'process'} w{world}] "
                            f"it={trainer._iteration} "
                            f"loss={history[-1]['train_loss']:.4f} "
                            f"val={history[-1]['val_metric']:.4f}"
                        )
                recent.clear()
                synced("barrier", comms.world.barrier, "post-eval")

            if substep == 0:
                blocks_done += 1
                if blocks_done % commit_every == 0:
                    commit_window()

        # final seal: make the complete end-of-run state durable *before*
        # the end barrier, so a fault at any later instant (the
        # finalization window) replays from this commit instead of
        # aborting.  The header is stable here — every seal happens at a
        # barrier all ranks passed — so the guard is deterministic.
        if slab.header[1] < trainer._iteration:
            commit_window()

        synced("barrier", comms.world.barrier, "end")
        # the canonical kill-after-end-barrier site (hit-counter keyed):
        # from here on no training collectives remain, only finalization
        failpoints.fire("worker.finalize", rank=rank, pipe_drop=comms.close)

    def history_point() -> dict:
        val = trainer._evaluate_split("val", warm_group=trainer.groups[0])
        return {
            "iteration": trainer._iteration,
            "edges_traversed": trainer._iteration
            * visits_per_iteration
            * trainer.global_batch,
            "train_loss": float(np.mean(recent)) if recent else float("nan"),
            "val_metric": val.metric,
        }

    # ---- supervised execution: connect / run / park / rollback / resume.
    # A finalize-only rank (respawned into the finalization window, or
    # resumed into it) skips wiring and collectives entirely: the sealed
    # final commit it loaded *is* the end-of-run state.
    bench = None
    finalize = bool(bundle.get("finalize_only"))
    while not finalize:
        try:
            if comms is None:
                comms = connect(generation)
            run_loop()
            obs_flush()
            bench = comms.world.gather_meta(
                {
                    "rank": rank,
                    "host": machine,
                    "loop_s": time.perf_counter() - loop_start,
                    # sync = time inside collectives minus the commit work
                    # executed under them (compute, not waiting)
                    "sync_s": max(sync_time - commit_work, 0.0),
                    "cpu_s": time.process_time() - cpu_start,
                    "commit_s": commit_work,
                    # span-fed per-phase seconds (empty unless tracing) —
                    # the bench's phase columns come from here
                    "phases": phase_totals(),
                }
            )
            break
        except TransportError as exc:
            # close EVERYTHING first: the EOF cascade parks the rest of the
            # fleet within one collective op instead of one timeout
            if comms is not None:
                comms.close()
                comms = None
            generation, finalize = _park(ctrl, rank, exc, trainer._iteration)
            # on finalize no collectives remain to rejoin (peers may already
            # be gone): finish from the sealed state; the bench gather is lost
            load_committed()
    if comms is not None:
        comms.close()

    # ---- finalization (rank 0 only): trailing eval, test metric, state out
    if rank != 0:
        shared.close()
        obs_flush()
        return {"rank": rank, "ok": True}, {}

    if not history:
        history.append(history_point())
    vals = [h["val_metric"] for h in history]
    best_idx = int(np.argmax(vals))
    test = trainer._evaluate_split("test", warm_group=trainer.groups[0])

    # the result payload IS a trainer snapshot (one wire layout, owned by
    # the launcher) plus the run's outcome metadata
    for g in trainer.groups:
        g.prev_batch = prev_batch[g.index]
    snap = snapshot_trainer_state(trainer)
    meta = {
        **snap["meta"],
        "rank": 0,
        "ok": True,
        "config_label": plan.label(),
        "history": history,
        "best_val": vals[best_idx],
        "iterations_to_best": history[best_idx]["iteration"],
        "iterations_run": trainer._iteration,
        "test_metric": test.metric,
        "bench": bench,
        "world": world,
        "machines": plan.machines,
        "topology": cfg.train.topology,
        "numeric_fingerprint": numeric_fingerprint(),
    }
    shared.close()
    obs_flush()
    return meta, snap["arrays"]
