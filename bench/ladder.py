"""The layer ladder and transport probes of the traced run.

Each row times ONE public function of one layer on the workload's own data,
so a change to a layer shows here before (and explains why) an end-to-end
number moves.  Rows are medians over ``K`` repetitions.  Sessions built here
share the workload's dataset and model but use a 1x1x1 plan on rank-local
200-event shards, and a split with a tiny held-out tail (these are layer
timings; nothing here is an end-to-end number).

Left out because they do not fit the driver's time cap (each needs whole
extra process fits): recovery time under an injected crash, the fabric
launch, the unpinned-BLAS slowdown and the process-cluster round trip.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from stats import median
from workloads import Workload

K = 30                      # replayed steps / repetitions per row
QUERY_BATCH = 256           # (node, time) queries per InferenceEngine.embed call
APPEND_EVENTS = 100         # events per TemporalGraph.append_events call
TMP = Path(__file__).resolve().parent / "out" / "tmp"

Row = Tuple[float, str]


def timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def probe_config(workload: Workload, plan: str = "1x1x1", compile_step: bool = False):
    """The workload's data and model with a 0.2 % held-out tail, so the
    evaluation sweeps that end ``train()`` cost next to nothing."""
    cfg = workload.config()
    from repro.parallel.config import ParallelConfig

    return replace(
        cfg,
        parallel=ParallelConfig.parse(plan),
        train=replace(cfg.train, train_frac=0.996, val_frac=0.002,
                      compile=compile_step),
    )


# ------------------------------------------------------------- step ladder
def step_ladder(workload: Workload) -> Dict[str, Row]:
    """Replay K training steps, one public call at a time."""
    from repro.api import Session
    from repro.models.tgn import TGN
    from repro.nn import bce_with_logits, clip_grad_norm, concat, use_fused
    from repro.parallel.allreduce import (
        TermGradAccumulator, load_reduced, reduce_partials,
    )

    session = Session(probe_config(workload))
    tr = session.trainer
    group = tr.groups[0]
    params = tr.optimizer.params
    t: Dict[str, List[float]] = {}

    def clock(name: str, fn):
        t0 = time.perf_counter()
        value = fn()
        t.setdefault(name, []).append(time.perf_counter() - t0)
        return value

    grad_bytes = 0
    with use_fused(tr.spec.fused):
        for s in range(K):
            batch = clock("batch_load", lambda: tr.loader.batch(s))
            nodes = np.concatenate([batch.src, batch.dst])
            times = np.concatenate([batch.times, batch.times])
            clock("sample", lambda: tr.sampler.sample(nodes, times))
            tr.prep.clear_cache()
            clock("prep_cold", lambda: tr.prep.prepare_events(batch, group.view))
            pos = clock("prep_warm", lambda: tr.prep.prepare_events(batch, group.view))
            negs = tr.neg_store.slice(s % tr.neg_store.num_groups, batch.start, batch.stop)
            neg = tr.prep.prepare(negs, batch.times, group.view)
            clock("read", lambda: group.view.read(pos.uniq))

            step_start = time.perf_counter()
            h_pos, state = clock("forward", lambda: tr.model.forward_prepared(pos))
            h_neg, _ = tr.model.forward_prepared(neg)
            b = batch.size
            logits = tr.decoder(
                concat([h_pos[:b], h_pos[:b]], axis=0), concat([h_pos[b:], h_neg], axis=0)
            )
            labels = np.concatenate([np.ones(b), np.zeros(b)]).astype(np.float32)
            loss = bce_with_logits(logits, labels)
            tr.optimizer.zero_grad()
            clock("backward", lambda: loss.backward(free_graph=True))

            def fold():
                acc = TermGradAccumulator(params)
                acc.add_term(float(loss.data))
                vec = acc.to_vector()
                load_reduced(params, reduce_partials([vec] * workload.ranks))
                return vec

            grad_bytes = clock("fold", fold).nbytes

            def optim():
                clip_grad_norm(params, tr.spec.grad_clip)
                tr.optimizer.step()

            clock("optim", optim)
            t.setdefault("step", []).append(time.perf_counter() - step_start)

            wb = tr.model.make_writeback(
                batch.src, batch.dst, batch.times, state, state,
                edge_feats=batch.edge_feats,
            )
            clock("write", lambda: group.memory.write(
                wb.mem_nodes, wb.mem_values, wb.mem_times))
            clock("deposit", lambda: group.mailbox.deposit(
                wb.mail_src, wb.mail_dst, wb.mail_src_memory, wb.mail_dst_memory,
                wb.mail_times, edge_feats=wb.mail_edge_feats))
            clock("writeback", lambda: TGN.apply_writeback(wb, group.memory, group.mailbox))

    def us(name: str) -> Row:
        return median(t[name]) * 1e6, "us"

    def ms(name: str) -> Row:
        return median(t[name]) * 1e3, "ms"

    return {
        "graph.batch_load_us": us("batch_load"),
        "graph.sample_us": us("sample"),
        "graph.prep_cold_ms": ms("prep_cold"),
        "graph.prep_warm_ms": ms("prep_warm"),
        "memory.read_us": us("read"),
        "memory.write_us": us("write"),
        "memory.mailbox_deposit_us": us("deposit"),
        "memory.writeback_us": us("writeback"),
        "models.forward_ms": ms("forward"),
        "nn.backward_ms": ms("backward"),
        "nn.optim_ms": ms("optim"),
        "nn.step_ms": ms("step"),
        "parallel.fold_us": us("fold"),
        "parallel.grad_bytes": (float(grad_bytes), "bytes"),
    }


def plan_iterations(workload: Workload, compile_step: bool, iterations: int,
                    traced: bool = False) -> dict:
    """A short ``trainer.train`` of the workload's own plan on the logical
    (in-process) trainer: seconds per block from its block-boundary callback
    and — when ``traced`` — the program tracer's per-phase seconds."""
    from repro.api import Session

    session = Session(probe_config(workload, workload.plan, compile_step))
    marks = [time.perf_counter()]
    registry = None
    if traced:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import configure

        registry = MetricsRegistry()
        configure(None, rank=0, lane="bench", registry=registry)
    try:
        session.trainer.train(
            epochs_equivalent=1, max_iterations=iterations,
            on_block_boundary=lambda _t, _b: marks.append(time.perf_counter()),
        )
    finally:
        if traced:
            from repro.obs.trace import disable

            disable(flush=False)
    phases = {}
    if traced:
        from repro.obs.metrics import phase_totals

        phases = phase_totals(registry)
    return {
        "steps": [b - a for a, b in zip(marks, marks[1:])],
        "loop_s": marks[-1] - marks[0],
        "phases": phases,
    }


def tape_and_phases(workload: Workload) -> Dict[str, Row]:
    """The same iterations eager, compiled (second half = warm tapes) and
    under the program tracer.  With j > 1 the callback fires once per block
    of j iterations, so a "step" here is one block."""
    i, j, k = workload.ijk
    n = max(12, 32 // (i * j * k))     # the logical trainer runs all i*j*k terms itself
    eager = plan_iterations(workload, False, n)
    taped = plan_iterations(workload, True, 2 * n)
    traced = plan_iterations(workload, False, n, traced=True)
    eager_ms = median(eager["steps"]) * 1e3
    warm = taped["steps"][len(taped["steps"]) // 2:]
    replay_ms = median(warm) * 1e3
    out = {
        "nn.tape_replay_ms": (replay_ms, "ms"),
        "nn.tape_speedup_x": (eager_ms / replay_ms, "x"),
    }
    for phase in ("sample", "prep", "forward", "backward"):
        out[f"obs.phase_share.{phase}"] = (
            traced["phases"].get(phase, 0.0) / traced["loop_s"], "share")
    return out


# ------------------------------------------------------------ graph / serve
def graph_append(workload: Workload, session) -> Dict[str, Row]:
    """``append_events`` of 100 held-out events onto the full training graph
    and onto its first tenth: HEAD re-concatenates every array, so the call
    grows with the graph and ingest slows as the stream is absorbed."""
    graph = session.graph
    train_end = session.trainer.split.train_end

    def append_at(end: int) -> float:
        samples = []
        sl = slice(end, end + APPEND_EVENTS)
        feats = graph.edge_feats[sl] if graph.edge_feats is not None else None
        for _ in range(10):
            g = graph.slice_events(slice(0, end))
            samples.append(timed(lambda: g.append_events(
                graph.src[sl], graph.dst[sl], graph.timestamps[sl], feats)))
        return median(samples)

    full = append_at(train_end)
    tenth = append_at(train_end // 10)
    return {
        "graph.append_ms": (full * 1e3, "ms"),
        "graph.append_growth_x": (full / tenth, "x"),
    }


def serve_probes(workload: Workload, session, seed: int) -> Dict[str, Row]:
    from repro.serve.ingest import EventLog
    from repro.train.checkpoint import load_checkpoint, save_checkpoint

    TMP.mkdir(parents=True, exist_ok=True)
    out: Dict[str, Row] = {}
    rng = np.random.default_rng([seed, 2])
    graph = session.graph

    engine = session.predictor()
    nodes = rng.choice(graph.src, size=QUERY_BATCH)
    times = np.full(QUERY_BATCH, graph.max_time + 1.0)
    out["infer.embed_ms"] = (
        median([timed(lambda: engine.embed(nodes, times)) for _ in range(K)]) * 1e3, "ms")

    stream = list(session.held_out_stream(chunk=workload.stream_chunk, stop="test"))
    wal = EventLog(edge_dim=graph.edge_dim)
    out["serve.wal_append_us"] = (
        median([timed(lambda b=b: wal.append(*b)) for b in stream]) * 1e6, "us")

    try:
        ckpt = TMP / "ladder-checkpoint.npz"
        out["train.checkpoint_save_ms"] = (
            median([timed(lambda: save_checkpoint(session.trainer, ckpt))
                    for _ in range(5)]) * 1e3, "ms")
        out["train.checkpoint_load_ms"] = (
            median([timed(lambda: load_checkpoint(session.trainer, ckpt))
                    for _ in range(5)]) * 1e3, "ms")

        cluster = session.serve()
        for batch in stream[:4]:
            cluster.ingest(*batch)
        saves, restores = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            snap = cluster.save(TMP / "ladder-snapshot.npz")
            saves.append(time.perf_counter() - t0)
            fresh = session.serve()
            restores.append(timed(lambda: fresh.restore(snap)))
        out["serve.snapshot_ms"] = (median(saves) * 1e3, "ms")
        out["serve.restore_ms"] = (median(restores) * 1e3, "ms")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    return out


# ---------------------------------------------------------------- runtime
def _pair(work_a: Callable[[], None], work_b: Callable[[], None]) -> float:
    """Run the two ends of a two-rank exchange on two threads; seconds the
    first end took."""
    errors: List[BaseException] = []

    def side_b() -> None:
        try:
            work_b()
        except BaseException as exc:   # surfaced on the caller's thread below
            errors.append(exc)

    thread = threading.Thread(target=side_b, daemon=True)
    thread.start()
    elapsed = timed(work_a)
    thread.join(timeout=30.0)
    if thread.is_alive() or errors:
        raise RuntimeError(f"two-rank probe did not finish cleanly: {errors}")
    return elapsed


def runtime_probes(workload: Workload, session, grad_elems: int) -> Dict[str, Row]:
    """Transport and collectives at the real gradient size, two ranks over
    local pipes (threads stand in for the rank processes)."""
    from repro.runtime.collectives import make_topology_communicators
    from repro.runtime.launcher import encode_commit, prepare_recovery_state
    from repro.runtime.sharedmem import create_group_states, destroy_states
    from repro.runtime.transport import (
        Frame, decode_frame, encode_frame, pipe_channel_pair,
    )
    from repro.runtime.worker import initial_book

    out: Dict[str, Row] = {}
    vec = np.random.default_rng(0).standard_normal(grad_elems)
    frame = Frame("grad", meta={"seq": 1}, arrays={"v": vec})
    out["runtime.codec_us"] = (
        median([timed(lambda: decode_frame(encode_frame(frame))) for _ in range(K)])
        * 1e6, "us")

    reps = 100
    a, b = pipe_channel_pair(default_timeout=30.0)
    try:
        def ping() -> None:
            for _ in range(reps):
                a.send("grad", arrays={"v": vec})
                a.expect("grad")

        def pong() -> None:
            for _ in range(reps):
                got = b.expect("grad")
                b.send("grad", arrays=got.arrays)

        out["runtime.frame_rtt_us"] = (_pair(ping, pong) / reps * 1e6, "us")
    finally:
        a.close()
        b.close()

    for topology in ("star", "ring", "tree"):
        comms = make_topology_communicators(topology, 2, default_timeout=30.0)
        try:
            def reduce_on(comm):
                def work() -> None:
                    for _ in range(reps):
                        comm.allreduce_sum(vec)
                return work

            out[f"runtime.allreduce_us.{topology}"] = (
                _pair(reduce_on(comms[0]), reduce_on(comms[1])) / reps * 1e6, "us")
            if topology == "star":
                def barrier_on(comm):
                    def work() -> None:
                        for _ in range(reps):
                            comm.barrier()
                    return work

                out["runtime.barrier_us"] = (
                    _pair(barrier_on(comms[0]), barrier_on(comms[1])) / reps * 1e6, "us")
        finally:
            for comm in comms:
                comm.close()

    cfg = session.config
    slab, shadow_pairs, _specs = prepare_recovery_state(cfg, session.trainer)
    try:
        payload = encode_commit(session.trainer, initial_book())

        def commit() -> None:
            slot = slab.next_slot
            slab.write(slot, payload)
            slab.seal(slot, 1)

        out["runtime.slab_seal_us"] = (
            median([timed(commit) for _ in range(K)]) * 1e6, "us")
    finally:
        for pair in shadow_pairs:
            destroy_states(pair)
        slab.close()
        slab.unlink()

    def shm_cycle() -> None:
        states = create_group_states(
            1, num_nodes=session.graph.num_nodes, memory_dim=cfg.model.memory_dim,
            edge_dim=session.graph.edge_dim, comb=cfg.train.comb,
            name_prefix="repro-bench",
        )
        try:
            group = session.trainer.groups[0]
            states[0].memory.copy_from(group.memory)
            states[0].mailbox.copy_from(group.mailbox)
        finally:
            destroy_states(states)

    out["runtime.shm_cycle_ms"] = (
        median([timed(shm_cycle) for _ in range(10)]) * 1e3, "ms")
    return out


# ------------------------------------------------------------------ checks
def reference_check(workload: Workload, fitted_session, problems: List[str]) -> None:
    """A process fit must reproduce the local logical trainer bitwise."""
    from repro.api import Session
    from repro.testing.chaos import compare_sessions

    reference = Session(workload.config())
    reference.fit(max_iterations=workload.iterations, backend="local")
    for diff in compare_sessions(fitted_session, reference):
        problems.append(f"process fit differs from the local reference: {diff}")


def run(workload: Workload, seed: int) -> Dict[str, Row]:
    from repro.api import Session

    out = step_ladder(workload)
    out.update(tape_and_phases(workload))
    session = Session(probe_config(workload))
    out.update(graph_append(workload, session))
    out.update(serve_probes(workload, session, seed))
    grad_elems = int(out["parallel.grad_bytes"][0]) // 8
    out.update(runtime_probes(workload, session, grad_elems))
    return out
