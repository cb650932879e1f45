"""One round of the user lifecycle, timed phase by phase:

``build_dataset`` -> ``Session(config)`` -> fit -> ``evaluate("test")`` ->
``serve()`` -> closed-loop reads -> open-loop reads beside streaming ingest
-> ingest burst -> drain.

Every round builds a fresh ``Session`` and does the same work, fixed by
count; the benchmark only times calls into public functions and reads the
values they already return.  Output checks run in every round and come back
as a list of problems (empty = correct).
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

import host
import loadgen
from spans import SpanRecorder
from workloads import CLIENTS, VERIFY_QUERIES, Workload

FIT_TIMEOUT = 120.0       # whole process-backend fit, seconds
EVAL_CALLS = 3            # evaluate("test") calls per round
VERIFY_ATOL = 1e-5        # scores depend on batch composition only at the last ulp


@dataclass
class RoundResult:
    index: int
    data_build_s: float = 0.0
    session_build_s: float = 0.0
    serve_build_s: float = 0.0
    fit_wall_s: float = 0.0
    loop_s: float = 0.0
    loop_cpu_s: float = 0.0               # CPU seconds of this process over a local loop
    train_loss: float = math.nan
    val_mrr: float = math.nan
    digest: str = ""
    ranks: Optional[list] = None          # meta["bench"] of a process fit
    eval_wall_s: List[float] = field(default_factory=list)   # per evaluate("test") call
    eval_cpu_s: List[float] = field(default_factory=list)    # user CPU seconds of the same calls
    eval_events: int = 0
    prep_hit_ratio: float = 0.0           # trainer.prep.stats after fit + evaluate
    closed: loadgen.LoadResult = field(default_factory=loadgen.LoadResult)
    open: loadgen.LoadResult = field(default_factory=loadgen.LoadResult)
    burst: loadgen.LoadResult = field(default_factory=loadgen.LoadResult)
    batch_pairs_mean: float = 0.0
    flushes: int = 0
    dedup_ratio: float = 0.0
    memo_ratio: float = 0.0
    wall_s: float = 0.0
    steal_share: float = 0.0
    spin_before: float = 0.0
    spin_after: float = 0.0
    disturbed: bool = False
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.data_build_s + self.session_build_s + self.serve_build_s

    @property
    def fit_tail_s(self) -> float:
        """Everything in fit() that is not the training loop: rank launch
        (process backend) and the three evaluation sweeps that end it."""
        return self.fit_wall_s - self.loop_s


def state_digest(session) -> str:
    """One hash over everything training produced: weights, Adam moments,
    step count, every group's node memory, mailbox and cursors."""
    h = hashlib.sha256()
    for name, p in list(session.model.named_parameters()) + list(
        session.decoder.named_parameters()
    ):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    m_arrs, v_arrs, step = session.trainer.optimizer.state_arrays()
    h.update(str(step).encode())
    for arr in list(m_arrs) + list(v_arrs):
        h.update(np.ascontiguousarray(arr).tobytes())
    for g in session.trainer.groups:
        for arr in (g.memory.memory, g.memory.last_update, g.mailbox.mail):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(f"{g.position}/{g.prev_batch}/{g.sweeps_completed}".encode())
    return h.hexdigest()


def fit(session, workload: Workload, out: RoundResult, tracer: SpanRecorder,
        clock=time.perf_counter):
    """Train ``workload.iterations`` iterations on the workload's backend and
    record the fit wall time and the training-loop seconds inside it."""
    cfg = session.config
    t0 = clock()
    with tracer.span("fit", backend=workload.backend) as fit_span:
        if workload.backend == "local":
            cpu0 = time.process_time()
            last_block = [t0, cpu0]

            def on_block_boundary(_trainer, _book) -> None:
                last_block[:] = clock(), time.process_time()

            # Session.fit(backend="local") is this call plus tracer set-up; it
            # is made here only to hang the loop-end mark on the callback
            result = session.trainer.train(
                epochs_equivalent=cfg.train.epochs,
                max_iterations=workload.iterations,
                on_block_boundary=on_block_boundary,
            )
            session.result = result
            out.loop_s = last_block[0] - t0
            out.loop_cpu_s = last_block[1] - cpu0
        else:
            from repro.obs import get_registry
            from repro.runtime.launcher import apply_process_result, run_process_fit

            restarts = get_registry().counter("recovery/restarts")
            before = restarts.value
            # Session.fit(backend="process") is exactly these two calls; made
            # here because fit() drops the per-rank loop/sync/cpu seconds
            meta, arrays, states = run_process_fit(
                cfg, session.trainer, max_iterations=workload.iterations,
                timeout=FIT_TIMEOUT,
            )
            result = apply_process_result(session.trainer, meta, arrays, states)
            session.result = result
            out.ranks = meta["bench"]
            if not out.ranks:
                out.problems.append("process fit returned no per-rank timings")
                out.loop_s = math.nan
            else:
                out.loop_s = max(r["loop_s"] for r in out.ranks)
            if restarts.value != before:
                out.failed += 1
                out.problems.append(
                    f"unfaulted fit needed {restarts.value - before:g} restart(s)"
                )
    out.fit_wall_s = clock() - t0
    out.attempted += 1
    if fit_span is not None:
        # loop/tail durations are exact; for a process fit the loop ran
        # somewhere inside the span, so its position here is nominal
        tracer.record("fit.loop", t0, t0 + out.loop_s, fit_span)
        tracer.record("fit.tail", t0 + out.loop_s, t0 + out.fit_wall_s, fit_span)
    if result.iterations_run != workload.iterations:
        out.problems.append(
            f"fit ran {result.iterations_run} iterations, wanted {workload.iterations}"
        )
    if len(result.history) != 1:
        out.problems.append(
            f"{len(result.history)} validation points: the loop held an "
            "evaluation sweep, so loop seconds are not training alone"
        )
    point = result.history[-1]
    out.train_loss, out.val_mrr = point.train_loss, point.val_metric
    if not (math.isfinite(out.train_loss) and math.isfinite(out.val_mrr)):
        out.problems.append("non-finite train_loss / val_mrr")
    return result


def run_round(workload: Workload, seed: int, index: int, tracer: SpanRecorder,
              spin_before: float, clock=time.perf_counter):
    """One lifecycle round; returns its ``RoundResult`` and the fitted
    ``Session`` (the traced run compares the last one to a local reference)."""
    out = RoundResult(index=index, spin_before=spin_before)
    ticks_before = host.cpu_ticks()
    round_start = clock()
    with tracer.span("round", trace=f"round{index}"):
        from repro.api import Session

        cfg = workload.config()
        t = clock()
        with tracer.span("data.build"):
            dataset = cfg.build_dataset()
        out.data_build_s = clock() - t
        t = clock()
        with tracer.span("session.build"):
            session = Session(cfg, dataset=dataset)
        out.session_build_s = clock() - t

        result = fit(session, workload, out, tracer, clock)
        out.digest = state_digest(session)

        # ---- evaluate("test"): validation replay + test sweep.  Wall time of
        # a call is 1x-5x its user CPU time depending on whether the allocator
        # has to map fresh memory for the temporaries (kernel time, chaotic
        # from call to call), so both are recorded.
        split = session.trainer.split
        out.eval_events = split.num_events - split.train_end
        for _ in range(EVAL_CALLS):
            cpu = resource.getrusage(resource.RUSAGE_SELF).ru_utime
            t = clock()
            with tracer.span("evaluate"):
                ev = session.evaluate("test")
            out.eval_wall_s.append(clock() - t)
            out.eval_cpu_s.append(resource.getrusage(resource.RUSAGE_SELF).ru_utime - cpu)
            out.attempted += 1
            # evaluate() is side-effect free, so it must repeat fit()'s own
            # closing test sweep exactly
            if ev.metric != result.test_metric:
                out.failed += 1
                out.problems.append(
                    f"evaluate('test') gave {ev.metric!r}, fit reported "
                    f"{result.test_metric!r}"
                )
        out.prep_hit_ratio = session.trainer.prep.stats.hit_ratio

        # ---- serving: queries and schedules drawn from (--seed, round), so a
        # run sees several arrival patterns, not one
        t = clock()
        with tracer.span("serve.build"):
            cluster = session.serve()
        out.serve_build_s = clock() - t
        rng = np.random.default_rng([seed, index])
        queries = loadgen.build_queries(
            session.graph, workload.closed_requests + workload.open_requests,
            workload.candidates, rng, after_time=session.graph.max_time,
        )
        closed_q = queries[: workload.closed_requests]
        open_q = queries[workload.closed_requests:]
        keep = rng.choice(len(closed_q), size=min(VERIFY_QUERIES, len(closed_q)),
                          replace=False).tolist()
        arrivals = loadgen.poisson_arrivals(len(open_q), workload.open_rate, rng)
        stream = list(session.held_out_stream(chunk=workload.stream_chunk, stop="test"))
        timed, rest = stream[: workload.open_ingests], stream[workload.open_ingests:]
        ingest_due = loadgen.even_schedule(
            len(timed), len(open_q) / workload.open_rate, rng
        )
        events_before = cluster.graph.num_events

        with tracer.span("serve.closed"):
            out.closed = loadgen.run_closed(
                cluster, closed_q, CLIENTS, clock=clock, tracer=tracer, keep=keep
            )
        verify_answers(session, closed_q, out)
        with tracer.span("serve.open"):
            out.open = loadgen.run_open(
                cluster, open_q, arrivals, list(zip(ingest_due, timed)),
                clock=clock, tracer=tracer,
            )
        with tracer.span("serve.ingest_burst"):
            out.burst = loadgen.run_ingest_burst(cluster, rest, clock=clock, tracer=tracer)
        cluster.flush_all()

        for phase in (out.closed, out.open, out.burst):
            out.attempted += phase.attempted + len(phase.ingest_calls)
            out.failed += phase.failed + phase.ingests_rejected
        ingested = out.open.ingested_events + out.burst.ingested_events
        grown = cluster.graph.num_events - events_before
        if grown != ingested or ingested != out.eval_events:
            out.problems.append(
                f"graph grew by {grown} events, ingested {ingested}, "
                f"held-out stream has {out.eval_events}"
            )
        stats = [rep.batcher.stats for rep in cluster.replicas]
        out.flushes = sum(s.flushes for s in stats)
        out.batch_pairs_mean = sum(s.pairs for s in stats) / max(1, out.flushes)
        inference = cluster.inference_stats()
        out.dedup_ratio, out.memo_ratio = inference.dedup_ratio, inference.memo_ratio

    out.wall_s = clock() - round_start
    out.steal_share = host.steal_share(ticks_before, host.cpu_ticks())
    out.spin_after = host.spin_rate()
    out.disturbed = host.disturbed(out.steal_share, out.spin_before, out.spin_after)
    return out, session


def verify_answers(session, queries, out: RoundResult) -> None:
    """Re-ask the kept closed-loop queries of a second, fresh ``serve()``
    cluster (the first has ingested nothing yet, so both are in the same
    state) and require the same scores."""
    if not out.closed.responses:
        out.problems.append("no closed-loop answers were kept for re-asking")
        return
    fresh = session.serve()
    handles = {
        i: fresh.submit_rank(queries[i].src, queries[i].candidates, queries[i].at_time)
        for i in out.closed.responses
    }
    fresh.flush_all()
    for i, handle in handles.items():
        if handle is None or not handle.done:
            out.problems.append(f"re-asked query {i} was not answered")
            continue
        if not np.allclose(handle.value, out.closed.responses[i],
                           rtol=0.0, atol=VERIFY_ATOL):
            out.problems.append(f"query {i}: a fresh cluster scored it differently")
