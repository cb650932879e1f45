"""Closed-loop elastic-serving bench: load + autoscale + refit + chaos.

``repro.cli serve-bench`` runs this harness.  It is the end-to-end
proof for the elastic serving stack — every feature runs *at once*, and
every response is checked bitwise against a single-replica reference
cluster held at the same model version:

* **threaded stage** — bursty open-loop load drives the
  :class:`~repro.serve.elastic.ReplicaAutoscaler` up (deep queues) and
  back down (drained queues) while a
  :class:`~repro.serve.continual.ContinualLearner` refits on the ingest
  stream and rolls hot-swaps through the fleet.  Each burst's scores are
  compared byte-for-byte against the reference (same ingest, same swap
  boundaries, same per-replica batch composition — scores are
  composition-sensitive at the last ulp), so *any* mismatch is a real
  serving bug;
* **hedging stage** — the same query trace runs twice against a fleet
  with one engineered straggler replica (its batcher deadline inflated),
  hedging off then on, and the tail must shrink;
* **process stage** — the same loop over a
  :class:`~repro.runtime.serving.ProcessFleet`, plus one replica
  SIGKILLed mid-burst: recovery replays the outstanding requests and the
  byte-comparison keeps holding.

``run_elastic_bench`` returns one JSON document (written to ``out`` when
given) with per-stage stats and the pass/fail gates CI asserts on.  Its
latencies describe the drill, not the product: serving throughput and
latency are measured by ``python3 bench/run.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import time
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .cluster import ServingCluster
from .continual import ContinualLearner
from .elastic import ReplicaAutoscaler
from .loadgen import build_queries

# large enough that a burst share always flushes as ONE batch per replica:
# the byte-comparison needs live and reference batch composition identical
_BATCH_CAP = 4096

__all__ = ["default_config", "run_elastic_bench", "write_report"]


def _reference_cluster(base_dir: Path, cfg) -> tuple:
    """A fresh single-replica cluster over independently loaded weights.

    Loading from disk (rather than sharing the live session's model) is
    what makes the comparison meaningful: hot swaps mutate the live
    parameter arrays in place, so the reference must own its own copies
    and be advanced explicitly at the same swap boundaries.
    """
    from ..api.session import Session

    ref = Session.load(base_dir)
    cluster = ServingCluster(
        ref.model,
        ref.graph.slice_events(ref.trainer.split.train),
        ref.decoder,
        k=1,
        max_batch_pairs=_BATCH_CAP,
        max_delay=3600.0,
        dedup=cfg.serve.dedup,
        memoize_time=cfg.serve.memoize_time,
    )
    return ref, cluster


def _replica_index(handle) -> int:
    """Which replica served this request (either fleet)."""
    return handle._primary_index


def _check_burst(handles, ref_cluster, queries, timeout: float) -> int:
    """Score the burst on the reference and count byte mismatches.

    Scores are composition-sensitive at the last ulp (a batch's dedup set
    changes the compute tape — see the runtime serving tests), so the
    reference must replay each live replica's share as one batch, in the
    same submission order, rather than query-by-query.  With that pinned,
    any byte of difference is a genuine state/weight divergence.
    """
    groups: dict = {}
    for handle, query in zip(handles, queries):
        groups.setdefault(_replica_index(handle), []).append((handle, query))
    violations = 0
    for index in sorted(groups):
        share = groups[index]
        ref_handles = [ref_cluster.submit_rank(*q) for _, q in share]
        ref_cluster.flush_all()
        for (handle, _), ref_handle in zip(share, ref_handles):
            if handle.wait(timeout).tobytes() != ref_handle.wait(timeout).tobytes():
                violations += 1
    return violations


def _latency_ms(cluster) -> dict:
    lat = cluster.latency()
    return {
        "count": lat.count,
        "p50": lat.p50 * 1e3,
        "p99": lat.p99 * 1e3,
        "p999": lat.percentile(99.9) * 1e3,
    }


def _hedge_run(base_dir: Path, cfg, queries, *, hedged: bool,
               straggler_delay: float) -> dict:
    """One pass of the fixed trace against a fleet with one straggler.

    Replica 0's batcher deadline is inflated to ``straggler_delay`` —
    requests routed there sit until the deadline flush unless a hedge
    duplicates them onto the healthy replica first.  Hedging changes
    *when* a result arrives, never *what* it is, so this run reuses the
    byte-checked query shapes without re-verifying them.
    """
    from ..api.session import Session

    sess = Session.load(base_dir)
    cluster = ServingCluster(
        sess.model,
        sess.graph.slice_events(sess.trainer.split.train),
        sess.decoder,
        k=2,
        max_batch_pairs=cfg.serve.max_batch_pairs,
        max_delay=1e-3,
        dedup=cfg.serve.dedup,
        memoize_time=cfg.serve.memoize_time,
        hedge_quantile=75.0 if hedged else None,
        hedge_min_delay=2e-3,
    )
    cluster.replicas[0].batcher.max_delay = straggler_delay
    for query in queries:
        handle = cluster.submit_rank(*query)
        handle.wait(30.0)          # drives poll(): deadline flushes + hedges
    stats = cluster.stats
    out = _latency_ms(cluster)
    out.update(
        hedged=stats.hedged,
        hedge_wins=stats.hedge_wins,
        hedge_rate=stats.hedged / max(1, stats.admitted),
        completed=stats.completed,
    )
    return out


def default_config():
    """The drill's experiment: a seconds-scale Wikipedia fit and an elastic
    1-3 replica fleet that refits every 30 ingested events."""
    from ..api.config import (
        DataConfig, ExperimentConfig, ModelConfig, ServeConfig, TrainConfig,
    )

    return ExperimentConfig(
        data=DataConfig(dataset="wikipedia", scale=0.004, seed=0),
        model=ModelConfig(
            memory_dim=16, time_dim=8, embed_dim=16, num_neighbors=5
        ),
        train=TrainConfig(
            epochs=2, batch_size=50, seed=0,
            eval_candidates=10, num_negative_groups=4,
        ),
        serve=ServeConfig(
            replicas=1, max_batch_pairs=64, max_delay_ms=10_000.0,
            min_replicas=1, max_replicas=3,
            scale_up_queue=4.0, scale_down_queue=0.5,
            refit_interval_events=30, refit_epochs=1,
            wal_auto_truncate=True,
        ),
    )


def run_elastic_bench(
    cfg=None,
    *,
    fit_iterations: Optional[int] = 8,
    ticks: int = 6,
    burst: int = 12,
    candidates: int = 8,
    hedge_requests: int = 30,
    straggler_delay: float = 0.05,
    process_stage: bool = True,
    workdir: Optional[Union[str, Path]] = None,
    out: Optional[Union[str, Path]] = None,
    verbose: bool = False,
) -> dict:
    """Run the full closed-loop bench; returns the report dict.

    ``cfg`` defaults to :func:`default_config`.  ``ticks`` bursts
    of ``burst`` requests hit the threaded fleet (heavy first, light last —
    the shape that forces a scale-up and then allows a scale-down);
    ingest+refit interleave per tick.  ``process_stage=False`` skips the
    process-cluster/SIGKILL stage (it spawns real workers).
    """
    from ..api.session import Session

    if cfg is None:
        cfg = default_config()
    if ticks < 4:
        raise ValueError("the burst shape needs at least 4 ticks")

    def say(msg: str) -> None:
        if verbose:
            print(msg)

    # the saved base session and the refit checkpoints live here; a
    # directory the drill made itself goes when the drill ends
    own_work = workdir is None
    work = Path(tempfile.mkdtemp(prefix="repro-ebench-")) if own_work else Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    try:
        # one tracer lane for the whole bench (fit + serving + refits): fits
        # leave an externally configured tracer alone, so the serving spans
        # (ingest / micro_batch) land on the same timeline as the training ones
        from .. import obs

        trace_dir = obs.resolve_trace_dir(cfg)
        own_tracer = trace_dir is not None and obs.get_tracer() is None
        if own_tracer:
            obs.configure(trace_dir, rank=0, lane="serve-bench")

        t_start = time.perf_counter()
        sess = Session(cfg)
        sess.fit(max_iterations=fit_iterations, verbose=False)
        base_dir = sess.save(work / "base")
        say(f"fitted + saved base session to {base_dir}")

        report: dict = {
            "bench": "serving_elastic",
            "dataset": cfg.data.dataset,
            "scale": cfg.data.scale,
            "ticks": ticks,
            "burst": burst,
        }

        # ------------------------------------------------------- threaded stage
        min_k = cfg.serve.min_replicas or 1
        cluster = sess.serve(
            replicas=min_k, max_delay_ms=10_000.0, max_batch_pairs=_BATCH_CAP
        )
        ref_sess, ref_cluster = _reference_cluster(base_dir, cfg)
        learner = ContinualLearner(sess, cluster, workdir=work / "continual")
        scaler = ReplicaAutoscaler.from_config(cluster, cfg.serve, interval=0.0)
        stream = sess.held_out_stream()

        rng = np.random.default_rng(cfg.data.seed + 1)
        # heavy bursts first (deep queues -> scale up), two light closing ticks
        # (drained queues -> scale down)
        bursts = [burst] * (ticks - 2) + [1, 1]
        violations = 0
        requests = 0
        for tick, n in enumerate(bursts):
            queries = build_queries(cluster.graph, n, candidates, rng)
            handles = [cluster.submit_rank(*q) for q in queries]
            decision = scaler.step()        # sees the un-flushed queue depth
            if decision is not None:
                say(f"tick {tick}: scale {decision.action} -> {decision.replicas} "
                    f"({decision.reason})")
            cluster.flush_all()
            violations += _check_burst(handles, ref_cluster, queries, 30.0)
            requests += len(handles)

            batch = next(stream, None)
            if batch is not None:
                cluster.ingest(*batch)
                ref_cluster.ingest(*batch)
            refit = learner.maybe_refit()
            if refit is not None:
                # advance the reference to the same model version
                ref_cluster.hot_swap(*learner.current_blobs, version=refit.version)
                say(f"tick {tick}: hot-swap v{refit.version} "
                    f"(drained={refit.drained_events}, verified={refit.verified})")

        report["threaded"] = {
            "requests": requests,
            "violations": violations,
            "scale_ups": scaler.stats.scale_ups,
            "scale_downs": scaler.stats.scale_downs,
            "final_replicas": len(cluster.replicas),
            "hot_swaps": len(learner.reports),
            "swaps_verified": sum(r.verified for r in learner.reports),
            "wal_base_offset": cluster.wal.base_offset,
            "latency_ms": _latency_ms(cluster),
            "refits": [
                {
                    "version": r.version,
                    "drained_events": r.drained_events,
                    "train_events": r.train_events,
                    "train_loss": r.train_loss,
                    "duration_s": r.duration_s,
                }
                for r in learner.reports
            ],
        }
        learner.detach()

        # -------------------------------------------------------- hedging stage
        hedge_queries = build_queries(
            ref_cluster.graph, hedge_requests, candidates,
            np.random.default_rng(cfg.data.seed + 2),
        )
        off = _hedge_run(
            base_dir, cfg, hedge_queries, hedged=False,
            straggler_delay=straggler_delay,
        )
        on = _hedge_run(
            base_dir, cfg, hedge_queries, hedged=True,
            straggler_delay=straggler_delay,
        )
        report["hedging"] = {
            "trace_requests": hedge_requests,
            "straggler_delay_ms": straggler_delay * 1e3,
            "off": off,
            "on": on,
            "p99_speedup": off["p99"] / on["p99"] if on["p99"] > 0 else float("inf"),
        }
        say(f"hedging: p99 {off['p99']:.2f}ms -> {on['p99']:.2f}ms "
            f"(hedge rate {on['hedge_rate']:.0%})")

        # -------------------------------------------------------- process stage
        if process_stage:
            from ..api.session import Session as _S

            psess = _S.load(base_dir)
            pref_sess, pref_cluster = _reference_cluster(base_dir, cfg)
            prng = np.random.default_rng(cfg.data.seed + 3)
            pviolations = 0
            prequests = 0
            with psess.serve(
                replicas=2, process_replicas=True, max_delay_ms=10_000.0,
                max_batch_pairs=_BATCH_CAP,
            ) as pc:
                plearner = ContinualLearner(psess, pc, workdir=work / "continual_proc")
                pstream = psess.held_out_stream()
                kill_tick = 1
                for tick in range(max(3, ticks - 2)):
                    queries = build_queries(pc.graph, burst, candidates, prng)
                    handles = [pc.submit_rank(*q) for q in queries]
                    if tick == kill_tick:
                        # SIGKILL a replica with its burst share outstanding:
                        # recovery must respawn, catch up from the graph tail
                        # and replay the lost requests — byte-identically
                        victim = pc.replicas[-1].proc
                        os.kill(victim.pid, signal.SIGKILL)
                        say(f"proc tick {tick}: SIGKILLed replica pid {victim.pid}")
                    pc.flush_all()
                    pviolations += _check_burst(handles, pref_cluster, queries, 60.0)
                    prequests += len(handles)
                    batch = next(pstream, None)
                    if batch is not None:
                        pc.ingest(*batch)
                        pref_cluster.ingest(*batch)
                    refit = plearner.maybe_refit()
                    if refit is not None:
                        pref_cluster.hot_swap(
                            *plearner.current_blobs, version=refit.version
                        )
                        say(f"proc tick {tick}: hot-swap v{refit.version}")
                report["process"] = {
                    "requests": prequests,
                    "violations": pviolations,
                    "recoveries": pc.stats.recoveries,
                    "hot_swaps": len(plearner.reports),
                    "swaps_verified": sum(r.verified for r in plearner.reports),
                    "final_replicas": len(pc.replicas),
                    "latency_ms": _latency_ms(pc),
                }
                plearner.detach()

        # --------------------------------------------------------------- gates
        total_swaps = report["threaded"]["hot_swaps"] + (
            report["process"]["hot_swaps"] if process_stage else 0
        )
        total_violations = report["threaded"]["violations"] + (
            report["process"]["violations"] if process_stage else 0
        )
        report["elapsed_s"] = time.perf_counter() - t_start
        report["ok"] = {
            "scaled_up": report["threaded"]["scale_ups"] >= 1,
            "scaled_down": report["threaded"]["scale_downs"] >= 1,
            "hot_swaps": total_swaps >= 2,
            "zero_violations": total_violations == 0,
            "hedging_helped": report["hedging"]["on"]["p99"]
            < report["hedging"]["off"]["p99"],
            "recovered": (not process_stage)
            or report["process"]["recoveries"] >= 1,
        }
        report["passed"] = all(report["ok"].values())

        if own_tracer:
            obs.disable(flush=True)
            obs.merge_trace_dir(trace_dir)
            report["trace_dir"] = str(trace_dir)
    finally:
        if own_work:
            shutil.rmtree(work, ignore_errors=True)

    if out is not None:
        write_report(report, out)
    return report


def write_report(report: dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
