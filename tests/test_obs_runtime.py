"""End-to-end telemetry: traced fits, recovery spans, the trace CLI.

Tier-1 contract: a 2-worker process fit with a trace directory configured
produces a parseable merged Chrome-trace timeline containing every
expected phase span; a chaos fit (rank SIGKILLed mid-epoch) additionally
shows the supervisor's ``rollback``/``respawn`` spans and recovery
counters; the local backend traces through the same switch; and
``repro.cli trace --dir`` renders it all.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.api.config import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    ObsConfig,
    TrainConfig,
)
from repro.api.session import Session
from repro.cli import main as cli_main
from repro.obs.merge import MERGED_NAME, read_trace_file, summarize_trace
from repro.parallel.config import ParallelConfig
from repro.runtime.launcher import (
    RecoveryPolicy,
    apply_process_result,
    run_process_fit,
)
from repro.testing import chaos_fit

FIT_TIMEOUT = 240.0
POLICY = RecoveryPolicy(collective_timeout=8.0, park_grace=10.0)

#: every phase the worker step anatomy must surface in a process trace
WORKER_PHASES = {
    "sample", "prep", "forward", "backward",
    "allreduce", "barrier", "commit", "writeback",
}


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.reset_registry()
    yield
    obs.disable(flush=False)
    obs.reset_registry()


def traced_config(plan: str, trace_dir, seed: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        data=DataConfig(dataset="wikipedia", scale=0.004, seed=seed),
        model=ModelConfig(memory_dim=16, time_dim=8, embed_dim=16, num_neighbors=5),
        parallel=ParallelConfig.parse(plan),
        train=TrainConfig(
            epochs=3, batch_size=50, seed=seed,
            eval_candidates=10, num_negative_groups=4,
        ),
        obs=ObsConfig(trace_dir=str(trace_dir)),
    )


class TestProcessFitTrace:
    def test_two_worker_fit_produces_merged_trace(self, tmp_path):
        """The tier-1 acceptance test: 2x1x1 process fit -> parseable merged
        trace with both rank lanes, the supervisor lane, and every phase."""
        cfg = traced_config("2x1x1", tmp_path)
        sess = Session(cfg)
        result = sess.fit(max_iterations=8, backend="process", timeout=FIT_TIMEOUT)
        assert result.iterations_run > 0

        merged = tmp_path / MERGED_NAME
        assert merged.exists()
        events = read_trace_file(merged)
        assert events, "merged trace must be non-empty and parseable"
        # every line is a well-formed Chrome trace event
        for ev in events:
            assert "ph" in ev and "pid" in ev
            if ev["ph"] == "X":
                assert ev["dur"] >= 0 and "ts" in ev

        summary = summarize_trace(events)
        lane_names = {lane["lane"] for lane in summary["lanes"].values()}
        assert {"rank0", "rank1", "supervisor"} <= lane_names
        assert WORKER_PHASES <= set(summary["phases"])
        # an unfaulted fit records no recovery events
        assert summary["recovery"] == []

    def test_trace_sync_accounting_matches_worker_meta(self, tmp_path):
        """The trace-side sync fraction must reproduce the number the
        workers themselves report through the ``meta["bench"]`` path that
        ``bench/lifecycle.py`` reads (same formula: sync-category spans
        minus commit-category spans)."""
        cfg = ExperimentConfig(
            data=DataConfig(dataset="hotpath", scale=0.01, seed=0),
            model=ModelConfig(memory_dim=24, time_dim=12, embed_dim=24),
            parallel=ParallelConfig(i=2, j=1, k=1),
            train=TrainConfig(
                batch_size=50, num_negative_groups=4, eval_candidates=10,
                seed=0, prep_cache_batches=512,
            ),
            obs=ObsConfig(trace_dir=str(tmp_path)),
        )
        sess = Session(cfg)
        meta, arrays, states = run_process_fit(
            cfg, sess.trainer, max_iterations=6, eval_every_sweeps=10**9,
            timeout=FIT_TIMEOUT,
        )
        apply_process_result(sess.trainer, meta, arrays, states)
        ranks = meta["bench"]
        summary = summarize_trace(read_trace_file(tmp_path / MERGED_NAME))
        trace_sync = max(
            lane["sync_s"] for lane in summary["lanes"].values()
            if lane["lane"].startswith("rank")
        )
        meta_sync = max(r["sync_s"] for r in ranks)
        assert trace_sync == pytest.approx(meta_sync, rel=0.05, abs=0.02)
        # the per-rank phase totals come from these same spans
        phases = set().union(*(r["phases"] for r in ranks))
        assert phases >= {"allreduce", "commit", "forward"}

    def test_untraced_fit_writes_nothing_and_disables(self, tmp_path):
        cfg = ExperimentConfig(
            data=DataConfig(dataset="wikipedia", scale=0.004, seed=0),
            model=ModelConfig(memory_dim=16, time_dim=8, embed_dim=16,
                              num_neighbors=5),
            parallel=ParallelConfig.parse("2x1x1"),
            train=TrainConfig(epochs=3, batch_size=50, seed=0,
                              eval_candidates=10, num_negative_groups=4),
        )
        Session(cfg).fit(max_iterations=4, backend="process", timeout=FIT_TIMEOUT)
        assert not obs.is_enabled()
        assert list(tmp_path.iterdir()) == []


class TestLocalFitTrace:
    def test_local_backend_traces_through_same_switch(self, tmp_path):
        cfg = traced_config("1x1x1", tmp_path)
        Session(cfg).fit(max_iterations=6)
        merged = tmp_path / MERGED_NAME
        assert merged.exists()
        summary = summarize_trace(read_trace_file(merged))
        assert {"sample", "prep", "forward", "backward"} <= set(summary["phases"])
        (lane,) = summary["lanes"].values()
        assert lane["lane"] == "local"
        # fit() must tear the tracer back down
        assert not obs.is_enabled()


class TestChaosTrace:
    def test_killed_rank_shows_rollback_and_respawn(self, tmp_path):
        """A SIGKILL mid-epoch must leave a recovery story in the trace:
        the supervisor's rollback + respawn spans (with generation and
        rank args) and the recovery counters in the parent registry."""
        cfg = traced_config("2x1x1", tmp_path)
        sess, result = chaos_fit(
            cfg, {"worker.step:3": ("crash", 1)},
            max_iterations=8, recovery=POLICY, timeout=FIT_TIMEOUT,
        )
        assert result.iterations_run > 0

        summary = summarize_trace(read_trace_file(tmp_path / MERGED_NAME))
        names = [e["name"] for e in summary["recovery"]]
        assert "rollback" in names and "respawn" in names
        rollback = next(e for e in summary["recovery"] if e["name"] == "rollback")
        respawn = next(e for e in summary["recovery"] if e["name"] == "respawn")
        assert rollback["ts_s"] <= respawn["ts_s"]
        assert respawn["rank"] == 1
        assert rollback["generation"] >= 1

        reg = obs.get_registry()
        assert reg.value("recovery/restarts") >= 1
        assert reg.value("recovery/respawns") >= 1
        latency = reg.get("recovery/respawn_latency_s")
        assert latency is not None and latency.count >= 1
        assert latency.maximum > 0

    def test_killed_rank_leaves_partial_lane_that_merges(self, tmp_path):
        """The killed rank's truncated lane file must still participate in
        the merge (file-backed shipping is exactly for this case)."""
        cfg = traced_config("2x1x1", tmp_path)
        chaos_fit(
            cfg, {"worker.step:3": ("crash", 1)},
            max_iterations=8, recovery=POLICY, timeout=FIT_TIMEOUT,
        )
        events = read_trace_file(tmp_path / MERGED_NAME)
        pids_with_spans = {e["pid"] for e in events if e.get("ph") == "X"}
        # both ranks and the supervisor contributed spans despite the kill
        assert {0, 1} <= pids_with_spans


class TestTraceCli:
    def _write_synthetic_lane(self, tmp_path):
        from repro.obs.trace import Tracer

        tr = Tracer(rank=0, path=tmp_path / "trace-rank0.jsonl", registry=None)
        with tr.span("forward", size=10):
            pass
        tr.instant("park", iteration=3)
        tr.flush()

    def test_cli_merges_and_summarizes(self, tmp_path, capsys):
        self._write_synthetic_lane(tmp_path)
        assert cli_main(["trace", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "forward" in out and "rank0" in out
        assert "recovery timeline" in out
        assert (tmp_path / MERGED_NAME).exists()

    def test_cli_json_output_is_parseable(self, tmp_path, capsys):
        self._write_synthetic_lane(tmp_path)
        assert cli_main(["trace", "--dir", str(tmp_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "forward" in summary["phases"]
        assert summary["recovery"][0]["name"] == "park"

    def test_cli_empty_dir_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["trace", "--dir", str(tmp_path)]) == 2
        assert "no trace" in capsys.readouterr().out

    def test_cli_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["trace", "--dir", str(tmp_path / "nope")]) == 2


class TestServeRegistryExport:
    def test_cluster_exports_shared_registry_snapshot(self):
        from helpers import toy_serving_setup
        from repro.serve import ServingCluster

        model, decoder, g, serve_graph, split = toy_serving_setup()
        cluster = ServingCluster(
            model, serve_graph, decoder, k=2, max_delay=1e-3
        )
        t = cluster.graph.max_time + 1.0
        for i in range(4):
            cluster.submit_rank(int(g.src[i]), np.arange(12, 16), t)
        cluster.flush_all()
        snap = cluster.export_metrics()
        assert snap["serve/submitted"]["value"] == 4.0
        assert snap["serve/replicas"]["value"] == 2.0
        assert snap["serve/latency_s"]["type"] == "histogram"
        assert snap["serve/latency_s"]["count"] == 4
        # the export is JSON-serializable (ships over any transport)
        json.dumps(snap)
