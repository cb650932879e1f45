"""Span tracer + cross-rank merge: alignment, robustness, disabled cost.

Covers the tracer contract (nesting, thread safety, Chrome trace-event
shape, file flush), the merge contract (monotonic-clock offset alignment
across ranks, interleaved ordering, partial traces from killed ranks,
corrupt-line tolerance), and the performance contract — with telemetry
disabled the instrumentation points must be cheap enough that a training
step pays < 2% overhead.
"""

import json
import threading
import time

import pytest

from repro import obs
from repro.api import Session
from repro.api.config import DataConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.obs.merge import (
    MERGED_NAME,
    merge_events,
    merge_trace_dir,
    read_trace_file,
    summarize_trace,
    summarize_trace_file,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, _NULL_SPAN, span


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Tests that configure the global tracer must not leak it."""
    yield
    obs.disable(flush=False)


def spans_of(events):
    return [e for e in events if e.get("ph") == "X"]


class TestTracer:
    def test_span_records_duration_and_args(self):
        tr = Tracer(rank=0, registry=None)
        with tr.span("forward", size=100):
            time.sleep(0.002)
        (ev,) = spans_of(tr.events())
        assert ev["name"] == "forward"
        assert ev["args"] == {"size": 100}
        assert ev["dur"] >= 1000        # microseconds
        assert ev["pid"] == 0

    def test_nested_spans_contained(self):
        tr = Tracer(registry=None)
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.001)
        inner, outer = spans_of(tr.events())   # inner exits (records) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["tid"] == inner["tid"]    # same thread, same lane row
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_thread_safety_distinct_tids(self):
        tr = Tracer(registry=None)
        # hold all threads live simultaneously: Python reuses the idents of
        # exited threads, which would legitimately collapse the tid set
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            for _ in range(200):
                with tr.span("step"):
                    pass
            barrier.wait()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = spans_of(tr.events())
        assert len(events) == 800
        assert len({e["tid"] for e in events}) == 4

    def test_header_carries_clock_anchors(self):
        tr = Tracer(rank=3, lane="rank3", registry=None)
        meta = [e for e in tr.events() if e.get("ph") == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "clock_sync"}
        sync = next(e for e in meta if e["name"] == "clock_sync")
        assert sync["args"]["epoch_anchor"] == tr.epoch_anchor
        assert sync["args"]["mono_anchor"] == tr.mono_anchor

    def test_flush_appends_jsonl(self, tmp_path):
        path = tmp_path / "trace-rank0.jsonl"
        tr = Tracer(rank=0, path=path, registry=None)
        with tr.span("a"):
            pass
        assert tr.flush() == 1
        with tr.span("b"):
            pass
        assert tr.flush() == 1                 # appends, header written once
        events = read_trace_file(path)
        assert [e["name"] for e in events] == ["process_name", "clock_sync", "a", "b"]

    def test_spans_feed_phase_counters(self):
        reg = MetricsRegistry()
        tr = Tracer(registry=reg)
        with tr.span("allreduce"):
            time.sleep(0.001)
        with tr.span("allreduce"):
            pass
        totals = obs.phase_totals(reg)
        assert set(totals) == {"allreduce"}
        assert totals["allreduce"] >= 0.001

    def test_instant_event_shape(self):
        tr = Tracer(registry=None)
        tr.instant("park", rank=1)
        (ev,) = [e for e in tr.events() if e.get("ph") == "i"]
        assert ev["s"] == "p" and ev["args"] == {"rank": 1}


class TestGlobalToggle:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.is_enabled()
        s = span("forward", size=1)
        assert s is _NULL_SPAN
        with s:
            pass
        assert obs.flush() == 0

    def test_configure_enables_and_disable_clears(self, tmp_path):
        tr = obs.configure(tmp_path, rank=1, registry=MetricsRegistry())
        assert obs.is_enabled() and obs.get_tracer() is tr
        with span("commit"):
            pass
        obs.disable(flush=True)
        assert not obs.is_enabled()
        events = read_trace_file(tmp_path / "trace-rank1.jsonl")
        assert any(e["name"] == "commit" for e in events)

    def test_env_override_wins(self, tmp_path, monkeypatch):
        from repro.api.config import ExperimentConfig, ObsConfig
        from repro.obs.trace import resolve_trace_dir

        cfg = ExperimentConfig(obs=ObsConfig(trace_dir="from-config"))
        assert resolve_trace_dir(cfg) == "from-config"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        assert resolve_trace_dir(cfg) == str(tmp_path)
        assert resolve_trace_dir(ExperimentConfig()) == str(tmp_path)
        monkeypatch.delenv("REPRO_TRACE_DIR")
        assert resolve_trace_dir(ExperimentConfig()) is None


class TestMerge:
    def _two_lanes(self, offset_s: float):
        """Two tracers whose wall clocks say rank1 started offset_s later."""
        t0 = Tracer(rank=0, registry=None)
        t1 = Tracer(rank=1, registry=None)
        # synthetic anchors: identical monotonic origin, shifted wall clock
        t1.mono_anchor = t0.mono_anchor
        t1.epoch_anchor = t0.epoch_anchor + offset_s
        return t0, t1

    def test_clock_offset_alignment(self):
        t0, t1 = self._two_lanes(offset_s=2.0)
        with t0.span("a"):
            pass
        with t1.span("b"):
            pass
        merged = merge_events([t0.events(), t1.events()])
        a = next(e for e in merged if e.get("name") == "a")
        b = next(e for e in merged if e.get("name") == "b")
        # both spans happened ~simultaneously on the monotonic clock, so on
        # the merged axis lane 1 lands ~2s later
        assert b["ts"] - a["ts"] == pytest.approx(2e6, rel=0.05)

    def test_interleaved_ordering(self):
        t0, t1 = self._two_lanes(offset_s=0.0)
        for step in range(3):
            with t0.span("step", i=step):
                time.sleep(0.001)
            with t1.span("step", i=step):
                time.sleep(0.001)
        merged = spans_of(merge_events([t0.events(), t1.events()]))
        assert [e["ts"] for e in merged] == sorted(e["ts"] for e in merged)
        assert [(e["args"]["i"], e["pid"]) for e in merged] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
        ]

    def test_lane_without_clock_sync_still_merges(self):
        """A rank killed before its first flush completes may leave spans
        with no header; they keep relative order at zero offset."""
        t0, _ = self._two_lanes(0.0)
        with t0.span("a"):
            pass
        headerless = [e for e in t0.events() if e.get("ph") != "M"]
        merged = merge_events([headerless])
        assert [e["name"] for e in merged] == ["a"]

    def test_truncated_and_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "trace-rank0.jsonl"
        tr = Tracer(rank=0, path=path, registry=None)
        with tr.span("kept"):
            pass
        tr.flush()
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('["a", "list", "not", "a", "dict"]\n')
            fh.write('{"name": "torn", "ph": "X", "ts": 1')   # SIGKILL mid-write
        events = read_trace_file(path)
        assert [e["name"] for e in events if e.get("ph") == "X"] == ["kept"]

    def test_merge_trace_dir_writes_merged_file(self, tmp_path):
        for rank in range(2):
            tr = Tracer(rank=rank, path=tmp_path / f"trace-rank{rank}.jsonl",
                        registry=None)
            with tr.span("step"):
                pass
            tr.flush()
        out = merge_trace_dir(tmp_path)
        assert out == tmp_path / MERGED_NAME
        merged = read_trace_file(out)
        assert len(spans_of(merged)) == 2
        # re-merging must not ingest the merged file as a lane
        assert merge_trace_dir(tmp_path) == out
        assert len(spans_of(read_trace_file(out))) == 2

    def test_merge_empty_dir_returns_none(self, tmp_path):
        assert merge_trace_dir(tmp_path) is None


class TestSummary:
    def test_sync_fraction_mirrors_bench_formula(self):
        """Trace-side sync_s = sync-category spans minus commit-category
        spans, clamped at zero — the worker's own accounting."""
        events = [
            {"ph": "M", "name": "process_name", "pid": 0,
             "args": {"name": "rank0"}},
            {"name": "barrier", "ph": "X", "ts": 0.0, "dur": 2e6, "pid": 0,
             "tid": 0, "args": {"cat": "sync"}},
            {"name": "serial", "ph": "X", "ts": 2e6, "dur": 1e6, "pid": 0,
             "tid": 0, "args": {"cat": "sync"}},
            {"name": "commit", "ph": "X", "ts": 2.2e6, "dur": 0.5e6, "pid": 0,
             "tid": 0, "args": {"cat": "commit"}},
            {"name": "forward", "ph": "X", "ts": 3e6, "dur": 1e6, "pid": 0,
             "tid": 0},
        ]
        lane = summarize_trace(events)["lanes"][0]
        assert lane["lane"] == "rank0"
        assert lane["sync_s"] == pytest.approx(2.5)     # 3.0 sync - 0.5 commit
        assert lane["wall_s"] == pytest.approx(4.0)
        assert lane["sync_frac"] == pytest.approx(2.5 / 4.0)
        assert lane["phases"]["barrier"]["count"] == 1

    def test_recovery_timeline_collected_and_sorted(self):
        events = [
            {"name": "respawn", "ph": "X", "ts": 5e6, "dur": 1e5, "pid": 9,
             "tid": 0, "args": {"rank": 1}},
            {"name": "rollback", "ph": "X", "ts": 4e6, "dur": 2e5, "pid": 9,
             "tid": 0, "args": {"depth": 2}},
            {"name": "park", "ph": "i", "ts": 3e6, "pid": 1, "tid": 0, "s": "p",
             "args": {"iteration": 7}},
        ]
        recovery = summarize_trace(events)["recovery"]
        assert [e["name"] for e in recovery] == ["park", "rollback", "respawn"]
        assert recovery[1]["depth"] == 2 and recovery[2]["dur_s"] == 0.1

    def test_host_prefixed_lanes_roll_up_per_host(self):
        """Fabric lanes (``h<machine>.rank<rank>``) aggregate under
        ``hosts``: slowest-lane wall/sync per host — the bench's
        max-across-ranks convention — while plain lanes stay out."""
        def lane(pid, name, wall_us, sync_us):
            return [
                {"ph": "M", "name": "process_name", "pid": pid,
                 "args": {"name": name}},
                {"name": "allreduce", "ph": "X", "ts": 0.0, "dur": sync_us,
                 "pid": pid, "tid": 0, "args": {"cat": "sync"}},
                {"name": "forward", "ph": "X", "ts": sync_us, "pid": pid,
                 "dur": wall_us - sync_us, "tid": 0},
            ]

        events = (
            lane(0, "h0.rank0", 4e6, 1e6)
            + lane(1, "h0.rank1", 6e6, 3e6)
            + lane(2, "h1.rank2", 5e6, 2e6)
            + lane(9, "supervisor", 9e6, 0.0)
        )
        summary = summarize_trace(events)
        hosts = summary["hosts"]
        assert list(hosts) == ["h0", "h1"]
        assert hosts["h0"]["lanes"] == 2 and hosts["h1"]["lanes"] == 1
        # h0's slowest lane paces it: wall 6s, sync 3s
        assert hosts["h0"]["wall_s"] == pytest.approx(6.0)
        assert hosts["h0"]["sync_s"] == pytest.approx(3.0)
        assert hosts["h0"]["sync_frac"] == pytest.approx(0.5)
        assert hosts["h1"]["wall_s"] == pytest.approx(5.0)
        text = obs.format_summary(summary)
        assert "hosts:" in text and "h0: 2 lanes" in text

    def test_no_host_lanes_means_empty_rollup(self):
        events = [
            {"ph": "M", "name": "process_name", "pid": 0,
             "args": {"name": "rank0"}},
            {"name": "forward", "ph": "X", "ts": 0.0, "dur": 1e6, "pid": 0,
             "tid": 0},
        ]
        summary = summarize_trace(events)
        assert summary["hosts"] == {}
        assert "hosts:" not in obs.format_summary(summary)

    def test_summarize_file_round_trip(self, tmp_path):
        tr = Tracer(rank=0, path=tmp_path / "trace-rank0.jsonl", registry=None)
        with tr.span("forward"):
            pass
        tr.flush()
        merged = merge_trace_dir(tmp_path)
        summary = summarize_trace_file(merged)
        assert summary["events"] == 1
        assert "forward" in summary["phases"]
        text = obs.format_summary(summary)
        assert "rank0" in text and "forward" in text


class TestDisabledOverhead:
    def test_disabled_span_cost_under_two_percent_of_step(self):
        """The tier-1 overhead guard: with telemetry off, the per-step cost
        of every instrumentation point must be < 2% of a measured training
        step.  Measured as (disabled span() unit cost) x (a generous bound
        on spans per step), against the step time of a real training loop
        on the ``hotpath`` graph — far less timing-noise-prone than
        differencing two full runs.
        """
        assert not obs.is_enabled()

        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            with span("forward", size=1):
                pass
        per_call = (time.perf_counter() - t0) / n

        cfg = ExperimentConfig(
            data=DataConfig(dataset="hotpath", scale=0.005, seed=0),
            model=ModelConfig(memory_dim=24, time_dim=12, embed_dim=24),
            train=TrainConfig(
                batch_size=100, num_negative_groups=4, eval_candidates=10,
                seed=0, prep_cache_batches=512,
            ),
        )
        trainer = Session(cfg).trainer
        warm, steps = 2, 5
        marks = []                  # one per block: 1x1x1 -> one per step
        trainer.train(
            max_iterations=warm + steps,
            eval_every_sweeps=10**9,
            on_block_boundary=lambda *_: marks.append(time.perf_counter()),
        )
        assert len(marks) == warm + steps
        per_step = (marks[-1] - marks[warm - 1]) / steps

        # ~2 spans per shard x a handful of shards plus sample/barrier/
        # commit sites: 200 is an order of magnitude above reality
        spans_per_step = 200
        overhead = per_call * spans_per_step
        assert overhead < 0.02 * per_step, (
            f"disabled telemetry costs {overhead * 1e6:.1f}us/step "
            f"({overhead / per_step:.1%} of a {per_step * 1e3:.2f}ms step)"
        )
