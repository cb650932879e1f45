"""Process-replica serving: bit-identical to in-thread replicas.

One trained session, one ``ServingCluster`` front door, two fleets — k
in-thread replicas and the ``repro.runtime`` process fleet (worker processes
with private model copies over one shared node-memory segment).  The same
request + ingest sequence must produce byte-for-byte identical scores,
because the process replicas fold the stream once into shared state while
the in-thread replicas each fold it privately — same arithmetic, different
topology — and the same front-door accounting, because there is one.
"""

import numpy as np
import pytest

from repro.api.config import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    ServeConfig,
    TrainConfig,
)
from repro.api.session import Session
from repro.obs import get_registry, reset_registry


@pytest.fixture(scope="module")
def fitted_session():
    cfg = ExperimentConfig(
        data=DataConfig(dataset="wikipedia", scale=0.004, seed=0),
        model=ModelConfig(memory_dim=16, time_dim=8, embed_dim=16, num_neighbors=5),
        train=TrainConfig(
            epochs=2, batch_size=50, seed=0,
            eval_candidates=10, num_negative_groups=4,
        ),
        serve=ServeConfig(replicas=2, max_batch_pairs=64, max_delay_ms=1.0),
    )
    sess = Session(cfg)
    sess.fit(max_iterations=6)
    return sess


def request_plan(graph, n_requests=6, candidates=8, seed=7):
    rng = np.random.default_rng(seed)
    t_end = float(graph.timestamps[-1])
    plan = []
    for _ in range(n_requests):
        plan.append(
            (
                int(rng.integers(0, graph.num_nodes)),
                rng.integers(0, graph.num_nodes, size=candidates),
                float(rng.uniform(0.5 * t_end, t_end)),
            )
        )
    return plan


class TestBitIdenticalServing:
    def test_scores_match_threaded_cluster_through_ingest(self, fitted_session):
        sess = fitted_session
        # a huge deadline pins the micro-batch composition to the explicit
        # flush_all calls: deadline flushes are wall-clock-triggered on both
        # cluster kinds, and a batch split at a different boundary changes
        # the dedup set (and hence scores at the last ulp) — composition,
        # not backend, must be the only variable in this comparison
        threaded = sess.serve(replicas=2, max_delay_ms=10_000.0)
        plan1 = request_plan(threaded.graph)
        stream = list(sess.held_out_stream(chunk=40))

        with sess.serve(
            replicas=2, process_replicas=True, max_delay_ms=10_000.0
        ) as proc:
            # phase 1: cold-state ranking queries, round-robin routed
            t_results = [threaded.submit_rank(*req) for req in plan1]
            threaded.flush_all()
            p_results = [proc.submit_rank(*req) for req in plan1]
            proc.flush_all()
            for t_res, p_res in zip(t_results, p_results):
                np.testing.assert_array_equal(p_res.wait(30.0), t_res.value)

            # phase 2: stream held-out events in, then query again — the
            # fold-once shared state must equal k private threaded folds
            for src, dst, times, feats in stream[:2]:
                off_t = threaded.ingest(src, dst, times, feats)
                off_p = proc.ingest(src, dst, times, feats)
                assert off_t == off_p
            plan2 = request_plan(threaded.graph, seed=11)
            t_results = [threaded.submit_rank(*req) for req in plan2]
            threaded.flush_all()
            p_results = [proc.submit_rank(*req) for req in plan2]
            proc.flush_all()
            for t_res, p_res in zip(t_results, p_results):
                np.testing.assert_array_equal(p_res.wait(30.0), t_res.value)

            # predict path too (sigmoid probabilities)
            src = np.array([1, 3, 5], dtype=np.int64)
            dst = np.array([2, 4, 6], dtype=np.int64)
            times = np.full(3, float(threaded.graph.timestamps[-1]))
            t_res = threaded.submit_predict(src, dst, times)
            threaded.flush_all()
            p_res = proc.submit_predict(src, dst, times)
            proc.flush_all()
            np.testing.assert_array_equal(p_res.wait(30.0), t_res.value)

    def test_round_robin_routing_and_stats(self, fitted_session):
        sess = fitted_session
        with sess.serve(replicas=2, process_replicas=True) as proc:
            plan = request_plan(proc.graph, n_requests=4, seed=3)
            results = [proc.submit_rank(*req) for req in plan]
            proc.flush_all()
            for res in results:
                res.wait(30.0)
            assert proc.stats.submitted == 4
            assert proc.stats.routed == [2, 2]
            stats = proc.worker_stats()
            assert [s["rank"] for s in stats] == [0, 1]
            assert sum(s["requests"] for s in stats) == 4
            assert all(s["queries"] > 0 for s in stats)

    def test_shutdown_is_idempotent_and_releases_workers(self, fitted_session):
        proc = fitted_session.serve(replicas=2, process_replicas=True)
        procs = [link.proc for link in proc.replicas]
        proc.shutdown()
        proc.shutdown()
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(RuntimeError, match="shut down"):
            proc.submit_rank(0, np.array([1, 2]), 1.0)


class TestFrontDoorParity:
    """What the front door does *around* the replicas is fleet-independent."""

    @pytest.mark.parametrize("process_replicas", [False, True])
    def test_malformed_request_raises_and_kills_nothing(
        self, fitted_session, process_replicas
    ):
        """A bad request is the caller's ``ValueError`` on either fleet —
        it never reaches a replica (a worker that unwound on it would be
        respawned and handed the same poison request again)."""
        with fitted_session.serve(
            replicas=2, process_replicas=process_replicas
        ) as cluster:
            t = float(cluster.graph.timestamps[-1])
            with pytest.raises(ValueError, match="node ids"):
                cluster.submit_rank(0, np.array([10 ** 9]), t)
            with pytest.raises(ValueError, match="empty"):
                cluster.submit_rank(0, np.array([], dtype=np.int64), t)
            with pytest.raises(ValueError, match="finite"):
                cluster.submit_rank(0, np.array([1, 2]), float("nan"))
            with pytest.raises(ValueError, match="align"):
                cluster.submit_predict([1, 2], [3], [t, t])
            assert cluster.stats.submitted == 0 and cluster.pending_requests == 0
            good = cluster.submit_rank(0, np.array([1, 2, 3]), t)
            cluster.flush_all()
            assert np.all(np.isfinite(good.wait(30.0)))
            assert cluster.stats.recoveries == 0

    def test_worker_answers_a_bad_frame_instead_of_unwinding(self, fitted_session):
        """Defense in depth: a request-level ``ValueError`` raised *inside*
        a worker comes back typed in a ``req_error`` frame; the worker
        lives on."""
        with fitted_session.serve(replicas=1, process_replicas=True) as cluster:
            replica = cluster.replicas[0]
            bad = replica.submit("rank", (0, np.array([10 ** 9]), 1.0), None)
            replica.flush()
            assert bad.done and isinstance(bad._error, ValueError)
            assert "node ids" in str(bad._error)
            assert replica.proc.is_alive() and cluster.stats.recoveries == 0

    def test_serve_counters_match_across_fleets(self, fitted_session):
        """The same 6-request + 1-ingest schedule leaves the same
        ``serve/*`` counters behind on either fleet, and ``poll()`` /
        ``flush_all()`` report flushed counts on both."""
        sess = fitted_session
        batch = next(iter(sess.held_out_stream(chunk=40)))

        def run(process_replicas):
            reset_registry()
            with sess.serve(
                replicas=2, process_replicas=process_replicas,
                max_delay_ms=10_000.0, admission_limit=4,
            ) as cluster:
                plan = request_plan(cluster.graph, n_requests=6)
                handles = [cluster.submit_rank(*req) for req in plan[:5]]
                assert [h is None for h in handles] == [False] * 4 + [True]
                assert cluster.poll() == 0          # nothing is due yet
                assert cluster.flush_all() == 4
                cluster.ingest(*batch)
                handles.append(cluster.submit_rank(*plan[5]))
                assert cluster.flush_all() == 1
                for handle in handles:
                    if handle is not None:
                        handle.wait(30.0)
                stats = cluster.stats
            snapshot = get_registry().snapshot()
            counters = {
                name: entry["value"] for name, entry in snapshot.items()
                if name.startswith("serve/") and entry.get("type") == "counter"
            }
            return counters, stats

        t_counters, t_stats = run(False)
        p_counters, p_stats = run(True)
        p_counters.pop("serve/replica_recoveries", None)
        assert t_counters == p_counters
        assert t_counters["serve/submitted"] == 6 and t_counters["serve/shed"] == 1
        assert t_counters["serve/completed"] == 5
        assert t_stats == p_stats


class TestSnapshotParity:
    """``save()/restore()`` over a process fleet — format and behavior
    parity with in-thread replicas, including cross-fleet restores."""

    def _ingest_stream(self, sess, cluster, chunks=3):
        for batch in list(sess.held_out_stream(chunk=40))[:chunks]:
            cluster.ingest(*batch)

    def test_process_snapshot_restores_into_process_cluster(
        self, fitted_session, tmp_path
    ):
        sess = fitted_session
        plan = request_plan(sess.graph, n_requests=4)
        with sess.serve(
            replicas=2, process_replicas=True, max_delay_ms=10_000.0
        ) as live:
            self._ingest_stream(sess, live)
            snap = live.save(tmp_path / "proc.npz")
            expected = []
            for src, cands, at in plan:
                expected.append(live.submit_rank(src, cands, at))
                live.flush_all()
            expected = [r.value for r in expected]

        with sess.serve(
            replicas=2, process_replicas=True, max_delay_ms=10_000.0
        ) as restored:
            meta = restored.restore(snap)
            assert meta["wal_len"] == len(restored.wal)
            got = []
            for src, cands, at in plan:
                got.append(restored.submit_rank(src, cands, at))
                restored.flush_all()
            for a, b in zip(expected, (r.value for r in got)):
                np.testing.assert_array_equal(b, a)

    def test_threaded_and_process_snapshots_are_interchangeable(
        self, fitted_session, tmp_path
    ):
        """The same stream folded by either cluster kind serializes the
        same serving state, so each kind restores from the other's file
        and serves identical scores."""
        sess = fitted_session
        plan = request_plan(sess.graph, n_requests=4, seed=11)

        threaded = sess.serve(replicas=2, max_delay_ms=10_000.0)
        self._ingest_stream(sess, threaded)
        threaded_snap = threaded.save(tmp_path / "threaded.npz")

        with sess.serve(
            replicas=2, process_replicas=True, max_delay_ms=10_000.0
        ) as proc:
            self._ingest_stream(sess, proc)
            proc_snap = proc.save(tmp_path / "proc.npz")

        # identical replica payloads byte for byte
        a = np.load(threaded_snap, allow_pickle=False)
        b = np.load(proc_snap, allow_pickle=False)
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            if key != "meta/json":
                assert a[key].tobytes() == b[key].tobytes(), key

        # threaded snapshot -> fresh process cluster
        with sess.serve(
            replicas=2, process_replicas=True, max_delay_ms=10_000.0
        ) as restored_proc:
            restored_proc.restore(threaded_snap)
            proc_scores = []
            for src, cands, at in plan:
                proc_scores.append(restored_proc.submit_rank(src, cands, at))
                restored_proc.flush_all()
            proc_scores = [r.value for r in proc_scores]

        # process snapshot -> fresh threaded cluster
        restored_threaded = sess.serve(replicas=2, max_delay_ms=10_000.0)
        restored_threaded.restore(proc_snap)
        for (src, cands, at), expect in zip(plan, proc_scores):
            handle = restored_threaded.submit_rank(src, cands, at)
            restored_threaded.flush_all()
            np.testing.assert_array_equal(handle.value, expect)

    def test_restore_rejects_dirty_process_cluster(self, fitted_session, tmp_path):
        sess = fitted_session
        with sess.serve(
            replicas=2, process_replicas=True, max_delay_ms=10_000.0
        ) as live:
            self._ingest_stream(sess, live, chunks=1)
            snap = live.save(tmp_path / "snap.npz")
            with pytest.raises(ValueError, match="pristine"):
                live.restore(snap)


class TestWorkerLoop:
    def test_frames_waiting_before_a_poll_become_one_flush(self, fitted_session):
        """The replica loop reads every frame already waiting before it
        polls its batcher, so at window 0 a burst is one batch, not one
        flush per request."""
        import threading

        from repro.runtime.serving import serve_worker
        from repro.runtime.sharedmem import create_group_states
        from repro.runtime.transport import pipe_channel_pair

        sess = fitted_session
        graph = sess.graph.slice_events(sess.trainer.split.train)
        (state,) = create_group_states(
            1, num_nodes=graph.num_nodes, memory_dim=sess.model.config.memory_dim,
            edge_dim=graph.edge_dim, name_prefix="repro-serve",
        )
        parent, child = pipe_channel_pair(30.0)
        plan = request_plan(graph, n_requests=5)
        # queued in the pipe before the worker exists, so all are waiting
        # by the time its loop first looks
        for rid, (src, candidates, at_time) in enumerate(plan):
            parent.send(
                "rank", meta={"req_id": rid, "src": src, "at_time": at_time},
                arrays={"candidates": candidates},
            )
        worker = threading.Thread(
            target=serve_worker, args=(0, child), daemon=True,
            kwargs=dict(
                config_dict=sess.config.to_dict(),
                shared_spec=state.spec.to_dict(),
                serve_meta={
                    "max_batch_pairs": 10 ** 6, "max_delay": 0.0,
                    "dedup": True, "memoize_time": True,
                    "_model_blob": sess.model.to_bytes(),
                    "_decoder_blob": sess.decoder.to_bytes(),
                },
            ),
        )
        worker.start()
        try:
            parent.expect("ready", timeout=60.0)
            answers = [parent.recv(timeout=30.0) for _ in plan]
            assert [f.tag for f in answers] == ["result"] * len(plan)
            assert sorted(f.meta["req_id"] for f in answers) == list(range(len(plan)))
            parent.send("stats")
            stats = parent.expect("stats_ack", timeout=30.0).meta
            assert stats["requests"] == len(plan)
            assert stats["flushes"] == 1
        finally:
            parent.send("stop")
            worker.join(timeout=30.0)
            state.close()
            state.unlink()
        assert not worker.is_alive()
