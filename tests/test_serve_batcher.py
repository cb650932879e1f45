"""Micro-batcher: size/deadline flush triggers, fused-batch correctness,
thread-safe waiting."""

import threading
import time

import numpy as np
import pytest

from repro.infer import InferenceEngine
from repro.serve import MicroBatcher

from helpers import toy_serving_setup


class FakeClock:
    """Deterministic, manually advanced time source."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def build_engine(seed=0):
    model, decoder, g, serve_graph, split = toy_serving_setup(seed=seed)
    engine = InferenceEngine(model, serve_graph, decoder=decoder,
                             append_on_observe=False)
    return engine, g, serve_graph


class TestFlushTriggers:
    def test_flush_on_size(self):
        engine, g, sg = build_engine()
        clk = FakeClock()
        b = MicroBatcher(engine, max_batch_pairs=8, max_delay=100.0, clock=clk)
        t = sg.max_time + 1.0
        h1 = b.submit_rank(int(g.src[0]), np.arange(12, 16), t)   # 4 pairs
        assert not h1.done and b.pending_requests == 1
        h2 = b.submit_rank(int(g.src[1]), np.arange(14, 18), t)   # reaches 8
        assert h1.done and h2.done
        assert b.pending_requests == 0
        assert b.stats.flushes == 1 and b.stats.size_flushes == 1
        assert b.stats.deadline_flushes == 0

    def test_flush_on_deadline(self):
        engine, g, sg = build_engine()
        clk = FakeClock()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=0.5, clock=clk)
        h = b.submit_rank(int(g.src[0]), np.arange(12, 16), sg.max_time + 1.0)
        assert b.poll() == 0 and not h.done       # deadline not reached
        clk.advance(0.4)
        assert b.poll() == 0 and not h.done       # still inside the window
        clk.advance(0.2)
        assert b.poll() == 1 and h.done           # 0.6s > 0.5s deadline
        assert b.stats.deadline_flushes == 1
        assert h.latency == pytest.approx(0.6)

    def test_empty_flush_and_poll_are_noops(self):
        engine, _, _ = build_engine()
        b = MicroBatcher(engine, clock=FakeClock())
        assert b.flush() == 0
        assert b.poll() == 0

    def test_decoder_required(self):
        engine, _, _ = build_engine()
        engine.decoder = None
        with pytest.raises(ValueError):
            MicroBatcher(engine)


class TestCorrectness:
    def test_batched_rank_matches_per_request(self):
        engine, g, sg = build_engine()
        reference, _, _ = build_engine()        # identical fresh engine
        clk = FakeClock()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=1.0, clock=clk)
        t = sg.max_time + 1.0
        reqs = [(int(g.src[i]), np.arange(12, 12 + 6) + i) for i in range(4)]
        handles = [b.submit_rank(s, c, t) for s, c in reqs]
        assert b.flush() == 4
        for (s, c), h in zip(reqs, handles):
            np.testing.assert_allclose(
                h.value, reference.rank_candidates(s, c, t), rtol=1e-6, atol=1e-7
            )

    def test_batched_predict_matches_and_is_probability(self):
        engine, g, sg = build_engine()
        reference, _, _ = build_engine()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=1.0,
                         clock=FakeClock())
        src, dst = g.src[:6], g.dst[:6]
        times = np.full(6, sg.max_time + 1.0)
        h = b.submit_predict(src, dst, times)
        b.flush()
        assert ((h.value >= 0) & (h.value <= 1)).all()
        np.testing.assert_allclose(
            h.value, reference.predict_links(src, dst, times), rtol=1e-6, atol=1e-7
        )

    def test_cross_request_dedup_amortizes(self):
        """Same source queried by many 'clients' → one unique embed."""
        engine, g, sg = build_engine()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=1.0,
                         clock=FakeClock())
        t = sg.max_time + 1.0
        cands = np.arange(12, 20)
        for _ in range(5):                      # five clients, same query shape
            b.submit_rank(int(g.src[0]), cands, t)
        b.flush()
        # 5 * (8 src copies + 8 candidates) queries, but only 9 unique
        assert engine.stats.queries == 80
        assert engine.stats.unique_queries == 9
        assert engine.stats.dedup_ratio > 0.85

    def test_invalid_request_rejected_at_submit(self):
        """Garbage requests fail the submitting client, not the batch."""
        engine, g, sg = build_engine()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=1.0,
                         clock=FakeClock())
        t = sg.max_time + 1.0
        with pytest.raises(ValueError, match="node ids"):
            b.submit_rank(int(g.src[0]), np.array([g.num_nodes + 5]), t)
        with pytest.raises(ValueError, match="node ids"):
            b.submit_rank(-1, np.arange(12, 16), t)
        with pytest.raises(ValueError, match="finite"):
            b.submit_predict(g.src[:1], g.dst[:1], np.array([np.nan]))
        assert b.pending_requests == 0
        # a valid request afterwards still works
        h = b.submit_rank(int(g.src[0]), np.arange(12, 16), t)
        b.flush()
        assert h.value.shape == (4,)

    def test_flush_failure_reaches_every_waiter(self):
        """An engine error during flush fails all queued requests instead of
        stranding them (the batch is dequeued before the engine runs)."""
        engine, g, sg = build_engine()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=1.0,
                         clock=FakeClock())
        t = sg.max_time + 1.0
        h1 = b.submit_rank(int(g.src[0]), np.arange(12, 16), t)
        h2 = b.submit_rank(int(g.src[1]), np.arange(12, 16), t)

        def boom(*a, **k):
            raise RuntimeError("engine exploded")

        engine.embed = boom
        assert b.flush() == 2
        assert h1.done and h2.done
        assert b.stats.failed_flushes == 1
        for h in (h1, h2):
            with pytest.raises(RuntimeError, match="engine exploded"):
                _ = h.value
        with pytest.raises(RuntimeError, match="engine exploded"):
            h1.wait(timeout=1.0)

    def test_result_access_before_flush_raises(self):
        engine, g, sg = build_engine()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=1.0,
                         clock=FakeClock())
        h = b.submit_rank(int(g.src[0]), np.arange(12, 16), sg.max_time + 1.0)
        with pytest.raises(RuntimeError):
            _ = h.value
        with pytest.raises(RuntimeError):
            _ = h.latency


class TestThreading:
    def test_waiting_clients_drive_the_deadline_flush(self):
        """Blocked clients cooperatively poll; no dedicated flusher needed."""
        engine, g, sg = build_engine()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=5e-3)
        t = sg.max_time + 1.0
        results = {}

        def client(i):
            h = b.submit_rank(int(g.src[i]), np.arange(12, 16), t)
            results[i] = h.wait(timeout=10.0)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=20.0)
        assert sorted(results) == [0, 1, 2, 3]
        assert all(r.shape == (4,) for r in results.values())
        assert b.stats.flushes >= 1


class TestWorkConserving:
    """The default window is 0: a poll that finds queued work flushes it, and
    a batch computing on the engine never blocks new submissions."""

    def test_default_window_is_the_serve_config_default_of_zero(self):
        from repro.api.config import ServeConfig
        from repro.serve import ServingCluster

        engine, g, sg = build_engine()
        model, decoder = engine.model, engine.decoder
        assert ServeConfig().max_delay_ms == 0.0
        assert MicroBatcher(engine).max_delay == 0.0
        cluster = ServingCluster(model, sg, decoder, k=1)
        assert cluster.replicas[0].batcher.max_delay == 0.0

    def test_first_poll_flushes_at_window_zero(self):
        engine, g, sg = build_engine()
        clk = FakeClock()   # never advanced: no time has to pass
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, clock=clk)
        t = sg.max_time + 1.0
        h1 = b.submit_rank(int(g.src[0]), np.arange(12, 16), t)
        h2 = b.submit_rank(int(g.src[1]), np.arange(14, 18), t)
        assert b.time_to_flush() == 0.0
        assert b.poll() == 2 and h1.done and h2.done
        assert b.stats.flushes == 1 and b.stats.deadline_flushes == 1
        assert b.poll() == 0 and b.time_to_flush() is None

    def test_an_explicit_window_still_holds_work(self):
        engine, g, sg = build_engine()
        clk = FakeClock()
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=0.5, clock=clk)
        h = b.submit_rank(int(g.src[0]), np.arange(12, 16), sg.max_time + 1.0)
        clk.advance(0.2)
        assert b.time_to_flush() == pytest.approx(0.3)
        assert b.poll() == 0 and not h.done
        clk.advance(0.3)
        assert b.poll() == 1 and h.done

    def test_a_request_submitted_while_a_batch_computes_joins_the_next(self):
        engine, g, sg = build_engine()
        real_embed = engine.embed_pairs
        batches, entered, gate = [], threading.Event(), threading.Event()

        def gated_embed(lefts, rights, times):
            batches.append(len(lefts))
            entered.set()
            assert gate.wait(10.0)
            return real_embed(lefts, rights, times)

        engine.embed_pairs = gated_embed
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=0.0)
        b.flush_ewma = 0.01
        t = sg.max_time + 1.0
        h1 = b.submit_rank(int(g.src[0]), np.arange(12, 16), t)
        flusher = threading.Thread(target=b.poll)
        flusher.start()
        assert entered.wait(10.0)
        seen = {}

        def submitter():
            seen["handle"] = b.submit_rank(int(g.src[1]), np.arange(14, 18), t)
            seen["wait"] = b.estimate_wait()

        sub = threading.Thread(target=submitter)
        sub.start()
        sub.join(timeout=2.0)
        try:
            # neither submit nor the admission estimate waits for the compute
            assert not sub.is_alive(), "submit blocked behind a computing flush"
            h2 = seen["handle"]
            assert not h2.done and b.pending_requests == 1
            # the queued batch (4 of 10**6 pairs) plus the one on the engine
            assert seen["wait"] == pytest.approx(0.01 * (2.0 + 4 / 10 ** 6))
        finally:
            gate.set()
            flusher.join(timeout=10.0)
            sub.join(timeout=10.0)
        assert h1.done and not h2.done
        assert b.poll() == 1 and h2.done
        assert batches == [4, 4] and b.stats.flushes == 2
        assert b.estimate_wait() == pytest.approx(b.flush_ewma)

    def test_a_waiter_answered_while_it_waits_for_the_engine_computes_nothing(self):
        """A client blocked on the engine lock behind the batch that holds
        its request returns once that batch lands; the request queued
        meanwhile is left to its own client."""
        engine, g, sg = build_engine()
        real_embed = engine.embed_pairs
        batches, entered, gate = [], threading.Event(), threading.Event()

        def gated_embed(lefts, rights, times):
            batches.append(len(lefts))
            entered.set()
            assert gate.wait(10.0)
            return real_embed(lefts, rights, times)

        engine.embed_pairs = gated_embed
        b = MicroBatcher(engine, max_batch_pairs=10 ** 6, max_delay=0.0)
        t = sg.max_time + 1.0
        h1 = b.submit_rank(int(g.src[0]), np.arange(12, 16), t)
        flusher = threading.Thread(target=b.flush)
        flusher.start()
        assert entered.wait(10.0)
        h2 = b.submit_rank(int(g.src[1]), np.arange(14, 18), t)
        waiter = threading.Thread(target=h1.wait, kwargs={"timeout": 10.0})
        waiter.start()
        time.sleep(0.05)   # the waiter's poll is now blocked on the engine lock
        gate.set()
        flusher.join(timeout=10.0)
        waiter.join(timeout=10.0)
        assert not waiter.is_alive() and h1.done
        assert not h2.done and b.pending_requests == 1
        assert batches == [4]
        assert b.poll() == 1 and h2.done

    def test_a_cluster_waiter_stops_driving_once_answered(self):
        """``FrontRequest.wait`` stops its poll pass at the replica that
        answered it instead of computing the next replica's batch."""
        from repro.serve import ServingCluster

        engine, g, sg = build_engine()
        cluster = ServingCluster(
            engine.model, sg, engine.decoder, k=2, max_batch_pairs=10 ** 6
        )
        t = sg.max_time + 1.0
        first = cluster.submit_rank(int(g.src[0]), np.arange(12, 16), t)
        second = cluster.submit_rank(int(g.src[1]), np.arange(14, 18), t)
        assert first._primary_index == 0 and second._primary_index == 1
        first.wait(timeout=10.0)
        assert not second.done
        assert [rep.batcher.pending_requests for rep in cluster.replicas] == [0, 1]
        second.wait(timeout=10.0)
        assert cluster.stats.completed == 2
