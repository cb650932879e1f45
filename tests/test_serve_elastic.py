"""Elastic serving: the autoscaler control loop and hedged-request
determinism.

Scaling and hedging both touch the bitwise-serving contract: a replica
added mid-flight must answer exactly like the fleet it joined, and a hedge
must return byte-identical scores to the unhedged path (both sides flush
singleton batches here, pinning micro-batch composition).  Everything runs
on a fake front-door clock — no sleeps, no wall-clock races — and the
hedge / deadline / scale-cycling cases run on both replica fleets (in-thread
and process), because the front door that implements them is one class.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    ServeConfig,
    Session,
    TrainConfig,
)
from repro.serve import (
    DeadlineExceeded,
    ReplicaAutoscaler,
    ServingCluster,
    event_stream,
)

from helpers import toy_serving_setup

#: batcher deadline of the SLO fixtures: far beyond any test's wall time, so
#: a process worker never deadline-flushes on its own (real) clock
MAX_DELAY = 60.0
HEDGE_FLOOR = 0.1
DEADLINE = 4 * MAX_DELAY

SLO_CONFIG = ExperimentConfig(
    data=DataConfig(dataset="wikipedia", scale=0.004, seed=0),
    model=ModelConfig(memory_dim=8, time_dim=8, embed_dim=8),
    train=TrainConfig(epochs=1, batch_size=50, eval_candidates=10),
    serve=ServeConfig(
        replicas=2, max_batch_pairs=10 ** 6, max_delay_ms=MAX_DELAY * 1e3,
        hedge_quantile=99.0, hedge_min_ms=HEDGE_FLOOR * 1e3,
        deadline_ms=DEADLINE * 1e3,
    ),
)


class FakeClock:
    """Manual clock; ``tick`` makes every read advance it (time passing
    between the front door's admission decision and the dispatch)."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t
        self.tick = 0.0

    def __call__(self) -> float:
        now = self.t
        self.t += self.tick
        return now

    def advance(self, dt: float) -> None:
        self.t += dt


def build_cluster(k=1, **kwargs):
    model, decoder, g, serve_graph, split = toy_serving_setup()
    kwargs.setdefault("policy", "round_robin")
    kwargs.setdefault("max_batch_pairs", 10 ** 6)
    kwargs.setdefault("max_delay", 100.0)
    return ServingCluster(model, serve_graph, decoder, k=k, **kwargs), g, split


@pytest.fixture(scope="module")
def slo_session():
    sess = Session(SLO_CONFIG)
    sess.fit(max_iterations=6)
    return sess


@pytest.fixture
def slo(request, slo_session):
    """A 2-replica cluster with hedging and deadlines armed, on the fleet
    the requesting test class names (``FLEET``): ``cluster``, its fake
    front-door ``clock``, one ``query`` and a ``baseline()`` factory for an
    identical-weights cluster that is never hedged.  The process fleet is
    built by ``Session.serve`` from a config whose ``serve`` section
    carries the SLO fields."""
    clock = FakeClock()
    if request.cls.FLEET == "threads":
        cluster, _, _ = build_cluster(
            k=2, clock=clock, max_delay=MAX_DELAY, deadline=DEADLINE,
            hedge_quantile=99.0, hedge_min_delay=HEDGE_FLOOR,
        )

        def baseline():
            return build_cluster(k=2, max_delay=MAX_DELAY)[0]
    else:
        cluster = slo_session.serve(process_replicas=True)
        cluster.clock = clock
        # the unhedged reference is the *other* fleet: same bytes across
        baseline = slo_session.serve
    graph = cluster.graph
    query = (int(graph.src[0]), np.arange(12, 20), graph.max_time + 1.0)
    with cluster:
        yield SimpleNamespace(
            cluster=cluster, clock=clock, query=query, baseline=baseline
        )


def submit_n(cluster, g, n, candidates=4):
    t = cluster.graph.max_time + 1.0
    return [
        cluster.submit_rank(int(g.src[i]), np.arange(12, 12 + candidates), t)
        for i in range(n)
    ]


class TestAutoscalerValidation:
    def test_bounds_and_hysteresis_are_enforced(self):
        cluster, _, _ = build_cluster(k=1)
        with pytest.raises(ValueError):
            ReplicaAutoscaler(cluster, min_replicas=0, max_replicas=2)
        with pytest.raises(ValueError):
            ReplicaAutoscaler(cluster, min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            ReplicaAutoscaler(
                cluster, min_replicas=1, max_replicas=2,
                scale_up_queue=2.0, scale_down_queue=2.0,
            )
        with pytest.raises(ValueError):  # fleet outside [2, 3]
            ReplicaAutoscaler(cluster, min_replicas=2, max_replicas=3)

    def test_from_config_requires_autoscale_bounds(self):
        cluster, _, _ = build_cluster(k=1)
        with pytest.raises(ValueError):
            ReplicaAutoscaler.from_config(cluster, SimpleNamespace(min_replicas=None))
        cfg = SimpleNamespace(
            min_replicas=1, max_replicas=3, scale_up_queue=4.0,
            scale_down_queue=0.5, scale_interval_ms=50.0,
        )
        scaler = ReplicaAutoscaler.from_config(cluster, cfg, interval=0.0)
        assert (scaler.min_replicas, scaler.max_replicas) == (1, 3)
        assert scaler.interval == 0.0


class TestAutoscalerControlLoop:
    def test_scales_up_on_deep_queue_and_down_after_drain(self):
        clock = FakeClock()
        cluster, g, _ = build_cluster(k=1, clock=clock)
        scaler = ReplicaAutoscaler(
            cluster, min_replicas=1, max_replicas=3,
            scale_up_queue=4.0, scale_down_queue=0.5,
            interval=10.0, clock=clock,
        )
        handles = submit_n(cluster, g, 5)
        decision = scaler.step()
        assert decision is not None and decision.action == "up"
        assert decision.replicas == 2 == len(cluster.replicas)
        assert "queue/replica" in decision.reason
        assert scaler.stats.scale_ups == 1

        # cooldown: the queue is still deep, but no action inside `interval`
        assert scaler.step() is None

        cluster.flush_all()
        assert all(np.all(np.isfinite(h.wait(5.0))) for h in handles)
        clock.advance(11.0)
        decision = scaler.step()
        assert decision is not None and decision.action == "down"
        assert len(cluster.replicas) == 1

        # at min_replicas an empty queue is a no-op, not a violation
        clock.advance(11.0)
        assert scaler.step() is None
        assert len(cluster.replicas) == 1

    def test_never_scales_past_max_replicas(self):
        clock = FakeClock()
        cluster, g, _ = build_cluster(k=2, clock=clock)
        scaler = ReplicaAutoscaler(
            cluster, min_replicas=1, max_replicas=2,
            scale_up_queue=1.0, scale_down_queue=0.5,
            interval=0.0, clock=clock,
        )
        submit_n(cluster, g, 8)
        assert scaler.step() is None  # already at max
        assert len(cluster.replicas) == 2
        cluster.flush_all()

    def test_slo_breach_forces_scale_up_with_shallow_queue(self):
        clock = FakeClock()
        cluster, _, _ = build_cluster(k=1, clock=clock)
        for _ in range(4):
            cluster.request_latency.record(0.2)
        scaler = ReplicaAutoscaler(
            cluster, min_replicas=1, max_replicas=2,
            scale_up_queue=100.0, scale_down_queue=1.0,
            latency_slo=0.05, slo_quantile=99.0,
            interval=0.0, clock=clock,
        )
        decision = scaler.step()
        assert decision is not None and decision.action == "up"
        assert "SLO" in decision.reason
        assert len(cluster.replicas) == 2
        # the breach also blocks scale-down, even with an empty queue
        assert scaler.step() is None
        assert len(cluster.replicas) == 2


class TestElasticFleetState:
    def test_added_replica_is_bitwise_identical_and_serves(self):
        cluster, g, split = build_cluster(k=1, max_delay=1e-3)
        for chunk in event_stream(g, split.train_end, split.val_end, chunk=40):
            cluster.ingest(*chunk)
        rep = cluster.add_replica()
        ref = cluster.replicas[0].engine
        assert np.array_equal(rep.engine.memory.memory, ref.memory.memory)
        assert np.array_equal(rep.engine.memory.last_update, ref.memory.last_update)
        assert np.array_equal(rep.engine.mailbox.mail, ref.mailbox.mail)

        # round-robin lands one query on each replica; singleton flushes pin
        # composition, so the answers must agree byte for byte
        t = cluster.graph.max_time + 1.0
        cands = np.arange(12, 20)
        a = cluster.submit_rank(int(g.src[0]), cands, t)
        cluster.replicas[0].batcher.flush()
        b = cluster.submit_rank(int(g.src[0]), cands, t)
        cluster.replicas[1].batcher.flush()
        assert a.wait(5.0).tobytes() == b.wait(5.0).tobytes()

    def test_removed_replica_drains_in_flight_work(self):
        cluster, g, _ = build_cluster(k=2)
        handles = submit_n(cluster, g, 2)  # one per replica (round robin)
        assert cluster.replicas[1].load == 1
        cluster.remove_replica()
        assert len(cluster.replicas) == 1
        # the popped replica is parked, not dropped: its request completes
        cluster.flush_all()
        for h in handles:
            assert np.all(np.isfinite(h.wait(5.0)))

    def test_remove_replica_refuses_to_empty_the_fleet(self):
        cluster, _, _ = build_cluster(k=1)
        with pytest.raises(ValueError):
            cluster.remove_replica()

    def test_late_dispatch_to_a_retiring_replica_is_answered(self):
        """The dispatch runs outside the front-door lock, so a scale-down
        can land between the routing decision and the submit: the retiree
        must stay on the draining list until that request settles."""
        cluster, g, _ = build_cluster(k=2)
        victim = cluster.replicas[1]
        dispatch = victim.submit

        def late(kind, payload, deadline):
            cluster.remove_replica()        # pops `victim`, finds it empty
            return dispatch(kind, payload, deadline)

        victim.submit = late
        first, second = submit_n(cluster, g, 2)   # round robin: second -> victim
        assert second._primary_rep is victim and victim not in cluster.replicas
        assert victim.load == 1 and cluster._draining == [victim]
        cluster.flush_all()
        assert np.all(np.isfinite(first.wait(5.0)))
        assert np.all(np.isfinite(second.wait(5.0)))
        cluster.poll()
        assert cluster._draining == []

    def test_concurrent_pollers_release_each_retiree_once(self):
        """Every blocked client drives ``poll()``: two pollers racing over
        the draining list while the fleet oscillates must never raise, and
        nothing admitted along the way may be stranded."""
        cluster, g, _ = build_cluster(k=1)
        errors, stop = [], threading.Event()

        def poller():
            try:
                while not stop.is_set():
                    cluster.poll()
            except Exception as exc:  # noqa: BLE001 - the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=poller) for _ in range(2)]
        for thread in threads:
            thread.start()
        handles = []
        try:
            for _ in range(25):
                cluster.add_replica()
                handles += submit_n(cluster, g, 4)
                cluster.remove_replica()
        finally:
            stop.set()
            for thread in threads:
                thread.join(10.0)
        assert errors == []
        cluster.flush_all()
        assert all(np.all(np.isfinite(h.wait(5.0))) for h in handles)
        cluster.poll()
        assert cluster._draining == [] and len(cluster.replicas) == 1


class _HedgeCases:
    """One body per case; the ``Test*`` subclasses pick the fleet."""

    def test_slo_fields_reach_either_fleet(self, slo):
        cluster = slo.cluster
        assert cluster.deadline == DEADLINE
        assert cluster.hedge_quantile == 99.0
        assert cluster.hedge_min_delay == pytest.approx(HEDGE_FLOOR)

    def test_hedge_returns_bitwise_identical_scores(self, slo):
        """A wedged primary is rescued by the hedge, and the hedged answer
        equals the unhedged one byte for byte."""
        cluster, clock = slo.cluster, slo.clock

        front = cluster.submit_rank(*slo.query)
        assert front._primary_index == 0 and not front.hedged
        cluster._sweep()  # cold reservoir: delay = max_delay, not yet due
        assert not front.hedged

        clock.advance(2 * MAX_DELAY)  # past the hedge delay; primary stays wedged
        cluster._sweep()
        assert front.hedged and front._hedge_index == 1
        assert cluster.stats.hedged == 1

        cluster.replicas[1].flush()  # only the hedge lane flushes
        hedged_scores = front.wait(5.0)
        assert front.hedge_won

        # unhedged baseline: identical weights, same query, singleton flush
        # on the primary replica
        baseline = slo.baseline()
        ref = baseline.submit_rank(*slo.query)
        baseline.replicas[0].flush()
        assert not ref.hedged
        assert hedged_scores.tobytes() == ref.wait(5.0).tobytes()

    def test_cancelled_loser_never_double_counts(self, slo):
        cluster, clock = slo.cluster, slo.clock
        front = cluster.submit_rank(*slo.query)
        clock.advance(2 * MAX_DELAY)
        cluster._sweep()
        cluster.replicas[1].flush()
        front.wait(5.0)

        assert cluster.stats.completed == 1
        assert cluster.stats.hedge_wins == 1
        assert cluster.request_latency.count == 1

        # the losing primary lane was cancelled before compute: flushing its
        # batcher discards it without recording a second completion, and it
        # never reached the engine
        cluster.replicas[0].flush()
        loser = cluster.worker_stats()[0]
        assert loser["cancelled"] == 1 and loser["queries"] == 0
        assert cluster.stats.completed == 1
        assert cluster.request_latency.count == 1

    def test_primary_win_cancels_the_hedge_lane(self, slo):
        cluster, clock = slo.cluster, slo.clock
        front = cluster.submit_rank(*slo.query)
        clock.advance(2 * MAX_DELAY)
        cluster._sweep()
        assert front.hedged

        cluster.replicas[0].flush()  # primary beats the hedge
        front.wait(5.0)
        assert not front.hedge_won
        assert cluster.stats.hedge_wins == 0
        cluster.replicas[1].flush()
        loser = cluster.worker_stats()[1]
        assert loser["cancelled"] == 1 and loser["queries"] == 0
        assert cluster.stats.completed == 1

    def test_hedge_quantile_none_never_hedges(self, slo):
        cluster, clock = slo.cluster, slo.clock
        cluster.hedge_quantile = None
        assert cluster.hedge_delay() is None
        front = cluster.submit_rank(*slo.query)
        clock.advance(3 * MAX_DELAY)  # past any hedge delay, inside the budget
        cluster._sweep()
        assert not front.hedged and cluster.stats.hedged == 0
        cluster.flush_all()
        assert np.all(np.isfinite(front.wait(5.0)))



class TestHedgedDeterminism(_HedgeCases):
    FLEET = "threads"

    def test_hedge_delay_semantics(self):
        clock = FakeClock()
        cluster, _, _ = build_cluster(
            k=2, clock=clock, max_delay=1.0,
            hedge_quantile=99.0, hedge_min_delay=0.1,
        )
        # cold reservoir: fall back to the batcher deadline (1.0 > floor)
        assert cluster.hedge_delay() == 1.0
        # warm reservoir: the configured quantile, floored at hedge_min_delay
        for _ in range(20):
            cluster.request_latency.record(0.01)
        assert cluster.hedge_delay() == pytest.approx(0.1)  # floor binds

        off, _, _ = build_cluster(k=2)
        assert off.hedge_delay() is None  # hedging disabled by default

    def test_single_replica_never_hedges(self):
        clock = FakeClock()
        cluster, g, _ = build_cluster(
            k=1, clock=clock, max_delay=1.0,
            hedge_quantile=99.0, hedge_min_delay=0.1,
        )
        t = cluster.graph.max_time + 1.0
        front = cluster.submit_rank(int(g.src[0]), np.arange(12, 16), t)
        clock.advance(5.0)
        cluster._sweep()
        assert not front.hedged and cluster.stats.hedged == 0
        cluster.flush_all()
        front.wait(5.0)


class TestHedgedDeterminismProcessFleet(_HedgeCases):
    FLEET = "processes"


class _ScaleCycleCases:
    def test_routed_keeps_one_slot_per_live_replica(self, slo):
        """An oscillating autoscaler must not grow ``stats.routed``: one
        slot per live index, and a re-added replica counts into its own."""
        cluster = slo.cluster
        for _ in range(2):
            cluster.remove_replica()
            assert len(cluster.stats.routed) == len(cluster.replicas) == 1
            cluster.add_replica()
            assert len(cluster.stats.routed) == len(cluster.replicas) == 2
        fronts = [cluster.submit_rank(*slo.query) for _ in range(2)]
        cluster.flush_all()
        assert all(np.all(np.isfinite(f.wait(5.0))) for f in fronts)
        assert cluster.stats.routed == [1, 1]
        assert [f._primary_index for f in fronts] == [0, 1]


class TestScaleCycling(_ScaleCycleCases):
    FLEET = "threads"


class TestScaleCyclingProcessFleet(_ScaleCycleCases):
    FLEET = "processes"


class _DeadlineCases:
    def test_budget_below_the_estimated_wait_is_shed(self, slo):
        """Deadline-aware admission: the routed replica's estimated wait
        (at least its batcher deadline) already exceeds the budget."""
        cluster, clock = slo.cluster, slo.clock
        src, cands, t = slo.query
        shed = cluster.submit_rank(src, cands, t, deadline=clock() + MAX_DELAY / 2)
        assert shed is None
        assert cluster.stats.shed == cluster.stats.shed_deadline == 1
        assert cluster.pending_requests == 0
        # the configured default budget covers the estimate: admitted
        front = cluster.submit_rank(src, cands, t)
        assert front is not None and front.deadline == clock() + DEADLINE
        cluster.flush_all()
        assert np.all(np.isfinite(front.wait(5.0)))

    def test_budget_running_out_in_the_queue_expires(self, slo):
        """Admitted on its budget, but by the time the batch flushes the
        budget is gone: the request fails typed, before any compute."""
        cluster, clock = slo.cluster, slo.clock
        cluster.hedge_quantile = None       # one lane: the expiry settles it
        clock.tick = DEADLINE + 1.0         # the budget elapses mid-dispatch
        front = cluster.submit_rank(*slo.query)
        assert front is not None
        clock.tick = 0.0
        cluster.flush_all()
        with pytest.raises(DeadlineExceeded):
            front.wait(5.0)
        assert cluster.stats.expired == 1 and cluster.stats.completed == 0
        served = cluster.worker_stats()[front._primary_index]
        assert served["expired"] == 1 and served["queries"] == 0


class TestDeadlines(_DeadlineCases):
    FLEET = "threads"


class TestDeadlinesProcessFleet(_DeadlineCases):
    FLEET = "processes"
