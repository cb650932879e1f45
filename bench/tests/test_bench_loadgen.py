"""Fake-clock tests of the load drivers' accounting: latency from the due
time, generator lag, failures counted against attempts, and the seeded
schedules.  No workload is launched."""

import math

import numpy as np
import pytest

import loadgen
from loadgen import FAILED, Query


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0
        self.now += seconds


class Handle:
    def __init__(self, ready_at: float, value, error=None) -> None:
        self.ready_at, self._value, self._error = ready_at, value, error
        self.done = False

    @property
    def value(self):
        if self._error is not None:
            raise self._error
        return self._value


class FakeCluster:
    """Answers ``service`` seconds after the submit, when polled; every call
    costs fake time, and chosen requests are shed / fail / come back wrong."""

    def __init__(self, clock: FakeClock, service=0.002, poll_cost=0.0005,
                 submit_cost=0.0001, ingest_cost=0.010,
                 shed=(), raise_on=(), short=(), never=()) -> None:
        self.clock, self.service = clock, service
        self.poll_cost, self.submit_cost, self.ingest_cost = poll_cost, submit_cost, ingest_cost
        self.shed, self.raise_on, self.short, self.never = map(set, (shed, raise_on, short, never))
        self.submitted = 0
        self.handles = []
        self.ingested = []
        self.max_in_flight = 0

    def submit_rank(self, src, candidates, at_time):
        index = self.submitted
        self.submitted += 1
        self.clock.now += self.submit_cost
        if index in self.shed:
            return None
        scores = np.arange(len(candidates), dtype=np.float32)
        if index in self.short:
            scores = scores[:-1]
        error = RuntimeError("boom") if index in self.raise_on else None
        ready = math.inf if index in self.never else self.clock.now + self.service
        handle = Handle(ready, scores, error)
        self.handles.append(handle)
        self.max_in_flight = max(
            self.max_in_flight, sum(not h.done for h in self.handles))
        return handle

    def poll(self) -> int:
        self.clock.now += self.poll_cost
        flushed = 0
        for h in self.handles:
            if not h.done and h.ready_at <= self.clock.now:
                h.done = True
                flushed += 1
        return flushed

    def ingest(self, src, dst, times, feats=None):
        if len(src) == 0:
            raise ValueError("empty batch")
        self.clock.now += self.ingest_cost
        self.ingested.append(len(src))


def queries(n, candidates=4):
    return [Query(i, np.arange(candidates, dtype=np.int64), 100.0 + i) for i in range(n)]


def batch(n):
    return (np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64), np.arange(n, dtype=float))


# ------------------------------------------------------------- closed loop
def test_closed_loop_keeps_one_request_per_client_in_flight():
    clock = FakeClock()
    cluster = FakeCluster(clock)
    out = loadgen.run_closed(cluster, queries(40), clients=4, clock=clock)
    assert (out.attempted, out.failed, out.completed) == (40, 0, 40)
    assert cluster.max_in_flight == 4
    assert len(out.latencies) == 40
    # latency runs from the submit: service time plus polling granularity
    assert all(0.002 <= lat <= 0.002 + 4 * 0.0001 + 2 * 0.0005 for lat in out.latencies)
    assert out.wall == pytest.approx(clock.now)


def test_closed_loop_counts_every_kind_of_failure_against_attempts():
    clock = FakeClock()
    cluster = FakeCluster(clock, shed={3}, raise_on={5}, short={7})
    out = loadgen.run_closed(cluster, queries(12), clients=3, clock=clock)
    assert out.attempted == 12
    assert out.failed == 3
    assert out.latencies.count(FAILED) == 3
    assert out.completed == 9


def test_closed_loop_gives_up_on_a_stalled_cluster_and_fails_what_is_stuck():
    clock = FakeClock()
    cluster = FakeCluster(clock, never={2})
    out = loadgen.run_closed(cluster, queries(6), clients=2, clock=clock,
                             stall_timeout=0.5)
    assert out.failed >= 1
    assert out.latencies.count(FAILED) == out.failed
    assert clock.now < 5.0


def test_closed_loop_keeps_the_answers_asked_for():
    clock = FakeClock()
    out = loadgen.run_closed(FakeCluster(clock), queries(10), clients=2,
                             clock=clock, keep=[1, 8])
    assert sorted(out.responses) == [1, 8]
    assert out.responses[1].tolist() == [0, 1, 2, 3]


# --------------------------------------------------------------- open loop
def test_open_loop_latency_runs_from_the_due_time_not_the_submit():
    clock = FakeClock()
    cluster = FakeCluster(clock, ingest_cost=0.010)
    # request 0 due at 0, an ingest due at 0.5 ms stalls the driver for
    # 10 ms, request 1 was due at 1 ms: it is sent ~9.7 ms late
    out = loadgen.run_open(
        cluster, queries(2), arrivals=[0.0, 0.001],
        ingests=[(0.0005, batch(5))], clock=clock, sleep=clock.sleep,
    )
    assert out.attempted == 2 and out.failed == 0
    assert out.ingested_events == 5 and cluster.ingested == [5]
    assert out.ingest_calls == [pytest.approx(0.010)]
    late = max(out.latencies)
    assert late > 0.010            # the stall is charged to the request behind it
    assert late < 0.010 + 0.002 + 0.003
    # lag: how late the generator started each scheduled event
    assert len(out.lags) == 3
    assert max(out.lags) == pytest.approx(late - 0.002, abs=0.0015)


def test_open_loop_sends_on_schedule_regardless_of_completions():
    clock = FakeClock()
    cluster = FakeCluster(clock, service=0.050)      # slower than the arrivals
    arrivals = [0.001 * i for i in range(20)]
    out = loadgen.run_open(cluster, queries(20), arrivals, clock=clock,
                           sleep=clock.sleep)
    assert out.attempted == 20 and out.failed == 0
    assert cluster.max_in_flight > 10                # the queue grew: not closed-loop
    assert max(out.lags) < 0.002


def test_open_loop_sleeps_through_idle_gaps_and_wakes_before_the_due_time():
    clock = FakeClock()
    cluster = FakeCluster(clock)
    out = loadgen.run_open(cluster, queries(2), arrivals=[0.0, 0.5], clock=clock,
                           sleep=clock.sleep)
    assert out.failed == 0
    assert cluster.submitted == 2
    assert out.lags[1] < 0.001
    assert out.wall == pytest.approx(0.5, abs=0.01)


def test_open_loop_counts_shed_failed_and_rejected_operations():
    clock = FakeClock()
    cluster = FakeCluster(clock, shed={0}, raise_on={1})
    out = loadgen.run_open(
        cluster, queries(4), arrivals=[0.0, 0.001, 0.002, 0.003],
        ingests=[(0.0015, batch(0))], clock=clock, sleep=clock.sleep,
    )
    assert (out.attempted, out.failed) == (4, 2)
    assert out.ingests_rejected == 1 and out.ingested_events == 0
    assert out.latencies.count(FAILED) == 2


def test_open_loop_needs_one_due_time_per_query():
    with pytest.raises(ValueError):
        loadgen.run_open(FakeCluster(FakeClock()), queries(2), arrivals=[0.0])


def test_ingest_burst_counts_events_and_rejections():
    clock = FakeClock()
    cluster = FakeCluster(clock, ingest_cost=0.004)
    out = loadgen.run_ingest_burst(cluster, [batch(3), batch(0), batch(2)], clock=clock)
    assert out.ingested_events == 5 and out.ingests_rejected == 1
    assert len(out.ingest_calls) == 3
    assert out.wall == pytest.approx(0.008)


# --------------------------------------------------------------- schedules
def test_poisson_arrivals_are_seeded_sorted_and_hold_the_offered_rate():
    a = loadgen.poisson_arrivals(500, 250.0, np.random.default_rng(7))
    b = loadgen.poisson_arrivals(500, 250.0, np.random.default_rng(7))
    c = loadgen.poisson_arrivals(500, 250.0, np.random.default_rng(8))
    assert a == b and a != c
    assert a == sorted(a) and a[0] > 0
    assert a[-1] == pytest.approx(2.0) and c[-1] == pytest.approx(2.0)
    gaps = np.diff(a)
    assert gaps.std() > 0.5 * gaps.mean()            # bursty, not a metronome


def test_even_schedule_is_evenly_spaced_inside_the_span():
    due = loadgen.even_schedule(4, 2.0, np.random.default_rng(0))
    assert len(due) == 4 and 0 <= due[0] < 0.5 and due[-1] < 2.0
    assert np.allclose(np.diff(due), 0.5)
    assert loadgen.even_schedule(0, 2.0, np.random.default_rng(0)) == []


def test_response_ok_wants_the_asked_length_and_finite_scores():
    assert loadgen.response_ok(np.zeros(5), 5)
    assert not loadgen.response_ok(np.zeros(4), 5)
    assert not loadgen.response_ok(np.array([0.0, np.nan]), 2)
    assert not loadgen.response_ok(np.zeros((2, 2)), 2)


def test_build_queries_is_seeded_and_stays_inside_the_node_space():
    class Graph:
        src = np.array([0, 1, 2, 1, 0])
        num_nodes = 10
        is_bipartite = True
        src_partition_size = 3

    one = loadgen.build_queries(Graph, 50, 6, np.random.default_rng(3), after_time=9.0)
    two = loadgen.build_queries(Graph, 50, 6, np.random.default_rng(3), after_time=9.0)
    assert [q.src for q in one] == [q.src for q in two]
    assert all((q.candidates == r.candidates).all() for q, r in zip(one, two))
    assert all(q.src in (0, 1, 2) for q in one)
    assert all(3 <= q.candidates.min() and q.candidates.max() < 10 for q in one)
    assert all(q.at_time > 9.0 for q in one)
    with pytest.raises(ValueError):
        loadgen.build_queries(Graph, 1, 0, np.random.default_rng(0), after_time=0.0)
