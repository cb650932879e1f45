"""Span nesting, trace ids and self time, on a fake clock."""

import json

import pytest

from spans import Span, SpanRecorder, self_times


class Ticker:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_what_children_cover():
    clock = Ticker()
    rec = SpanRecorder(clock=clock)
    with rec.span("round", trace="round1"):
        clock.now = 1.0
        with rec.span("fit"):
            clock.now = 4.0
            with rec.span("fit.inner"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 7.0
        with rec.span("evaluate"):
            clock.now = 9.0
        clock.now = 10.0
    by_name = rec.by_name()
    assert by_name["round"]["total_s"] == 10.0
    assert by_name["round"]["self_s"] == pytest.approx(3.0)     # 10 - (5 + 2)
    assert by_name["fit"]["self_s"] == pytest.approx(4.0)       # 5 - 1
    assert by_name["fit.inner"]["self_s"] == pytest.approx(1.0)
    # parent links and the inherited trace id
    fit = next(s for s in rec.spans if s.name == "fit")
    inner = next(s for s in rec.spans if s.name == "fit.inner")
    assert fit.parent == 0 and inner.parent == fit.id
    assert {s.trace for s in rec.spans} == {"round1"}


def test_overlapping_children_are_counted_once():
    spans = [
        Span(0, "parent", 0.0, 10.0),
        Span(1, "a", 1.0, 6.0, parent=0),
        Span(2, "b", 4.0, 8.0, parent=0),      # overlaps a by 2 s
        Span(3, "c", 9.0, 12.0, parent=0),     # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0 + 1.0))
    assert own[1] == 5.0 and own[2] == 4.0


def test_request_spans_carry_their_own_trace_id_and_idle_polls_are_dropped():
    clock = Ticker()
    rec = SpanRecorder(clock=clock)
    with rec.span("serve.open", trace="round2"):
        with rec.span("cluster.submit", trace="open17"):
            clock.now += 0.001
        with rec.span("cluster.poll") as sp:
            sp.attrs["drop"] = True
        with rec.span("cluster.poll"):
            clock.now += 0.002
    names = [(s.name, s.trace) for s in rec.spans]
    assert names == [("serve.open", "round2"), ("cluster.submit", "open17"),
                     ("cluster.poll", "round2")]


def test_recorded_intervals_join_the_tree_and_dump_round_trips(tmp_path):
    clock = Ticker()
    rec = SpanRecorder(clock=clock)
    with rec.span("fit", trace="round1") as fit:
        clock.now = 5.0
    rec.record("fit.loop", 0.0, 3.0, fit)
    rec.record("fit.tail", 3.0, 5.0, fit)
    assert rec.by_name()["fit"]["self_s"] == pytest.approx(0.0)
    path = tmp_path / "spans.jsonl"
    rec.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["fit", "fit.loop", "fit.tail"]
    assert rows[1]["parent"] == rows[0]["id"] and rows[1]["trace"] == "round1"
    assert rows[2]["self_s"] == 2.0


def test_a_disabled_recorder_records_nothing():
    rec = SpanRecorder(enabled=False)
    with rec.span("fit") as sp:
        assert sp is None
    rec.record("fit.loop", 0.0, 1.0)
    assert rec.spans == [] and rec.by_name() == {}
