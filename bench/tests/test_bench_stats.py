"""The percentile, quartile-spread and verdict rules, on hand-written numbers."""

import json
import math
import statistics

import pytest

import stats


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 25) == pytest.approx(1.75)
    assert stats.percentile([7.0], 95) == 7.0


def test_percentile_sorts_failed_requests_last_and_rejects_bad_input():
    values = [1.0] * 90 + [math.inf] * 10
    assert stats.percentile(values, 50) == 1.0
    assert stats.percentile(values, 95) == math.inf    # a failure misses any limit
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_quartiles_and_spread_match_the_drivers_definition():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.spread([5.0, 5.0, 5.0]) == 0.0


def test_worse_by_follows_the_metric_direction():
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    with pytest.raises(ValueError):
        stats.worse_by(1.0, 1.0, "sideways")


TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_verdict_same_better_worse():
    assert stats.verdict(TIGHT, [v * 1.02 for v in TIGHT], "lower", 0.10) == "same"
    assert stats.verdict(TIGHT, [v * 1.20 for v in TIGHT], "lower", 0.10) == "worse"
    assert stats.verdict(TIGHT, [v * 0.80 for v in TIGHT], "lower", 0.10) == "better"
    assert stats.verdict(TIGHT, [v * 1.20 for v in TIGHT], "higher", 0.10) == "better"
    assert stats.verdict(TIGHT, [v * 0.80 for v in TIGHT], "higher", 0.10) == "worse"


def test_verdict_is_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [100.0, 140.0, 70.0, 125.0, 80.0]
    assert stats.spread(noisy) > 0.10
    assert stats.verdict(noisy, [v * 1.03 for v in noisy], "lower", 0.10) == "unresolved"
    # a change smaller than the noise is not called worse either
    assert stats.verdict(noisy, [v * 1.15 for v in noisy], "lower", 0.10) == "unresolved"
    # too few runs to know the spread
    assert stats.verdict([1.0, 1.0], [1.0, 1.0], "lower", 0.10) == "unresolved"


def run(workload, metric_values, attempted=100, failed=0):
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metric_values.items()}}


def test_compare_rows_per_workload_and_metric(tmp_path):
    spec = [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "absent", "unit": "x", "better": "lower", "bound": 0.1}]
    a = [run("w1", {"lat": v, "rps": 1000.0}) for v in TIGHT]
    b = [run("w1", {"lat": v * 1.3, "rps": 1000.0}, failed=5) for v in TIGHT]
    b += [run("only_b", {"lat": 1.0, "rps": 1.0})]
    rows = stats.compare(a, b, spec)
    assert [(r["workload"], r["metric"]) for r in rows] == [("w1", "lat"), ("w1", "rps")]
    lat, rps = rows
    assert lat["verdict"] == "worse" and lat["worse_by"] == pytest.approx(0.3)
    assert lat["base"]["n"] == 5 and lat["cand"]["median"] == pytest.approx(130.0)
    assert rps["verdict"] == "same"
    assert lat["base_failed_share"] == 0.0
    assert lat["cand_failed_share"] == pytest.approx(0.05)
    table = stats.format_compare(rows)
    assert "| w1 | lat | ms |" in table and "worse" in table

    for i, record in enumerate(a):
        (tmp_path / f"w1-seed{i}-trace0.json").write_text(json.dumps(record))
    (tmp_path / "w1-seed0-trace1.json").write_text("{}")   # traced runs are not compared
    assert len(stats.load_runs(tmp_path)) == 5
