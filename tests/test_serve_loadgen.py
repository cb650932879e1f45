"""Serving latency histograms and the query builder."""

import numpy as np
import pytest

from repro.serve import LatencyHistogram, build_queries

from helpers import toy_serving_setup


class TestLatencyHistogram:
    def test_percentiles(self):
        h = LatencyHistogram()
        h.extend([0.001 * i for i in range(1, 101)])    # 1ms .. 100ms
        assert h.count == 100
        assert h.p50 == pytest.approx(0.0505, rel=1e-3)
        assert h.p99 == pytest.approx(0.09901, rel=1e-3)
        assert h.mean == pytest.approx(0.0505, rel=1e-3)
        assert h.maximum == pytest.approx(0.1)

    def test_empty_is_zero(self):
        h = LatencyHistogram()
        assert h.count == 0 and h.p50 == 0.0 and h.p99 == 0.0 and h.mean == 0.0

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.extend([0.010, 0.020])
        b.record(0.030)
        a.merge(b)
        assert a.count == 3 and a.maximum == pytest.approx(0.030)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)

    def test_summary_keys(self):
        h = LatencyHistogram()
        h.record(0.005)
        assert set(h.summary()) == {"count", "mean", "p50", "p99", "max"}


class TestQueryGeneration:
    def test_shapes_and_candidate_partition(self):
        _, _, g, serve_graph, _ = toy_serving_setup()
        rng = np.random.default_rng(0)
        queries = build_queries(serve_graph, 10, 5, rng)
        assert len(queries) == 10
        for src, cands, t in queries:
            assert cands.shape == (5,)
            assert (cands >= serve_graph.src_partition_size).all()
            assert t > serve_graph.max_time
        with pytest.raises(ValueError):
            build_queries(serve_graph, 1, 0, rng)
