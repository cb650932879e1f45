"""Inference engine: correctness of dedup/memoization (bitwise vs naive),
streaming observe(), and the serving APIs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer import InferenceEngine, InferenceStats
from repro.infer.engine import unique_queries
from repro.models import TGN, LinkPredictor, TGNConfig

from helpers import toy_dataset


def build_engine(dedup=True, memoize=True, static=False, seed=0):
    ds = toy_dataset(num_events=500, seed=seed)
    g = ds.graph
    cfg = TGNConfig(num_nodes=g.num_nodes, memory_dim=8, time_dim=8, embed_dim=8,
                    edge_dim=g.edge_dim, static_dim=8 if static else 0,
                    num_neighbors=4, seed=seed)
    model = TGN(cfg)
    if static:
        table = np.random.default_rng(0).standard_normal(
            (g.num_nodes, 8)).astype(np.float32)
        model.attach_static_memory(table)
    dec = LinkPredictor(8, rng=np.random.default_rng(1))
    engine = InferenceEngine(model, g, decoder=dec, dedup=dedup,
                             memoize_time=memoize)
    return engine, ds


class TestCorrectness:
    def test_dedup_matches_naive(self):
        fast, ds = build_engine(dedup=True, memoize=True)
        slow, _ = build_engine(dedup=False, memoize=False)
        g = ds.graph
        # stream some events into both
        for eng in (fast, slow):
            eng.observe(g.src[:100], g.dst[:100], g.timestamps[:100],
                        edge_feats=g.edge_feats[:100] if g.edge_feats is not None else None)
        nodes = np.array([1, 1, 2, 1, 3, 2], dtype=np.int64)
        times = np.full(6, g.timestamps[99] + 1.0)
        np.testing.assert_allclose(
            fast.embed(nodes, times), slow.embed(nodes, times), rtol=1e-5, atol=1e-6
        )

    def test_memoization_matches_naive_with_static(self):
        fast, ds = build_engine(memoize=True, static=True)
        slow, _ = build_engine(memoize=False, static=True)
        g = ds.graph
        for eng in (fast, slow):
            eng.observe(g.src[:150], g.dst[:150], g.timestamps[:150],
                        edge_feats=g.edge_feats[:150] if g.edge_feats is not None else None)
        t = g.timestamps[149] + 5.0
        nodes = g.src[:20]
        times = np.full(20, t)
        np.testing.assert_allclose(
            fast.embed(nodes, times), slow.embed(nodes, times), rtol=1e-5, atol=1e-6
        )

    def test_encoder_restored_after_embed(self):
        eng, ds = build_engine()
        eng.embed(np.array([0]), np.array([1.0]))
        # after embed, the original (unmemoized) forward is back in place
        assert eng.model.time_encoder.forward == eng._original_forward


class TestRedundancyCounters:
    def test_dedup_ratio_counts_duplicates(self):
        eng, ds = build_engine()
        nodes = np.array([5, 5, 5, 6], dtype=np.int64)
        times = np.array([1.0, 1.0, 1.0, 1.0])
        eng.embed(nodes, times)
        assert eng.stats.queries == 4
        assert eng.stats.unique_queries == 2
        assert eng.stats.dedup_ratio == pytest.approx(0.5)

    def test_memo_ratio_positive_for_repeated_deltas(self, monkeypatch):
        # the counter under test belongs to the eager memo wrapper, which
        # the compiled embed path (REPRO_COMPILE=1) legitimately bypasses
        monkeypatch.delenv("REPRO_COMPILE", raising=False)
        eng, ds = build_engine()
        g = ds.graph
        eng.observe(g.src[:200], g.dst[:200], g.timestamps[:200],
                    edge_feats=g.edge_feats[:200] if g.edge_feats is not None else None)
        t = g.timestamps[199] + 1.0
        eng.embed(g.src[:50], np.full(50, t))
        assert eng.stats.memo_ratio > 0.0

    def test_reset_clears_state_and_stats(self):
        eng, ds = build_engine()
        g = ds.graph
        eng.observe(g.src[:50], g.dst[:50], g.timestamps[:50],
                    edge_feats=g.edge_feats[:50] if g.edge_feats is not None else None)
        eng.embed(np.array([0]), np.array([1.0]))
        eng.reset()
        assert eng.stats.queries == 0
        assert eng.memory.memory.sum() == 0


class TestServingAPIs:
    def test_rank_candidates_shape(self):
        eng, ds = build_engine()
        g = ds.graph
        eng.observe(g.src[:100], g.dst[:100], g.timestamps[:100],
                    edge_feats=g.edge_feats[:100] if g.edge_feats is not None else None)
        scores = eng.rank_candidates(int(g.src[0]), np.arange(12, 20),
                                     at_time=g.timestamps[99] + 1)
        assert scores.shape == (8,)

    def test_predict_links_probabilities(self):
        eng, ds = build_engine()
        g = ds.graph
        probs = eng.predict_links(g.src[:10], g.dst[:10], g.timestamps[:10] + 1)
        assert probs.shape == (10,)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_decoder_required(self):
        eng, ds = build_engine()
        eng.decoder = None
        with pytest.raises(ValueError):
            eng.rank_candidates(0, np.array([1]), 1.0)

    def test_observe_updates_memory(self):
        eng, ds = build_engine()
        g = ds.graph
        assert eng.memory.memory.sum() == 0
        # first batch only deposits mails (reversed computation order);
        # the second batch's GRU update makes the memory non-zero
        eng.observe(g.src[:30], g.dst[:30], g.timestamps[:30],
                    edge_feats=g.edge_feats[:30] if g.edge_feats is not None else None)
        assert eng.mailbox.has_mail.any()
        eng.observe(g.src[30:60], g.dst[30:60], g.timestamps[30:60],
                    edge_feats=g.edge_feats[30:60] if g.edge_feats is not None else None)
        assert np.abs(eng.memory.memory).sum() > 0


class TestStats:
    def test_empty_stats_ratios(self):
        s = InferenceStats()
        assert s.dedup_ratio == 0.0
        assert s.memo_ratio == 0.0


class TestNumericalStability:
    def test_predict_links_no_overflow_warning(self):
        """Extreme logits must not emit RuntimeWarnings (stable sigmoid)."""
        eng, ds = build_engine()
        g = ds.graph

        class HugeLogitDecoder:
            def __call__(self, h_src, h_dst):
                from repro.nn import Tensor
                n = h_src.data.shape[0]
                out = np.full(n, -1e4, dtype=np.float32)
                out[: n // 2] = 1e4
                return Tensor(out)

        eng.decoder = HugeLogitDecoder()
        with np.errstate(over="raise", invalid="raise"):
            probs = eng.predict_links(g.src[:10], g.dst[:10], g.timestamps[:10] + 1)
        assert probs[: 5] == pytest.approx(1.0)
        assert probs[5:] == pytest.approx(0.0)


class TestTimeMemoGuards:
    def test_reset_while_memoized_does_not_nest_wrappers(self):
        """reset() during a swapped-in memo must unwrap, not re-wrap."""
        eng, ds = build_engine()
        eng._swap_encoder(True)                 # memoized forward installed
        eng.reset()                             # re-installs the memo
        fwd = eng.model.time_encoder.forward
        assert not getattr(fwd, "_repro_time_memo", False)
        assert eng._original_forward is fwd or eng._original_forward == fwd
        # the stored original is the real encoder, not a stale wrapper
        assert not getattr(eng._memoized_forward.__wrapped__, "_repro_time_memo", False)

    def test_repeated_installs_stay_flat(self):
        eng, ds = build_engine()
        for _ in range(5):
            eng._swap_encoder(True)
            eng._install_time_memo()
        assert not getattr(
            eng._memoized_forward.__wrapped__, "_repro_time_memo", False
        )
        # and embedding still works + restores the plain encoder
        eng.embed(np.array([0]), np.array([1.0]))
        assert not getattr(
            eng.model.time_encoder.forward, "_repro_time_memo", False
        )

    def test_two_engines_on_one_model_unwrap_each_other(self):
        eng1, ds = build_engine()
        eng1._swap_encoder(True)                # leave a wrapper installed
        eng2 = InferenceEngine(eng1.model, ds.graph, decoder=eng1.decoder,
                               append_on_observe=False)
        assert not getattr(eng2._memoized_forward.__wrapped__,
                           "_repro_time_memo", False)
        out = eng2.embed(np.array([0, 0]), np.array([1.0, 1.0]))
        assert out.shape == (2, 8)


class TestObserveAppendsToGraph:
    def test_observe_appends_fresh_events(self):
        """Satellite: observe() makes events visible to the sampler."""
        eng, ds = build_engine()
        g = ds.graph
        e0 = g.num_events
        t_new = g.max_time + 5.0
        eng.observe(np.array([1]), np.array([15]),
                    np.array([t_new]),
                    edge_feats=np.zeros((1, g.edge_dim), dtype=np.float32))
        assert g.num_events == e0 + 1
        block = eng.sampler.sample(np.array([1]), np.array([t_new + 1.0]))
        assert (block.edge_ids[block.mask] == e0).any()

    def test_append_disabled_keeps_graph_frozen(self):
        ds = toy_dataset(num_events=500, seed=0)
        g = ds.graph
        from repro.models import TGN, TGNConfig
        cfg = TGNConfig(num_nodes=g.num_nodes, memory_dim=8, time_dim=8,
                        embed_dim=8, edge_dim=g.edge_dim, num_neighbors=4)
        eng = InferenceEngine(TGN(cfg), g, append_on_observe=False)
        e0 = g.num_events
        eng.observe(g.src[:10], g.dst[:10], g.timestamps[:10],
                    edge_feats=g.edge_feats[:10])
        assert g.num_events == e0


@st.composite
def _query_rows(draw):
    """(node, time) rows with heavy duplication: few nodes, few distinct
    times shared across nodes, down to a single row."""
    n = draw(st.integers(1, 60))
    n_nodes = draw(st.integers(1, 8))
    pool = draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=5,
    ))
    nodes = draw(st.lists(st.integers(0, n_nodes - 1), min_size=n, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return (np.asarray(nodes, dtype=np.int64),
            np.asarray([pool[i] for i in picks], dtype=np.float64))


class TestUniqueQueries:
    @settings(max_examples=300, deadline=None)
    @given(_query_rows())
    def test_matches_unique_over_rows(self, rows):
        nodes, times = rows
        keys = np.stack([nodes.astype(np.float64), times], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        q_nodes, q_times, q_inverse = unique_queries(nodes, times)
        # the same rows, in the same order, with the same inverse
        np.testing.assert_array_equal(q_nodes, uniq[:, 0].astype(np.int64))
        np.testing.assert_array_equal(q_times, uniq[:, 1])
        np.testing.assert_array_equal(q_inverse, inverse.reshape(-1))
        assert q_nodes.dtype == np.int64 and q_times.dtype == np.float64
        np.testing.assert_array_equal(q_nodes[q_inverse], nodes)
        np.testing.assert_array_equal(q_times[q_inverse], times)

    def test_one_row(self):
        q_nodes, q_times, inverse = unique_queries(
            np.array([4], dtype=np.int64), np.array([2.5])
        )
        assert q_nodes.tolist() == [4] and q_times.tolist() == [2.5]
        assert inverse.tolist() == [0]
