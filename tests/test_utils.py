"""Utility helpers: RNG spawning, timer, table formatting."""

import time

import numpy as np
import pytest

from repro.utils import (
    Timer,
    derive_rng,
    format_table,
    human_bytes,
    set_global_seed,
    spawn_rngs,
)


class TestRngs:
    def test_spawn_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(42, 2)
        assert not np.allclose(a.random(100), b.random(100))

    def test_spawn_deterministic(self):
        a1, _ = spawn_rngs(7, 2)
        a2, _ = spawn_rngs(7, 2)
        np.testing.assert_allclose(a1.random(10), a2.random(10))

    def test_spawn_rejects_zero(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)

    def test_set_global_seed_returns_generator(self):
        rng = set_global_seed(3)
        assert isinstance(rng, np.random.Generator)


class TestDeriveRng:
    def test_same_seed_rank_same_stream_anywhere(self):
        """The launch-seed convention: (seed, rank) fully determines the
        stream, so a process worker and a logical trainer agree."""
        np.testing.assert_array_equal(
            derive_rng(42, 3).random(50), derive_rng(42, 3).random(50)
        )

    def test_ranks_are_independent(self):
        a, b = derive_rng(42, 0), derive_rng(42, 1)
        assert not np.allclose(a.random(100), b.random(100))

    def test_matches_spawn_rngs_isolation_but_not_streams(self):
        # derive_rng is positional (spawn_key), spawn_rngs is sequential
        # spawn; both give independent streams per rank
        fleet = spawn_rngs(7, 3)
        solo = derive_rng(7, 2)
        assert not np.allclose(fleet[2].random(50), derive_rng(8, 2).random(50))
        assert isinstance(solo, np.random.Generator)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(0, -1)

    def test_trainer_threads_rank_rng_but_shares_negatives(self):
        """Rank-local randomness differs per rank; the negative stream the
        equivalence contract depends on is rank-invariant."""
        from repro.parallel import ParallelConfig
        from repro.train import DistTGLTrainer, TrainerSpec

        from helpers import toy_dataset

        ds = toy_dataset(num_events=300, seed=0)
        spec = TrainerSpec(batch_size=50, memory_dim=8, time_dim=8, embed_dim=8,
                           eval_candidates=5, num_negative_groups=3)
        t0 = DistTGLTrainer(ds, ParallelConfig(2, 1, 1), spec, rank=0)
        t1 = DistTGLTrainer(ds, ParallelConfig(2, 1, 1), spec, rank=1)
        assert not np.allclose(t0.rank_rng.random(20), t1.rank_rng.random(20))
        np.testing.assert_array_equal(
            t0.neg_store.group(0), t1.neg_store.group(0)
        )
        np.testing.assert_array_equal(t0.eval_negs, t1.eval_negs)


class TestTimer:
    def test_elapsed_positive(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.01

    def test_laps(self):
        with Timer() as t:
            time.sleep(0.005)
            lap1 = t.lap()
        assert lap1 > 0


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["x", 1.5], ["yy", 2.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "1.5000" in out

    def test_format_table_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out

    def test_human_bytes(self):
        assert human_bytes(10) == "10 B"
        assert human_bytes(1536) == "1.5 KiB"
        assert human_bytes(3 * 1024**3) == "3.0 GiB"


class TestNumericFingerprint:
    def test_reports_numpy_and_bundled_blas(self):
        from repro.utils.fingerprint import numeric_fingerprint

        fp = numeric_fingerprint()
        assert fp["numpy"] == np.__version__
        if fp["blas_library"] is not None:
            assert fp["blas_core"] and fp["blas_threads"] >= 1
            assert fp["blas_core"] in fp["blas_config"]
