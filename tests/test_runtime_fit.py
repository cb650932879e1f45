"""Process-backend training: the logical/process equivalence contract.

These tests spawn real worker processes (the ``repro.runtime`` backend) and
hold it to the acceptance contract: a ``2x1x1`` process run reproduces the
single-process logical-trainer loss trajectory to ≤1e-6 — and, because both
backends implement one gradient-reduction contract
(:class:`repro.parallel.allreduce.TermGradAccumulator`), the match is in
fact expected to be exact.
"""

import numpy as np
import pytest

from repro.api.config import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.api.session import Session
from repro.parallel.config import ParallelConfig
from repro.runtime.launcher import RecoveryPolicy, WorkerFailure, run_process_fit
from repro.testing import failpoints


def tiny_config(plan: str, seed: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        data=DataConfig(dataset="wikipedia", scale=0.004, seed=seed),
        model=ModelConfig(memory_dim=16, time_dim=8, embed_dim=16, num_neighbors=5),
        parallel=ParallelConfig.parse(plan),
        train=TrainConfig(
            epochs=3, batch_size=50, seed=seed,
            eval_candidates=10, num_negative_groups=4,
        ),
    )


def fit_both(plan: str, iters: int = 8):
    cfg = tiny_config(plan)
    local = Session(cfg)
    r_local = local.fit(max_iterations=iters)
    proc = Session(cfg)
    r_proc = proc.fit(max_iterations=iters, backend="process")
    return local, r_local, proc, r_proc


class TestEquivalence:
    def test_2x1x1_loss_trajectory_within_1e6(self):
        """The acceptance contract: mini-batch-parallel process execution
        reproduces the logical trainer's loss trajectory to ≤1e-6."""
        local, r_local, proc, r_proc = fit_both("2x1x1")
        losses_local = np.array([h.train_loss for h in r_local.history])
        losses_proc = np.array([h.train_loss for h in r_proc.history])
        assert len(losses_local) == len(losses_proc) > 0
        np.testing.assert_allclose(losses_proc, losses_local, atol=1e-6, rtol=0)
        # the shared reduction contract actually guarantees far more: the
        # whole TrainResult — metrics included — matches exactly
        np.testing.assert_array_equal(losses_proc, losses_local)
        assert r_proc.test_metric == r_local.test_metric
        assert r_proc.iterations_run == r_local.iterations_run

    def test_memory_parallel_plan_matches_exactly(self):
        """k memory-parallel groups in shared memory: same trajectory, and
        the parent session inherits the exact final state of every group."""
        local, r_local, proc, r_proc = fit_both("1x1x2", iters=6)
        np.testing.assert_array_equal(
            [h.train_loss for h in r_proc.history],
            [h.train_loss for h in r_local.history],
        )
        for g_local, g_proc in zip(local.trainer.groups, proc.trainer.groups):
            np.testing.assert_array_equal(
                g_proc.memory.memory, g_local.memory.memory
            )
            np.testing.assert_array_equal(g_proc.mailbox.mail, g_local.mailbox.mail)
            assert g_proc.position == g_local.position
            assert g_proc.sweeps_completed == g_local.sweeps_completed

    def test_process_fit_continues_not_restarts(self):
        """fit(backend='process') must resume from the session's current
        state exactly like a second local fit would — same weights,
        optimizer moments, memory and cursors ship to the workers."""
        cfg = tiny_config("2x1x1")
        a, b = Session(cfg), Session(cfg)
        ra1 = a.fit(max_iterations=4)
        rb1 = b.fit(max_iterations=4)
        np.testing.assert_array_equal(
            [h.train_loss for h in ra1.history],
            [h.train_loss for h in rb1.history],
        )
        ra2 = a.fit(max_iterations=4)                      # local continue
        rb2 = b.fit(max_iterations=4, backend="process")   # process continue
        np.testing.assert_array_equal(
            [h.train_loss for h in rb2.history],
            [h.train_loss for h in ra2.history],
        )
        assert rb2.test_metric == ra2.test_metric
        for (_, p_a), (_, p_b) in zip(
            a.model.named_parameters(), b.model.named_parameters()
        ):
            np.testing.assert_array_equal(p_b.data, p_a.data)

    def test_parent_session_continues_from_process_state(self, tmp_path):
        """After a process fit the parent Session evaluates, saves and
        reloads exactly as if it had trained locally."""
        local, _, proc, _ = fit_both("2x1x1", iters=6)
        for (n_l, p_l), (n_p, p_p) in zip(
            local.model.named_parameters(), proc.model.named_parameters()
        ):
            assert n_l == n_p
            np.testing.assert_array_equal(p_p.data, p_l.data)
        assert proc.evaluate("val").metric == local.evaluate("val").metric
        saved = proc.save(tmp_path / "run")
        restored = Session.load(saved)
        assert restored.evaluate("val").metric == proc.evaluate("val").metric


class TestFailurePropagation:
    """With the restart budget at zero the supervisor is a plain failure
    propagator: every way a rank can fail ends in one WorkerFailure."""

    def test_worker_exception_raises_not_hangs(self):
        """A rank that dies during setup must surface as one raised
        WorkerFailure carrying the remote traceback."""
        cfg = tiny_config("1x1x1")
        parent = Session(cfg)
        # past the parent's own validation: only the rank's rebuild trips
        object.__setattr__(cfg.data, "scale", -1.0)
        with pytest.raises(WorkerFailure) as err:
            run_process_fit(
                cfg, parent.trainer, max_iterations=4, timeout=120.0,
                recovery=RecoveryPolicy(max_restarts=0),
            )
        assert "scale must be positive" in str(err.value)

    def test_wedged_worker_times_out_not_hangs(self):
        """A wedged rank (and the peer stuck in a collective waiting for
        it) must be terminated at the fit deadline, not waited on forever."""
        import multiprocessing as mp

        cfg = tiny_config("2x1x1")
        parent = Session(cfg)
        with failpoints.scoped({"worker.step:1": ("wedge", 1)}):
            with pytest.raises(WorkerFailure, match="no result within"):
                run_process_fit(
                    cfg, parent.trainer, max_iterations=4, timeout=5.0,
                    recovery=RecoveryPolicy(max_restarts=0),
                )
        assert not mp.active_children()

    def test_fit_backend_validation(self):
        sess = Session(tiny_config("1x1x1"))
        with pytest.raises(ValueError, match="backend"):
            sess.fit(backend="cluster")
