"""Fault-tolerant runtime: failpoints, elastic restart, Session.resume.

The recovery contract under test is the strongest one the bitwise
local≡process equivalence (PR 4) allows: a process fit that loses a rank —
SIGKILL, wedge, dead pipes, or an ordinary exception — mid-epoch must
finish **bitwise identical** to a run that never saw a fault, and a
``Session.resume`` from a mid-run checkpoint must reproduce an
uninterrupted fit bitwise.

Every spawning test runs under hard deadlines (the fit ``timeout`` plus
short collective timeouts), so a recovery regression fails loudly instead
of wedging the suite.
"""

import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.api.session import Session
from repro.obs import get_registry
from repro.parallel.config import ParallelConfig
from repro.runtime.launcher import RecoveryPolicy, WorkerFailure
from repro.runtime.sharedmem import CommitSlab
from repro.testing import (
    ChaosSchedule,
    assert_sessions_bitwise_equal,
    chaos_fit,
    chaos_schedules,
    differential_chaos_fit,
    failpoints,
    run_chaos_schedule,
)
from repro.testing.chaos import CHAOS_KINDS, compare_sessions
from repro.testing.failpoints import ENV_VAR, FailpointError, FailpointRegistry, FailpointSpec

#: deadlines for the chaos fits: short enough to fail fast, long enough
#: for a 1-core CI box to spawn + recover a 2-rank fleet
FIT_TIMEOUT = 240.0
POLICY = RecoveryPolicy(collective_timeout=8.0, park_grace=10.0)


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


# ---------------------------------------------------------------- failpoints
class TestFailpointSpecs:
    def test_parse_round_trips(self):
        for text in ("worker.step:3=crash", "worker.step:5@1=wedge", "a.b:0=exc"):
            assert FailpointSpec.parse(text).encode() == text

    def test_parse_rejects_garbage(self):
        for bad in ("worker.step=crash", "worker.step:x=crash", ":3=crash",
                    "worker.step:3", "worker.step:3=boom", "worker.step:3@z=crash"):
            with pytest.raises(ValueError):
                FailpointSpec.parse(bad)

    def test_enable_exports_env_and_clear_scrubs_it(self):
        reg = FailpointRegistry()
        try:
            reg.enable("worker.step:3", kind="exc", rank=1)
            assert "worker.step:3@1=exc" in os.environ[ENV_VAR]
        finally:
            reg.clear()
        assert ENV_VAR not in os.environ

    def test_env_inherited_specs_fire(self):
        os.environ[ENV_VAR] = "site.x:2=exc"
        try:
            reg = FailpointRegistry()       # fresh process's view
            reg.fire("site.x")              # hit 1: armed but not yet due
            with pytest.raises(FailpointError):
                reg.fire("site.x")          # hit 2
        finally:
            os.environ.pop(ENV_VAR, None)

    def test_step_keyed_matching_and_one_shot(self):
        reg = FailpointRegistry()
        reg._env_loaded = True              # isolate from ambient env
        reg._specs.append(FailpointSpec("worker.step", 3, "exc", rank=1))
        reg.fire("worker.step", rank=0, step=3)     # wrong rank: no fire
        with pytest.raises(FailpointError):
            reg.fire("worker.step", rank=1, step=3)
        reg.fire("worker.step", rank=1, step=3)     # one-shot: spent

    def test_neutralize_silences_inherited_schedule(self):
        reg = FailpointRegistry()
        reg._env_loaded = True
        reg._specs.append(FailpointSpec("worker.step", 1, "exc"))
        reg.neutralize()
        reg.fire("worker.step", step=1)     # must not raise

    def test_pipe_drop_invokes_hook_and_continues(self):
        reg = FailpointRegistry()
        reg._env_loaded = True
        reg._specs.append(FailpointSpec("site.y", 1, "pipe_drop"))
        dropped = []
        reg.fire("site.y", step=1, pipe_drop=lambda: dropped.append(True))
        assert dropped == [True]

    def test_scoped_clears_even_on_failure(self):
        reg = FailpointRegistry()
        with pytest.raises(RuntimeError, match="boom"):
            with reg.scoped({"worker.step:1": ("crash", 0)}):
                assert ENV_VAR in os.environ
                raise RuntimeError("boom")
        assert ENV_VAR not in os.environ
        assert reg.active() == []


# --------------------------------------------------------------- commit slab
class TestCommitSlab:
    def test_double_buffered_seal_protocol(self):
        slab = CommitSlab("repro-test-slab-a", capacity=64, create=True)
        try:
            assert slab.header == (-1, -1)
            assert slab.next_slot == 0
            slab.write(0, b"commit-zero")
            slab.seal(0, 7)
            assert slab.header == (0, 7)
            assert slab.read() == b"commit-zero"
            assert slab.next_slot == 1
            # writing the inactive slot must not disturb the sealed one
            slab.write(1, b"commit-one")
            assert slab.read() == b"commit-zero"
            slab.seal(1, 8)
            assert slab.read() == b"commit-one"
            assert slab.next_slot == 0
        finally:
            slab.close()
            slab.unlink()

    def test_attach_reads_what_owner_sealed(self):
        slab = CommitSlab("repro-test-slab-b", capacity=32, create=True)
        try:
            slab.write(0, b"payload")
            slab.seal(0, 1)
            peer = CommitSlab.attach(slab.to_dict())
            assert peer.read() == b"payload"
            peer.close()
        finally:
            slab.close()
            slab.unlink()

    def test_overflow_raises_before_corrupting(self):
        slab = CommitSlab("repro-test-slab-c", capacity=8, create=True)
        try:
            with pytest.raises(RuntimeError, match="exceeds slab capacity"):
                slab.write(0, b"x" * 9)
        finally:
            slab.close()
            slab.unlink()

    def test_unsealed_read_raises(self):
        slab = CommitSlab("repro-test-slab-d", capacity=8, create=True)
        try:
            with pytest.raises(RuntimeError, match="never sealed"):
                slab.read()
        finally:
            slab.close()
            slab.unlink()


# ------------------------------------------------------------- chaos / diff
class TestElasticRecovery:
    """Each failure kind, injected deterministically, must recover to a
    bitwise-identical run.  (The differential reference is the *local*
    backend, so these tests also re-verify the backend equivalence
    contract under recovery.)"""

    def test_sigkill_mid_epoch_recovers_bitwise(self):
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:3": ("crash", 1)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_crashed_rank_parks_peers_by_eof_not_timeout(self):
        """A SIGKILLed rank's pipes must EOF at once (the supervisor holds
        no duplicate ends of a running generation) and a parking rank
        closes its collectives first — so recovery costs a respawn, not a
        collective timeout."""
        start = time.monotonic()
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:3": ("crash", 1)},
            max_iterations=8,
            recovery=RecoveryPolicy(collective_timeout=60.0),
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences
        assert time.monotonic() - start < 30.0

    def test_sigkill_rank0_recovers_bitwise(self):
        """Rank 0 owns the history/eval bookkeeping; killing it proves the
        commit slab, not the process, is the source of truth."""
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:3": ("crash", 0)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_wedged_rank_is_killed_and_replaced_bitwise(self):
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:4": ("wedge", 1)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_dead_pipes_rewire_without_respawn_bitwise(self):
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:2": ("pipe_drop", 0)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_memory_parallel_crash_restores_shared_segments(self):
        """k=2: the crashed rank's group state must come back from the
        shadow slots, not linger half-written."""
        report = differential_chaos_fit(
            tiny_config("1x1x2"),
            {"worker.step:3": ("crash", 1)},
            max_iterations=6,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_two_failures_two_recoveries_bitwise(self):
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:2": ("crash", 1), "worker.step:5": ("crash", 0)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_restart_budget_bounds_recovery(self):
        """max_restarts=0 restores the pre-elastic behavior: the first
        fault raises WorkerFailure (with diagnostics) instead of retrying."""
        with pytest.raises(WorkerFailure):
            chaos_fit(
                tiny_config("2x1x1"),
                {"worker.step:2": ("crash", 1)},
                max_iterations=6,
                recovery=RecoveryPolicy(
                    max_restarts=0, collective_timeout=6.0, park_grace=8.0
                ),
                timeout=FIT_TIMEOUT,
            )

    def test_worker_exception_recovers_via_respawn(self):
        """An ordinary exception (error-frame path) is also just a failure:
        the rank respawns with failpoints neutralized and the run
        completes bitwise."""
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:5": ("exc", 1)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences


# ------------------------------------------------------ finalization window
class TestFinalizationWindow:
    """A fault after the end barrier (trailing eval, bench gather, result
    report) used to be fatal — ``_fail("fleet failed after some ranks
    completed")``.  The final commit sealed before the end barrier makes
    the whole window replayable: a SIGKILL at *any* instant recovers
    bitwise."""

    def test_kill_after_end_barrier_recovers_bitwise(self):
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.finalize:1@1": ("crash", 1)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_kill_rank0_after_end_barrier_recovers_bitwise(self):
        """Rank 0 produces the result meta; its finalize replay must
        reproduce the trailing eval and test metric from the sealed
        final commit."""
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.finalize:1@0": ("crash", 0)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_finalize_pipe_drop_recovers_bitwise(self):
        """Dead pipes inside the bench gather: survivors park, the
        controller resumes them straight into finalization (bench is
        lost; the compared results are not)."""
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.finalize:1@0": ("pipe_drop", 0)},
            max_iterations=8,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences

    def test_kill_after_end_barrier_fabric_recovers_bitwise(self):
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.finalize:1@1": ("crash", 1)},
            max_iterations=6,
            recovery=POLICY,
            timeout=FIT_TIMEOUT,
            backend="fabric",
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences


# -------------------------------------------------------- concurrent faults
class TestConcurrentFaults:
    """Faults landing together — or landing while a recovery is already in
    flight — must fold into one recovery episode instead of hanging,
    double-restoring, or double-billing the restart budget."""

    def test_two_ranks_dead_same_block_one_restart(self):
        """Both ranks SIGKILLed at the same iteration: one recovery pass,
        one restart — max_restarts=1 must survive it."""
        restarts = get_registry().counter("recovery/restarts")
        before = restarts.value
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:3@0": ("crash", 0), "worker.step:3@1": ("crash", 1)},
            max_iterations=8,
            recovery=RecoveryPolicy(
                max_restarts=1, collective_timeout=8.0, park_grace=10.0
            ),
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences
        # the metric counts episodes, exactly like the budget
        assert restarts.value - before == 1

    def test_fault_during_rollback_reexecution_same_episode(self):
        """commit_every=3 keeps the seal at iteration 3 while the fleet
        re-executes 3..6 after the first crash; the second fault fires
        inside that re-execution, before any new seal — same episode,
        ONE restart, so max_restarts=1 still survives both."""
        restarts = get_registry().counter("recovery/restarts")
        before = restarts.value
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {"worker.step:3@1": ("crash", 1), "worker.step:4@0": ("exc", 0)},
            max_iterations=8,
            recovery=RecoveryPolicy(
                max_restarts=1, commit_every=3,
                collective_timeout=8.0, park_grace=10.0,
            ),
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences
        # the metric counts episodes, exactly like the budget
        assert restarts.value - before == 1

    def test_supervisor_fault_during_recovery_is_absorbed(self):
        """The supervisor-side failpoint aborts the first recovery attempt
        mid-flight; the guarded re-entry folds the half-recovered fleet
        into the next pass — and the aborted attempt does not consume a
        restart."""
        restarts = get_registry().counter("recovery/restarts")
        before = restarts.value
        report = differential_chaos_fit(
            tiny_config("2x1x1"),
            {
                "worker.step:3@1": ("crash", 1),
                "supervisor.recover:1": ("exc", None),
            },
            max_iterations=8,
            recovery=RecoveryPolicy(
                max_restarts=1, collective_timeout=8.0, park_grace=10.0
            ),
            timeout=FIT_TIMEOUT,
        )
        assert report.recovered
        assert report.bitwise_equal, report.differences
        # the metric counts episodes, exactly like the budget
        assert restarts.value - before == 1


# ------------------------------------------------------ randomized schedules
class TestChaosSchedule:
    """The seed-reproducible randomized drawer behind ``repro.cli chaos``
    and the CI chaos-matrix job."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        backend=st.sampled_from(["process", "fabric"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_draw_is_valid_and_deterministic(self, seed, backend):
        a = ChaosSchedule.random(
            seed, world=4, max_iteration=6, backend=backend, max_faults=3
        )
        b = ChaosSchedule.random(
            seed, world=4, max_iteration=6, backend=backend, max_faults=3
        )
        assert a == b                                   # seed == schedule
        assert 1 <= len(a.entries) <= 3
        ranks = [rank for _, _, rank in a.entries]
        assert len(set(ranks)) == len(ranks)            # distinct ranks
        for point, kind, rank in a.entries:
            spec = FailpointSpec.parse(f"{point}={kind}")
            assert spec.rank == rank and 0 <= rank < 4
            assert kind in CHAOS_KINDS
            if spec.site == "worker.finalize":
                assert spec.hit == 1
            elif spec.site == "fabric.machine":
                assert backend == "fabric" and kind == "crash"
            else:
                assert spec.site == "worker.step"
                assert 0 <= spec.hit < 6
        assert ChaosSchedule.from_dict(a.to_dict()) == a

    @given(chaos_schedules(backends=("process",), world=2, max_iteration=8))
    @settings(max_examples=25, deadline=None)
    def test_strategy_draws_runnable_fault_dicts(self, schedule):
        faults = schedule.to_faults()
        assert len(faults) == len(schedule.entries)
        for point, (kind, rank) in faults.items():
            spec = FailpointSpec.parse(f"{point}={kind}")
            assert spec.rank == rank

    def test_seeded_schedule_recovers_bitwise(self):
        """One end-to-end randomized run through the differential oracle
        (the CI matrix sweeps many seeds; this pins the plumbing)."""
        schedule = ChaosSchedule.random(1, world=2, max_iteration=8)
        report = run_chaos_schedule(
            tiny_config("2x1x1"), schedule, timeout=FIT_TIMEOUT
        )
        assert report.recovered, schedule.describe()
        assert report.bitwise_equal, (schedule.describe(), report.differences)


# ------------------------------------------------------- oracle sensitivity
class TestOracleSensitivity:
    """The state comparator must see a one-field perturbation."""

    @pytest.fixture
    def pair(self):
        a = Session(tiny_config("1x1x1"))
        b = Session(tiny_config("1x1x1"))
        assert compare_sessions(a, b) == []
        return a, b

    def test_mail_time_only(self, pair):
        a, b = pair
        b.trainer.groups[0].mailbox.mail_time[0] += 1.0
        assert compare_sessions(a, b) == ["group 0: mail_time differs"]

    def test_has_mail_only(self, pair):
        a, b = pair
        b.trainer.groups[0].mailbox.has_mail[0] ^= True
        assert compare_sessions(a, b) == ["group 0: has_mail differs"]

    def test_signed_zero_weight(self, pair):
        a, b = pair
        (name, p_a), (_, p_b) = next(
            zip(a.decoder.named_parameters(), b.decoder.named_parameters())
        )
        p_a.data.reshape(-1)[0] = 0.0
        p_b.data.reshape(-1)[0] = -0.0
        assert compare_sessions(a, b) == [f"weights differ: {name}"]

    def test_dtype_change_in_memory(self, pair):
        a, b = pair
        g = b.trainer.groups[0].memory
        g.memory = g.memory.astype(np.float64)
        assert compare_sessions(a, b) == ["group 0: node memory differs"]


# ----------------------------------------------------------- Session.resume
class TestSessionResume:
    def run_pair(self, tmp_path, plan="1x1x1", iters=10, every=3,
                 resume_backend="local"):
        ref = Session(tiny_config(plan))
        ref_result = ref.fit(max_iterations=iters)
        ckpt = tmp_path / "ckpt"
        interrupted = Session(tiny_config(plan))
        interrupted.fit(
            max_iterations=iters, checkpoint_dir=ckpt, checkpoint_every=every
        )
        resumed = Session.resume(ckpt)
        self.resume_iteration = resumed.trainer._iteration
        assert self.resume_iteration < iters  # genuinely mid-run
        kwargs = {"backend": resume_backend}
        if resume_backend == "process":
            kwargs["timeout"] = FIT_TIMEOUT
        resumed_result = resumed.fit(**kwargs)
        return ref, ref_result, resumed, resumed_result

    def test_resume_reproduces_uninterrupted_fit_bitwise(self, tmp_path):
        ref, ref_result, resumed, resumed_result = self.run_pair(tmp_path)
        assert_sessions_bitwise_equal(resumed, ref)
        np.testing.assert_array_equal(
            [h.train_loss for h in resumed_result.history],
            [h.train_loss for h in ref_result.history],
        )
        assert resumed_result.test_metric == ref_result.test_metric
        assert resumed_result.iterations_run == ref_result.iterations_run

    def test_resume_on_process_backend_bitwise(self, tmp_path):
        ref, ref_result, resumed, resumed_result = self.run_pair(
            tmp_path, resume_backend="process"
        )
        assert_sessions_bitwise_equal(resumed, ref)
        assert resumed_result.test_metric == ref_result.test_metric

    def test_resume_with_epoch_parallel_blocks(self, tmp_path):
        """j=2: checkpoints only land on block boundaries, and the resumed
        run still splices bitwise."""
        ref, ref_result, resumed, resumed_result = self.run_pair(
            tmp_path, plan="1x2x1", iters=9, every=2
        )
        assert self.resume_iteration % 2 == 0   # resumed at a block boundary
        assert_sessions_bitwise_equal(resumed, ref)
        assert resumed_result.test_metric == ref_result.test_metric

    def test_resume_preserves_loss_window_across_eval_boundary(self, tmp_path):
        """The checkpoint between two evals carries the partial loss-
        averaging window; without it the spliced history would diverge in
        train_loss (a tolerance test would never catch that)."""
        _, ref_result, _, resumed_result = self.run_pair(
            tmp_path, iters=10, every=7
        )
        assert [h.train_loss for h in resumed_result.history] == [
            h.train_loss for h in ref_result.history
        ]

    def test_resume_rejects_fresh_budget_args(self, tmp_path):
        sess = Session(tiny_config("1x1x1"))
        sess.fit(max_iterations=6, checkpoint_dir=tmp_path / "c", checkpoint_every=2)
        resumed = Session.resume(tmp_path / "c")
        with pytest.raises(ValueError, match="resumes an interrupted run"):
            resumed.fit(max_iterations=3)

    def test_resume_requires_resume_json(self, tmp_path):
        sess = Session(tiny_config("1x1x1"))
        sess.fit(max_iterations=4)
        saved = sess.save(tmp_path / "final")
        with pytest.raises(FileNotFoundError, match="resume.json"):
            Session.resume(saved)

    def test_resume_rejects_torn_snapshot(self, tmp_path):
        sess = Session(tiny_config("1x1x1"))
        sess.fit(max_iterations=6, checkpoint_dir=tmp_path / "c", checkpoint_every=2)
        resume_file = tmp_path / "c" / "resume.json"
        state = json.loads(resume_file.read_text())
        state["target_iteration"] = 1   # precedes the checkpoint iteration
        resume_file.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="torn"):
            Session.resume(tmp_path / "c")

    def test_resume_rejects_mismatched_checkpoint_book_pair(self, tmp_path):
        """A resume.json written for a different checkpoint iteration is a
        torn snapshot pair and must be refused, not silently spliced."""
        sess = Session(tiny_config("1x1x1"))
        sess.fit(max_iterations=6, checkpoint_dir=tmp_path / "c", checkpoint_every=2)
        resume_file = tmp_path / "c" / "resume.json"
        state = json.loads(resume_file.read_text())
        state["iteration"] = state["iteration"] - 2   # stale book
        resume_file.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="torn"):
            Session.resume(tmp_path / "c")

    def test_checkpoint_dir_without_cadence_snapshots_every_block(self, tmp_path):
        """Asking for a checkpoint directory with no cadence configured
        must checkpoint (every block), never silently write nothing."""
        sess = Session(tiny_config("1x1x1"))   # config cadence is 0
        sess.fit(max_iterations=4, checkpoint_dir=tmp_path / "c")
        assert (tmp_path / "c" / "resume.json").exists()
        assert Session.resume(tmp_path / "c").trainer._iteration == 4

    def test_local_backend_rejects_timeout(self):
        sess = Session(tiny_config("1x1x1"))
        with pytest.raises(ValueError, match="process"):
            sess.fit(max_iterations=2, timeout=30.0)

    def test_checkpoint_every_from_config(self, tmp_path):
        cfg_dict = tiny_config("1x1x1").to_dict()
        cfg_dict["train"]["checkpoint_every"] = 2
        cfg = ExperimentConfig.from_dict(cfg_dict)
        sess = Session(cfg)
        sess.fit(max_iterations=6, checkpoint_dir=tmp_path / "c")
        assert (tmp_path / "c" / "resume.json").exists()
        assert (tmp_path / "c" / "checkpoint.npz").exists()
        assert (tmp_path / "c" / "config.json").exists()

    def test_process_backend_checkpoint_dir_resumes_bitwise(self, tmp_path):
        """The supervisor exports the sealed slab as a v2 checkpoint at
        the cadence boundaries; a resume from it equals the uninterrupted
        reference bitwise (the process/fabric ValueError hole is closed)."""
        iters = 10
        ref = Session(tiny_config("1x1x1"))
        ref_result = ref.fit(max_iterations=iters)
        sess = Session(tiny_config("1x1x1"))
        sess.fit(
            max_iterations=iters, backend="process",
            checkpoint_dir=tmp_path / "c", checkpoint_every=3,
            recovery=POLICY, timeout=FIT_TIMEOUT,
        )
        assert (tmp_path / "c" / "resume.json").exists()
        assert (tmp_path / "c" / "checkpoint.npz").exists()
        resumed = Session.resume(tmp_path / "c")
        assert 0 < resumed.trainer._iteration <= iters
        resumed_result = resumed.fit()
        assert_sessions_bitwise_equal(resumed, ref)
        assert resumed_result.test_metric == ref_result.test_metric
        assert resumed_result.iterations_run == ref_result.iterations_run

    def test_fabric_backend_checkpoint_dir_resumes_bitwise(self, tmp_path):
        iters = 8
        ref = Session(tiny_config("2x1x1"))
        ref_result = ref.fit(max_iterations=iters)
        sess = Session(tiny_config("2x1x1"))
        sess.fit(
            max_iterations=iters, backend="fabric",
            checkpoint_dir=tmp_path / "c", checkpoint_every=2,
            recovery=POLICY, timeout=FIT_TIMEOUT,
        )
        assert (tmp_path / "c" / "resume.json").exists()
        resumed = Session.resume(tmp_path / "c")
        assert 0 < resumed.trainer._iteration <= iters
        resumed_result = resumed.fit()
        assert_sessions_bitwise_equal(resumed, ref)
        assert resumed_result.test_metric == ref_result.test_metric


class TestFailpointHygiene:
    def test_no_failpoints_leak_after_chaos_suite(self):
        """Whatever ran before this point, the ambient process must hold no
        armed failpoints and no env schedule — the scoped() guarantee."""
        assert failpoints.active() == []
        assert ENV_VAR not in os.environ
