"""Chaos driver + differential checker for the fault-tolerant runtime.

The runtime's recovery claim is unusually strong — a fit that loses a rank
mid-epoch must finish **bitwise identical** to one that never saw a fault —
and the bitwise local≡process contract from the runtime backend makes that
claim *testable by exact equality* instead of tolerance bands.  This module
packages the test harness:

* :func:`chaos_fit` — run ``Session.fit(backend="process")`` (or
  ``backend="fabric"``, where ``fabric.machine`` failpoints SIGKILL a
  whole host agent) with a set of failpoints armed (and reliably cleared
  afterwards, pass or fail);
* :func:`differential_chaos_fit` — the full oracle: run the faulted
  process fit *and* an unfaulted reference fit of the same config, then
  compare everything observable (loss history, metrics, model weights,
  optimizer moments, node memory, mailbox state) for exact equality;
* :func:`assert_sessions_bitwise_equal` — the state comparator, reusable
  against any two sessions that should agree;
* :class:`ChaosSchedule` — a seed-reproducible *randomized* fault
  schedule drawing site (training step, finalization window, whole
  machine), kind, rank and iteration, including multi-fault schedules;
  :func:`run_chaos_schedule` feeds one straight into the differential
  oracle.  ``repro.cli chaos`` and the CI ``chaos-matrix`` job sweep
  seeds so every runtime change is fuzzed against the full fault space.

Example::

    from repro.testing import differential_chaos_fit

    report = differential_chaos_fit(
        cfg,
        {"worker.step:3": ("crash", 1)},     # SIGKILL rank 1 at iteration 3
        max_iterations=8,
        recovery=RecoveryPolicy(collective_timeout=15.0),
    )
    assert report.recovered and report.bitwise_equal, report.differences

Randomized::

    from repro.testing import ChaosSchedule, run_chaos_schedule

    schedule = ChaosSchedule.random(1234, world=2, max_iteration=8)
    report = run_chaos_schedule(cfg, schedule, timeout=120.0)
    assert report.bitwise_equal, (schedule.describe(), report.differences)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api.config import ExperimentConfig
from ..api.session import Session
from . import failpoints


@dataclass
class ChaosReport:
    """Outcome of one differential chaos run."""

    recovered: bool                      #: the faulted fit completed
    bitwise_equal: bool                  #: faulted == reference, exactly
    differences: List[str] = field(default_factory=list)
    faulted_result: Optional[object] = None
    reference_result: Optional[object] = None


def chaos_fit(
    config: ExperimentConfig,
    faults: Dict[str, Tuple[str, Optional[int]]],
    *,
    max_iterations: Optional[int] = None,
    epochs: Optional[int] = None,
    recovery=None,
    timeout: Optional[float] = None,
    backend: str = "process",
):
    """Run a process- (or fabric-) backend fit with ``faults`` armed.

    ``faults`` maps failpoint specs to ``(kind, rank)`` — e.g.
    ``{"worker.step:3": ("crash", 1)}``.  With ``backend="fabric"`` the
    ``fabric.machine`` site is also live, so a spec like
    ``{"fabric.machine:2": ("crash", 5)}`` SIGKILLs rank 5's *entire host
    agent* (children included) at iteration 2 — the machine-loss drill.
    Failpoints are cleared on exit even when the fit (or an assertion
    around it) raises, so an armed crash can never leak into the next
    test.  Returns ``(session, result)``.
    """
    sess = Session(config)
    with failpoints.scoped(faults):
        kwargs = dict(
            max_iterations=max_iterations, epochs=epochs, backend=backend
        )
        if recovery is not None:
            kwargs["recovery"] = recovery
        if timeout is not None:
            kwargs["timeout"] = timeout
        result = sess.fit(**kwargs)
    return sess, result


def differential_chaos_fit(
    config: ExperimentConfig,
    faults: Dict[str, Tuple[str, Optional[int]]],
    *,
    max_iterations: Optional[int] = None,
    epochs: Optional[int] = None,
    recovery=None,
    timeout: Optional[float] = None,
    reference_backend: str = "local",
    backend: str = "process",
) -> ChaosReport:
    """The recovery oracle: a faulted process fit vs. an unfaulted replay.

    The reference run executes the *same* config and iteration budget with
    no failpoints armed — on the logical trainer by default (the semantic
    reference, which also cross-checks the backend equivalence contract),
    or on a clean process fleet with ``reference_backend="process"``.
    ``backend="fabric"`` runs the faulted fit on the multi-host fabric
    instead (whole-machine-loss drills included).
    """
    faulted_sess, faulted_res = chaos_fit(
        config,
        faults,
        max_iterations=max_iterations,
        epochs=epochs,
        recovery=recovery,
        timeout=timeout,
        backend=backend,
    )
    ref_sess = Session(config)
    ref_kwargs = dict(max_iterations=max_iterations, epochs=epochs)
    if reference_backend == "process":
        ref_kwargs["backend"] = "process"
        if timeout is not None:
            ref_kwargs["timeout"] = timeout
    ref_res = ref_sess.fit(**ref_kwargs)

    differences = compare_sessions(faulted_sess, ref_sess)
    differences += _compare_results(faulted_res, ref_res)
    return ChaosReport(
        recovered=True,
        bitwise_equal=not differences,
        differences=differences,
        faulted_result=faulted_res,
        reference_result=ref_res,
    )


# ------------------------------------------------- randomized chaos drawer
#: sites the random drawer samples; ``fabric.machine`` joins for fabric runs
CHAOS_SITES = ("worker.step", "worker.finalize")
#: every failure mode the runtime claims to absorb
CHAOS_KINDS = ("crash", "wedge", "pipe_drop", "exc")


@dataclass(frozen=True)
class ChaosSchedule:
    """A seed-reproducible randomized fault schedule.

    ``entries`` is a tuple of ``(point, kind, rank)`` triples in the
    failpoint grammar (``site:hit@rank``) — ranks are distinct, so a
    schedule with several entries is a genuine concurrent/sequential
    multi-fault drill.  The same ``(seed, world, max_iteration, backend,
    max_faults)`` always draws the same schedule: a CI failure names a
    seed, and the seed replays the exact fault sequence locally.
    """

    seed: int
    backend: str
    world: int
    max_iteration: int
    entries: Tuple[Tuple[str, str, int], ...]

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        world: int = 2,
        max_iteration: int = 8,
        backend: str = "process",
        max_faults: int = 2,
    ) -> "ChaosSchedule":
        """Draw a schedule: 1..``max_faults`` faults on distinct ranks,
        each an independent (site, kind, iteration) sample.  Sites cover
        the training loop (step-keyed, any iteration), the finalization
        window (``worker.finalize``, after the end barrier) and — on the
        fabric backend — whole-machine loss (``fabric.machine``)."""
        rng = np.random.default_rng(seed)
        n_faults = int(rng.integers(1, max_faults + 1))
        ranks = [int(r) for r in rng.choice(world, size=min(n_faults, world),
                                            replace=False)]
        entries = []
        for rank in ranks:
            if rng.random() < 0.25:
                site = "worker.finalize"
            elif backend == "fabric" and rng.random() < 0.25:
                site = "fabric.machine"
            else:
                site = "worker.step"
            if site == "worker.finalize":
                # hit-counter keyed: the first execution past the end barrier
                hit = 1
                kind = str(rng.choice(CHAOS_KINDS))
            elif site == "fabric.machine":
                # the site's callback SIGKILLs the whole host agent
                hit = int(rng.integers(1, max_iteration))
                kind = "crash"
            else:
                hit = int(rng.integers(0, max_iteration))
                kind = str(rng.choice(CHAOS_KINDS))
            entries.append((f"{site}:{hit}@{rank}", kind, rank))
        return cls(
            seed=int(seed),
            backend=backend,
            world=int(world),
            max_iteration=int(max_iteration),
            entries=tuple(entries),
        )

    def to_faults(self) -> Dict[str, Tuple[str, Optional[int]]]:
        """The ``{point: (kind, rank)}`` dict :func:`chaos_fit` takes —
        rank-suffixed points, so same-iteration faults on different ranks
        never collide."""
        return {point: (kind, rank) for point, kind, rank in self.entries}

    def describe(self) -> str:
        faults = ", ".join(f"{p}={k}" for p, k, _ in self.entries)
        return (
            f"seed={self.seed} backend={self.backend} world={self.world} "
            f"iters={self.max_iteration} faults=[{faults}]"
        )

    def to_dict(self) -> dict:
        """JSON-ready form (the CI artifact written for a failing seed)."""
        return {
            "seed": self.seed,
            "backend": self.backend,
            "world": self.world,
            "max_iteration": self.max_iteration,
            "entries": [list(e) for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSchedule":
        return cls(
            seed=int(data["seed"]),
            backend=str(data["backend"]),
            world=int(data["world"]),
            max_iteration=int(data["max_iteration"]),
            entries=tuple(
                (str(p), str(k), int(r)) for p, k, r in data["entries"]
            ),
        )


def chaos_schedules(
    backends: Tuple[str, ...] = ("process",),
    *,
    world: int = 2,
    max_iteration: int = 8,
    max_faults: int = 2,
):
    """A hypothesis strategy over :class:`ChaosSchedule` (property tests
    draw seeds; shrinking walks toward small seeds, which is exactly the
    reproduction artifact a failure should hand back)."""
    from hypothesis import strategies as st

    return st.builds(
        lambda seed, backend: ChaosSchedule.random(
            seed,
            world=world,
            max_iteration=max_iteration,
            backend=backend,
            max_faults=max_faults,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(list(backends)),
    )


def run_chaos_schedule(
    config: ExperimentConfig,
    schedule: ChaosSchedule,
    *,
    recovery=None,
    timeout: Optional[float] = None,
    reference_backend: str = "local",
) -> ChaosReport:
    """Run one randomized schedule through the differential oracle.

    The default :class:`~repro.runtime.RecoveryPolicy` budgets one restart
    per scheduled fault plus one (sequential faults each open a new
    episode), with short collective timeouts so wedge faults are detected
    in CI time.
    """
    if recovery is None:
        from ..runtime.launcher import RecoveryPolicy

        recovery = RecoveryPolicy(
            max_restarts=len(schedule.entries) + 1,
            collective_timeout=8.0,
            park_grace=10.0,
        )
    return differential_chaos_fit(
        config,
        schedule.to_faults(),
        max_iterations=schedule.max_iteration,
        recovery=recovery,
        timeout=timeout,
        backend=schedule.backend,
        reference_backend=reference_backend,
    )


# ------------------------------------------------------------- comparators
def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # dtype, shape and bytes: ``np.array_equal`` would let -0.0 equal 0.0
    # and a float64 copy equal its float32 original
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compare_sessions(a: Session, b: Session) -> List[str]:
    """Every state difference between two sessions (empty == bitwise equal):
    model + decoder weights, Adam moments, the trainer's iteration count,
    negative-group offset and rank RNG state, and per-group node memory /
    mailbox contents and cursors."""
    diffs: List[str] = []
    t_a, t_b = a.trainer, b.trainer
    if t_a._iteration != t_b._iteration:
        diffs.append(f"iteration differs: {t_a._iteration} vs {t_b._iteration}")
    if t_a._sweep_negative_offset != t_b._sweep_negative_offset:
        diffs.append(
            f"sweep negative offset differs: {t_a._sweep_negative_offset} "
            f"vs {t_b._sweep_negative_offset}"
        )
    if t_a.rank_rng.bit_generator.state != t_b.rank_rng.bit_generator.state:
        diffs.append("rank_rng state differs")
    for (name_a, p_a), (name_b, p_b) in zip(
        list(a.model.named_parameters()) + list(a.decoder.named_parameters()),
        list(b.model.named_parameters()) + list(b.decoder.named_parameters()),
    ):
        if name_a != name_b:
            diffs.append(f"parameter order mismatch: {name_a} vs {name_b}")
        elif not _same_bits(p_a.data, p_b.data):
            diffs.append(f"weights differ: {name_a}")
    m_a, v_a, s_a = a.trainer.optimizer.state_arrays()
    m_b, v_b, s_b = b.trainer.optimizer.state_arrays()
    if s_a != s_b:
        diffs.append(f"optimizer step differs: {s_a} vs {s_b}")
    for idx, (ma, mb) in enumerate(zip(m_a, m_b)):
        if not _same_bits(ma, mb):
            diffs.append(f"Adam m moment differs: param {idx}")
    for idx, (va, vb) in enumerate(zip(v_a, v_b)):
        if not _same_bits(va, vb):
            diffs.append(f"Adam v moment differs: param {idx}")
    for g_a, g_b in zip(a.trainer.groups, b.trainer.groups):
        tag = f"group {g_a.index}"
        for label, x, y in (
            ("node memory", g_a.memory.memory, g_b.memory.memory),
            ("last_update", g_a.memory.last_update, g_b.memory.last_update),
            ("mailbox", g_a.mailbox.mail, g_b.mailbox.mail),
            ("mail_time", g_a.mailbox.mail_time, g_b.mailbox.mail_time),
            ("has_mail", g_a.mailbox.has_mail, g_b.mailbox.has_mail),
        ):
            if not _same_bits(x, y):
                diffs.append(f"{tag}: {label} differs")
        if (g_a.position, g_a.prev_batch, g_a.sweeps_completed) != (
            g_b.position,
            g_b.prev_batch,
            g_b.sweeps_completed,
        ):
            diffs.append(f"{tag}: cursors differ")
    return diffs


def _compare_results(a, b) -> List[str]:
    diffs: List[str] = []
    if len(a.history) != len(b.history):
        diffs.append(f"history length differs: {len(a.history)} vs {len(b.history)}")
        return diffs
    for h_a, h_b in zip(a.history, b.history):
        if (h_a.iteration, h_a.train_loss, h_a.val_metric) != (
            h_b.iteration,
            h_b.train_loss,
            h_b.val_metric,
        ):
            diffs.append(f"history point differs at iteration {h_a.iteration}")
    if a.test_metric != b.test_metric:
        diffs.append(f"test metric differs: {a.test_metric} vs {b.test_metric}")
    if a.iterations_run != b.iterations_run:
        diffs.append(
            f"iterations_run differs: {a.iterations_run} vs {b.iterations_run}"
        )
    return diffs


def differential_chaos_serve(
    config: ExperimentConfig,
    faults: Dict[str, Tuple[str, Optional[int]]],
    *,
    replicas: int = 2,
    queries_per_phase: int = 3,
    candidates: int = 8,
    ingest_chunks: int = 2,
    fit_iterations: Optional[int] = 6,
    timeout: float = 60.0,
) -> ChaosReport:
    """The serving recovery oracle: a faulted process fleet vs. a clean
    single-replica threaded cluster on the same request/ingest schedule.

    ``faults`` arms ``serve.replica`` failpoints (e.g.
    ``{"serve.replica:2": ("crash", 1)}`` SIGKILLs replica 1 on its second
    request) around a :class:`~repro.runtime.serving.ProcessFleet`-backed
    run that interleaves ingest batches with ranking queries.  A killed
    replica is respawned, caught up from the graph tail, and its
    outstanding requests replayed — so every response must still match the
    unfaulted reference **byte for byte** (each query is flushed alone on
    both sides, pinning batch composition).  The report's
    ``faulted_result`` carries the process cluster's stats (recoveries,
    completions) for assertions beyond equality.
    """
    sess = Session(config)
    sess.fit(max_iterations=fit_iterations)
    chunks = list(sess.held_out_stream())[:ingest_chunks]
    rng_seed = config.data.seed + 99

    def run_schedule(cluster, wait_timeout: float) -> List[bytes]:
        rng = np.random.default_rng(rng_seed)
        blobs: List[bytes] = []
        for phase in range(len(chunks) + 1):
            if phase > 0:
                cluster.ingest(*chunks[phase - 1])
            for _ in range(queries_per_phase):
                src = int(rng.integers(0, cluster.graph.num_nodes))
                cands = rng.integers(0, cluster.graph.num_nodes, size=candidates)
                at = float(cluster.graph.timestamps[-1]) + 1.0
                handle = cluster.submit_rank(src, cands, at)
                cluster.flush_all()
                blobs.append(handle.wait(wait_timeout).tobytes())
        return blobs

    with failpoints.scoped(faults):
        with sess.serve(
            replicas=replicas, process_replicas=True, max_delay_ms=10_000.0
        ) as proc:
            faulted = run_schedule(proc, timeout)
            proc_stats = proc.stats

    reference = run_schedule(sess.serve(replicas=1, max_delay_ms=10_000.0), timeout)

    differences = [
        f"query {i}: faulted response differs from reference"
        for i, (a, b) in enumerate(zip(faulted, reference))
        if a != b
    ]
    if len(faulted) != len(reference):
        differences.append(
            f"response count differs: {len(faulted)} vs {len(reference)}"
        )
    return ChaosReport(
        recovered=len(faulted) == (len(chunks) + 1) * queries_per_phase,
        bitwise_equal=not differences,
        differences=differences,
        faulted_result=proc_stats,
        reference_result=None,
    )


def assert_sessions_bitwise_equal(a: Session, b: Session) -> None:
    """Raise ``AssertionError`` listing every state difference, if any."""
    diffs = compare_sessions(a, b)
    if diffs:
        raise AssertionError(
            "sessions are not bitwise equal:\n  " + "\n  ".join(diffs)
        )
