"""DistTGL reproduction: distributed memory-based TGNN training (SC 2023).

Public API tour
---------------
One declarative config, one :class:`Session` lifecycle object::

    import repro

    cfg = repro.ExperimentConfig(
        data=repro.DataConfig(dataset="wikipedia", scale=0.02),
        model=repro.ModelConfig(memory_dim=32, embed_dim=32),
        parallel=repro.ParallelConfig.parse("1x2x4"),   # the paper's i×j×k
        train=repro.TrainConfig(epochs=20, batch_size=100),
    )
    sess = repro.Session(cfg)

    result = sess.fit()                     # train  -> TrainResult
    print(result.best_val, result.test_metric)
    val = sess.evaluate("val")              # eval   -> EvalResult

    engine = sess.predictor()               # infer  -> batched InferenceEngine
    engine.rank_candidates(src=3, candidates=cands, at_time=t)

    cluster = sess.serve(replicas=2)        # serve  -> ServingCluster (§3.2.3
    cluster.ingest(src, dst, times)         #           memory-replicas on reads)
    handle = cluster.submit_rank(src=3, candidates=cands, at_time=t)
    scores = handle.wait()                  # flushed by the micro-batcher

    sess.save("runs/wiki")                  # config + checkpoint + memory state
    sess2 = repro.Session.load("runs/wiki") # evaluate()/serving scores identical

Backend selection
-----------------
Every ``Session`` can execute on two engines with **identical results**:

* ``sess.fit()`` — the default ``backend="local"``: the i×j×k plan runs as
  logical trainers stepped in lockstep inside this process (the paper's
  semantics, zero spawn cost — the semantic reference);
* ``sess.fit(backend="process")`` — the ``repro.runtime`` backend: ``i×k``
  real worker processes, each rebuilt from the declarative config, with the
  k node-memory copies in ``multiprocessing.shared_memory`` and gradients
  synchronized per step over wire collectives.  Both backends implement one
  gradient-reduction contract (``repro.parallel.TermGradAccumulator``), so
  the loss trajectory and metrics match **bitwise**, while multi-core hosts
  get real parallel speedup (measured by ``python3 bench/run.py``'s
  ``minibatch_2x1x1`` and ``memepoch_1x2x2`` workloads).
* ``sess.serve(replicas=k, process_replicas=True)`` — the same
  ``ServingCluster`` front door over a fleet of worker processes: each owns
  a model copy (true compute parallelism), all share one node-memory
  segment, predictions bit-identical to in-thread replicas (and
  ``cluster.save()/restore()`` snapshots are interchangeable between the
  two fleets).  ``python -m repro.cli train --backend process``
  and ``examples/quickstart.py --backend process`` drive the same switch.

Multi-host runtime
------------------
``backend="fabric"`` runs the *full* ``i×j×k@machines`` plan — including
the ``j`` epoch dimension as genuinely pipelined processes — across host
agents that rendezvous over TCP.  Start one agent per machine, then point
the fit at the rendezvous address::

    # on each of the 2 hosts (here: two shells on localhost)
    python -m repro.cli agent --join 127.0.0.1:47000

    # driver: 2x2x2@2 = 8 real ranks fanned out over the 2 agents
    cfg = repro.ExperimentConfig(
        ...,
        parallel=repro.ParallelConfig.parse("2x2x2@2"),
    )
    sess = repro.Session(cfg)
    result = sess.fit(backend="fabric",
                      rendezvous="127.0.0.1:47000",
                      managed_agents=False)   # agents started above

With the default ``managed_agents=True`` the launcher spawns local agent
subprocesses itself (no shells needed) — that is also how the tests and
``python -m repro.cli train --backend fabric`` run.  Placement follows the
paper's §3.2.3 rule: ``machines`` must divide ``k`` so a memory group
never spans hosts — node memory syncs inside a machine only, gradients
alone cross machines, through the group leaders' ``star``/``ring``/
``tree`` collective (``TrainConfig.topology``; results stay bitwise, and
``python3 bench/run.py`` reports each topology's ``runtime.allreduce_us``).
The rendezvous controller heartbeats every agent; a silent or dead host
surfaces as a ``WorkerFailure``, and under a ``RecoveryPolicy`` budget the
supervisor re-rendezvouses a replacement agent, respawns the lost ranks
from the sealed commit, and finishes **bitwise identical** to an
unfaulted local run — the same contract the process backend holds, now
per machine.

Fault tolerance & resumable runs
--------------------------------
The process backend survives the failures scale brings.  When a rank
crashes, wedges, or loses its pipes mid-``fit``, the elastic supervisor
rolls the fleet back to the last committed step boundary (a double-
buffered shared-memory commit slab + per-group shadow segments), respawns
the dead rank, and resumes — and because both backends execute bit-exact
arithmetic, the recovered run still finishes **bitwise identical** to an
unfaulted one.  There is no window where a fault is fatal: ranks seal a
*final* commit before the end barrier, so a SIGKILL landing during
finalization (after training finished, before results ship) recovers by
replaying finalization from that sealed commit; two ranks dying in the
same block fold into one restart; and a fault that interrupts recovery
itself re-enters the same rollback without double-charging the budget.
``repro.runtime.RecoveryPolicy`` tunes the restart budget, detection
timeouts and commit cadence::

    sess.fit(backend="process",
             recovery=repro.runtime.RecoveryPolicy(max_restarts=2))

Long runs checkpoint themselves and resume exactly — on **every**
backend: local fits snapshot from inside the step loop, process/fabric
fits export the sealed commit slab from the supervisor at the same block
boundaries, producing the same checkpoint format::

    sess.fit(checkpoint_dir="runs/wiki-ckpt",   # cadence from
             backend="process")                 # train.checkpoint_every
    ...                                         # interrupted? then later:
    sess = repro.Session.resume("runs/wiki-ckpt")
    sess.fit()        # continues to the original target; final weights,
                      # memory and metrics equal the uninterrupted run
                      # bitwise (python -m repro.cli resume --dir ... too)

Serving at scale
----------------
The serving tier is elastic and keeps learning without ever breaking the
bitwise contract.  Three layers, all config-driven (``ServeConfig``) and
all scriptable from the one cluster object, whichever replica fleet
(threads or processes) is behind it:

* **Tail-latency SLOs** — ``deadline_ms`` gives every request a completion
  budget: requests whose budget cannot be met are shed at admission
  (``stats.shed_deadline``) instead of queueing to expire.
  ``hedge_quantile`` arms hedged dispatch: a request in flight longer than
  that latency quantile is duplicated onto the least-loaded other replica,
  the first result wins, and the loser is cancelled *before* it reaches
  the engine — so hedges cut p99 without double-counting a single
  ``serve/*`` metric, and the hedged bytes equal the unhedged bytes.
* **Autoscaling** — ``repro.serve.ReplicaAutoscaler`` grows and shrinks
  the fleet between ``min_replicas``/``max_replicas`` from queue depth and
  the latency reservoir.  ``cluster.add_replica()`` seeds the newcomer
  bitwise from a live copy; ``remove_replica()`` parks the victim until
  its in-flight work drains.
* **Online continual learning** — ``repro.serve.ContinualLearner`` is the
  train-while-serve loop: it drains the WAL past a held cursor
  (``cluster.hold_wal_cursor`` — truncation never outruns a reader),
  warm-starts a short refit over base + streamed events, exports a
  loadable checkpoint directory, hot-swaps the new weights into the live
  fleet (``cluster.hot_swap``), then *proves* the swap:
  probe queries against a fresh ``Session.load`` of the export must match
  byte for byte or the swap raises::

      cluster = sess.serve(replicas=2)
      learner = repro.serve.ContinualLearner(sess, cluster)
      cluster.ingest(src, dst, times)     # ... live traffic ...
      report = learner.maybe_refit()      # drains WAL, refits, hot-swaps
      assert report.verified              # bitwise vs. fresh load

``python -m repro.cli serve-bench`` drives all three at once — sustained
load, rolling hot-swaps, a replica SIGKILL — and gates on scale-ups,
verified swaps, zero parity violations and hedging beating p99 (``--report
PATH`` writes the JSON report).  Serving throughput and latency numbers
come from ``python3 bench/run.py``.

Testing & fault-injection guide
-------------------------------
``repro.testing`` is the subsystem that *proves* the recovery claims, and
it is reusable for any experiment that must survive chaos:

* ``repro.testing.failpoints`` — deterministic failure injection.  Arm a
  site with ``failpoints.enable("worker.step:3", kind="crash", rank=1)``
  (kinds: ``crash`` = SIGKILL, ``wedge`` = hang, ``pipe_drop`` = dead
  collectives, ``exc`` = ordinary exception); activation travels through
  the ``REPRO_FAILPOINTS`` environment variable, so spawned worker
  processes honor the same schedule.  Respawned ranks neutralize inherited
  failpoints — a crash schedule fires once, not once per restart.
* ``repro.testing.chaos`` — the chaos driver + differential oracle:
  ``differential_chaos_fit(cfg, {"worker.step:3": ("crash", 1)}, ...)``
  runs the faulted process fit *and* an unfaulted reference, then compares
  losses, metrics, weights, optimizer moments and node memory for exact
  equality (``report.bitwise_equal``); ``assert_sessions_bitwise_equal``
  is the standalone comparator.  ``tests/test_runtime_recovery.py`` is the
  worked example — every failure kind, the finalization window
  (``worker.finalize`` failpoints fire *after* the end barrier),
  concurrent faults, hard deadlines, no hangs.
  ``differential_chaos_serve`` applies the same oracle to the serving
  tier: SIGKILL a replica mid-stream (``serve.replica`` failpoints) and
  require every response byte-equal to an unfaulted reference fleet.
* ``repro.testing.ChaosSchedule`` — seeded *random* fault schedules:
  ``ChaosSchedule.random(seed, world=4, backend="fabric")`` draws fault
  sites (mid-step, finalization window, whole-machine loss), kinds, ranks
  and iterations deterministically from the seed; ``run_chaos_schedule``
  executes it under the differential oracle, and ``chaos_schedules()`` is
  the ``hypothesis`` strategy over the same space.  The CI fuzz matrix is
  one command — ``python -m repro.cli chaos --seeds 5 --backends
  process,fabric`` — which reports any failing seed's schedule as JSON so
  a red run reproduces locally with ``--seed-base <seed> --seeds 1``.

Observability guide
-------------------
``repro.obs`` is the unified telemetry layer: span tracing plus a shared
metrics registry.  **Off by default** — the instrumentation points in the
hot paths cost one global load and a ``None`` check while disabled (a
tier-1 test guards the overhead).  Enable it per run with the config's
``obs`` section or the ``REPRO_TRACE_DIR`` environment variable (the env
override wins)::

    cfg = repro.ExperimentConfig(
        ...,
        obs=repro.ObsConfig(trace_dir="runs/wiki-trace"),
    )
    repro.Session(cfg).fit(backend="process")

Every process then writes its own Chrome trace-event JSONL lane file
(``trace-rank0.jsonl`` … plus a ``supervisor`` lane with recovery events);
the launcher's join path merges them into ``trace.merged.jsonl`` on one
clock-aligned timeline — load it in Perfetto / ``chrome://tracing``, or
summarize from the shell::

    python -m repro.cli train --backend process --trace-dir runs/t
    python -m repro.cli trace --dir runs/t     # per-phase breakdown,
                                               # sync fraction, recovery
                                               # timeline (--json for raw)

Span names mirror the step anatomy (``sample``, ``prep``, ``forward``,
``backward``, ``allreduce``, ``barrier``, ``commit``, ``writeback``) plus
the recovery lifecycle (``park``, ``rollback``, ``respawn``) and serving
(``ingest``, ``micro_batch``).  The metrics registry
(``repro.obs.get_registry()``) shares one naming convention across
subsystems — ``phase/<span>`` counters are fed automatically by the
tracer, ``recovery/*`` counts restarts/rollback depth/respawn latency,
``serve/*`` is exported by ``ServingCluster.export_metrics()`` — and
every counter/gauge/histogram snapshot merges across processes
(histograms are bounded uniform reservoirs, so long runs stay
memory-safe).  ``python3 bench/run.py`` sources its per-phase shares
(``obs.phase_share.*``) from this telemetry rather than ad-hoc timers.

Step compiler
-------------
The hot training/serving step is highly repetitive — the same op sequence
over a handful of batch shapes — so ``repro.nn.tape`` records it once
eagerly and replays it as a flat tape: no graph construction, no topo
sort, gradients accumulated into pooled buffers.  Opt in per run::

    cfg = repro.ExperimentConfig(
        ...,
        train=repro.TrainConfig(..., compile=True),
    )

or force it on/off for any entry point with ``REPRO_COMPILE=1/0`` (the
CLI also takes ``train --compile``; ``InferenceEngine(compile=True)``
tapes the serving embed path).  Compilation is **observationally
invisible**: replay mirrors the eager engine's accumulation order
exactly, so loss trajectories, weights and optimizer state stay bitwise
identical on both backends — CI runs the whole tier-1 suite again under
``REPRO_COMPILE=1`` to hold that line.  Tapes are keyed by step shape;
a shape or toggle change falls back to eager and retraces, and any
untapeable step (custom model, replay fault) is negative-cached so the
run simply stays eager.  Trace/replay/retrace activity shows up in the
observability layer as ``cat="compile"`` spans and ``compile/*``
counters.

Configs are frozen dataclasses that validate at construction and round-trip
through JSON byte-identically (``cfg.to_json()`` / ``ExperimentConfig
.from_json``); the CLI speaks the same format (``python -m repro.cli train
--dump-config`` / ``--config experiment.json``).  Component choices in
configs are registry keys — plug in new ones with ``@repro.register_model``,
``@repro.register_sampler``, ``@repro.register_router``,
``@repro.register_memory_updater``, ``@repro.register_dataset``.

Low-level API
-------------
Everything the Session wires together remains importable from its
subpackage for fine-grained control:

* ``repro.data.load_dataset`` — synthetic Table-2 dataset generators;
* ``repro.train.DistTGLTrainer`` / ``TrainerSpec`` — the i×j×k training
  orchestrator (§3.2–3.3) and its checkpointing;
* ``repro.infer.InferenceEngine`` — TGOpt-style redundancy-aware inference;
* ``repro.serve.ServingCluster`` — replicated micro-batched serving with
  WAL-backed streaming ingestion: one front door over a replica fleet;
* ``repro.runtime`` — the process execution backend: frame transport,
  collectives, shared-memory state, the fit supervisor, the process
  replica fleet (``runtime.serving.ProcessFleet``);
* ``repro.parallel.plan_for_graph`` — the §3.2.4 configuration planner;
* ``repro.sim.CostModel`` — Fig.-12 throughput modeling of the testbed.

The old *top-level* aliases of those constructors (``repro.DistTGLTrainer``
et al.) still work but emit ``DeprecationWarning`` and will be dropped in
the next release: new code goes through the Session facade or the
subpackages.
"""

import importlib
import warnings

from .api import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    ObsConfig,
    ServeConfig,
    Session,
    TrainConfig,
    available_datasets,
    available_routers,
    register_dataset,
    register_memory_updater,
    register_model,
    register_router,
    register_sampler,
)
from .data import Dataset, load_dataset
from .graph import RecentNeighborSampler, TemporalGraph
from .memory import Mailbox, MemoryDaemon, NodeMemory, StaticNodeMemory
from .models import TGN, TGNConfig
from .parallel import HardwareSpec, ParallelConfig, plan, plan_for_graph
from .sim import CostModel, WorkloadSpec, g4dn_metal
from .train import TrainResult

__version__ = "1.0.0"

#: legacy top-level constructor aliases -> (home module, facade replacement)
_DEPRECATED_ALIASES = {
    "DistTGLTrainer": ("repro.train", "Session(cfg).fit()"),
    "TrainerSpec": ("repro.train", "ModelConfig/TrainConfig"),
    "InferenceEngine": ("repro.infer", "Session.predictor()"),
    "ServingCluster": ("repro.serve", "Session.serve()"),
    "ServingReplica": ("repro.serve", "Session.serve()"),
    "MicroBatcher": ("repro.serve", "Session.serve()"),
    "save_checkpoint": ("repro.train", "Session.save()"),
    "load_checkpoint": ("repro.train", "Session.load()"),
}


def __getattr__(name):
    if name in _DEPRECATED_ALIASES:
        module, replacement = _DEPRECATED_ALIASES[name]
        warnings.warn(
            f"the top-level alias repro.{name} is deprecated and will be "
            f"removed in the next release; use {replacement} (the repro.api "
            f"facade) or import {name} from {module} (low-level API)",
            DeprecationWarning,
            stacklevel=2,
        )
        return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    # facade
    "Session",
    "ExperimentConfig",
    "DataConfig",
    "ModelConfig",
    "TrainConfig",
    "ServeConfig",
    "ObsConfig",
    "ParallelConfig",
    "register_model",
    "register_sampler",
    "register_router",
    "register_memory_updater",
    "register_dataset",
    "available_datasets",
    "available_routers",
    # data / graph building blocks
    "Dataset",
    "load_dataset",
    "TemporalGraph",
    "RecentNeighborSampler",
    "NodeMemory",
    "Mailbox",
    "StaticNodeMemory",
    "MemoryDaemon",
    "TGN",
    "TGNConfig",
    "HardwareSpec",
    "plan",
    "plan_for_graph",
    "CostModel",
    "WorkloadSpec",
    "g4dn_metal",
    "TrainResult",
    # deprecated top-level aliases (DeprecationWarning; use the facade)
    "DistTGLTrainer",
    "TrainerSpec",
    "InferenceEngine",
    "ServingCluster",
    "ServingReplica",
    "MicroBatcher",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
