"""The Session facade: one lifecycle object across train / eval / infer / serve.

A :class:`Session` owns everything a run needs — dataset, trainer, model,
decoder — built once from a declarative :class:`ExperimentConfig`::

    sess = Session(cfg)
    result = sess.fit()                       # -> TrainResult
    val = sess.evaluate("val")                # -> EvalResult
    engine = sess.predictor()                 # batched inference handle
    cluster = sess.serve(replicas=2)          # replicated serving cluster
    sess.save("runs/wiki-1x2x4")              # config + checkpoint + memory
    sess2 = Session.load("runs/wiki-1x2x4")   # bit-identical evaluate()

Everything underneath (``DistTGLTrainer``, ``InferenceEngine``,
``ServingCluster``) remains importable from its subpackage as the low-level
API; the Session only wires it together from one serializable description.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Optional, Union

from ..utils.fingerprint import one_blas_thread
from .config import ExperimentConfig

_UNSET = object()


class Session:
    """One experiment lifecycle bound to an :class:`ExperimentConfig`."""

    def __init__(self, config: Optional[ExperimentConfig] = None, *,
                 dataset=None) -> None:
        from ..train.distributed import DistTGLTrainer

        self.config = config if config is not None else ExperimentConfig()
        if not isinstance(self.config, ExperimentConfig):
            raise TypeError(
                f"Session needs an ExperimentConfig, got {type(self.config).__name__}"
            )
        # an explicit dataset bypasses config.build_dataset(): continual
        # refits train over base-train + WAL-drained events, a graph no
        # declarative config describes (the config still names the base
        # dataset, so save()/load() round-trip against the base graph)
        self.dataset = dataset if dataset is not None else self.config.build_dataset()
        self.trainer = DistTGLTrainer(
            self.dataset, self.config.parallel, self.config.trainer_spec()
        )
        self.result = None            # last TrainResult, if fit() has run
        self._resume_state = None     # interrupted-run bookkeeping (resume())

    # -------------------------------------------------------------- plumbing
    @property
    def model(self):
        return self.trainer.model

    @property
    def decoder(self):
        return self.trainer.decoder

    @property
    def graph(self):
        return self.dataset.graph

    @property
    def task(self) -> str:
        return self.dataset.task

    # -------------------------------------------------------------- training
    def fit(self, epochs: Optional[int] = None, verbose: bool = False,
            max_iterations: Optional[int] = None, backend: str = "local",
            recovery=None, timeout: Optional[float] = None,
            checkpoint_dir: Optional[Union[str, Path]] = None,
            checkpoint_every: Optional[int] = None,
            rendezvous: Optional[str] = None,
            managed_agents: bool = True,
            agents: Optional[int] = None):
        """Train per the config (``train.epochs`` unless overridden);
        returns the :class:`repro.train.TrainResult`.

        ``backend`` selects the execution engine:

        * ``'local'`` — the logical-trainer simulator: every i×j×k plan
          stepped in lockstep inside this process (deterministic, zero
          spawn cost — the default and the semantic reference);
        * ``'process'`` — the :mod:`repro.runtime` backend: ``i×k`` real
          worker processes with shared-memory node state and wire
          collectives.  Both backends run the identical float arithmetic
          (one reduction contract), so the result — losses, metrics, final
          state — matches the local backend **bitwise at every world
          size**, and the trained state is folded back into this session,
          so ``evaluate()`` / ``save()`` / ``serve()`` behave identically
          afterwards.  The process backend is **fault tolerant**: a rank
          that crashes, wedges or loses its pipes mid-fit is respawned and
          the fleet rolls back to the last committed step boundary, still
          finishing bitwise identical to an unfaulted run; ``recovery``
          takes a :class:`repro.runtime.RecoveryPolicy` to tune (or, with
          ``max_restarts=0``, disable) that behavior, and ``timeout``
          bounds the whole fit.
        * ``'fabric'`` — the multi-host runtime: one host agent per
          machine of the ``i×j×k@machines`` plan, each spawning its slice
          of ``i·j·k`` real ranks, wired peer-to-peer over TCP sockets
          (see :mod:`repro.runtime.fabric`).  The ``j`` epoch dimension —
          simulated in lockstep by the other backends — here runs as
          genuinely pipelined ranks.  Still bitwise-identical to
          ``'local'``, and fault tolerance extends to whole-machine loss:
          a SIGKILLed agent's ranks are respawned on a replacement agent
          from the sealed commit.  ``rendezvous`` sets the controller's
          bind address (default an ephemeral localhost port);
          ``managed_agents=False`` waits for externally launched
          ``repro.cli agent --join`` processes instead of spawning them;
          ``agents`` asserts the expected agent count (must equal the
          plan's ``machines``).

        Every backend computes at one BLAS thread — the local fit for its
        duration, the ranks for their lifetime — unless the caller set
        ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` (any variable the
        bundled OpenBLAS reads, :data:`repro.utils.fingerprint.THREAD_ENV`),
        which is kept (the thread count changes float bits; rank 0 reports
        it in its ``numeric_fingerprint``).

        ``checkpoint_dir`` (+ ``checkpoint_every``, default
        ``config.train.checkpoint_every``, or every block boundary when no
        cadence is configured) writes periodic mid-run snapshots — config +
        trainer checkpoint + run bookkeeping — that :meth:`Session.resume`
        continues from.  It works on **every** backend: the local backend
        snapshots from the trainer at block boundaries, while the process
        and fabric backends export the sealed commit slab (plus shadow
        memory segments) from the supervisor, so a hard-killed distributed
        fit resumes bitwise too.  On a session produced by :meth:`resume`,
        calling ``fit()`` with no iteration arguments continues the
        interrupted run to its original target — on any backend.
        """
        if backend not in ("local", "process", "fabric"):
            raise ValueError(
                f"backend must be 'local', 'process' or 'fabric', got {backend!r}"
            )
        if backend != "fabric" and (
            rendezvous is not None or agents is not None or not managed_agents
        ):
            raise ValueError(
                "rendezvous/managed_agents/agents apply to backend='fabric' only"
            )
        run_state = self._resume_state
        if run_state is not None:
            if epochs is not None or max_iterations is not None:
                raise ValueError(
                    "this session resumes an interrupted run; call fit() "
                    "without epochs/max_iterations to continue it (or use "
                    "Session.load for a fresh budget)"
                )
            self._resume_state = None
        every = (
            checkpoint_every
            if checkpoint_every is not None
            else self.config.train.checkpoint_every
        )
        if checkpoint_dir is not None and every <= 0:
            # asking for a checkpoint directory IS asking for checkpoints:
            # with no cadence configured, snapshot every block boundary
            # rather than silently writing nothing
            every = 1
        checkpointing = checkpoint_dir is not None
        if backend != "local":
            from ..runtime.fabric import run_fabric_fit
            from ..runtime.launcher import apply_process_result, run_process_fit

            kwargs = dict(
                epochs=epochs,
                max_iterations=max_iterations,
                verbose=verbose,
                recovery=recovery,
                run_state=run_state,
            )
            if checkpointing:
                kwargs["checkpoint_dir"] = str(checkpoint_dir)
                kwargs["checkpoint_every"] = int(every)
            if timeout is not None:
                kwargs["timeout"] = timeout
            run_fit = run_process_fit
            if backend == "fabric":
                run_fit = run_fabric_fit
                kwargs.update(
                    rendezvous=rendezvous, managed_agents=managed_agents, agents=agents
                )
            meta, arrays, states = run_fit(self.config, self.trainer, **kwargs)
            self.result = apply_process_result(self.trainer, meta, arrays, states)
            return self.result
        if recovery is not None:
            raise ValueError(
                "recovery policies apply to backend='process'/'fabric' only"
            )
        if timeout is not None:
            raise ValueError("timeout applies to backend='process'/'fabric' only")
        on_block_boundary = (
            self._checkpoint_callback(Path(checkpoint_dir), int(every))
            if checkpointing
            else None
        )
        # local backend runs every logical rank in this process: one tracer
        # lane ("local") covers the whole fit, merged on completion so the
        # same `repro.cli trace --dir` workflow reads either backend's run
        from .. import obs

        trace_dir = obs.resolve_trace_dir(self.config)
        # own the tracer only if nobody outside configured one — a caller
        # tracing a longer lifecycle (e.g. the elastic serving bench wraps
        # fit + serve + refits in one lane) keeps its tracer across fits
        own_tracer = trace_dir is not None and obs.get_tracer() is None
        if own_tracer:
            obs.configure(trace_dir, rank=0, lane="local")
        try:
            # the thread count the process backend's ranks run at, so the
            # two backends agree bit for bit (see repro.utils.fingerprint)
            with one_blas_thread():
                self.result = self.trainer.train(
                    epochs_equivalent=epochs if epochs is not None else self.config.train.epochs,
                    max_iterations=max_iterations,
                    verbose=verbose,
                    run_state=run_state,
                    on_block_boundary=on_block_boundary,
                )
        finally:
            if own_tracer:
                obs.disable(flush=True)
                obs.merge_trace_dir(trace_dir)
        return self.result

    def _checkpoint_callback(self, directory: Path, every: int):
        """Periodic mid-run snapshot writer (fires at block boundaries).

        Both files land via write-to-temp + rename, checkpoint first, so a
        crash at any instant leaves either the previous complete snapshot
        or the new one — and because ``resume.json`` records the iteration
        of the checkpoint it belongs to, :meth:`resume` detects (and
        refuses) a mixed pair instead of silently splicing a stale loss
        window onto a newer checkpoint.
        """
        from ..train.checkpoint import save_checkpoint

        directory.mkdir(parents=True, exist_ok=True)
        (directory / "config.json").write_text(self.config.to_json() + "\n")
        counter = {"blocks": 0}

        def on_block_boundary(trainer, book: dict) -> None:
            counter["blocks"] += 1
            if counter["blocks"] % every:
                return
            tmp_ckpt = directory / "checkpoint.tmp.npz"
            save_checkpoint(trainer, tmp_ckpt)
            tmp_ckpt.replace(directory / "checkpoint.npz")
            tmp = directory / "resume.json.tmp"
            tmp.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n")
            tmp.replace(directory / "resume.json")

        return on_block_boundary

    def evaluate(self, split: str = "test"):
        """Evaluate on ``'val'`` or ``'test'`` with the current weights,
        warm-starting from memory group 0 (the paper's protocol); returns an
        :class:`repro.train.EvalResult`.  Side-effect free and deterministic:
        repeated calls give identical metrics (at one BLAS thread, like
        :meth:`fit`)."""
        if split not in ("val", "test"):
            raise ValueError(f"split must be 'val' or 'test', got {split!r}")
        with one_blas_thread():
            return self.trainer._evaluate_split(
                split, warm_group=self.trainer.groups[0]
            )

    # ------------------------------------------------------------- inference
    def predictor(self, *, append_on_observe: bool = False,
                  dedup: bool = True, memoize_time: bool = True):
        """A batched :class:`repro.infer.InferenceEngine` over the trained
        model and the full dataset graph.

        ``append_on_observe=False`` (the default here) keeps ``observe()``
        from appending replayed events to the dataset's graph; pass ``True``
        when feeding genuinely new events.
        """
        from ..infer.engine import InferenceEngine

        decoder = self.decoder if self.task == "link" else None
        return InferenceEngine(
            self.model,
            self.graph,
            decoder=decoder,
            sampler=self.trainer.sampler,
            dedup=dedup,
            memoize_time=memoize_time,
            append_on_observe=append_on_observe,
        )

    # --------------------------------------------------------------- serving
    def serve(self, replicas: Optional[int] = None, *, policy: Optional[str] = None,
              admission_limit=_UNSET, max_batch_pairs: Optional[int] = None,
              max_delay_ms: Optional[float] = None, process_replicas: bool = False):
        """Build the serving front door wired to the trained model and decoder.

        Always a :class:`repro.serve.ServingCluster` — one front door
        (routing, admission, deadlines, hedging, WAL, elasticity, hot swap,
        snapshots) over a fleet of ``replicas`` replicas.  It serves from a
        fresh copy of the training slice of the graph (held-out events can
        then be streamed in via :meth:`held_out_stream` /
        ``cluster.ingest``), so repeated calls never share mutable graph
        state.  Keyword overrides fall back to the config's ``serve``
        section; every other ``serve`` field (``deadline_ms``,
        ``hedge_quantile``, ``hedge_min_ms``, ``wal_auto_truncate``, ...)
        flows straight from the config to either fleet.

        ``process_replicas`` picks the fleet and nothing else.  ``False``
        (default): in-thread replicas, each with a private copy of the
        serving state over the shared model.  ``True``: worker processes
        with their own model copies over one shared-memory serving state
        (:class:`repro.runtime.serving.ProcessFleet`) — bit-identical
        predictions, true compute parallelism on multi-core hosts.  Use
        that cluster as a context manager (or call ``shutdown()``) to
        release the processes and the segment.
        """
        if self.task != "link":
            raise ValueError(
                f"serving needs a link-prediction task, got {self.task!r}"
            )
        from ..serve.cluster import ServingCluster

        fleet = None
        if process_replicas:
            from ..runtime.serving import ProcessFleet

            fleet = functools.partial(ProcessFleet, config=self.config)
        sv = self.config.serve
        return ServingCluster(
            self.model,
            self.graph.slice_events(self.trainer.split.train),
            self.decoder,
            k=replicas if replicas is not None else sv.replicas,
            fleet=fleet,
            policy=policy if policy is not None else sv.policy,
            admission_limit=(
                sv.admission_limit if admission_limit is _UNSET else admission_limit
            ),
            max_batch_pairs=(
                max_batch_pairs if max_batch_pairs is not None else sv.max_batch_pairs
            ),
            max_delay=(
                max_delay_ms if max_delay_ms is not None else sv.max_delay_ms
            ) * 1e-3,
            dedup=sv.dedup,
            memoize_time=sv.memoize_time,
            histogram_cap=self.config.obs.histogram_reservoir,
            deadline=sv.deadline_ms * 1e-3 if sv.deadline_ms is not None else None,
            hedge_quantile=sv.hedge_quantile,
            hedge_min_delay=sv.hedge_min_ms * 1e-3,
            auto_truncate_wal=sv.wal_auto_truncate,
        )

    def held_out_stream(self, chunk: Optional[int] = None, *, stop: str = "val"):
        """Iterator of held-out event batches (for ``cluster.ingest``):
        the dataset's validation range (``stop='val'``) or validation+test
        (``stop='test'``), chunked per ``serve.stream_chunk``."""
        from ..serve.loadgen import event_stream

        split = self.trainer.split
        if stop not in ("val", "test"):
            raise ValueError(f"stop must be 'val' or 'test', got {stop!r}")
        end = split.val_end if stop == "val" else split.num_events
        return event_stream(
            self.graph, split.train_end, end,
            chunk=chunk if chunk is not None else self.config.serve.stream_chunk,
        )

    # ------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the session — config + full training checkpoint (weights,
        optimizer moments, every memory group's state) — to a directory."""
        from ..train.checkpoint import save_checkpoint

        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        (path / "config.json").write_text(self.config.to_json() + "\n")
        save_checkpoint(self.trainer, path / "checkpoint.npz")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Session":
        """Rebuild a session saved by :meth:`save`; its ``evaluate()`` and
        serving scores match the original bit-for-bit."""
        from ..train.checkpoint import load_checkpoint

        path = Path(path)
        config_file = path / "config.json"
        if not config_file.exists():
            raise FileNotFoundError(f"no session at {path} (missing config.json)")
        sess = cls(ExperimentConfig.from_json(config_file.read_text()))
        load_checkpoint(sess.trainer, path / "checkpoint.npz")
        return sess

    @classmethod
    def resume(cls, path: Union[str, Path]) -> "Session":
        """Continue an interrupted fit from a periodic-checkpoint directory
        (one written by ``fit(checkpoint_dir=...)``).

        The returned session holds the checkpointed trainer state *and* the
        run's bookkeeping (original iteration target, loss-averaging
        window, eval cadence); calling :meth:`fit` on it with no iteration
        arguments runs the remaining iterations — and because the
        checkpoint anchors a bit-exact state, the resumed run's final
        weights, memory and metrics equal an uninterrupted fit **bitwise**
        (either backend).
        """
        path = Path(path)
        resume_file = path / "resume.json"
        if not resume_file.exists():
            raise FileNotFoundError(
                f"no resumable run at {path} (missing resume.json — "
                f"directories written by Session.save hold a finished "
                f"state; use Session.load for those)"
            )
        sess = cls.load(path)
        state = json.loads(resume_file.read_text())
        for key in ("target_iteration", "history", "recent", "last_eval_sweeps"):
            if key not in state:
                raise ValueError(f"resume.json at {path} is missing {key!r}")
        if "iteration" in state and int(state["iteration"]) != sess.trainer._iteration:
            raise ValueError(
                f"resume.json belongs to iteration {state['iteration']} but "
                f"checkpoint.npz is at {sess.trainer._iteration} — the "
                f"snapshot pair is torn; re-checkpoint before resuming"
            )
        if int(state["target_iteration"]) < sess.trainer._iteration:
            raise ValueError(
                f"resume.json target {state['target_iteration']} precedes "
                f"the checkpoint's iteration {sess.trainer._iteration} "
                f"(torn snapshot?)"
            )
        sess._resume_state = state
        return sess

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Session(dataset={self.config.data.dataset!r}, "
            f"parallel={self.config.parallel.label(with_machines=True)!r}, "
            f"fitted={self.result is not None})"
        )
