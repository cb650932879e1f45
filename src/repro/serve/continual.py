"""Online continual learning: refit on the serving stream, hot-swap, verify.

DistTGL trains offline and serves a frozen model; the stream a cluster
ingests (``cluster.ingest`` -> WAL) is exactly the data a production TGNN
wants to keep learning from.  :class:`ContinualLearner` closes that loop:

1. **drain** — pull the WAL suffix past the learner's cursor with
   ``EventLog.batches_since`` (the cursor is *held* on the cluster, so WAL
   auto-truncation never outruns the learner);
2. **refit** — build a combined graph (base training slice + every drained
   event), shift the chronological split so the drained events land in the
   train region, and run a short warm-started ``Session.fit`` — weights
   start from the currently-served blobs, so a few epochs suffice;
3. **swap** — export the refit as a loadable checkpoint directory
   (``config.json`` + ``checkpoint.npz``) and ``hot_swap`` the new blobs
   into the live fleet;
4. **verify** — assert the swap bitwise: snapshot the live cluster,
   ``Session.load`` the exported checkpoint, restore the snapshot into a
   fresh cluster over it, and require probe queries to answer with
   byte-identical scores on both.  A swapped fleet that drifts from a
   freshly loaded session by even one ulp raises.

The learner is fleet-agnostic (a ``ServingCluster`` over in-thread or
process replicas — the snapshot interchange format makes step 4 work
across fleets) and can run synchronously (:meth:`maybe_refit`
between ingest ticks — deterministic, what the closed-loop bench does) or
from a daemon thread (:meth:`start`), which is the literal
train-*while*-serve mode: serving keeps answering on the old weights until
the swap lands.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np

from ..obs import get_registry

__all__ = ["RefitReport", "ContinualLearner"]


@dataclass(frozen=True)
class RefitReport:
    """One completed refit->swap->verify round."""

    version: int          # model version now live in the fleet
    cursor: int           # WAL offset the refit trained through
    drained_events: int   # events pulled from the WAL this round
    train_events: int     # combined train-region size the refit saw
    train_loss: float     # final fit loss
    checkpoint_dir: str   # loadable Session.save-style directory
    verified: bool        # bitwise parity against a fresh load held
    duration_s: float


class ContinualLearner:
    """Train-while-serve driver over one session + one live cluster.

    Parameters
    ----------
    session:
        The fitted :class:`repro.api.Session` the cluster was built from
        (supplies the base training slice, the config, and the dataset
        metadata for refit sessions).
    cluster:
        The live serving cluster (either kind).  The learner holds the WAL
        cursor ``'continual'`` on it for its whole lifetime.
    interval_events, refit_epochs:
        Refit pacing: :meth:`maybe_refit` fires once at least
        ``interval_events`` undrained events sit in the WAL, and each refit
        trains ``refit_epochs`` epochs over the combined graph.  Default
        from ``config.serve.refit_interval_events`` / ``refit_epochs``.
    workdir:
        Where exported checkpoints (``v0001/``, ``v0002/``, ...) and
        verification snapshots land; a temp directory when omitted.
    verify:
        Assert bitwise swap parity after every refit (step 4 above).
    probe_queries, probe_candidates:
        Size of the deterministic probe set the verification ranks.
    """

    CURSOR = "continual"

    def __init__(
        self,
        session,
        cluster,
        *,
        interval_events: Optional[int] = None,
        refit_epochs: Optional[int] = None,
        workdir: Optional[Union[str, Path]] = None,
        verify: bool = True,
        probe_queries: int = 4,
        probe_candidates: int = 8,
        clock: Callable[[], float] = time.perf_counter,
        verbose: bool = False,
    ) -> None:
        sv = session.config.serve
        self.session = session
        self.cluster = cluster
        self.interval_events = (
            interval_events if interval_events is not None
            else sv.refit_interval_events
        )
        self.refit_epochs = (
            refit_epochs if refit_epochs is not None else sv.refit_epochs
        )
        if self.refit_epochs < 1:
            raise ValueError("refit_epochs must be at least 1")
        self.workdir = (
            Path(workdir) if workdir is not None
            else Path(tempfile.mkdtemp(prefix="repro-continual-"))
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.verify = verify
        self.probe_queries = probe_queries
        self.probe_candidates = probe_candidates
        self.clock = clock
        self.verbose = verbose
        self.reports: List[RefitReport] = []

        # the served base slice, frozen at attach (session.graph can grow
        # later via predictor(append_on_observe=True) without skewing refits)
        self._base = session.graph.slice_events(session.trainer.split.train)
        # WAL offset <-> cluster-graph index: the serve graph starts as the
        # base slice, so logical WAL offset c sits at graph index base+c
        self._base_events = cluster.graph.num_events - len(cluster.wal)
        # warm-start source: the blobs currently answering queries
        self._model_blob = session.model.to_bytes()
        self._decoder_blob = session.decoder.to_bytes()

        # drained-event accumulator.  Events ingested *and truncated* before
        # the learner attached are recovered from the graph tail (the graph
        # never truncates); everything else arrives via batches_since.
        self._cursor = cluster.wal.base_offset
        self._tail_src: List[np.ndarray] = []
        self._tail_dst: List[np.ndarray] = []
        self._tail_times: List[np.ndarray] = []
        self._tail_feats: List[np.ndarray] = []
        if self._cursor > 0:
            g = cluster.graph
            lo, hi = self._base_events, self._base_events + self._cursor
            self._tail_src.append(g.src[lo:hi].copy())
            self._tail_dst.append(g.dst[lo:hi].copy())
            self._tail_times.append(g.timestamps[lo:hi].copy())
            if g.edge_feats is not None:
                self._tail_feats.append(g.edge_feats[lo:hi].copy())
        cluster.hold_wal_cursor(self.CURSOR, self._cursor)

        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._refit_lock = threading.Lock()

    # ------------------------------------------------------------------ signals
    @property
    def pending_events(self) -> int:
        """WAL events appended since the last drain."""
        return len(self.cluster.wal) - self._cursor

    @property
    def version(self) -> int:
        return self.cluster.model_version

    @property
    def current_blobs(self) -> tuple:
        """The ``(model_blob, decoder_blob)`` the fleet serves right now —
        what a shadow/reference cluster swaps to mirror this fleet."""
        return self._model_blob, self._decoder_blob

    def detach(self) -> None:
        """Release the held WAL cursor (the learner is done)."""
        self.stop()
        self.cluster.release_wal_cursor(self.CURSOR)

    # -------------------------------------------------------------------- drain
    def _drain(self) -> int:
        """Pull the WAL suffix past the cursor into the accumulator."""
        wal = self.cluster.wal
        head = len(wal)
        drained = 0
        for src, dst, times, feats in wal.batches_since(self._cursor):
            self._tail_src.append(src)
            self._tail_dst.append(dst)
            self._tail_times.append(times)
            if feats is not None:
                self._tail_feats.append(feats)
            drained += len(src)
        self._cursor = head
        # advance the held cursor: consumed events become truncatable
        self.cluster.hold_wal_cursor(self.CURSOR, head)
        return drained

    # -------------------------------------------------------------------- refit
    def _combined_dataset(self):
        """Base training slice + every drained event, as a Dataset."""
        from ..data.datasets import Dataset
        from ..graph.temporal_graph import TemporalGraph

        b = self._base
        src = np.concatenate([b.src] + self._tail_src)
        dst = np.concatenate([b.dst] + self._tail_dst)
        times = np.concatenate([b.timestamps] + self._tail_times)
        feats = None
        if b.edge_feats is not None:
            feats = np.concatenate([b.edge_feats] + self._tail_feats)
        graph = TemporalGraph(
            src, dst, times,
            edge_feats=feats,
            num_nodes=b.num_nodes,
            src_partition_size=b.src_partition_size,
            node_feats=b.node_feats,
            name=f"{b.name}+wal@{self._cursor}",
        )
        ds = self.session.dataset
        return Dataset(name=ds.name, graph=graph, paper=ds.paper, task=ds.task)

    def _refit_config(self, num_events: int, tail_events: int):
        """Shift the chronological split so drained events train.

        ``chronological_split`` floors ``int(n * frac)``, so fractions of
        the form ``(boundary + 0.5) / n`` hit exact event indices: the
        held-out tail is the newest ``max(2, tail // 10)`` events, split
        between val and test (each at least one event).
        """
        holdout = max(2, tail_events // 10)
        test_count = max(1, holdout // 2)
        train_end = num_events - holdout
        val_end = num_events - test_count
        train_frac = (train_end + 0.5) / num_events
        val_frac = (val_end + 0.5) / num_events - train_frac
        cfg = self.session.config
        return replace(
            cfg,
            train=replace(
                cfg.train,
                epochs=self.refit_epochs,
                train_frac=train_frac,
                val_frac=val_frac,
            ),
        )

    def refit_and_swap(self) -> RefitReport:
        """One full round: drain -> refit -> export -> hot-swap -> verify."""
        from ..api.session import Session
        from ..train.checkpoint import save_checkpoint

        with self._refit_lock:
            t0 = self.clock()
            drained = self._drain()
            tail = sum(len(s) for s in self._tail_src)
            if tail < 4:
                raise RuntimeError(
                    f"continual refit needs >= 4 streamed events in the WAL "
                    f"(have {tail}); ingest more before refitting"
                )
            dataset = self._combined_dataset()
            refit_cfg = self._refit_config(dataset.graph.num_events, tail)
            refit = Session(refit_cfg, dataset=dataset)
            # warm start from the blobs the fleet is serving right now —
            # this is what makes a 1-epoch budget an *incremental* refit
            refit.model.from_bytes(self._model_blob)
            refit.decoder.from_bytes(self._decoder_blob)
            result = refit.fit(verbose=self.verbose)

            # export as a loadable session directory.  The config written is
            # the BASE config (original split + epoch budget): Session.load
            # must rebuild the base dataset so its serving slice matches the
            # live fleet's; the checkpoint carries the refit weights.
            version = self.cluster.model_version + 1
            vdir = self.workdir / f"v{version:04d}"
            vdir.mkdir(parents=True, exist_ok=True)
            (vdir / "config.json").write_text(self.session.config.to_json() + "\n")
            save_checkpoint(refit.trainer, vdir / "checkpoint.npz")

            self._model_blob = refit.model.to_bytes()
            self._decoder_blob = refit.decoder.to_bytes()
            version = self.cluster.hot_swap(
                self._model_blob, self._decoder_blob, version=version
            )
            verified = self._verify_swap(version, vdir) if self.verify else False

            report = RefitReport(
                version=version,
                cursor=self._cursor,
                drained_events=drained,
                train_events=refit.trainer.split.train_end,
                train_loss=(
                    float(result.history[-1].train_loss)
                    if result.history else float("nan")
                ),
                checkpoint_dir=str(vdir),
                verified=verified,
                duration_s=self.clock() - t0,
            )
            self.reports.append(report)
            reg = get_registry()
            reg.counter("serve/refits").add()
            reg.counter("serve/refit_drained_events").add(drained)
            return report

    def maybe_refit(self) -> Optional[RefitReport]:
        """Refit iff at least ``interval_events`` undrained events wait."""
        if self.interval_events <= 0:
            raise ValueError(
                "interval_events is not set; pass interval_events= or set "
                "serve.refit_interval_events in the config"
            )
        if self.pending_events >= self.interval_events:
            return self.refit_and_swap()
        return None

    # -------------------------------------------------------------- verification
    def _verify_swap(self, version: int, vdir: Path) -> bool:
        """Bitwise parity: swapped fleet == freshly loaded checkpoint.

        Snapshot the live serving state, load the exported checkpoint into
        a brand-new session, restore the snapshot into a fresh cluster over
        it, and rank identical probe sets on both.  Any byte of difference
        raises — the serving tape replay, the blob round-trip, and the
        snapshot interchange must all agree for this to hold.
        """
        from ..api.session import Session
        from .cluster import ServingCluster

        live = self.cluster
        live.flush_all()
        snap = live.save(vdir / "live_state.npz")
        ref = Session.load(vdir)
        sv = self.session.config.serve
        ref_cluster = ServingCluster(
            ref.model,
            ref.graph.slice_events(ref.trainer.split.train),
            ref.decoder,
            k=len(live.replicas),
            max_batch_pairs=max(64, self.probe_candidates + 1),
            max_delay=3600.0,
            dedup=sv.dedup,
            memoize_time=sv.memoize_time,
        )
        ref_cluster.restore(snap)

        rng = np.random.default_rng(0xC0 + version)
        num_nodes = live.graph.num_nodes
        at = float(live.graph.timestamps[-1])
        for _ in range(self.probe_queries):
            src = int(rng.integers(0, num_nodes))
            cands = rng.integers(0, num_nodes, size=self.probe_candidates)
            a = live.submit_rank(src, cands, at)
            live.flush_all()
            b = ref_cluster.submit_rank(src, cands, at)
            ref_cluster.flush_all()
            a_val, b_val = a.wait(30.0), b.wait(30.0)
            if a_val.tobytes() != b_val.tobytes():
                raise RuntimeError(
                    f"hot-swap parity violation at version {version}: the "
                    f"live fleet and a freshly loaded {vdir} disagree on "
                    f"probe (src={src}, at={at})"
                )
        get_registry().counter("serve/swaps_verified").add()
        return True

    # --------------------------------------------------------------- background
    def start(self, poll_interval: float = 0.25) -> "ContinualLearner":
        """Poll :meth:`maybe_refit` from a daemon thread — literal
        train-while-serve: the fleet keeps answering on the old weights
        until the swap lands."""
        if self.interval_events <= 0:
            raise ValueError("background mode needs interval_events > 0")
        if self._thread is not None:
            raise RuntimeError("learner already running")
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(poll_interval):
                try:
                    self.maybe_refit()
                except Exception:  # pragma: no cover - backstop
                    # a failed refit must not kill the loop; serving is
                    # unaffected (old weights stay live), next poll retries
                    pass

        self._thread = threading.Thread(
            target=_loop, name="repro-continual", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "ContinualLearner":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ContinualLearner(version={self.version}, "
            f"pending={self.pending_events}, refits={len(self.reports)})"
        )
