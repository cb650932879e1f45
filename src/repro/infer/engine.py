"""Redundancy-aware TGNN inference (TGOpt-style, Wang & Mendis 2023).

The paper's related work cites TGOpt's inference optimizations —
de-duplication, memoization and pre-computation — noting they do not apply
to *training*.  They do apply to serving a trained DistTGL model, so the
library ships an inference engine implementing the three ideas on our stack:

* **de-duplication** — identical ``(node, time)`` queries inside a batch are
  embedded once (common when ranking many candidate destinations for one
  source at one timestamp);
* **time-encoding memoization** — Φ(Δt) is evaluated once per *unique* Δt in
  the batch (Δt values repeat heavily because edges cluster in bursts);
* **pre-computation** — the static-memory projection ``W_s · static`` is a
  fixed linear map once training ends; it is materialised per node up front.

The engine also maintains streaming state: :meth:`observe` folds new events
into the node memory/mailbox (no gradients), mirroring online serving.

Every entry point computes at one BLAS thread (unless the caller chose a
count through the environment), the count process serving replicas run at,
so in-thread, process and direct engine use agree bit for bit
(:mod:`repro.utils.fingerprint`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..graph.prep import BatchPrep
from ..graph.sampler import RecentNeighborSampler
from ..graph.temporal_graph import TemporalGraph
from ..memory.mailbox import Mailbox
from ..memory.node_memory import NodeMemory
from ..models.decoders import LinkPredictor
from ..models.tgn import TGN, DirectMemoryView, tape_inputs, tape_ready, tape_signature
from ..nn import StepCompiler, Tensor, fused_enabled
from ..utils import stable_sigmoid
from ..utils.fingerprint import one_blas_thread


def unique_queries(
    nodes: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(node, time)`` rows and the index mapping back.

    Returns ``(q_nodes, q_times, inverse)`` with ``q_nodes[inverse] ==
    nodes`` and ``q_times[inverse] == times``: the rows and order of
    ``np.unique(np.stack([nodes, times], 1), axis=0, return_inverse=True)``
    (sorted by node, then time), computed with one ``lexsort`` instead of
    ``unique``'s structured-row sort, several times faster per flush.
    """
    order = np.lexsort((times, nodes))
    s_nodes, s_times = nodes[order], times[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.not_equal(s_nodes[1:], s_nodes[:-1], out=first[1:])
    first[1:] |= s_times[1:] != s_times[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return s_nodes[first], s_times[first], inverse


@dataclass
class InferenceStats:
    """Counters for the redundancy optimizations (ablation bench reads them)."""

    queries: int = 0
    unique_queries: int = 0
    time_encodings_requested: int = 0
    time_encodings_computed: int = 0

    @property
    def dedup_ratio(self) -> float:
        return 1.0 - self.unique_queries / self.queries if self.queries else 0.0

    @property
    def memo_ratio(self) -> float:
        if not self.time_encodings_requested:
            return 0.0
        return 1.0 - self.time_encodings_computed / self.time_encodings_requested


class InferenceEngine:
    """Batched temporal inference over a trained TGN."""

    def __init__(
        self,
        model: TGN,
        graph: TemporalGraph,
        decoder: Optional[LinkPredictor] = None,
        sampler: Optional[RecentNeighborSampler] = None,
        dedup: bool = True,
        memoize_time: bool = True,
        append_on_observe: bool = True,
        prep_cache: int = 64,
        compile: bool = False,
    ) -> None:
        self.model = model
        self.graph = graph
        self.decoder = decoder
        self.sampler = sampler or RecentNeighborSampler(graph, k=model.config.num_neighbors)
        # all serving-side batch preparation flows through the shared
        # pipeline; the LRU pays off when hot candidate sets repeat and is
        # version-keyed, so observe()'s graph appends invalidate naturally
        self.prep = BatchPrep(
            self.sampler,
            edge_dim=model.config.edge_dim,
            cache_size=prep_cache,
        )
        self.dedup = dedup
        self.memoize_time = memoize_time
        # Streaming freshness: observe() appends events to the graph so the
        # sampler sees them.  Disable when replaying events the graph already
        # contains (ablation benches) or when a ServingCluster appends once
        # on behalf of k replicas.
        self.append_on_observe = append_on_observe
        self.memory = NodeMemory(graph.num_nodes, model.config.memory_dim)
        self.mailbox = Mailbox(
            graph.num_nodes, model.config.memory_dim, edge_dim=model.config.edge_dim
        )
        self.view = DirectMemoryView(self.memory, self.mailbox)
        self.stats = InferenceStats()
        # step compiler for the embed hot path (spec opt-in, REPRO_COMPILE
        # overrides).  Serving batch shapes repeat heavily (fixed candidate
        # counts), so a handful of taped programs covers the steady state.
        env = os.environ.get("REPRO_COMPILE", "").strip().lower()
        compile_on = compile if env == "" else env not in ("0", "false", "off")
        self._compiler = StepCompiler(maxsize=64, name="serve") if compile_on else None
        # pre-computation: the static projection is frozen after training
        self._static_proj_table: Optional[np.ndarray] = None
        if model.has_static_memory:
            static = Tensor(model._static_table)
            self._static_proj_table = model.static_proj(static).data.copy()
        self._install_time_memo()

    # ------------------------------------------------------------- plumbing
    def _install_time_memo(self) -> None:
        """Wrap the model's time encoder with a per-call memo on unique Δt."""
        encoder = self.model.time_encoder
        # Guard against double-wrapping: reset() may run while the memoized
        # forward is swapped in (or another engine on the same model left its
        # wrapper installed); capturing it as `original` would nest memo
        # wrappers unboundedly.  Unwrap back to the true encoder forward.
        original = encoder.forward
        while getattr(original, "_repro_time_memo", False):
            original = original.__wrapped__
        if encoder.forward is not original:
            encoder.forward = original
        stats = self.stats
        memoize = self.memoize_time

        def memoized(delta_t: np.ndarray):
            arr = np.asarray(delta_t, dtype=np.float32)
            stats.time_encodings_requested += arr.size
            if not memoize or arr.size == 0:
                stats.time_encodings_computed += arr.size
                return original(arr)
            flat = arr.reshape(-1)
            uniq, inverse = np.unique(flat, return_inverse=True)
            stats.time_encodings_computed += uniq.size
            enc = original(uniq)
            return Tensor(enc.data[inverse].reshape(*arr.shape, encoder.dim))

        memoized._repro_time_memo = True
        memoized.__wrapped__ = original
        self._memoized_forward = memoized
        self._original_forward = original

    def _swap_encoder(self, on: bool) -> None:
        self.model.time_encoder.forward = (
            self._memoized_forward if on else self._original_forward
        )

    # ----------------------------------------------------------------- state
    @one_blas_thread()
    def observe(self, src: np.ndarray, dst: np.ndarray, times: np.ndarray,
                edge_feats: Optional[np.ndarray] = None) -> None:
        """Fold a chronological batch of new events into the serving state.

        With ``append_on_observe=True`` (the default) the events are also
        appended to the graph so the neighbor sampler sees them — observed
        events are treated as *new*.  Replaying events the graph already
        contains would therefore duplicate its edges (and, for historic
        timestamps, void ``chronological_split``); construct the engine
        with ``append_on_observe=False`` for replay/ablation use.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        nodes = np.concatenate([src, dst])
        query_times = np.concatenate([times, times])
        prep = self.prep.prepare(nodes, query_times, self.view)
        _, state = self.model.forward_prepared(prep)
        wb = self.model.make_writeback(src, dst, times, state, state,
                                       edge_feats=edge_feats)
        TGN.apply_writeback(wb, self.memory, self.mailbox)
        if self.append_on_observe:
            # make the events visible to the neighbor sampler (freshness);
            # embeddings above used the pre-batch graph, matching the
            # strictly-before-t sampling rule either way.
            self.graph.append_events(src, dst, times, edge_feats)

    def reset(self) -> None:
        self.memory.reset()
        self.mailbox.reset()
        self.stats = InferenceStats()
        self._install_time_memo()

    def refresh_weights(self) -> None:
        """Re-derive weight-dependent precomputations after a hot swap.

        ``Module.from_bytes`` overwrites parameter arrays in place, so
        compiled tapes and the time-memo wrapper stay valid — but the
        static-projection table was materialised from the *old* weights
        and must be rebuilt.  Call after swapping new weights into
        ``self.model`` / ``self.decoder``.
        """
        if self.model.has_static_memory:
            static = Tensor(self.model._static_table)
            self._static_proj_table = self.model.static_proj(static).data.copy()

    # ----------------------------------------------------------------- query
    @one_blas_thread()
    def embed(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Embeddings for (node, time) queries with dedup + memoization."""
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        self.stats.queries += len(nodes)

        if self.dedup and len(nodes):
            q_nodes, q_times, inverse = unique_queries(nodes, times)
        else:
            q_nodes, q_times, inverse = nodes, times, None
        self.stats.unique_queries += len(q_nodes)

        if self._compiler is not None and tape_ready(self.model):
            # compiled embed: the taped forward binds Δt as a named input, so
            # the memoizing encoder wrapper (whose unique/inverse index maps
            # are data-dependent) stays swapped out.  Φ is elementwise over
            # Δt, so memoized and raw encodings are bit-identical — only the
            # memo-hit counters go unreported on this path.
            prep = self.prep.prepare(q_nodes, q_times, self.view)
            out = self._embed_compiled(prep)
        else:
            self._swap_encoder(True)
            try:
                prep = self.prep.prepare(q_nodes, q_times, self.view)
                h, _ = self.model.forward_prepared(prep)
            finally:
                self._swap_encoder(False)
            out = h.data
        return out[inverse] if inverse is not None else out

    def _embed_compiled(self, prep) -> np.ndarray:
        """Forward-only tape over the prepared embed pass (bitwise equal to
        the eager forward; eager fallback on any replay fault)."""
        compiler = self._compiler
        key = ("serve", fused_enabled()) + tape_signature(prep)
        program = compiler.lookup(key)
        if program is not None:
            out = compiler.replay(
                key, program, tape_inputs("pos", prep), backward=False
            )
            if out is not None:
                return out
            return self.model.forward_prepared(prep)[0].data
        if compiler.wants_trace(key):
            with compiler.trace(key, tape_inputs("pos", prep)) as handle:
                h, _ = self.model.forward_prepared(prep)
                handle.root = h
            return h.data
        return self.model.forward_prepared(prep)[0].data

    def embed_pairs(
        self, left: np.ndarray, right: np.ndarray, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Embed both endpoints of (left, right, t) pairs in one fused batch.

        The micro-batcher's flush path: one BatchPrep preparation covers
        every endpoint of every queued pair, so dedup and time-encoding
        memoization amortize across all clients in the batch.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        emb = self.embed(
            np.concatenate([left, right]), np.concatenate([times, times])
        )
        n = len(left)
        return emb[:n], emb[n:]

    @one_blas_thread()
    def rank_candidates(
        self, src: int, candidates: np.ndarray, at_time: float
    ) -> np.ndarray:
        """Scores for ``src -> candidate`` links at ``at_time`` (higher=better).

        The classic serving pattern: one source embedded once (dedup makes
        the repeated src queries free), candidates batched.
        """
        if self.decoder is None:
            raise ValueError("engine constructed without a decoder")
        candidates = np.asarray(candidates, dtype=np.int64)
        n = len(candidates)
        h_src, h_dst = self.embed_pairs(
            np.full(n, src, dtype=np.int64),
            candidates,
            np.full(n, at_time, dtype=np.float64),
        )
        return self.decoder(Tensor(h_src), Tensor(h_dst)).data

    @one_blas_thread()
    def predict_links(
        self, src: np.ndarray, dst: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """P(edge) for each (src, dst, t) triple."""
        if self.decoder is None:
            raise ValueError("engine constructed without a decoder")
        h_src, h_dst = self.embed_pairs(src, dst, times)
        logits = self.decoder(Tensor(h_src), Tensor(h_dst)).data
        return stable_sigmoid(logits)
