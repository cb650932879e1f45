"""Temporal neighbor sampling: the k most recent neighbors strictly before t.

TGN-attn (paper §4.0.1) uses one attention layer over the 10 most recent
neighbors of each root node.  Sampling must be *temporal*: a neighbor edge is
eligible only if its timestamp is strictly less than the query timestamp, so
no information from the future (including the event being predicted) leaks
into the embedding.

The sampler returns fixed-shape padded arrays so the downstream attention is
a dense batched matmul — the same layout TGL's CUDA sampler emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .temporal_graph import TemporalGraph


@dataclass
class NeighborBlock:
    """Padded most-recent-k neighborhood for a batch of (node, time) queries.

    Attributes
    ----------
    roots:        [B] queried node ids
    root_times:   [B] query timestamps
    neighbors:    [B, k] neighbor node ids (0 where padded)
    edge_ids:     [B, k] event ids of the connecting edges (-1 where padded)
    times:        [B, k] edge timestamps (0 where padded)
    mask:         [B, k] True for real neighbors
    """

    roots: np.ndarray
    root_times: np.ndarray
    neighbors: np.ndarray
    edge_ids: np.ndarray
    times: np.ndarray
    mask: np.ndarray

    @property
    def batch_size(self) -> int:
        return len(self.roots)

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]

    def delta_times(self) -> np.ndarray:
        """Δt of each neighbor edge relative to the query time (Eq. 5)."""
        return (self.root_times[:, None] - self.times) * self.mask

    def all_nodes(self) -> np.ndarray:
        """Unique set of root + real neighbor ids (memory fetch set)."""
        return np.unique(np.concatenate([self.roots, self.neighbors[self.mask]]))

    # Topology-pure derived arrays, cached on the block so repeated passes
    # over the same neighborhood (sub-steps, tape replays) reuse one stable
    # allocation.  Formulas mirror the attention call sites bit-for-bit.
    def _derived(self, name: str, build):
        cache = self.__dict__.setdefault("_derived_cache", {})
        arr = cache.get(name)
        if arr is None:
            arr = build()
            cache[name] = arr
        return arr

    def delta_times32(self) -> np.ndarray:
        """``delta_times()`` cast to float32 (the attention input dtype)."""
        return self._derived(
            "dt32", lambda: np.asarray(self.delta_times(), dtype=np.float32)
        )

    def attn_scale(self) -> np.ndarray:
        """[B,1,1] per-root 1/sqrt(|N_v|) attention scale."""

        def build():
            deg = np.maximum(self.mask.sum(axis=1, keepdims=True), 1).astype(
                np.float32
            )
            return (1.0 / np.sqrt(deg))[:, :, None]

        return self._derived("scale", build)

    def attn_bias(self, neg_inf: float) -> np.ndarray:
        """[B,1,k] additive mask bias (0 real / ``neg_inf`` padded)."""
        return self._derived(
            ("bias", neg_inf),
            lambda: np.where(self.mask[:, None, :], 0.0, neg_inf).astype(np.float32),
        )

    def any_nbr32(self) -> np.ndarray:
        """[B,1,1] float32 indicator that the root has any real neighbor."""
        return self._derived(
            "any", lambda: self.mask.any(axis=1).astype(np.float32)[:, None, None]
        )


class RecentNeighborSampler:
    """Samples the ``k`` most recent neighbors before each query time.

    The adjacency comes from :meth:`TemporalGraph.csr`, which is sorted by
    time within each node, so eligibility is one ``searchsorted`` per root.

    Two equivalent implementations are kept:

    * ``vectorized=True`` (default) resolves every root's eligibility cut
      with **one** global ``searchsorted`` over composite ``(node, time-rank)``
      integer keys — the CSR is node-major and time-sorted within nodes, so
      mapping each edge to ``node · (R+1) + rank(time)`` yields a globally
      sorted int64 array, and the per-root Python loop disappears.  Time
      ranks (dense indices into the sorted unique edge times) keep the keys
      exact — no float-precision hazards from mixing node ids with raw
      timestamps.
    * ``vectorized=False`` is the original per-root loop, kept as the
      reference implementation (equivalence-tested).
    """

    def __init__(self, graph: TemporalGraph, k: int = 10, vectorized: bool = True) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.graph = graph
        self.k = k
        self.vectorized = vectorized
        self._sync()

    def _sync(self) -> None:
        """(Re)load the CSR; called lazily when the graph gains events."""
        self._indptr, self._nbrs, self._eids, self._times = self.graph.csr()
        self._graph_version = self.graph.version
        # the composite-key index costs O(E log E); defer it so the loop
        # path (and streaming appends that never sample again) skip it
        self._edge_keys = None
        self._uniq_times = None
        self._rank_base = np.int64(1)

    def _ensure_index(self) -> None:
        """Build the composite-key index for the vectorized path on demand:
        edges sorted by (owner node, time rank); ranks are exact integer
        surrogates for the float timestamps."""
        if self._edge_keys is not None:
            return
        self._uniq_times = np.unique(self._times)
        ranks = np.searchsorted(self._uniq_times, self._times, side="left")
        owners = np.repeat(
            np.arange(len(self._indptr) - 1, dtype=np.int64), np.diff(self._indptr)
        )
        self._rank_base = np.int64(len(self._uniq_times) + 1)
        self._edge_keys = owners * self._rank_base + ranks

    def sample(self, roots: np.ndarray, times: np.ndarray) -> NeighborBlock:
        if self._graph_version != self.graph.version:
            self._sync()
        roots = np.asarray(roots, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if roots.shape != times.shape:
            raise ValueError("roots and times must align")
        if self.vectorized:
            return self._sample_vectorized(roots, times)
        return self._sample_loop(roots, times)

    def _sample_vectorized(self, roots: np.ndarray, times: np.ndarray) -> NeighborBlock:
        self._ensure_index()
        k = self.k
        lo = self._indptr[roots]
        hi = self._indptr[roots + 1]
        # rank(t) = #unique edge times < t, so edge_time < t ⟺ rank(edge) < rank(t)
        q_ranks = np.searchsorted(self._uniq_times, times, side="left")
        cut = np.searchsorted(self._edge_keys, roots * self._rank_base + q_ranks, side="left")
        # queries past a node's last edge resolve beyond its segment; clamp
        cut = np.clip(cut, lo, hi)
        take = np.minimum(k, cut - lo)                      # [B]
        cols = (cut - take)[:, None] + np.arange(k)[None, :]
        mask = np.arange(k)[None, :] < take[:, None]        # [B, k]
        safe = np.where(mask, cols, 0)
        neighbors = np.where(mask, self._nbrs[safe], 0)
        edge_ids = np.where(mask, self._eids[safe], -1)
        out_times = np.where(mask, self._times[safe], 0.0)
        return NeighborBlock(
            roots,
            times,
            neighbors.astype(np.int64),
            edge_ids.astype(np.int64),
            out_times.astype(np.float64),
            mask,
        )

    def _sample_loop(self, roots: np.ndarray, times: np.ndarray) -> NeighborBlock:
        b, k = len(roots), self.k
        neighbors = np.zeros((b, k), dtype=np.int64)
        edge_ids = np.full((b, k), -1, dtype=np.int64)
        out_times = np.zeros((b, k), dtype=np.float64)
        mask = np.zeros((b, k), dtype=bool)

        indptr = self._indptr
        for i in range(b):
            node = roots[i]
            lo, hi = indptr[node], indptr[node + 1]
            if lo == hi:
                continue
            # Strictly-before-t eligibility: searchsorted 'left' on times.
            cut = lo + np.searchsorted(self._times[lo:hi], times[i], side="left")
            take = min(k, cut - lo)
            if take <= 0:
                continue
            sl = slice(cut - take, cut)  # the most recent `take` edges
            neighbors[i, :take] = self._nbrs[sl]
            edge_ids[i, :take] = self._eids[sl]
            out_times[i, :take] = self._times[sl]
            mask[i, :take] = True
        return NeighborBlock(roots, times, neighbors, edge_ids, out_times, mask)

    def captured_event_counts(
        self, batch_size: int, max_events: Optional[int] = None
    ) -> np.ndarray:
        """Per-node count of events whose mail survives batched COMB.

        Reproduces Fig. 8: with batch size ``b`` the mailbox applies
        COMB = most-recent once per batch, so for each node only its *last*
        mail within every batch window updates the memory.  The count of
        captured events for node v is the number of batches in which v
        appears at least once.  Larger batches ⇒ fewer captured events,
        hitting high-degree nodes hardest.
        """
        g = self.graph
        e = g.num_events if max_events is None else min(max_events, g.num_events)
        captured = np.zeros(g.num_nodes, dtype=np.int64)
        for start in range(0, e, batch_size):
            stop = min(start + batch_size, e)
            touched = np.unique(
                np.concatenate([g.src[start:stop], g.dst[start:stop]])
            )
            captured[touched] += 1
        return captured
