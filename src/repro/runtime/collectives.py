"""Collective operations over the frame transport (star / ring / tree).

The runtime's collectives mirror the contract of
:mod:`repro.parallel.allreduce` — gradient *averaging* across replicas and
root-to-all weight broadcast — but move real bytes between OS processes
instead of sharing one weight copy.  The logical and process execution
paths therefore agree on semantics: ``allreduce(vec)`` returns the same
deterministic rank-ordered reduction on every rank, accumulated in float64
exactly like :func:`repro.parallel.allreduce.allreduce_gradients`.

Three topologies implement the one interface:

* :class:`Communicator` — the star: the root owns one channel per peer,
  gathers contributions in rank order, reduces, fans the result back out.
  Protocol-simple, but the root serially moves ``2(world-1)`` full vectors
  per allreduce while every other rank idles (``python3 bench/run.py``
  reports the cost as ``runtime.allreduce_us.star`` and the sync share as
  ``runtime.sync_share``).
* :class:`ChainCommunicator` — the pipelined ring reduction: chunks flow
  up the rank chain ``0 → world-1`` accumulating in place, then the totals
  flow back down, with all chunks in flight at once.  Per *link* traffic
  is two payloads per allreduce regardless of world size, so no single
  endpoint is a serialization point.
* :class:`TreeCommunicator` — raw vectors gather up a binary heap tree,
  the root folds them **in rank order**, and the total broadcasts down in
  ``O(log world)`` hops.

All three produce the identical left-associated rank-order float64 fold —
chunking and routing change who moves the bytes, never the arithmetic — so
any topology can back any run and stay bitwise equal to the others and to
the logical backend.

Every blocking wait uses the channel timeout, so a dead peer breaks the
collective with :class:`~repro.runtime.transport.TransportTimeout` rather
than hanging the fleet.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .transport import Channel, Frame, TransportError


class Communicator:
    """Rank-aware collective endpoint for one process group.

    The root holds ``peers`` (channel per non-root rank, index ``r - 1``);
    non-roots hold a single ``root`` channel.  Ranks are dense ``0..world``
    within this communicator — a sub-communicator (say, the ``i`` shards of
    one memory group) renumbers its members.
    """

    def __init__(
        self,
        rank: int,
        world: int,
        root_channel: Optional[Channel] = None,
        peer_channels: Optional[Sequence[Channel]] = None,
    ) -> None:
        if world <= 0:
            raise ValueError("world must be positive")
        if not 0 <= rank < world:
            raise ValueError(f"rank {rank} outside world of {world}")
        self.rank = rank
        self.world = world
        if world == 1:
            self.peers: List[Channel] = []
            self.root: Optional[Channel] = None
        elif rank == 0:
            if peer_channels is None or len(peer_channels) != world - 1:
                raise ValueError(f"root needs {world - 1} peer channels")
            self.peers = list(peer_channels)
            self.root = None
        else:
            if root_channel is None:
                raise ValueError("non-root ranks need a root channel")
            self.peers = []
            self.root = root_channel
        self._seq = 0  # collective sequence number (protocol debugging)

    # ------------------------------------------------------------- barrier
    def barrier(self, tag: str = "barrier", root_section=None) -> None:
        """Block until every rank has arrived.

        ``root_section`` runs on the root between collecting the arrivals
        and releasing the fleet — i.e. while every rank is provably idle.
        The runtime uses it for group-exclusive state transitions (the
        wrap-around memory reset) without a second round trip.
        """
        if self.world == 1:
            if root_section is not None:
                root_section()
            return
        self._seq += 1
        meta = {"seq": self._seq}
        if self.rank == 0:
            for ch in self.peers:
                ch.expect(f"{tag}/arrive")
            if root_section is not None:
                root_section()
            for ch in self.peers:
                ch.send(f"{tag}/go", meta)
        else:
            self.root.send(f"{tag}/arrive", meta)
            self.root.expect(f"{tag}/go")

    # ----------------------------------------------------------- allreduce
    def allreduce_sum(self, vec: np.ndarray) -> np.ndarray:
        """Element-wise sum of ``vec`` across ranks; same result everywhere.

        Accumulation is float64 in rank order (0, 1, …) regardless of
        message arrival order, so the reduction is deterministic — a
        prerequisite for keeping per-rank optimizer replicas bitwise in
        sync without re-broadcasting weights every step.
        """
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if self.world == 1:
            return vec.copy()
        self._seq += 1
        if self.rank == 0:
            parts: Dict[int, np.ndarray] = {0: vec}
            for idx, ch in enumerate(self.peers):
                frame = ch.expect("allreduce/part")
                part = frame.array("vec")
                if part.shape != vec.shape:
                    raise TransportError(
                        f"allreduce shape mismatch: rank {idx + 1} sent "
                        f"{part.shape}, root has {vec.shape}"
                    )
                parts[idx + 1] = part
            total = parts[0].copy()
            for r in range(1, self.world):
                total += parts[r]
            for ch in self.peers:
                ch.send("allreduce/total", arrays={"vec": total})
            return total
        self.root.send("allreduce/part", arrays={"vec": vec})
        return self.root.expect("allreduce/total").array("vec")

    def allreduce_mean(self, vec: np.ndarray) -> np.ndarray:
        return self.allreduce_sum(vec) / self.world

    def reduce_to_root(self, vec: np.ndarray) -> Optional[np.ndarray]:
        """Rank-order float64 fold delivered to the root only; peers get
        ``None`` (no fan-out leg).

        The fabric's two-level gradient reduction uses this as its first
        hop: the ``j`` epoch rows of one gradient slot fold their one-term
        partials at the slot leader — the identical ``+=`` loop a process
        rank runs over its cached block — before the leader joins the
        cross-machine allreduce and broadcasts the final total back.
        """
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if self.world == 1:
            return vec.copy()
        self._seq += 1
        if self.rank == 0:
            total = vec.copy()
            for idx, ch in enumerate(self.peers):
                part = ch.expect("reduce/part").array("vec")
                if part.shape != vec.shape:
                    raise TransportError(
                        f"reduce shape mismatch: rank {idx + 1} sent "
                        f"{part.shape}, root has {vec.shape}"
                    )
                total += part
            return total
        self.root.send("reduce/part", arrays={"vec": vec})
        return None

    # ----------------------------------------------------------- broadcast
    def broadcast(
        self,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[dict] = None,
    ) -> Frame:
        """Root's (arrays, meta) delivered to every rank (root included)."""
        self._seq += 1
        if self.rank == 0:
            frame = Frame("broadcast", meta=meta or {}, arrays=arrays or {})
            for ch in self.peers:
                ch.send(frame.tag, frame.meta, frame.arrays)
            return frame
        return self.root.expect("broadcast")

    def gather_meta(self, meta: dict) -> Optional[List[dict]]:
        """Root receives every rank's metadata dict (rank order); peers None."""
        self._seq += 1
        if self.world == 1:
            return [meta]
        if self.rank == 0:
            out = [meta]
            for ch in self.peers:
                out.append(dict(ch.expect("gather/meta").meta))
            return out
        self.root.send("gather/meta", meta)
        return None

    # ------------------------------------------------ ordered token chain
    def serial_section(self, fn, tag: str = "chain") -> None:
        """Run ``fn()`` on every rank, strictly in rank order.

        The write-ordering primitive behind shared-memory commits: rank 0
        runs first, then hands the token to rank 1, and so on.  Implemented
        through the star (the root relays the token), so it needs no extra
        channels beyond the ones the communicator already holds.
        """
        self._seq += 1
        if self.rank == 0:
            fn()
            for ch in self.peers:        # release ranks 1..n in order
                ch.send(f"{tag}/token")
                ch.expect(f"{tag}/done")
        else:
            self.root.expect(f"{tag}/token")
            fn()
            self.root.send(f"{tag}/done")

    def close(self) -> None:
        for ch in self.peers:
            ch.close()
        if self.root is not None:
            self.root.close()


class ChainCommunicator:
    """Pipelined ring-style reduction along the rank chain.

    Rank ``r`` holds a channel to ``r - 1`` (``prev``) and ``r + 1``
    (``next``).  ``allreduce_sum`` splits the vector into fixed-size
    chunks and runs a two-wave pipeline per chunk:

    * **up** — rank 0 sends its chunk to rank 1; each middle rank receives
      the running partial, folds its own chunk in with ``+=`` (float64),
      and forwards; the last rank's fold completes the total.
    * **down** — the totals flow back ``world-1 → 0``, each rank keeping a
      copy as it forwards.

    Per element the fold is ``(((c₀ + c₁) + c₂) + …)`` — exactly the star
    root's rank-order loop — so the result is bitwise identical to
    :meth:`Communicator.allreduce_sum`.  Chunks only partition elements;
    they never reorder any element's accumulation.  All chunks of a wave
    are in flight simultaneously (sends are buffered, the dependency graph
    is acyclic), so the wall-clock cost per link is ~2 payloads instead of
    the star root's ``2(world-1)``.
    """

    def __init__(
        self,
        rank: int,
        world: int,
        prev_channel: Optional[Channel] = None,
        next_channel: Optional[Channel] = None,
        chunk_elems: int = 8192,
    ) -> None:
        if world <= 0:
            raise ValueError("world must be positive")
        if not 0 <= rank < world:
            raise ValueError(f"rank {rank} outside world of {world}")
        if chunk_elems <= 0:
            raise ValueError("chunk_elems must be positive")
        if world > 1:
            if rank > 0 and prev_channel is None:
                raise ValueError(f"rank {rank} needs a prev channel")
            if rank < world - 1 and next_channel is None:
                raise ValueError(f"rank {rank} needs a next channel")
        self.rank = rank
        self.world = world
        self.prev = prev_channel if rank > 0 else None
        self.next = next_channel if rank < world - 1 else None
        self.chunk_elems = int(chunk_elems)
        self._seq = 0

    def _chunks(self, vec: np.ndarray) -> List[slice]:
        return [
            slice(lo, min(lo + self.chunk_elems, vec.size))
            for lo in range(0, vec.size, self.chunk_elems)
        ] or [slice(0, 0)]

    # ------------------------------------------------------------- barrier
    def barrier(self, tag: str = "barrier", root_section=None) -> None:
        """Three token waves: arrive up, collected down, go up.

        After the "collected" token reaches rank 0, every other rank is
        blocked awaiting "go" — so ``root_section`` runs on rank 0 with the
        fleet provably idle, matching the star's guarantee, before the
        release wave walks back up the chain.
        """
        self._seq += 1
        if self.world == 1:
            if root_section is not None:
                root_section()
            return
        if self.prev is not None:
            self.prev.expect(f"{tag}/arrive")
        if self.next is not None:
            self.next.send(f"{tag}/arrive")
            self.next.expect(f"{tag}/collected")
        if self.prev is not None:
            self.prev.send(f"{tag}/collected")
            self.prev.expect(f"{tag}/go")
        elif root_section is not None:
            root_section()
        if self.next is not None:
            self.next.send(f"{tag}/go")

    # ----------------------------------------------------------- allreduce
    def allreduce_sum(self, vec: np.ndarray) -> np.ndarray:
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if self.world == 1:
            return vec.copy()
        self._seq += 1
        total = vec.copy()
        flat = total.reshape(-1)
        chunks = self._chunks(flat)
        # up wave: partials accumulate toward the last rank, all chunks
        # pipelined (rank r is folding chunk c+1 while r+1 folds chunk c)
        for c, sl in enumerate(chunks):
            if self.prev is not None:
                part = self.prev.expect("chain/up").array("vec")
                if part.shape != flat[sl].shape:
                    raise TransportError(
                        f"chain allreduce chunk {c} shape mismatch: got "
                        f"{part.shape}, rank {self.rank} has {flat[sl].shape}"
                    )
                # rank-order fold: the incoming partial already holds
                # ranks 0..r-1 left-associated; += appends this rank
                part += flat[sl]
                flat[sl] = part
            if self.next is not None:
                self.next.send("chain/up", {"c": c}, arrays={"vec": flat[sl]})
        # down wave: the completed totals flow back to rank 0
        for c, sl in enumerate(chunks):
            if self.next is not None:
                flat[sl] = self.next.expect("chain/down").array("vec")
            if self.prev is not None:
                self.prev.send("chain/down", {"c": c}, arrays={"vec": flat[sl]})
        return total

    def allreduce_mean(self, vec: np.ndarray) -> np.ndarray:
        return self.allreduce_sum(vec) / self.world

    # ----------------------------------------------------------- broadcast
    def broadcast(
        self,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[dict] = None,
    ) -> Frame:
        """Rank 0's (arrays, meta) relayed down the chain to every rank."""
        self._seq += 1
        if self.rank == 0:
            frame = Frame("broadcast", meta=meta or {}, arrays=arrays or {})
        else:
            frame = self.prev.expect("broadcast")
        if self.next is not None:
            self.next.send(frame.tag, frame.meta, frame.arrays)
        return frame

    def close(self) -> None:
        for ch in (self.prev, self.next):
            if ch is not None:
                ch.close()


class TreeCommunicator:
    """Binary-heap-tree reduction: gather raw vectors up, fold at the root.

    Rank ``r``'s parent is ``(r - 1) // 2``; children are ``2r + 1`` and
    ``2r + 2``.  Each rank forwards its own vector *and* every
    descendant's, keyed by global rank, so the root receives all ``world``
    raw vectors in ``O(log world)`` hops and folds them in rank order —
    the same left-associated loop as the star root, hence bitwise equal.
    The total then broadcasts down the tree.  Bytes per link grow with
    subtree size (unlike the chain), but latency depth is logarithmic.
    """

    def __init__(
        self,
        rank: int,
        world: int,
        parent_channel: Optional[Channel] = None,
        child_channels: Optional[Sequence[Channel]] = None,
    ) -> None:
        if world <= 0:
            raise ValueError("world must be positive")
        if not 0 <= rank < world:
            raise ValueError(f"rank {rank} outside world of {world}")
        self.rank = rank
        self.world = world
        self.child_ranks = [c for c in (2 * rank + 1, 2 * rank + 2) if c < world]
        if rank > 0 and parent_channel is None:
            raise ValueError(f"rank {rank} needs a parent channel")
        if len(self.child_ranks) != len(child_channels or []):
            raise ValueError(
                f"rank {rank} has children {self.child_ranks}, "
                f"got {len(child_channels or [])} channels"
            )
        self.parent = parent_channel if rank > 0 else None
        self.children = list(child_channels or [])
        self._seq = 0

    # ------------------------------------------------------------- barrier
    def barrier(self, tag: str = "barrier", root_section=None) -> None:
        self._seq += 1
        for ch in self.children:
            ch.expect(f"{tag}/arrive")
        if self.parent is not None:
            self.parent.send(f"{tag}/arrive")
            self.parent.expect(f"{tag}/go")
        elif root_section is not None:
            root_section()
        for ch in self.children:
            ch.send(f"{tag}/go")

    # ----------------------------------------------------------- allreduce
    def allreduce_sum(self, vec: np.ndarray) -> np.ndarray:
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if self.world == 1:
            return vec.copy()
        self._seq += 1
        parts: Dict[int, np.ndarray] = {self.rank: vec}
        for child_rank, ch in zip(self.child_ranks, self.children):
            frame = ch.expect("tree/up")
            for key, arr in frame.arrays.items():
                r = int(key[1:])
                if arr.shape != vec.shape:
                    raise TransportError(
                        f"tree allreduce shape mismatch: rank {r} sent "
                        f"{arr.shape}, rank {self.rank} has {vec.shape}"
                    )
                parts[r] = arr
        if self.parent is not None:
            self.parent.send(
                "tree/up", arrays={f"r{r}": a for r, a in parts.items()}
            )
            total = self.parent.expect("tree/down").array("vec")
        else:
            if len(parts) != self.world:
                raise TransportError(
                    f"tree root gathered {sorted(parts)} of {self.world} ranks"
                )
            total = parts[0].copy()
            for r in range(1, self.world):
                total += parts[r]
        for ch in self.children:
            ch.send("tree/down", arrays={"vec": total})
        return total

    def allreduce_mean(self, vec: np.ndarray) -> np.ndarray:
        return self.allreduce_sum(vec) / self.world

    # ----------------------------------------------------------- broadcast
    def broadcast(
        self,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[dict] = None,
    ) -> Frame:
        """Rank 0's (arrays, meta) relayed down the tree to every rank."""
        self._seq += 1
        if self.rank == 0:
            frame = Frame("broadcast", meta=meta or {}, arrays=arrays or {})
        else:
            frame = self.parent.expect("broadcast")
        for ch in self.children:
            ch.send(frame.tag, frame.meta, frame.arrays)
        return frame

    def close(self) -> None:
        for ch in self.children:
            ch.close()
        if self.parent is not None:
            self.parent.close()


TOPOLOGIES = ("star", "ring", "tree")


def make_local_communicators(
    world: int, default_timeout: float = 120.0
) -> List[Communicator]:
    """Build a fully-wired communicator per rank over local pipes.

    Used by tests and by the launcher, which passes each communicator to
    its rank's process (the pipe ends migrate with the spawn arguments).
    """
    from .transport import pipe_channel_pair

    if world <= 0:
        raise ValueError("world must be positive")
    if world == 1:
        return [Communicator(0, 1)]
    root_sides: List[Channel] = []
    peer_sides: List[Channel] = []
    for _ in range(world - 1):
        a, b = pipe_channel_pair(default_timeout)
        root_sides.append(a)
        peer_sides.append(b)
    comms = [Communicator(0, world, peer_channels=root_sides)]
    for r in range(1, world):
        comms.append(Communicator(r, world, root_channel=peer_sides[r - 1]))
    return comms


def make_local_chain_communicators(
    world: int, default_timeout: float = 120.0, chunk_elems: int = 8192
) -> List[ChainCommunicator]:
    """A :class:`ChainCommunicator` per rank over local pipes."""
    from .transport import pipe_channel_pair

    if world <= 0:
        raise ValueError("world must be positive")
    ups: List[Optional[Channel]] = [None] * world  # rank r's channel to r-1
    downs: List[Optional[Channel]] = [None] * world  # rank r's channel to r+1
    for r in range(world - 1):
        a, b = pipe_channel_pair(default_timeout)
        downs[r] = a
        ups[r + 1] = b
    return [
        ChainCommunicator(
            r, world, prev_channel=ups[r], next_channel=downs[r],
            chunk_elems=chunk_elems,
        )
        for r in range(world)
    ]


def make_local_tree_communicators(
    world: int, default_timeout: float = 120.0
) -> List[TreeCommunicator]:
    """A :class:`TreeCommunicator` per rank over local pipes."""
    from .transport import pipe_channel_pair

    if world <= 0:
        raise ValueError("world must be positive")
    parents: List[Optional[Channel]] = [None] * world
    child_chans: List[List[Channel]] = [[] for _ in range(world)]
    for r in range(1, world):
        a, b = pipe_channel_pair(default_timeout)
        child_chans[(r - 1) // 2].append(a)
        parents[r] = b
    return [
        TreeCommunicator(
            r, world, parent_channel=parents[r], child_channels=child_chans[r]
        )
        for r in range(world)
    ]


def make_topology_communicators(
    topology: str, world: int, default_timeout: float = 120.0
):
    """Local-pipe communicators for any named topology (launcher/bench)."""
    if topology == "star":
        return make_local_communicators(world, default_timeout)
    if topology == "ring":
        return make_local_chain_communicators(world, default_timeout)
    if topology == "tree":
        return make_local_tree_communicators(world, default_timeout)
    raise ValueError(f"unknown topology {topology!r}; choose from {TOPOLOGIES}")
