"""Serving write path data: the WAL and the snapshot format.

An ingested batch keeps two things fresh — **state** (node memory + mailbox
fold the events in, Eq. 1–2 semantics, no gradients) and **structure** (the
serving :class:`TemporalGraph` gains the events, so neighbor sampling sees
post-training edges).  :meth:`repro.serve.ServingCluster.ingest` drives
both, for either replica fleet; this module holds what it writes to:

* :class:`EventLog` — the in-memory write-ahead log every batch is appended
  to *first*.  It is the source of truth for catch-up and recovery: offsets
  are stable under truncation and replay preserves batch boundaries.
* :func:`write_snapshot` / :func:`read_snapshot` — the one snapshot format:
  each replica's memory/mailbox plus the WAL.  A restore on a *pristine*
  cluster (training-time graph, empty WAL) replays the WAL into the graph
  and copies the state arrays back — no re-observation needed.  Format
  follows ``train/checkpoint.py``: one ``.npz`` with namespaced keys and a
  json-encoded ``meta`` blob; both fleets write it through the same call,
  so their files interchange whenever their serving states agree.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.temporal_graph import TemporalGraph

SNAPSHOT_VERSION = 1

EventBatch = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]


class EventLog:
    """Append-only log of streamed events (the serving WAL).

    Chunks are kept as-appended and concatenated lazily; offsets are event
    indices into the logical concatenation, so ``events_since(offset)``
    gives exactly the suffix a lagging replica (or a restore) must replay.

    Long-lived deployments bound the WAL's memory with
    :meth:`truncate_until`: the prefix below a safe cursor (every replica's
    catch-up offset, a snapshot's coverage) is dropped while logical
    offsets keep their meaning — a cursor below :attr:`base_offset` then
    raises instead of silently replaying from the wrong place.
    """

    def __init__(self, edge_dim: int = 0) -> None:
        if edge_dim < 0:
            raise ValueError("edge_dim must be non-negative")
        self.edge_dim = edge_dim
        self._src: List[np.ndarray] = []
        self._dst: List[np.ndarray] = []
        self._time: List[np.ndarray] = []
        self._feats: List[np.ndarray] = []
        self._count = 0
        self._base = 0

    def __len__(self) -> int:
        """Total events ever appended (truncation does not shrink this —
        offsets stay meaningful)."""
        return self._count

    @property
    def base_offset(self) -> int:
        """First logical offset still held (0 until a truncation)."""
        return self._base

    def append(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        times: np.ndarray,
        edge_feats: Optional[np.ndarray] = None,
    ) -> int:
        """Append one event batch; returns the new log length (the offset
        *after* this batch)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if not (len(src) == len(dst) == len(times)):
            raise ValueError("src, dst, times must have equal length")
        if len(src) == 0:
            return self._count
        if self.edge_dim:
            if edge_feats is None:
                ef = np.zeros((len(src), self.edge_dim), dtype=np.float32)
            else:
                ef = np.asarray(edge_feats, dtype=np.float32)
                if ef.shape != (len(src), self.edge_dim):
                    raise ValueError(
                        f"edge_feats shape {ef.shape} != ({len(src)}, {self.edge_dim})"
                    )
        else:
            if edge_feats is not None:
                raise ValueError("log configured without edge features")
            ef = np.zeros((len(src), 0), dtype=np.float32)
        self._src.append(src.copy())
        self._dst.append(dst.copy())
        self._time.append(times.copy())
        self._feats.append(ef.copy())
        self._count += len(src)
        return self._count

    def arrays(self) -> EventBatch:
        """Everything still held, as (src, dst, times, edge_feats-or-None)."""
        return self.events_since(self._base)

    def _check_offset(self, offset: int) -> None:
        if offset < self._base:
            raise ValueError(
                f"offset {offset} was truncated away (base_offset is "
                f"{self._base}); replay from a snapshot instead"
            )
        if offset > self._count:
            raise ValueError(f"offset {offset} outside [{self._base}, {self._count}]")

    def events_since(self, offset: int) -> EventBatch:
        """Events with log index >= ``offset`` (for replay/catch-up)."""
        self._check_offset(offset)
        if offset == self._count:
            empty = np.zeros(0, dtype=np.int64)
            feats = (
                np.zeros((0, self.edge_dim), dtype=np.float32) if self.edge_dim else None
            )
            return empty, empty.copy(), np.zeros(0, dtype=np.float64), feats
        rel = offset - self._base
        src = np.concatenate(self._src)[rel:]
        dst = np.concatenate(self._dst)[rel:]
        times = np.concatenate(self._time)[rel:]
        feats = np.concatenate(self._feats)[rel:] if self.edge_dim else None
        return src, dst, times, feats

    def batches_since(self, offset: int) -> List[EventBatch]:
        """The suffix from ``offset``, split at the *original* append
        boundaries.

        Mail staleness is batch-granular (every mail in a batch reads the
        pre-batch memory), so a replica that replays a WAL suffix through
        ``ingest`` converges to the live state **bit-identically** only when
        it folds the same batches — replaying ``events_since`` as one big
        batch is semantically valid streaming but lands on a slightly
        different (coarser-staleness) state.  Catch-up paths use this.
        """
        self._check_offset(offset)
        out: List[EventBatch] = []
        start = self._base
        for src, dst, times, feats in zip(
            self._src, self._dst, self._time, self._feats
        ):
            stop = start + len(src)
            if stop > offset:
                lo = max(offset - start, 0)
                out.append(
                    (
                        src[lo:].copy(),
                        dst[lo:].copy(),
                        times[lo:].copy(),
                        feats[lo:].copy() if self.edge_dim else None,
                    )
                )
            start = stop
        return out

    def truncate_until(self, offset: int) -> int:
        """Release the prefix below ``offset``; returns the new
        :attr:`base_offset`.

        Truncation is **batch-granular**: only whole append batches that
        end at or before ``offset`` are dropped, so every still-valid
        cursor keeps seeing the original batch boundaries (the bit-exact
        catch-up contract of :meth:`batches_since`).  The caller promises
        no consumer still holds a cursor below ``offset`` — later reads
        below the new base raise.
        """
        self._check_offset(offset)
        while self._src and self._base + len(self._src[0]) <= offset:
            self._base += len(self._src[0])
            del self._src[0], self._dst[0], self._time[0], self._feats[0]
        return self._base


# --------------------------------------------------------------- snapshots
_STATE_NAMES = ("memory", "last_update", "mail", "mail_time", "has_mail")


def state_arrays(memory, mailbox) -> Dict[str, np.ndarray]:
    """The five arrays that *are* one replica's serving state, by name."""
    return dict(
        zip(
            _STATE_NAMES,
            (
                memory.memory, memory.last_update,
                mailbox.mail, mailbox.mail_time, mailbox.has_mail,
            ),
        )
    )


def load_state(memory, mailbox, arrays: Dict[str, np.ndarray]) -> None:
    """Overwrite a replica's serving state in place (seeding, restore)."""
    for name, target in state_arrays(memory, mailbox).items():
        target[...] = arrays[name]


def write_snapshot(
    path: Union[str, Path],
    *,
    graph: TemporalGraph,
    wal: EventLog,
    replica_states: Sequence[Tuple[object, object]],
) -> Path:
    """Write the common snapshot format: metadata + WAL + per-replica
    (memory, mailbox) arrays.

    Both fleets serialize through here — in-thread replicas with each
    engine's private state, process replicas with their one shared state
    repeated per replica — so their snapshot files are interchangeable
    whenever their serving states agree.
    """
    path = Path(path)
    arrays = {}
    base_events = graph.num_events - len(wal)
    meta = {
        "format_version": SNAPSHOT_VERSION,
        "k": len(replica_states),
        "base_events": base_events,
        "wal_len": len(wal),
        "graph_name": graph.name,
        "num_nodes": graph.num_nodes,
        "edge_dim": graph.edge_dim,
    }
    arrays["meta/json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )

    if wal.base_offset == 0:
        src, dst, times, feats = wal.arrays()
    else:
        # truncated WAL: the graph's event tail holds the same logical
        # content byte-for-byte (chronological ingest keeps append order
        # stable through the graph's sort), so cursor-driven truncation
        # never costs snapshotability.  Restore replays structure only,
        # so the lost batch boundaries don't matter.
        src = graph.src[base_events:]
        dst = graph.dst[base_events:]
        times = graph.timestamps[base_events:]
        feats = (
            graph.edge_feats[base_events:] if graph.edge_feats is not None else None
        )
    arrays["wal/src"] = src
    arrays["wal/dst"] = dst
    arrays["wal/time"] = times
    if feats is not None:
        arrays["wal/edge_feats"] = feats

    for r, (memory, mailbox) in enumerate(replica_states):
        for name, array in state_arrays(memory, mailbox).items():
            arrays[f"replica{r}/{name}"] = array

    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def read_snapshot(
    path: Union[str, Path],
    *,
    graph: TemporalGraph,
    wal: EventLog,
    k: int,
):
    """Load + validate the common snapshot format against a pristine target.

    Returns ``(meta, wal_batch, replica_arrays)`` where ``wal_batch`` is
    the snapshot's ``(src, dst, times, feats)`` (possibly empty) and
    ``replica_arrays[r]`` maps array names to the replica's state.  The
    caller applies them under its own locking/ordering discipline.
    """
    data = np.load(Path(path), allow_pickle=False)
    meta = json.loads(bytes(data["meta/json"]).decode("utf-8"))
    if meta["format_version"] != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {meta['format_version']}")
    if meta["k"] != k:
        raise ValueError(f"snapshot has k={meta['k']} replicas, cluster has {k}")
    if len(wal) != 0 or graph.num_events != meta["base_events"]:
        raise ValueError(
            "restore target must be a pristine cluster on the training-time "
            f"graph ({meta['base_events']} events, empty WAL)"
        )
    if graph.num_nodes != meta["num_nodes"]:
        raise ValueError("node universe mismatch")
    if graph.edge_dim != meta["edge_dim"]:
        raise ValueError("edge feature dimension mismatch")

    src, dst, times = data["wal/src"], data["wal/dst"], data["wal/time"]
    feats = data["wal/edge_feats"] if "wal/edge_feats" in data else None
    replica_arrays = [
        {name: data[f"replica{r}/{name}"] for name in _STATE_NAMES}
        for r in range(k)
    ]
    return meta, (src, dst, times, feats), replica_arrays
