"""Work-conserving micro-batching of concurrent serving requests.

A single ``rank_candidates`` call already amortizes redundancy *within* one
request (TGOpt dedup collapses the repeated source embedding).  Under real
traffic the bigger win is *across* clients: many users query at nearly the
same timestamp against overlapping candidate sets, so coalescing their
requests into one engine batch lets de-duplication and time-encoding
memoization fire across request boundaries.

:class:`MicroBatcher` queues requests and flushes them as one fused engine
call when either

* the queued work reaches ``max_batch_pairs`` (size trigger), or
* :meth:`~MicroBatcher.poll` finds the oldest queued request at least
  ``max_delay`` seconds old (window trigger).

The default window is ``0`` (:data:`DEFAULT_MAX_DELAY`, which
``ServeConfig.max_delay_ms`` reads): serving is *work-conserving* — a poll
that finds queued work flushes it, so nothing idles out a timer and batch
size follows load.  A flush holds the batcher lock only to dequeue; the
engine runs under the engine (fleet) lock, so requests submitted while a
batch computes join the queue and ride the next batch together, and a
waiting client whose answer arrives while it waits for that lock returns
instead of computing the next batch.  An explicit window holds work so
more requests can join a batch (throughput at the price of latency under
light load), or, set very large, pins batch composition to explicit
:meth:`~MicroBatcher.flush` calls — what byte-equality checks need.

A flush embeds the union of all queued (node, time) queries in **one**
:meth:`InferenceEngine.embed` call and applies the decoder to all pairs at
once, then scatters per-request results.  Scores are bitwise-identical to
per-request serving because dedup computes each unique (node, time) exactly
once either way.

The batcher is thread-safe: clients may submit from many threads and block
on :meth:`PendingResult.wait`, which cooperatively drives :meth:`poll`, so a
fleet of waiters flushes its own work — no dedicated flusher thread.
Locks are taken engine lock first, batcher lock second, and the batcher
lock is never held while waiting on anything.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..infer.engine import InferenceEngine
from ..nn import Tensor
from ..obs import span
from ..utils import stable_sigmoid
from ..utils.fingerprint import one_blas_thread
from .metrics import LatencyHistogram

#: the default micro-batch window in seconds (``ServeConfig.max_delay_ms``
#: reads it): 0, work-conserving — a poll that finds queued work flushes it
DEFAULT_MAX_DELAY = 0.0

_RANK = "rank"
_PREDICT = "predict"
# flush triggers (``None``: an unconditional flush)
_SIZE = "size"
_WINDOW = "window"


class RequestCancelled(RuntimeError):
    """The request was cancelled before its batch flushed (hedge loser)."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline budget ran out while it sat in the queue."""


class PendingResult:
    """Handle for one queued request; fulfilled when its batch flushes."""

    __slots__ = (
        "_batcher", "_event", "_value", "_error", "submitted_at", "completed_at",
        "cancelled",
    )

    def __init__(self, batcher: "MicroBatcher", submitted_at: float) -> None:
        self._batcher = batcher
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.submitted_at = submitted_at
        self.completed_at: Optional[float] = None
        self.cancelled = False

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def value(self) -> np.ndarray:
        if not self.done:
            raise RuntimeError("request not flushed yet; call wait() or flush()")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def latency(self) -> float:
        """Submit-to-completion time in seconds (batcher clock)."""
        if self.completed_at is None:
            raise RuntimeError("request not flushed yet")
        return self.completed_at - self.submitted_at

    def wait(self, timeout: Optional[float] = None, drive: bool = True) -> np.ndarray:
        """Block until the result is ready; optionally drive the batcher.

        ``drive=True`` makes waiting clients call :meth:`MicroBatcher.poll`,
        so a group of blocked clients flushes its own work (at once under
        the default window of 0, else once the window passes) — no
        dedicated flusher thread is required.  A client whose answer lands
        while it waits for the engine returns without computing the next
        batch.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._event.is_set():
            if drive:
                self._batcher.poll(until=self._event.is_set)
            if self._event.wait(timeout=1e-4):
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("request not completed within timeout")
        if self._error is not None:
            raise self._error
        return self._value

    def cancel(self) -> bool:
        """Withdraw the request if it has not flushed yet.

        A cancelled request is removed from the queue before any compute
        happens — the hedging front door cancels the losing duplicate this
        way, so losers never reach the engine and never double-count
        latency.  Returns ``True`` if the request was still pending.
        """
        return self._batcher._cancel(self)

    def _fulfill(self, value: np.ndarray, completed_at: float) -> None:
        self._value = value
        self.completed_at = completed_at
        self._event.set()

    def _fail(self, error: BaseException, completed_at: float) -> None:
        self._error = error
        self.completed_at = completed_at
        self._event.set()


def check_request(
    num_nodes: int, left: np.ndarray, right: np.ndarray, times: np.ndarray
) -> None:
    """Reject a malformed request with ``ValueError``.

    Validation happens in the submitting client, not at flush time — a
    garbage request must not poison the whole micro-batch it would ride in
    (nor, behind a process fleet, unwind a replica's frame loop).  ``left``
    / ``times`` may be length-1 stand-ins for a rank query's scalar source
    and time; ``right`` is always the full pair axis.
    """
    if len(right) == 0 or len(left) == 0:
        raise ValueError("empty request")
    for arr in (left, right):
        if arr.min() < 0 or arr.max() >= num_nodes:
            raise ValueError(
                f"node ids must be in [0, {num_nodes}); got "
                f"[{int(arr.min())}, {int(arr.max())}]"
            )
    if not np.isfinite(times).all():
        raise ValueError("query times must be finite")


@dataclass
class _Request:
    kind: str
    left: np.ndarray    # source node per pair
    right: np.ndarray   # destination / candidate node per pair
    times: np.ndarray   # query time per pair
    result: PendingResult
    deadline: Optional[float] = None  # absolute clock time; None = no budget

    @property
    def pairs(self) -> int:
        return len(self.left)


@dataclass
class BatcherStats:
    """Flush accounting (the bench reads these)."""

    requests: int = 0
    pairs: int = 0
    flushes: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    failed_flushes: int = 0
    cancelled: int = 0    # withdrawn before flush (hedge losers)
    expired: int = 0      # deadline ran out in the queue

    @property
    def mean_batch_pairs(self) -> float:
        return self.pairs / self.flushes if self.flushes else 0.0


class MicroBatcher:
    """Coalesces rank/predict requests into fused engine batches.

    Parameters
    ----------
    engine:
        The :class:`InferenceEngine` to serve from (needs a decoder).
    max_batch_pairs:
        Flush as soon as queued (src, dst) pairs reach this many.
    max_delay:
        The window (seconds): :meth:`poll` flushes once the oldest queued
        request is at least this old.  The default,
        :data:`DEFAULT_MAX_DELAY` = 0: every poll that finds queued work
        flushes it (work-conserving — batches grow with the load that
        queues up while the previous batch computes).  A positive window
        holds work so more requests join one batch; a very large one leaves
        flushing to the size trigger and explicit :meth:`flush` calls,
        which pins batch composition (scores move at the last ulp with it).
    clock:
        Injectable time source (tests use a fake clock to step deadlines).
    engine_lock:
        Optional lock serializing engine access — a :class:`ServingCluster`
        shares one model across replicas, so concurrent flushes from
        different replicas must not interleave time-encoder swaps.  A flush
        takes it *before* dequeuing, so a dequeued batch is always computed
        before the next holder of the lock (an ingest, a hot swap) runs.
    histogram_cap:
        Reservoir cap for the request-latency histogram (bounds memory
        under sustained traffic).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch_pairs: int = 256,
        max_delay: float = DEFAULT_MAX_DELAY,
        clock: Callable[[], float] = time.perf_counter,
        engine_lock: Optional[threading.RLock] = None,
        histogram_cap: Optional[int] = None,
    ) -> None:
        if engine.decoder is None:
            raise ValueError("MicroBatcher needs an engine with a decoder")
        if max_batch_pairs <= 0:
            raise ValueError("max_batch_pairs must be positive")
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self.engine = engine
        self.max_batch_pairs = max_batch_pairs
        self.max_delay = max_delay
        self.clock = clock
        self._lock = threading.RLock()
        self._engine_lock = engine_lock if engine_lock is not None else threading.RLock()
        self._queue: List[_Request] = []
        self._pending_pairs = 0
        self._oldest: Optional[float] = None
        self._computing = False   # a dequeued batch is on the engine
        # EWMA of flush compute time (batcher clock) — the cluster's
        # deadline-aware admission uses it to estimate time-to-completion
        self.flush_ewma = 0.0
        self.stats = BatcherStats()
        self.latency = (
            LatencyHistogram(cap=histogram_cap)
            if histogram_cap is not None
            else LatencyHistogram()
        )

    # ------------------------------------------------------------------ state
    @property
    def pending_requests(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def pending_pairs(self) -> int:
        with self._lock:
            return self._pending_pairs

    def estimate_wait(self) -> float:
        """Expected queue-to-completion time for a request submitted now.

        Worst-case queueing delay (the window) plus the EWMA flush cost of
        the batch it joins, scaled by how full that batch already is, plus
        one more flush while a batch is computing (the new request waits
        for it).  Deliberately cheap and pessimistic: deadline-aware
        admission sheds on it.
        """
        with self._lock:
            fill = self._pending_pairs / self.max_batch_pairs
            ahead = 1.0 if self._computing else 0.0
        return self.max_delay + self.flush_ewma * (1.0 + fill + ahead)

    def time_to_flush(self) -> Optional[float]:
        """Seconds until :meth:`poll` would flush (0: it would now);
        ``None`` when nothing is queued."""
        with self._lock:
            if self._oldest is None:
                return None
            return max(0.0, self._oldest + self.max_delay - self.clock())

    # ----------------------------------------------------------------- submit
    def submit_rank(
        self, src: int, candidates: np.ndarray, at_time: float,
        deadline: Optional[float] = None,
    ) -> PendingResult:
        """Queue a ``rank_candidates``-style request; returns raw scores."""
        candidates = np.asarray(candidates, dtype=np.int64)
        n = len(candidates)
        left = np.full(n, int(src), dtype=np.int64)
        times = np.full(n, float(at_time), dtype=np.float64)
        return self._submit(_RANK, left, candidates, times, deadline=deadline)

    def submit_predict(
        self, src: np.ndarray, dst: np.ndarray, times: np.ndarray,
        deadline: Optional[float] = None,
    ) -> PendingResult:
        """Queue a ``predict_links``-style request; returns probabilities."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if not (len(src) == len(dst) == len(times)):
            raise ValueError("src, dst, times must align")
        return self._submit(_PREDICT, src, dst, times, deadline=deadline)

    def _submit(
        self, kind: str, left: np.ndarray, right: np.ndarray, times: np.ndarray,
        deadline: Optional[float] = None,
    ) -> PendingResult:
        check_request(self.engine.graph.num_nodes, left, right, times)
        with self._lock:
            now = self.clock()
            result = PendingResult(self, submitted_at=now)
            self._queue.append(
                _Request(kind, left, right, times, result, deadline=deadline)
            )
            self._pending_pairs += len(left)
            if self._oldest is None:
                self._oldest = now
            self.stats.requests += 1
            self.stats.pairs += len(left)
            full = self._pending_pairs >= self.max_batch_pairs
        if full:
            self._flush(_SIZE)
        return result

    # ------------------------------------------------------------------ flush
    def poll(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Flush if the oldest queued request is at least ``max_delay`` old
        (under the default window of 0: if anything is queued).

        ``until`` is the polling waiter's own completion test, checked once
        the engine lock is free: a waiter whose answer arrived while it
        waited for the lock returns instead of computing the next batch.
        Returns the number of requests flushed (0 if the window has not
        passed or the queue is empty).
        """
        return self._flush(_WINDOW, until)

    def flush(self) -> int:
        """Unconditionally flush the queue; returns requests served."""
        return self._flush(None)

    def _due(self, trigger: Optional[str]) -> bool:
        """Whether ``trigger`` flushes the queue now (batcher lock held)."""
        if not self._queue:
            return False
        if trigger == _SIZE:
            return self._pending_pairs >= self.max_batch_pairs
        if trigger == _WINDOW:
            return self.clock() - self._oldest >= self.max_delay
        return True

    def _flush(
        self, trigger: Optional[str], until: Optional[Callable[[], bool]] = None
    ) -> int:
        with self._lock:
            if not self._due(trigger):
                return 0  # cheap exit: an idle poll never touches the engine lock
        # engine lock first, batcher lock only to dequeue: submitters keep
        # queueing while this batch computes, and whatever queued meanwhile
        # is due again once the lock frees — the next flush takes it whole
        with self._engine_lock:
            if until is not None and until():
                # the caller's own answer came while it waited for the lock:
                # it returns rather than compute other clients' batch
                return 0
            with self._lock:
                if not self._due(trigger):
                    return 0  # another flush took the queue while we waited
                if trigger == _SIZE:
                    self.stats.size_flushes += 1
                elif trigger == _WINDOW:
                    self.stats.deadline_flushes += 1
                batch, self._queue = self._queue, []
                self._pending_pairs = 0
                self._oldest = None
                self._computing = True
            try:
                # the thread count process replicas run at, so both fleets
                # score bit for bit alike (see repro.utils.fingerprint)
                with one_blas_thread():
                    self._run(batch)
            finally:
                with self._lock:
                    self._computing = False
        return len(batch)

    def _cancel(self, result: PendingResult) -> bool:
        """Withdraw ``result``'s request if still queued (see
        :meth:`PendingResult.cancel`)."""
        with self._lock:
            for i, req in enumerate(self._queue):
                if req.result is result:
                    del self._queue[i]
                    self._pending_pairs -= req.pairs
                    self._oldest = (
                        min(r.result.submitted_at for r in self._queue)
                        if self._queue
                        else None
                    )
                    self.stats.cancelled += 1
                    now = self.clock()
                    result.cancelled = True
                    result._fail(RequestCancelled("request cancelled"), now)
                    return True
        # already dequeued: flushed (done) or being flushed right now —
        # completion wins, the cancel is a no-op
        return False

    def _run(self, batch: List[_Request]) -> None:
        """Compute one dequeued batch (engine lock held, batcher lock not)."""
        # deadline-expired requests are dropped before any compute: their
        # caller already gave up on the budget, so embedding them would only
        # steal batch capacity from requests that can still meet their SLO.
        # Dropping rows is bitwise-safe for the survivors (dedup computes
        # each unique (node, time) once regardless of batch composition).
        now = self.clock()
        live: List[_Request] = []
        for req in batch:
            if req.deadline is not None and now > req.deadline:
                self.stats.expired += 1
                req.result._fail(
                    DeadlineExceeded("deadline exceeded in queue"), now
                )
            else:
                live.append(req)
        if not live:
            return

        lefts = np.concatenate([r.left for r in live])
        rights = np.concatenate([r.right for r in live])
        times = np.concatenate([r.times for r in live])
        started = now
        try:
            with span("micro_batch", requests=len(live), pairs=int(len(lefts))):
                # one fused BatchPrep preparation over every endpoint of
                # every queued pair — dedup/memoization amortize across all
                # clients in the batch
                h_left, h_right = self.engine.embed_pairs(lefts, rights, times)
                scores = self.engine.decoder(Tensor(h_left), Tensor(h_right)).data
        except Exception as exc:
            # deliver the failure to every waiter — the batch was already
            # dequeued, so swallowing it here would strand them forever
            now = self.clock()
            for req in live:
                req.result._fail(exc, now)
            self.stats.flushes += 1
            self.stats.failed_flushes += 1
            return
        now = self.clock()
        self.flush_ewma = (
            max(0.0, now - started)
            if self.flush_ewma == 0.0
            else 0.8 * self.flush_ewma + 0.2 * max(0.0, now - started)
        )
        offset = 0
        for req in live:
            out = scores[offset : offset + req.pairs]
            offset += req.pairs
            if req.kind == _PREDICT:
                out = stable_sigmoid(out)
            req.result._fulfill(out, now)
            self.latency.record(max(0.0, now - req.result.submitted_at))
        self.stats.flushes += 1
