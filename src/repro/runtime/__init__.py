"""repro.runtime — real multi-process execution backend for i×j×k plans.

Where ``repro.train`` *simulates* a DistTGL fleet with logical trainers in
one process, this package *is* the fleet: real OS processes, shared-memory
node state, wire collectives.  The two backends implement one
gradient-reduction contract
(:class:`repro.parallel.allreduce.TermGradAccumulator`), so
``Session.fit(backend="process")`` reproduces the logical trainer's result
— losses, metrics, final state — **bitwise at every world size**; every
experiment keeps one declarative description and gains measured
parallelism.

Layers, bottom up:

* :mod:`~repro.runtime.transport` — length-prefixed numpy frames over
  pipes/sockets (pickle-free array payloads);
* :mod:`~repro.runtime.collectives` — allreduce / broadcast / barrier /
  rank-ordered serial sections over the transport, semantics matching
  ``repro.parallel.allreduce``;
* :mod:`~repro.runtime.sharedmem` — node memory + mailbox segments in
  ``multiprocessing.shared_memory`` (§3.2.3's k-reader state, for real);
* :mod:`~repro.runtime.worker` — **the** rank loop (:func:`run_rank`):
  rebuild the shard from the config via the ``repro.api`` registries,
  order the trainer's arithmetic over a set of communicators — canonical
  pass, fixed-fold gradient reduction, two-barrier commit, park →
  rollback → resume, finalize replay — for every multi-process backend;
* :mod:`~repro.runtime.launcher` — the fit orchestration and **the**
  :class:`Supervisor` (commit-slab rollback, dead-rank respawn, episode-
  bounded restarts under a :class:`RecoveryPolicy` — a faulted fit still
  finishes bitwise equal to an unfaulted one) over a small spawner
  interface, plus :class:`LocalSpawner`: ``i×k`` child processes over
  pipes, the ``j`` rows kept in-rank (``Session.fit(backend="process")``);
* :mod:`~repro.runtime.serving` — :class:`ProcessFleet`, the process
  replica fleet behind :class:`repro.serve.ServingCluster`: workers with
  their own model copies over one shared serving state (bit-identical to
  in-thread replicas), respawned in place when they die;
* :mod:`~repro.runtime.fabric` — the second spawner: host agents
  (``repro.cli agent``) joined over a TCP rendezvous, rank-level socket
  wiring with star/ring/tree leader topologies, the ``j`` dimension fanned
  out as pipelined ranks, and machine-loss replacement —
  ``Session.fit(backend="fabric")`` runs the full ``i×j×k@machines`` plan
  bitwise-equal to local.

Each rank reports its loop, CPU and sync seconds in its result's
``meta["bench"]``; ``python3 bench/run.py`` turns those into the repo's
throughput and sync-share numbers.
"""

from .collectives import (
    ChainCommunicator,
    Communicator,
    TreeCommunicator,
    make_local_chain_communicators,
    make_local_communicators,
    make_local_tree_communicators,
    make_topology_communicators,
)
from .fabric import run_fabric_fit
from .launcher import (
    RecoveryPolicy,
    WorkerFailure,
    apply_process_result,
    run_process_fit,
)
from .serving import ProcessFleet, ProcessPendingResult, ProcessReplica
from .sharedmem import (
    CommitSlab,
    SharedGroupState,
    SharedStateSpec,
    create_group_states,
)
from .transport import (
    Channel,
    Frame,
    PipeEndpoint,
    RetryPolicy,
    SocketEndpoint,
    TransportError,
    TransportTimeout,
    connect_with_retry,
    decode_frame,
    encode_frame,
    pipe_channel_pair,
    socket_channel,
)

__all__ = [
    "ChainCommunicator",
    "Channel",
    "CommitSlab",
    "Communicator",
    "Frame",
    "RecoveryPolicy",
    "RetryPolicy",
    "PipeEndpoint",
    "ProcessFleet",
    "ProcessPendingResult",
    "ProcessReplica",
    "SharedGroupState",
    "SharedStateSpec",
    "SocketEndpoint",
    "TransportError",
    "TransportTimeout",
    "TreeCommunicator",
    "WorkerFailure",
    "apply_process_result",
    "connect_with_retry",
    "create_group_states",
    "decode_frame",
    "encode_frame",
    "make_local_chain_communicators",
    "make_local_communicators",
    "make_local_tree_communicators",
    "make_topology_communicators",
    "pipe_channel_pair",
    "run_fabric_fit",
    "run_process_fit",
    "socket_channel",
]
