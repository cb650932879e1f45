"""Multi-host distributed runtime: the fabric backend.

``backend="fabric"`` runs the same rank loop
(:func:`repro.runtime.worker.run_rank`) under the same supervisor
(:class:`repro.runtime.launcher.Supervisor`) as ``backend="process"``; this
package is what differs — an ``i×j×k@machines``
:class:`~repro.api.config.ParallelConfig` turned into real processes on
real (or simulated-localhost) hosts, with the ``j`` epoch rows fanned out
into pipelined ranks:

* :mod:`.wire` — the rank/machine layout, the per-rank link plan over raw
  TCP sockets, and :class:`~.wire.RankComms`, the bundle of communicators
  (world, row, slot, leader, token chain) every rank loop runs over.
* :mod:`.agent` — the per-host daemon (``repro.cli agent --join``) that
  rendezvouses with the controller and spawns its slice of the rank grid.
* :mod:`.worker` — the fabric rank's seat around the shared loop: dial the
  controller, wire each generation's sockets, die with the host agent.
* :mod:`.launcher` — :class:`AgentSpawner` (rendezvous, agent fleet,
  machine-loss detection and replacement) and :func:`run_fabric_fit`, the
  fabric analogue of :func:`~repro.runtime.launcher.run_process_fit`.
"""

from .agent import agent_main, parse_hostport
from .launcher import AgentSpawner, run_fabric_fit
from .wire import RankComms, coords_of, link_plan, machine_of, rank_of, ranks_of_machine
from .worker import fabric_rank_shell

__all__ = [
    "AgentSpawner",
    "RankComms",
    "agent_main",
    "coords_of",
    "fabric_rank_shell",
    "link_plan",
    "machine_of",
    "parse_hostport",
    "rank_of",
    "ranks_of_machine",
    "run_fabric_fit",
]
