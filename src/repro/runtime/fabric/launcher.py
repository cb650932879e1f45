"""Fabric controller: the agent spawner — rendezvous, fan-out, machine loss.

:class:`AgentSpawner` is the :class:`~repro.runtime.launcher.Supervisor`'s
mechanics for ``backend="fabric"``: instead of "N local child processes"
it manages "N host agents, each spawning its slice of the rank grid".  The
controller is a plain TCP server:

* **rendezvous** — agents dial in (``repro.cli agent --join host:port``)
  and are assigned machine indices in join order; each receives a spawn
  bundle naming the experiment config and the shared-memory segments, and
  starts its contiguous rank range.  Extra agents beyond ``machines`` are
  rejected at the door.  In *managed* mode the controller launches the
  agent processes itself (same entrypoint, via subprocess), so a single
  ``fit(backend="fabric")`` call needs no manual orchestration.
* **wiring** — every rank opens its own listener and reports the address;
  once all hellos of a generation are in, the controller ships each rank
  its link plan (see :mod:`.wire`) and the fabric wires itself
  peer-to-peer — training bytes never route through the controller.
* **death** — one select loop over the listener, agent channels and rank
  channels.  A rank's ``child/exit`` report or control-channel EOF marks
  it dead; heartbeat silence, an agent channel EOF, or a managed agent's
  process exit declare the whole machine lost, which marks every one of
  its ranks dead (their parent watchdogs guarantee the processes are
  going down).
* **replacement** — a lost machine gets a *replacement agent* (a managed
  subprocess, even when the original joined externally: recovery must not
  wait for an operator) that respawns the machine's whole rank range;
  ranks that died on a surviving machine respawn in place.

:func:`run_fabric_fit` is :func:`~repro.runtime.launcher.run_process_fit`
with this spawner — same iteration-plan arithmetic, commit slab, shadow
slots and ``(meta, arrays, group_states)`` result contract — so the
Session treats the two backends identically.  Shared-memory segments are
created by the controller; agents on the same box attach by name (the
honest localhost simplification — the wire protocol itself never assumes
it).
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...obs import get_registry
from ...testing import failpoints
from ..launcher import Supervisor, _run_fit
from ..sharedmem import SharedGroupState
from ..transport import Channel, SocketEndpoint, TransportError
from .wire import link_plan, machine_of, ranks_of_machine

__all__ = ["AgentSpawner", "run_fabric_fit"]

#: agents ping every HB_INTERVAL seconds; HB_TIMEOUT of silence loses the machine
HB_INTERVAL = 2.0
HB_TIMEOUT = 10.0


@dataclass
class _Agent:
    """Controller-side record of one joined host agent."""

    channel: Channel
    proc: Optional[subprocess.Popen] = None  # managed agents only
    last_hb: float = field(default_factory=time.monotonic)
    alive: bool = True


def _agent_env() -> dict:
    """Child env with the repro package importable regardless of how the
    controller itself was launched."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class AgentSpawner:
    """Rendezvous server + host-agent fleet for one fabric fit (the
    spawner interface is documented on
    :class:`~repro.runtime.launcher.Supervisor`)."""

    generations = None  # every generation is wired on demand from a link plan

    def __init__(self, plan, topology: str, rendezvous: str, managed: bool) -> None:
        self.plan = plan
        self.world = plan.i * plan.j * plan.k
        self.rendezvous = rendezvous
        self.managed = managed
        self.listener: Optional[socket.socket] = None
        self.address: Tuple[str, int] = ("", 0)   # where the listener bound
        self.agents: Dict[int, _Agent] = {}
        self.pending_machines: List[int] = list(range(plan.machines))
        self.unassigned_procs: List[subprocess.Popen] = []
        self.chans: Dict[int, Channel] = {}
        self.rank_addrs: Dict[int, Tuple[str, int]] = {}
        self.awaiting_hello: Set[int] = set()
        self.dead_machines: Set[int] = set()
        self._plans = link_plan(plan, topology)

    # ------------------------------------------------------------ lifecycle
    def start(self, sup: Supervisor) -> None:
        self.sup = sup
        host, port_s = self.rendezvous.rsplit(":", 1)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host or "127.0.0.1", int(port_s)))
        sock.listen(self.plan.machines + self.world + 8)
        self.listener = sock
        self.address = sock.getsockname()[:2]
        self.awaiting_hello = set(range(self.world))
        if self.managed:
            for _ in range(self.plan.machines):
                self._launch_agent()

    def _launch_agent(self) -> None:
        env = _agent_env()
        if self.sup.restarts > 0:
            # a replacement agent must not re-arm the inherited failpoint
            # schedule: its children neutralize in-process, but the agent's
            # own environment would re-export the specs to every future
            # spawn — scrub at the source
            env.pop(failpoints.ENV_VAR, None)
        self.unassigned_procs.append(
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "agent", "--quiet",
                 "--join", "{}:{}".format(*self.address)],
                env=env,
            )
        )

    def _send_spawn(self, mi: int, ranks: List[int]) -> None:
        bundle = {**self.sup.spawn_bundle(), "controller": list(self.address)}
        try:
            self.agents[mi].channel.send(
                "spawn", meta={"ranks": ranks, "bundle": bundle}
            )
        except TransportError:
            self._agent_down(mi, "spawn request failed")

    def spawn(self, rank: int) -> None:
        """Respawn a dead rank: in place on a surviving machine, or — once
        per lost machine — through a replacement agent whose welcome
        respawns the machine's whole range."""
        self.awaiting_hello.add(rank)
        mi = machine_of(self.plan, rank)
        if mi not in self.dead_machines:
            self._send_spawn(mi, [rank])
        elif mi not in self.pending_machines:
            self.pending_machines.append(mi)
            self._launch_agent()

    def kill(self, rank: int) -> None:
        ag = self.agents.get(machine_of(self.plan, rank))
        if ag is not None and ag.alive:
            try:
                ag.channel.send("kill", meta={"rank": rank})
            except TransportError:
                pass

    def wire(self, deadline: float, finalize: bool = False) -> None:
        """(Re-)rendezvous — agents join, (re)spawned ranks hello — then
        ship every live rank its link plan.  Finalize replays await the
        hellos too, so the monitor's wedge-killer cannot mistake a
        still-booting rank for a dead one, but get no wire plan: they never
        open collectives."""
        sup = self.sup
        while True:
            # a machine lost *during* this rendezvous (its agent's EOF can
            # trail its ranks' deaths) would leave the wait below stuck on
            # hellos nobody can send: replace it here and now
            for mi in self.dead_machines.difference(self.pending_machines):
                for rank in ranks_of_machine(self.plan, mi):
                    if sup.status[rank] != "done":
                        self.spawn(rank)
            if not (self.pending_machines or self.awaiting_hello):
                break
            if time.monotonic() > deadline:
                sup.fail(
                    f"fabric rendezvous at {self.address} timed out waiting for "
                    f"machines {self.pending_machines} / "
                    f"ranks {sorted(self.awaiting_hello)}"
                )
            self.pump(0.5)
        if finalize:
            return
        for rank, st in sup.status.items():
            if st == "done":
                continue
            links = []
            for link in self._plans[rank]:
                entry = {"key": link.key, "peer": link.peer, "dial": link.dial}
                if link.dial:
                    entry["host"], entry["port"] = self.rank_addrs[link.peer]
                links.append(entry)
            try:
                self.chans[rank].send(
                    "wire", meta={"generation": sup.generation, "links": links}
                )
            except TransportError:
                # keep wiring the rest: peers waiting on this rank fail their
                # handshake and park, instead of idling unwired until the
                # wedge-killer's grace expires
                sup.mark_dead(rank, "died before wiring")

    # ---------------------------------------------------------- event pump
    def pump(self, timeout: float) -> None:
        sup = self.sup
        waitables: Dict[object, Tuple[str, Optional[int]]] = {
            self.listener: ("listen", None)
        }
        for mi, ag in self.agents.items():
            if ag.alive:
                waitables[ag.channel.endpoint.sock] = ("agent", mi)
        for rank, ch in self.chans.items():
            if sup.status[rank] in ("running", "parked"):
                waitables[ch.endpoint.sock] = ("rank", rank)
        try:
            ready, _, _ = select.select(list(waitables), [], [], timeout)
        except OSError:  # pragma: no cover - a racing close
            ready = []
        for obj in ready:
            kind, key = waitables[obj]
            if kind == "listen":
                self._accept()
            elif kind == "agent":
                self._drain_agent(key)
            elif not sup.drain(key, self.chans[key]):
                sup.mark_dead(key, "rank control channel closed")
        now = time.monotonic()
        for mi, ag in self.agents.items():
            if not ag.alive:
                continue
            if ag.proc is not None and ag.proc.poll() is not None:
                self._agent_down(
                    mi, f"agent process exited with code {ag.proc.returncode}"
                )
            elif now - ag.last_hb > HB_TIMEOUT:
                self._agent_down(mi, f"no heartbeat for {HB_TIMEOUT:.0f}s")

    def _accept(self) -> None:
        try:
            self.listener.settimeout(0.0)
            sock, _ = self.listener.accept()
        except (OSError, socket.timeout):
            return
        finally:
            self.listener.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        ch = Channel(SocketEndpoint(sock), default_timeout=self.sup.timeout)
        try:
            frame = ch.recv(timeout=10.0)
        except TransportError:
            ch.close()
            return
        if frame.tag == "hello/agent":
            self._admit_agent(ch, frame.meta)
        elif frame.tag == "hello/rank" and int(frame.meta["rank"]) in self.sup.status:
            rank = int(frame.meta["rank"])
            old = self.chans.pop(rank, None)
            if old is not None:
                old.close()
            self.chans[rank] = ch
            self.rank_addrs[rank] = (frame.meta["host"], int(frame.meta["port"]))
            self.sup.status[rank] = "running"
            self.awaiting_hello.discard(rank)
        else:
            ch.close()

    def _admit_agent(self, ch: Channel, meta: dict) -> None:
        if not self.pending_machines:
            # agent count exceeds the plan's machines: turn it away loudly
            try:
                ch.send(
                    "error",
                    meta={
                        "error": f"fabric already has {self.plan.machines} agents "
                        f"(plan {self.plan.label()})"
                    },
                )
            except TransportError:
                pass
            ch.close()
            return
        mi = self.pending_machines.pop(0)
        pid = int(meta.get("pid", 0))
        proc = next((p for p in self.unassigned_procs if p.pid == pid), None)
        if proc is not None:
            self.unassigned_procs.remove(proc)
        old = self.agents.get(mi)
        if old is not None:
            old.channel.close()
        self.agents[mi] = _Agent(channel=ch, proc=proc)
        self.dead_machines.discard(mi)
        ch.send(
            "welcome",
            meta={
                "agent_id": mi,
                "machines": self.plan.machines,
                "time": time.time(),
                "hb_interval": HB_INTERVAL,
            },
        )
        self._send_spawn(mi, ranks_of_machine(self.plan, mi))
        self.sup.instant("agent-join", machine=mi, generation=self.sup.generation)

    def _drain_agent(self, mi: int) -> None:
        ag = self.agents[mi]
        if not ag.alive:
            return  # lost earlier in this pump pass; its socket is closed
        ch = ag.channel
        try:
            while ch.poll(0.0):
                frame = ch.recv(timeout=1.0)
                if frame.tag == "hb":
                    ag.last_hb = time.monotonic()
                elif frame.tag == "child/exit":
                    rank = int(frame.meta["rank"])
                    if rank in self.chans:  # a result may have raced the exit
                        self.sup.drain(rank, self.chans[rank])
                    self.sup.mark_dead(
                        rank,
                        f"rank process exited with code {frame.meta.get('code', 0)}",
                    )
        except TransportError:
            self._agent_down(mi, "agent control channel closed")

    def _agent_down(self, mi: int, why: str) -> None:
        """A machine is lost: every non-done rank on it is dead (their
        parent watchdogs are taking the processes down right now)."""
        ag = self.agents.get(mi)
        if ag is None or not ag.alive:
            return
        ag.alive = False
        ag.channel.close()
        if ag.proc is not None:
            try:
                ag.proc.kill()
            except OSError:
                pass
        self.dead_machines.add(mi)
        get_registry().counter("recovery/machine_losses").add()
        self.sup.instant("machine-lost", machine=mi, reason=why)
        for rank in ranks_of_machine(self.plan, mi):
            self.sup.mark_dead(rank, f"host agent {mi} lost: {why}")

    # ------------------------------------------------------------- teardown
    def close(self, kill: bool) -> None:
        """Orderly (``kill=False``: agents shut down once their ranks have
        exited) or hard teardown; idempotent."""
        for rank, ch in self.chans.items():
            if kill and self.sup.status[rank] in ("parked", "running"):
                try:
                    ch.send("abort")
                except TransportError:
                    pass
            ch.close()
        for ag in self.agents.values():
            if ag.alive:
                try:
                    ag.channel.send("shutdown", meta={"kill": kill})
                except TransportError:
                    pass
        procs = [
            ag.proc for ag in self.agents.values() if ag.proc is not None
        ] + self.unassigned_procs
        deadline = time.monotonic() + 10.0
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
        for ag in self.agents.values():
            ag.alive = False
            ag.channel.close()
        if self.listener is not None:
            self.listener.close()
            self.listener = None


# --------------------------------------------------------------- train fit
def run_fabric_fit(
    config,
    trainer,
    *,
    rendezvous: Optional[str] = None,
    managed_agents: bool = True,
    agents: Optional[int] = None,
    **fit,
) -> Tuple[dict, Dict[str, np.ndarray], List[SharedGroupState]]:
    """Execute ``config`` as ``i×j×k`` ranks over ``machines`` host agents,
    continuing from ``trainer``'s current state — the fabric analogue of
    :func:`~repro.runtime.launcher.run_process_fit` with the ``j``
    dimension fanned out into real pipelined ranks.  ``**fit`` takes every
    ``run_process_fit`` keyword (``epochs``, ``max_iterations``,
    ``eval_every_sweeps``, ``verbose``, ``timeout``, ``recovery``,
    ``run_state``, ``checkpoint_dir``, ``checkpoint_every``) with the same
    meaning, so a hard-killed fabric fit resumes bitwise via
    ``Session.resume`` exactly like a process one.

    ``rendezvous`` is the controller's bind address (default an ephemeral
    localhost port).  ``managed_agents=True`` spawns the host agents as
    subprocesses; ``False`` waits for externally-launched
    ``repro.cli agent --join`` processes (the CI smoke mode).  ``agents``
    optionally asserts the expected agent count — a fabric plan needs
    exactly ``plan.machines`` of them.

    Returns ``(meta, arrays, group_states)`` with the identical contract
    (and, by construction, bitwise-identical contents) as the process and
    local backends; feed it to
    :func:`~repro.runtime.launcher.apply_process_result`.
    """
    plan = config.parallel
    if agents is not None and agents != plan.machines:
        raise ValueError(
            f"plan {plan.label()} needs exactly {plan.machines} agent(s), "
            f"got agents={agents}"
        )
    return _run_fit(
        config,
        trainer,
        AgentSpawner(
            plan, config.train.topology, rendezvous or "127.0.0.1:0", managed_agents
        ),
        **fit,
    )
