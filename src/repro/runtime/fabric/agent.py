"""The fabric host agent: ``python -m repro.cli agent --join HOST:PORT``.

One agent runs per machine of an ``i×j×k@machines`` plan.  It dials the
controller's rendezvous socket, identifies itself, and from then on is a
thin process manager for its machine:

* **join** — ``hello/agent`` carries the agent's pid and a local clock
  sample; the ``welcome`` reply assigns the machine index and returns the
  controller's clock, from which the agent computes an NTP-style offset
  (``t_ctrl - (t0 + t1) / 2``) that its ranks use to re-anchor their trace
  timestamps into the controller's timebase.
* **spawn** — the controller ships the spawn bundle every backend's ranks
  start from (config dict, shared segment specs, commit-slab spec — names
  only; the arrays live in shared memory) and a rank list; the agent adds
  its pid and clock offset and starts one daemon process per rank
  running :func:`~repro.runtime.fabric.worker.fabric_rank_shell`.  Ranks
  dial the controller themselves — the agent never relays training
  traffic.
* **heartbeat** — a background thread pings every ``hb_interval`` seconds;
  silence past the controller's timeout declares the machine lost.
* **death** — if the agent dies (the chaos drill SIGKILLs it), its ranks
  die with it through their parent watchdogs; if the *controller* dies,
  the agent kills its children and exits rather than leak a fleet.

The agent is intentionally transport-only: it holds no training state, so
a replacement agent spawned mid-run (machine-loss recovery) is
indistinguishable from an original one.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from typing import Dict, Optional

from ...testing.failpoints import ENV_VAR
from ..transport import Channel, RetryPolicy, TransportError, socket_channel

__all__ = ["agent_main", "parse_hostport"]


def parse_hostport(text: str) -> tuple:
    """``"host:port"`` → ``(host, port)`` (the ``--join`` argument)."""
    if ":" not in text:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    host, port_s = text.rsplit(":", 1)
    return host or "127.0.0.1", int(port_s)


class _LockedChannel:
    """Serialize sends from the heartbeat thread and the main loop (frame
    writes are multi-part; interleaving would corrupt the stream)."""

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self._lock = threading.Lock()

    def send(self, tag: str, meta: Optional[dict] = None) -> None:
        with self._lock:
            self.channel.send(tag, meta=meta or {})

    def recv(self, timeout: Optional[float] = None):
        return self.channel.recv(timeout=timeout)

    def poll(self, timeout: float = 0.0) -> bool:
        return self.channel.poll(timeout)

    def close(self) -> None:
        self.channel.close()


def agent_main(
    join: str,
    *,
    retry: Optional[RetryPolicy] = None,
    timeout: float = 600.0,
    quiet: bool = False,
) -> int:
    """Run the host agent until the controller shuts it down.

    Returns a process exit code: 0 on an orderly shutdown, 1 when the
    controller disappears or the join handshake fails.
    """
    from .worker import fabric_rank_shell

    host, port = parse_hostport(join)
    retry = retry or RetryPolicy()
    try:
        raw = socket_channel(host, port, retry, default_timeout=timeout)
    except TransportError as exc:
        if not quiet:
            print(f"[fabric-agent] cannot reach controller {join}: {exc}")
        return 1
    ctrl = _LockedChannel(raw)
    t0 = time.time()
    ctrl.send("hello/agent", {"pid": os.getpid(), "time": t0})
    try:
        welcome = raw.expect("welcome", timeout=retry.handshake_timeout)
    except TransportError as exc:
        if not quiet:
            print(f"[fabric-agent] join rejected: {exc}")
        ctrl.close()
        return 1
    t1 = time.time()
    agent_id = int(welcome.meta["agent_id"])
    hb_interval = float(welcome.meta.get("hb_interval", 2.0))
    # NTP-style offset: controller clock minus the midpoint of the local
    # send/receive window — ranks add it to their trace epoch anchors
    clock_offset = float(welcome.meta.get("time", t0)) - (t0 + t1) / 2.0
    if not quiet:
        print(f"[fabric-agent] joined as machine {agent_id} (pid {os.getpid()})")

    stop = threading.Event()

    def heartbeat() -> None:
        while not stop.wait(hb_interval):
            try:
                ctrl.send("hb", {"agent_id": agent_id})
            except Exception:
                return  # the main loop will see the dead channel too

    threading.Thread(target=heartbeat, daemon=True, name="fabric-hb").start()

    ctx = mp.get_context("spawn")
    children: Dict[int, mp.Process] = {}
    exit_code = 0
    try:
        while True:
            try:
                if not ctrl.poll(0.25):
                    _reap(children, ctrl)
                    continue
                frame = ctrl.recv(timeout=5.0)
            except TransportError:
                # controller gone: a machine must not outlive its fleet
                exit_code = 1
                break
            if frame.tag == "spawn":
                bundle = dict(frame.meta["bundle"])
                bundle["agent_pid"] = os.getpid()
                bundle["clock_offset"] = clock_offset
                if bundle["clear_failpoints"]:
                    # respawned ranks inherit the agent's environment via
                    # the spawn context — scrub the schedule here too, or a
                    # replacement agent re-arms the very fault it is
                    # recovering from on every future spawn
                    os.environ.pop(ENV_VAR, None)
                for rank in frame.meta["ranks"]:
                    rank = int(rank)
                    old = children.pop(rank, None)
                    if old is not None and old.is_alive():
                        old.kill()
                        old.join(timeout=5.0)
                    proc = ctx.Process(
                        target=fabric_rank_shell,
                        args=(rank, bundle),
                        name=f"fabric-rank{rank}",
                        daemon=True,
                    )
                    proc.start()
                    children[rank] = proc
                if not quiet:
                    print(
                        f"[fabric-agent {agent_id}] spawned ranks "
                        f"{list(map(int, frame.meta['ranks']))} "
                        f"(generation {bundle['generation']})"
                    )
            elif frame.tag == "kill":
                rank = int(frame.meta["rank"])
                proc = children.get(rank)
                if proc is not None and proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
            elif frame.tag == "shutdown":
                if frame.meta.get("kill"):
                    for proc in children.values():
                        if proc.is_alive():
                            proc.kill()
                for proc in children.values():
                    proc.join(timeout=10.0)
                    if proc.is_alive():  # pragma: no cover - last resort
                        proc.kill()
                        proc.join(timeout=5.0)
                break
            _reap(children, ctrl)
    finally:
        stop.set()
        if exit_code != 0:
            for proc in children.values():
                if proc.is_alive():
                    proc.kill()
            for proc in children.values():
                proc.join(timeout=5.0)
        ctrl.close()
    return exit_code


def _reap(children: Dict[int, mp.Process], ctrl: _LockedChannel) -> None:
    """Report dead children once; the controller decides what it means
    (exit 0 after a result frame is normal, anything else is a dead rank)."""
    for rank, proc in list(children.items()):
        if not proc.is_alive():
            proc.join(timeout=0.1)
            try:
                ctrl.send(
                    "child/exit", {"rank": rank, "code": int(proc.exitcode or 0)}
                )
            except Exception:
                pass
            del children[rank]
