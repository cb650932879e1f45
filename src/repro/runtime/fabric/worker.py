"""Fabric rank entrypoint: the socket-wired seat around the shared rank loop.

A fabric rank is one ``(m, r, s)`` cell of the full ``i × j × k`` grid
running :func:`repro.runtime.worker.run_rank` with ``fanout=True`` — one
canonical-pass batch and one loss term per sub-step.  This module holds
only what a socket-wired rank on a host agent needs *around* that loop:

* **control channel** — the rank dials the controller itself (the agent
  never relays traffic), opens its own listener and reports the address
  in ``hello/rank``; that address is how peers reach it.
* **wiring** — each generation arrives as a ``wire`` frame naming the
  rank's links; the rank dials all outbound links, then accepts the
  inbound ones (see :mod:`.wire`) and bundles them into a
  :class:`~.wire.RankComms`.
* **machine scope** — a parent-death watchdog turns a SIGKILLed agent into
  dead ranks immediately (daemonized children do not outlive the machine
  they simulate), and the ``fabric.machine`` failpoint's ``crash`` callback
  SIGKILLs the whole host agent — the machine-loss drill
  ``differential_chaos_fit`` runs.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Dict, Tuple

import numpy as np

from ...api.config import ExperimentConfig
from ..launcher import _worker_shell
from ..transport import Channel, RetryPolicy, socket_channel
from ..worker import run_rank
from .wire import Link, RankComms, accept_links, dial_links, machine_of, open_listener

__all__ = ["fabric_rank_shell"]


def _start_parent_watchdog(poll: float = 0.5) -> None:
    """Exit hard when the parent (the host agent) dies.

    A SIGKILLed agent cannot clean up its children; on Linux they reparent
    (getppid changes), which this thread converts into immediate death —
    so losing an agent really does take its whole machine down.
    """
    parent = os.getppid()

    def watch() -> None:
        while True:
            if os.getppid() != parent:
                os._exit(1)
            time.sleep(poll)

    threading.Thread(target=watch, daemon=True, name="ppid-watchdog").start()


def _wire(
    ctrl: Channel,
    listener: socket.socket,
    rank: int,
    plan,
    topology: str,
    retry: RetryPolicy,
    collective_timeout: float,
) -> RankComms:
    """Receive the controller's link plan and build this generation's
    communicators (dial-all-then-accept, see :mod:`.wire`)."""
    frame = ctrl.expect("wire")
    generation = int(frame.meta["generation"])
    links = [
        Link(key=d["key"], peer=int(d["peer"]), dial=bool(d["dial"]))
        for d in frame.meta["links"]
    ]
    addrs = {
        int(d["peer"]): (d["host"], int(d["port"]))
        for d in frame.meta["links"]
        if d["dial"]
    }
    dialed = dial_links(
        links, addrs, rank, generation, retry, default_timeout=collective_timeout
    )
    try:
        accepted = accept_links(
            listener,
            links,
            generation,
            handshake_timeout=retry.handshake_timeout,
            default_timeout=collective_timeout,
        )
    except BaseException:
        for ch in dialed.values():
            ch.close()
        raise
    return RankComms.from_channels(plan, topology, rank, {**dialed, **accepted})


def fabric_rank_shell(rank: int, bundle: dict) -> None:
    """Process target the host agent spawns for each of its ranks: dial
    the controller, run the rank, report ``result``/``error``."""
    _start_parent_watchdog()
    retry = RetryPolicy()
    host, port = bundle["controller"]
    # a rank that cannot reach the controller has nobody to report to: it
    # exits nonzero and the agent's child/exit frame tells the story
    ctrl = socket_channel(host, port, retry, default_timeout=float(bundle["timeout"]))
    _worker_shell(_fabric_rank, rank, ctrl, {"bundle": bundle, "retry": retry})


def _fabric_rank(
    rank: int, ctrl: Channel, *, bundle: dict, retry: RetryPolicy
) -> Tuple[dict, Dict[str, np.ndarray]]:
    # ---- rendezvous first, so every later failure has a channel the
    # controller listens on: my listener address is how peers reach me
    listener = open_listener()
    try:
        lhost, lport = listener.getsockname()
        ctrl.send(
            "hello/rank",
            meta={
                "rank": rank,
                "host": lhost,
                "port": lport,
                "pid": os.getpid(),
                "generation": int(bundle["generation"]),
            },
        )
        cfg = ExperimentConfig.from_dict(bundle["config_dict"])
        plan, topology = cfg.parallel, cfg.train.topology
        agent_pid = int(bundle["agent_pid"])

        def kill_machine() -> None:
            # take the whole host down, not just this rank — siblings die
            # through their parent watchdogs
            try:
                os.kill(agent_pid, signal.SIGKILL)
            except OSError:
                pass

        return run_rank(
            rank,
            ctrl,
            # the trace lane carries the host id so the merged timeline
            # shows which machine every span ran on
            {**bundle, "lane": f"h{machine_of(plan, rank)}.rank{rank}"},
            fanout=True,
            connect=lambda _generation: _wire(
                ctrl, listener, rank, plan, topology, retry,
                float(bundle["collective_timeout"]),
            ),
            kill_machine=kill_machine,
        )
    finally:
        listener.close()
