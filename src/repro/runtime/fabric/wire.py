"""Fabric wire protocol: rank layout, link plans, socket wiring.

The fabric runs ``world = i × j × k`` ranks spread over ``machines`` host
agents.  This module is the *static* half of the subsystem: pure functions
from a :class:`~repro.parallel.config.ParallelConfig` to

* the *rank layout* — global rank ``m·(i·j) + r·i + s`` for memory group
  ``m``, epoch row ``r``, mini-batch shard ``s``; machine ``m // (k /
  machines)`` owns the group (memory never syncs across machines, §3.2.3);
* the *link plan* — which point-to-point sockets each rank must hold so
  its communicators exist: the world star (barriers/control), one slot
  star per ``(m, s)`` (the j epoch rows that share a gradient slot), one
  row star per ``(m, r)`` (the i shards that share a batch), the leader
  overlay (star/ring/tree — the cross-machine gradient allreduce), and the
  token chain that pipelines the canonical pass through a group's rows.

Wiring is deadlock-free without threads: every rank first *dials* all its
outbound links (higher rank dials lower; TCP's listen backlog completes
the handshakes whether or not the peer has reached ``accept`` yet, and
:func:`~repro.runtime.transport.connect_with_retry` rides out a listener
that has not bound yet), sends a ``link/hello`` identifying the link key
and generation, then sequentially accepts its known inbound count and
matches each connection by its hello.  Stale hellos from a torn-down
generation are closed and ignored.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..collectives import ChainCommunicator, Communicator, TreeCommunicator
from ..transport import Channel, RetryPolicy, SocketEndpoint, socket_channel

__all__ = [
    "Link",
    "RankComms",
    "accept_links",
    "coords_of",
    "dial_links",
    "link_plan",
    "machine_of",
    "open_listener",
    "rank_of",
    "ranks_of_machine",
]


# ---------------------------------------------------------------- layout
def rank_of(plan, m: int, r: int, s: int) -> int:
    """Global rank of (group ``m``, epoch row ``r``, shard ``s``)."""
    return m * plan.i * plan.j + r * plan.i + s


def coords_of(plan, rank: int) -> Tuple[int, int, int]:
    """Inverse of :func:`rank_of` → ``(m, r, s)``."""
    ij = plan.i * plan.j
    m, rem = divmod(rank, ij)
    r, s = divmod(rem, plan.i)
    return m, r, s


def machine_of(plan, rank: int) -> int:
    """The agent that owns ``rank`` (groups are machine-contiguous)."""
    return coords_of(plan, rank)[0] // plan.copies_per_machine


def ranks_of_machine(plan, machine: int) -> List[int]:
    """The contiguous global-rank slice agent ``machine`` spawns."""
    per = plan.copies_per_machine * plan.i * plan.j
    return list(range(machine * per, (machine + 1) * per))


# ------------------------------------------------------------- link plan
@dataclass(frozen=True)
class Link:
    """One point-to-point socket a rank must hold.

    ``key`` names the (communicator, edge) uniquely — both endpoints use
    it to pair the connection with its role; ``dial`` says whether this
    side initiates (higher global rank dials lower, uniformly, so each
    edge is dialed exactly once).
    """

    key: str
    peer: int
    dial: bool


def _edges(plan, topology: str) -> List[Tuple[str, int, int]]:
    """Every (key, rank_a, rank_b) socket edge of the fabric."""
    i, j, k = plan.i, plan.j, plan.k
    world = i * j * k
    edges: List[Tuple[str, int, int]] = []
    # world star (barriers, gather, control collectives): root = rank 0
    for x in range(1, world):
        edges.append((f"world:{x}", 0, x))
    # slot stars: the j epoch rows of (m, s); leader is row 0
    for m in range(k):
        for s in range(i):
            lead = rank_of(plan, m, 0, s)
            for r in range(1, j):
                edges.append((f"slot:{m}:{s}:{r}", lead, rank_of(plan, m, r, s)))
    # row stars: the i shards of (m, r); leader is shard 0
    for m in range(k):
        for r in range(j):
            lead = rank_of(plan, m, r, 0)
            for s in range(1, i):
                edges.append((f"row:{m}:{r}:{s}", lead, rank_of(plan, m, r, s)))
    # leader overlay: slot leaders ordered by block index b = m·i + s carry
    # the cross-machine gradient allreduce on the configured topology
    leaders = [
        rank_of(plan, b // i, 0, b % i) for b in range(i * k)
    ]
    nb = len(leaders)
    if topology == "ring":
        for b in range(nb - 1):
            edges.append((f"lead:{b + 1}", leaders[b], leaders[b + 1]))
    elif topology == "tree":
        for b in range(1, nb):
            edges.append((f"lead:{b}", leaders[(b - 1) // 2], leaders[b]))
    else:  # star
        for b in range(1, nb):
            edges.append((f"lead:{b}", leaders[0], leaders[b]))
    # canonical-pass token chain: row leader r-1 → row leader r inside a
    # group (the pipelining edge)
    for m in range(k):
        for r in range(1, j):
            edges.append(
                (f"tok:{m}:{r}", rank_of(plan, m, r - 1, 0), rank_of(plan, m, r, 0))
            )
    return edges


def link_plan(plan, topology: str) -> List[List[Link]]:
    """Per-rank link lists for the whole fabric (higher rank dials)."""
    world = plan.i * plan.j * plan.k
    plans: List[List[Link]] = [[] for _ in range(world)]
    for key, a, b in _edges(plan, topology):
        lo, hi = (a, b) if a < b else (b, a)
        plans[hi].append(Link(key=key, peer=lo, dial=True))
        plans[lo].append(Link(key=key, peer=hi, dial=False))
    return plans


# ---------------------------------------------------------------- wiring
def open_listener(host: str = "127.0.0.1", backlog: int = 64) -> socket.socket:
    """A listening socket on an ephemeral port (the rank's accept side)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, 0))
    sock.listen(backlog)
    return sock


def dial_links(
    links: List[Link],
    addrs: Dict[int, Tuple[str, int]],
    rank: int,
    generation: int,
    retry: Optional[RetryPolicy] = None,
    default_timeout: float = 120.0,
) -> Dict[str, Channel]:
    """Dial every outbound link and announce each with a ``link/hello``.

    No replies are awaited — TCP's backlog guarantees the dials complete
    even while the peers are still dialing their own outbound links, which
    is what makes single-threaded wiring deadlock-free.
    """
    channels: Dict[str, Channel] = {}
    try:
        for link in links:
            if not link.dial:
                continue
            host, port = addrs[link.peer]
            ch = socket_channel(host, port, retry, default_timeout=default_timeout)
            ch.send(
                "link/hello",
                {"key": link.key, "rank": rank, "generation": generation},
            )
            channels[link.key] = ch
    except BaseException:
        for ch in channels.values():
            ch.close()
        raise
    return channels


def accept_links(
    listener: socket.socket,
    links: List[Link],
    generation: int,
    handshake_timeout: float = 30.0,
    default_timeout: float = 120.0,
) -> Dict[str, Channel]:
    """Accept the known inbound link count, pairing each by its hello.

    Connections carrying an unknown key or a stale generation (a dial
    left over from a torn-down wiring round) are closed and skipped.
    """
    import time

    expected = {link.key for link in links if not link.dial}
    channels: Dict[str, Channel] = {}
    deadline = time.monotonic() + handshake_timeout
    try:
        while expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                from ..transport import TransportTimeout

                raise TransportTimeout(
                    f"still waiting for inbound links {sorted(expected)} "
                    f"after {handshake_timeout:.1f}s"
                )
            listener.settimeout(remaining)
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            ch = Channel(SocketEndpoint(sock), default_timeout=default_timeout)
            try:
                hello = ch.expect("link/hello", timeout=handshake_timeout)
            except Exception:
                ch.close()
                continue
            key = hello.meta.get("key")
            if hello.meta.get("generation") != generation or key not in expected:
                ch.close()  # stale generation or duplicate — drop it
                continue
            expected.discard(key)
            channels[key] = ch
    except BaseException:
        for ch in channels.values():
            ch.close()
        raise
    finally:
        listener.settimeout(None)
    return channels


# ---------------------------------------------------------- communicators
@dataclass
class RankComms:
    """Every communicator one rank holds for one generation.

    * ``world`` — all ranks (star, root = rank 0): barriers and control.
    * ``row`` — the i shards of this rank's ``(m, r)`` row (star, root =
      shard 0): the canonical pass's read barriers and ordered writeback.
    * ``slot`` — the j epoch rows of this rank's ``(m, s)`` slot (star,
      root = row 0): row-order gather of one-term partials + fan-out of
      the reduced gradient.  A rank that owns all its rows holds the
      trivial world of one.
    * ``leader`` — slot leaders only (row 0), ordered by block ``m·i+s``
      on the configured topology: the cross-rank gradient allreduce.
    * ``tok_prev`` / ``tok_next`` — the canonical-pass token chain edges.
    """

    world: Communicator
    row: Communicator
    slot: Communicator
    leader: Optional[object] = None
    tok_prev: Optional[Channel] = None
    tok_next: Optional[Channel] = None

    @classmethod
    def from_channels(
        cls, plan, topology: str, rank: int, channels: Dict[str, Channel]
    ) -> "RankComms":
        """A fabric rank's communicators from its keyed link channels."""
        i, j, k = plan.i, plan.j, plan.k
        m, r, s = coords_of(plan, rank)

        def star(idx: int, size: int, key: str) -> Communicator:
            if size == 1:
                return Communicator(0, 1)
            if idx == 0:
                return Communicator(
                    0, size,
                    peer_channels=[channels[f"{key}{x}"] for x in range(1, size)],
                )
            return Communicator(idx, size, root_channel=channels[f"{key}{idx}"])

        leader = None
        if r == 0:
            b, nb = m * i + s, i * k
            if nb > 1 and topology == "ring":
                leader = ChainCommunicator(
                    b, nb,
                    prev_channel=channels.get(f"lead:{b}"),
                    next_channel=channels.get(f"lead:{b + 1}"),
                )
            elif nb > 1 and topology == "tree":
                leader = TreeCommunicator(
                    b, nb,
                    parent_channel=channels.get(f"lead:{b}"),
                    child_channels=[
                        channels[f"lead:{c}"]
                        for c in (2 * b + 1, 2 * b + 2)
                        if c < nb
                    ],
                )
            else:
                leader = star(b, nb, "lead:")
        return cls(
            world=star(rank, i * j * k, "world:"),
            row=star(s, i, f"row:{m}:{r}:"),
            slot=star(r, j, f"slot:{m}:{s}:"),
            leader=leader,
            tok_prev=channels.get(f"tok:{m}:{r}") if (s == 0 and r > 0) else None,
            tok_next=(
                channels.get(f"tok:{m}:{r + 1}") if (s == 0 and r < j - 1) else None
            ),
        )

    def close(self) -> None:
        """Close every underlying channel (cascades EOF to all peers —
        the fast park signal when a rank or a whole machine is lost)."""
        for part in (
            self.world, self.row, self.slot, self.leader,
            self.tok_prev, self.tok_next,
        ):
            if part is not None:
                part.close()
