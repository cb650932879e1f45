"""Mail cache with batched COMB semantics (paper §2.1, Eq. 8).

When an edge (u, v, e, t) appears, two mails are generated (Eq. 1–2):

    m_u = { s_u || s_v || Φ(t - t_u^-) || e_uv }

Because of the information-leak problem the mails are *cached* and only
applied to the memory when the node is next referenced — the "reversed
computation order".  Batching compounds this: all mails of one batch are
computed from the memory state *before* the batch (staleness) and COMB keeps
only one mail per node (information loss).  Both inaccuracies are therefore
inherent to this data structure, which is exactly what Figs. 2(a), 3 and 8
measure.

The mailbox stores the *raw* mail payload ``[s_self || s_other || e]`` plus
the mail timestamp; the time encoding Φ(t - t^-) is applied by the memory
updater at read time, when Δt is known.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn.tensor import scatter_add


class Mailbox:
    """One mail slot per node (COMB = most-recent, TGN-attn's choice) or a
    running mean over the batch (COMB = 'mean')."""

    def __init__(
        self,
        num_nodes: int,
        memory_dim: int,
        edge_dim: int = 0,
        comb: str = "recent",
    ) -> None:
        if comb not in ("recent", "mean"):
            raise ValueError(f"unknown COMB {comb!r}")
        self.num_nodes = num_nodes
        self.memory_dim = memory_dim
        self.edge_dim = edge_dim
        self.comb = comb
        self.mail_dim = 2 * memory_dim + edge_dim
        self.mail = np.zeros((num_nodes, self.mail_dim), dtype=np.float32)
        self.mail_time = np.zeros(num_nodes, dtype=np.float64)
        self.has_mail = np.zeros(num_nodes, dtype=bool)

    # ------------------------------------------------------------------ read
    def read(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of (mail, mail_time, has_mail) for ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return (
            self.mail[nodes].copy(),
            self.mail_time[nodes].copy(),
            self.has_mail[nodes].copy(),
        )

    # ----------------------------------------------------------------- write
    def deposit(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_memory: np.ndarray,
        dst_memory: np.ndarray,
        times: np.ndarray,
        edge_feats: Optional[np.ndarray] = None,
    ) -> None:
        """Deposit the two mails of each event in a batch, applying COMB.

        ``src_memory`` / ``dst_memory`` are the (stale) memory rows of the
        endpoints *before* this batch's update — per the paper, mails use
        "the outdated node memory at the last batch of graph events".
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        n = len(src)
        if not (len(dst) == len(times) == n):
            raise ValueError("event arrays must align")
        if n == 0:
            return
        if self.edge_dim:
            if edge_feats is None:
                raise ValueError("mailbox configured with edge features")
            ef = np.asarray(edge_feats, dtype=np.float32)
        else:
            ef = np.zeros((n, 0), dtype=np.float32)

        mail_src = np.concatenate([src_memory, dst_memory, ef], axis=1)
        mail_dst = np.concatenate([dst_memory, src_memory, ef], axis=1)
        nodes = np.concatenate([src, dst])
        mails = np.concatenate([mail_src, mail_dst], axis=0)
        stamps = np.concatenate([times, times])

        if self.comb == "recent":
            # Events are chronological; for equal timestamps later events win.
            # Fancy assignment applies duplicates in order, so writing the
            # concatenated (already time-ordered within src/dst halves) array
            # sorted by time keeps the most recent mail per node.
            order = np.argsort(stamps, kind="stable")
            nodes_o, mails_o, stamps_o = nodes[order], mails[order], stamps[order]
            self.mail[nodes_o] = mails_o
            self.mail_time[nodes_o] = stamps_o
            self.has_mail[nodes_o] = True
        else:  # mean over the batch's mails per node
            sums = np.zeros((self.num_nodes, self.mail_dim), dtype=np.float64)
            scatter_add(sums, nodes, mails.astype(np.float64))
            counts = np.bincount(nodes, minlength=self.num_nodes)
            touched = counts > 0
            self.mail[touched] = (sums[touched] / counts[touched, None]).astype(np.float32)
            latest = np.zeros(self.num_nodes, dtype=np.float64)
            np.maximum.at(latest, nodes, stamps)
            self.mail_time[touched] = latest[touched]
            self.has_mail[touched] = True

    def write_raw(
        self, nodes: np.ndarray, mails: np.ndarray, times: np.ndarray
    ) -> None:
        """Direct slot overwrite — used by the daemon's write path."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return
        self.mail[nodes] = np.asarray(mails, dtype=np.float32)
        self.mail_time[nodes] = np.asarray(times, dtype=np.float64)
        self.has_mail[nodes] = True

    # ------------------------------------------------------------------ misc
    def reset(self) -> None:
        self.mail.fill(0.0)
        self.mail_time.fill(0.0)
        self.has_mail.fill(False)

    def clone(self) -> "Mailbox":
        out = Mailbox(self.num_nodes, self.memory_dim, self.edge_dim, self.comb)
        out.mail[...] = self.mail
        out.mail_time[...] = self.mail_time
        out.has_mail[...] = self.has_mail
        return out

    def copy_from(self, other: "Mailbox") -> None:
        if (other.num_nodes, other.mail_dim) != (self.num_nodes, self.mail_dim):
            raise ValueError("mailbox shape mismatch")
        self.mail[...] = other.mail
        self.mail_time[...] = other.mail_time
        self.has_mail[...] = other.has_mail

    def nbytes(self) -> int:
        return self.mail.nbytes + self.mail_time.nbytes + self.has_mail.nbytes
