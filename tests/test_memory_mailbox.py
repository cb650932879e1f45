"""Mailbox + COMB semantics: staleness and information loss by construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Mailbox


def _deposit_single(mb, u, v, t, su, sv, ef=None):
    mb.deposit(
        np.array([u]),
        np.array([v]),
        su.reshape(1, -1),
        sv.reshape(1, -1),
        np.array([t]),
        edge_feats=None if ef is None else ef.reshape(1, -1),
    )


class TestDeposit:
    def test_mail_layout_src_side(self):
        mb = Mailbox(4, 2, edge_dim=1)
        su = np.array([1.0, 2.0], dtype=np.float32)
        sv = np.array([3.0, 4.0], dtype=np.float32)
        ef = np.array([9.0], dtype=np.float32)
        _deposit_single(mb, 0, 1, 5.0, su, sv, ef)
        mail, mt, has = mb.read(np.array([0, 1]))
        np.testing.assert_allclose(mail[0], [1, 2, 3, 4, 9])   # {s_u||s_v||e}
        np.testing.assert_allclose(mail[1], [3, 4, 1, 2, 9])   # {s_v||s_u||e}
        assert has.all()
        np.testing.assert_allclose(mt, [5.0, 5.0])

    def test_unknown_comb_rejected(self):
        with pytest.raises(ValueError):
            Mailbox(3, 2, comb="median")

    def test_edge_features_required_when_configured(self):
        mb = Mailbox(3, 2, edge_dim=2)
        with pytest.raises(ValueError):
            mb.deposit(
                np.array([0]), np.array([1]),
                np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.0]),
            )

    def test_misaligned_event_arrays_rejected(self):
        mb = Mailbox(3, 2)
        with pytest.raises(ValueError):
            mb.deposit(np.array([0]), np.array([1, 2]),
                       np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.0]))

    def test_empty_deposit_noop(self):
        mb = Mailbox(3, 2)
        mb.deposit(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                   np.zeros((0, 2)), np.zeros((0, 2)), np.array([]))
        assert not mb.has_mail.any()


class TestCombRecent:
    def test_most_recent_mail_wins(self):
        mb = Mailbox(3, 1)
        mb.deposit(
            np.array([0, 0]),
            np.array([1, 2]),
            np.array([[1.0], [2.0]], dtype=np.float32),
            np.array([[5.0], [6.0]], dtype=np.float32),
            np.array([1.0, 2.0]),
        )
        mail, mt, _ = mb.read(np.array([0]))
        np.testing.assert_allclose(mail[0], [2.0, 6.0])  # the t=2 mail
        assert mt[0] == 2.0

    def test_information_loss_earlier_mail_dropped(self):
        """The defining batching inaccuracy: node 0's t=1 interaction is
        invisible after COMB — only the t=2 one remains."""
        mb = Mailbox(3, 1)
        mb.deposit(
            np.array([0, 0]), np.array([1, 2]),
            np.array([[1.0], [1.0]], dtype=np.float32),
            np.array([[0.0], [0.0]], dtype=np.float32),
            np.array([1.0, 2.0]),
        )
        mail, _, _ = mb.read(np.array([1]))
        assert mb.has_mail[1]          # node 1 got its mail
        mail0, _, _ = mb.read(np.array([0]))
        assert mail0[0, 0] == 1.0      # but node 0 retains only one slot

    def test_cross_batch_most_recent(self):
        mb = Mailbox(3, 1)
        _deposit_single(mb, 0, 1, 1.0, np.array([1.0]), np.array([0.0]))
        _deposit_single(mb, 0, 2, 5.0, np.array([9.0]), np.array([0.0]))
        mail, mt, _ = mb.read(np.array([0]))
        assert mt[0] == 5.0
        assert mail[0, 0] == 9.0

    def test_equal_timestamps_later_event_wins(self):
        mb = Mailbox(3, 1)
        mb.deposit(
            np.array([0, 0]), np.array([1, 2]),
            np.array([[1.0], [2.0]], dtype=np.float32),
            np.array([[0.0], [0.0]], dtype=np.float32),
            np.array([3.0, 3.0]),
        )
        mail, _, _ = mb.read(np.array([0]))
        assert mail[0, 0] == 2.0


class TestCombMean:
    def test_mean_of_batch_mails(self):
        mb = Mailbox(3, 1, comb="mean")
        mb.deposit(
            np.array([0, 0]), np.array([1, 2]),
            np.array([[2.0], [4.0]], dtype=np.float32),
            np.array([[0.0], [0.0]], dtype=np.float32),
            np.array([1.0, 2.0]),
        )
        mail, mt, _ = mb.read(np.array([0]))
        assert mail[0, 0] == pytest.approx(3.0)
        assert mt[0] == 2.0  # latest timestamp

    def test_mean_only_over_touched_nodes(self):
        mb = Mailbox(4, 1, comb="mean")
        _deposit_single(mb, 0, 1, 1.0, np.array([5.0]), np.array([7.0]))
        assert not mb.has_mail[2]
        assert mb.has_mail[0] and mb.has_mail[1]

    @settings(max_examples=40, deadline=None)
    @given(
        num_nodes=st.integers(1, 6),
        n=st.integers(1, 60),
        edge_dim=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_mean_bytes_match_dense_add_at_on_duplicates(
        self, num_nodes, n, edge_dim, seed
    ):
        # a handful of nodes behind many events: every node is hit repeatedly
        rng = np.random.default_rng(seed)
        src = rng.integers(0, num_nodes, n)
        dst = rng.integers(0, num_nodes, n)
        s_mem = rng.standard_normal((n, 2)).astype(np.float32)
        d_mem = rng.standard_normal((n, 2)).astype(np.float32)
        ef = rng.standard_normal((n, edge_dim)).astype(np.float32)
        times = np.sort(rng.uniform(0, 10, n))
        mb = Mailbox(num_nodes, 2, edge_dim=edge_dim, comb="mean")
        mb.deposit(src, dst, s_mem, d_mem, times, edge_feats=ef if edge_dim else None)

        # the kernel the deposit used before: dense np.add.at for both
        nodes = np.concatenate([src, dst])
        mails = np.concatenate(
            [
                np.concatenate([s_mem, d_mem, ef], axis=1),
                np.concatenate([d_mem, s_mem, ef], axis=1),
            ]
        )
        sums = np.zeros((num_nodes, mb.mail_dim), dtype=np.float64)
        counts = np.zeros(num_nodes, dtype=np.int64)
        np.add.at(sums, nodes, mails.astype(np.float64))
        np.add.at(counts, nodes, 1)
        touched = counts > 0
        expected = np.zeros((num_nodes, mb.mail_dim), dtype=np.float32)
        expected[touched] = (sums[touched] / counts[touched, None]).astype(np.float32)
        assert mb.mail.tobytes() == expected.tobytes()
        assert np.array_equal(mb.has_mail, touched)


class TestStateManagement:
    def test_write_raw(self):
        mb = Mailbox(3, 1)
        mb.write_raw(np.array([2]), np.array([[1.0, 2.0]], dtype=np.float32), np.array([4.0]))
        mail, mt, has = mb.read(np.array([2]))
        np.testing.assert_allclose(mail[0], [1, 2])
        assert has[0] and mt[0] == 4.0

    def test_reset(self):
        mb = Mailbox(3, 1)
        _deposit_single(mb, 0, 1, 1.0, np.array([1.0]), np.array([2.0]))
        mb.reset()
        assert not mb.has_mail.any()
        assert mb.mail.sum() == 0

    def test_clone_deep(self):
        mb = Mailbox(3, 1)
        _deposit_single(mb, 0, 1, 1.0, np.array([1.0]), np.array([2.0]))
        c = mb.clone()
        c.mail[0, 0] = 42.0
        assert mb.mail[0, 0] != 42.0

    def test_copy_from_mismatch(self):
        with pytest.raises(ValueError):
            Mailbox(3, 1).copy_from(Mailbox(3, 2))

    def test_mail_dim(self):
        assert Mailbox(3, 5, edge_dim=2).mail_dim == 12


@settings(max_examples=30, deadline=None)
@given(
    events=st.integers(1, 40),
    nodes=st.integers(2, 10),
    seed=st.integers(0, 1000),
)
def test_property_recent_comb_equals_last_mail(events, nodes, seed):
    """COMB=recent leaves each node exactly its chronologically last mail."""
    rng = np.random.default_rng(seed)
    mb = Mailbox(nodes, 1)
    src = rng.integers(0, nodes, size=events)
    dst = (src + 1 + rng.integers(0, nodes - 1, size=events)) % nodes
    times = np.sort(rng.uniform(0, 100, size=events))
    su = rng.standard_normal((events, 1)).astype(np.float32)
    sv = rng.standard_normal((events, 1)).astype(np.float32)
    mb.deposit(src, dst, su, sv, times)

    last = {}
    for e in range(events):
        last[int(src[e])] = (np.concatenate([su[e], sv[e]]), times[e])
        last[int(dst[e])] = (np.concatenate([sv[e], su[e]]), times[e])
    for node, (mail, t) in last.items():
        got, gt, has = mb.read(np.array([node]))
        assert has[0]
        np.testing.assert_allclose(got[0], mail, rtol=1e-6)
        assert gt[0] == pytest.approx(t)
