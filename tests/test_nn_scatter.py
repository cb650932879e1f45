"""``scatter_add`` against ``np.add.at`` (bytes, not closeness) and the
gradient-ownership rule of ``Tensor._accumulate``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Parameter, Tensor, clip_grad_norm
from repro.nn.tensor import scatter_add

_VALUES = st.floats(-1e3, 1e3, width=32) | st.sampled_from([0.0, -0.0, 1e-30, -1e-30])


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 9))
    row_shape = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))  # () = 1-D table
    m = draw(st.integers(0, 30))  # 0 = empty index
    rows = draw(st.lists(st.integers(-n, n - 1), min_size=m, max_size=m))
    index = np.array(rows, dtype=draw(st.sampled_from([np.int64, np.int32])))
    table_dtype = draw(st.sampled_from([np.float32, np.float64]))
    grad_dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    shape = (m,) + row_shape
    size = int(np.prod(shape))
    flat = np.array(draw(st.lists(_VALUES, min_size=size, max_size=size)), grad_dtype)
    if layout == "transposed":
        grad = flat.reshape(shape[::-1]).T
    elif layout == "strided":
        grad = np.repeat(flat, 2).reshape(shape[:-1] + (2 * shape[-1],))[..., ::2]
    else:
        grad = flat.reshape(shape)
    assert grad.shape == shape
    base_size = n * int(np.prod(row_shape))
    base = draw(st.lists(_VALUES, min_size=base_size, max_size=base_size))
    table = np.array(base, table_dtype).reshape((n,) + row_shape)
    return table, index, grad


class TestScatterAddBytes:
    @settings(max_examples=300, deadline=None)
    @given(_cases())
    def test_bytes_equal_add_at(self, case):
        table, index, grad = case
        expected = table.copy()
        np.add.at(expected, index, grad)
        got = table.copy()
        scatter_add(got, index, grad)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_duplicates_accumulate_in_index_order(self):
        # 1e8 + 1 + 1 in float32 loses both ones; 1 + 1 + 1e8 does not
        table = np.zeros((2, 2), dtype=np.float32)
        grad = np.array([[1e8, 1e8], [1, 1], [1, 1]], dtype=np.float32)
        expected = table.copy()
        np.add.at(expected, np.array([0, 0, 0]), grad)
        scatter_add(table, np.array([0, 0, 0]), grad)
        assert table.tobytes() == expected.tobytes()

    def test_negative_zero_survives(self):
        table = np.array([[-0.0, 1.0]], dtype=np.float32)
        scatter_add(table, np.array([0]), np.array([[-0.0, -0.0]], dtype=np.float32))
        assert np.signbit(table[0, 0])

    @pytest.mark.parametrize("row", [-4, 3, 100, -100])
    def test_out_of_range_row_raises(self, row):
        table = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(IndexError):
            scatter_add(table, np.array([0, row]), np.ones((2, 2), np.float32))
        assert not table.any()

    def test_general_indices_fall_back(self):
        table = np.zeros((3, 4), dtype=np.float32)
        grad = np.ones((3, 2), dtype=np.float32)
        index = (slice(None), np.array([1, 1]))
        expected = table.copy()
        np.add.at(expected, index, grad)
        scatter_add(table, index, grad)
        assert table.tobytes() == expected.tobytes()

    def test_fortran_table_falls_back(self):
        table = np.asfortranarray(np.arange(12, dtype=np.float32).reshape(3, 4))
        grad = np.ones((4, 4), dtype=np.float32)
        index = np.array([2, 0, 2, 1])
        expected = table.copy(order="F")
        np.add.at(expected, index, grad)
        scatter_add(table, index, grad)
        assert table.tobytes(order="A") == expected.tobytes(order="A")

    def test_gather_rows_backward_matches_add_at(self):
        rng = np.random.default_rng(0)
        table = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        index = rng.integers(-7, 7, 40)
        upstream = rng.standard_normal((40, 3)).astype(np.float32)
        table.gather_rows(index).backward(upstream)
        expected = np.zeros((7, 3), dtype=np.float32)
        np.add.at(expected, index, upstream)
        assert table.grad.tobytes() == expected.tobytes()


def _interior(shape, parents):
    return Tensor(np.zeros(shape), requires_grad=True, _parents=parents)


class TestGradientOwnership:
    def test_shared_gradient_survives_a_second_contribution(self):
        leaf = Tensor(np.zeros((2, 3)), requires_grad=True)
        a = _interior((2, 3), (leaf,))
        b = _interior((2, 3), (leaf,))
        shared = np.ones((2, 3), dtype=np.float32)
        a._accumulate(shared)
        b._accumulate(shared)
        assert a.grad is shared and b.grad is shared  # borrowed, not copied
        a._accumulate(np.full((2, 3), 2.0, dtype=np.float32))
        assert np.all(a.grad == 3.0)
        assert b.grad is shared and np.all(shared == 1.0)

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_add_fanout_then_second_use(self, shared_first):
        x1 = Tensor(np.ones((2, 3)), requires_grad=True)
        x2 = Tensor(np.ones((2, 3)), requires_grad=True)
        a = x1 * 1.0
        b = x2 * 1.0
        pair = (a + b).sum()   # hands one gradient array to both a and b
        extra = (a * 2.0).sum()
        loss = pair + extra if shared_first else extra + pair
        loss.backward()
        assert np.all(a.grad == 3.0)
        assert np.all(b.grad == 1.0)
        assert np.all(x1.grad == 3.0) and np.all(x2.grad == 1.0)

    def test_parameter_and_leaf_grads_are_never_aliased(self):
        w = Parameter(np.ones((3, 3)))
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        y = x + w          # same-shape add hands one array to both leaves
        z = y.reshape(9)   # reshape hands a view of its gradient upstream
        loss = (z * 2.0).sum()
        loss.backward()
        interior = [y.grad, z.grad]
        for leaf in (w, x):
            assert leaf.grad is leaf._grad_buf
            for other in interior + [g.grad for g in (w, x) if g is not leaf]:
                assert not np.shares_memory(leaf.grad, other)
        before = [g.copy() for g in interior] + [x.grad.copy()]
        clip_grad_norm([w], max_norm=1e-3)   # scales w.grad in place
        after = interior + [x.grad]
        assert all(np.array_equal(u, v) for u, v in zip(before, after))

    def test_parameter_buffer_is_reused_across_steps(self):
        w = Parameter(np.ones((2, 2)))
        (w * 3.0).sum().backward()
        first = w.grad
        w.zero_grad()
        (w * 5.0).sum().backward()
        assert w.grad is first and np.all(w.grad == 5.0)
