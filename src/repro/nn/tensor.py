"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper trains TGN-attn with PyTorch, which is unavailable here, so we provide
a small but complete autograd engine.  Only the operations needed by the
M-TGNN forward/backward path are implemented, but each is implemented with
full broadcasting semantics and is checked against finite differences in the
test suite.

Design notes
------------
* ``Tensor`` wraps a ``numpy.ndarray`` (float32 by default) plus an optional
  gradient buffer and a closure computing parent gradients.
* The graph is dynamic (define-by-run).  ``backward()`` topologically sorts
  the DAG rooted at the output and accumulates gradients into ``.grad``.
* Broadcasting in the forward pass is undone in the backward pass by
  ``_unbroadcast`` (summing over broadcast axes), mirroring numpy's rules.
* No in-place mutation of ``data`` after a tensor participates in a graph;
  helpers that need buffers (node memory) keep raw numpy arrays and only
  enter the graph through explicit ``Tensor`` constructors or ``gather``.
* Gradient ownership.  An interior node (one with ``_parents``) whose first
  gradient already has its dtype *borrows* that array: one array may be the
  ``.grad`` of several nodes (a same-shape add hands its gradient to both
  parents, reshape/transpose hand views).  A borrowed gradient is never
  written into; a later contribution rebinds ``.grad`` to a new array
  through the same ufunc loop and cast as ``+=``.  In-place ``+=`` happens
  only on an *owned* buffer (``grad is _grad_buf``).  Leaves and parameters
  always copy their first gradient into their own ``_grad_buf``, so
  ``clip_grad_norm``'s in-place scaling can never reach a shared array.
* Row scatters (``gather_rows`` / ``__getitem__`` backward) go through
  :func:`scatter_add`, which is ``np.add.at`` bit for bit on its fast path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

DEFAULT_DTYPE = np.float32

#: Active tape recorder (see :mod:`repro.nn.tape`).  While ``None`` every op
#: pays one global load + ``is None`` test — the same budget as the disabled
#: obs spans.  When a trace is active each op reports its output node, op id
#: and non-tensor operands so the tape can replay the step without rebuilding
#: the Python graph.
_TRACER = None


def set_tracer(tracer):
    """Install (or clear, with ``None``) the module-level tape recorder.

    Returns the previously installed recorder so callers can restore it.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def _as_array(value: ArrayLike, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast from ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def scatter_add(out: np.ndarray, index, grad: np.ndarray) -> None:
    """``np.add.at(out, index, grad)``, bit for bit, on numpy's fast path.

    For a 1-D integer row index into a C-contiguous table of two or more
    dimensions the row index is flattened to element indices, so the
    unbuffered add runs as a 1-D ``np.add.at`` on ``out.reshape(-1)``:
    the same additions, applied to each element in the same index order,
    several times faster than the row-indexed loop.  Negative rows wrap
    exactly as in ``np.add.at`` and out-of-range rows raise.  Any other
    index or shape falls back to ``np.add.at`` itself.
    """
    if (
        isinstance(index, np.ndarray)
        and index.ndim == 1
        and index.dtype.kind == "i"
        and out.ndim >= 2
        and out.flags.c_contiguous
        and out.size
        and np.shape(grad) == index.shape + out.shape[1:]
    ):
        d = out.size // out.shape[0]
        rows = index.astype(np.int64, copy=False)
        flat = rows[:, None] * d + np.arange(d, dtype=np.int64)
        np.add.at(out.reshape(-1), flat.reshape(-1), np.reshape(grad, -1))
    else:
        np.add.at(out, index, grad)


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "name", "_grad_buf"
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name
        self._grad_buf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ meta
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element; got shape "
                f"{self.shape} ({self.data.size} elements)"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # --------------------------------------------------------------- helpers
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            if (
                self._parents
                and isinstance(grad, np.ndarray)
                and grad.dtype == self.data.dtype
            ):
                # Interior node: borrow the incoming array (same bits, no
                # copy).  It may be shared, so it is never written into.
                self.grad = grad
                return
            # First contribution: write into the per-tensor gradient arena
            # when its shape still matches instead of allocating a fresh
            # buffer every step.  ``copyto(..., casting="unsafe")`` performs
            # the same value conversion as ``astype(dtype, copy=True)``, so
            # reusing the arena is bitwise-identical to the allocating path.
            buf = self._grad_buf
            if (
                isinstance(buf, np.ndarray)
                and buf.shape == grad.shape
                and buf is not grad
            ):
                np.copyto(buf, grad, casting="unsafe")
                self.grad = buf
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
                if isinstance(self.grad, np.ndarray):
                    self._grad_buf = self.grad
        elif self.grad is self._grad_buf:
            self.grad += grad
        elif isinstance(self.grad, np.ndarray):
            # borrowed: rebind through the same ufunc loop and output cast
            # as ``+=`` instead of writing into an array another node holds
            self.grad = np.add(self.grad, grad, out=np.empty_like(self.grad))
        else:
            self.grad = self.grad + grad

    @staticmethod
    def _lift(other: Union["Tensor", ArrayLike]) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def zero_grad(self) -> None:
        self.grad = None

    # -------------------------------------------------------------- backward
    def backward(
        self, grad: Optional[np.ndarray] = None, free_graph: bool = False
    ) -> None:
        """Backpropagate from this tensor through the recorded DAG.

        With ``free_graph=True`` every *interior* node releases its gradient
        buffer, parent links and backward closure as soon as it has been
        processed, so peak memory during the backward pass stays close to the
        leaf-gradient footprint instead of retaining the whole forward graph.
        Leaf gradients (parameters, inputs) are kept either way.  A freed
        graph cannot be backpropagated a second time — training loops call
        ``loss.backward(free_graph=True)`` once per step.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output; got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if free_graph and node._parents:
                # interior node: its gradient has been fully propagated and
                # its closure (holding forward residuals) is no longer needed
                node.grad = None
                node._backward = None
                node._parents = ()

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.data + other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "add", None)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "neg", None)
        return out

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.data * other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "mul", None)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.data / other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "truediv", None)
        return out

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = Tensor(self.data**exponent, requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "pow", (exponent,))
        return out

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.data @ other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def _backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.multiply.outer(grad, b) if grad.ndim else grad * b
                elif grad.ndim == 1 and a.ndim == 1:
                    ga = grad @ b.T
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(_as_array(ga, a.dtype), a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.multiply.outer(a, grad) if grad.ndim else a * grad
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(_as_array(gb, b.dtype), b.shape))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "matmul", None)
        return out

    # ----------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = Tensor(value, requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * value)

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "exp", None)
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "log", None)
        return out

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        out = Tensor(value, requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / value)

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "sqrt", None)
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = Tensor(value, requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - value**2))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "tanh", None)
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(value, requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * value * (1.0 - value))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "sigmoid", None)
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = Tensor(self.data * mask, requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "relu", None)
        return out

    def cos(self) -> "Tensor":
        out = Tensor(np.cos(self.data), requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad * np.sin(self.data))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "cos", None)
        return out

    def sin(self) -> "Tensor":
        out = Tensor(np.sin(self.data), requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.cos(self.data))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "sin", None)
        return out

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out = Tensor(np.abs(self.data), requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        out._backward = _backward if out.requires_grad else None
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out = Tensor(
            np.clip(self.data, low, high), requires_grad=self.requires_grad, _parents=(self,)
        )

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        out._backward = _backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def _backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.shape)]
                g = g.reshape(shape)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.dtype))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "sum", (axis, keepdims))
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=True)
        mask = self.data == value
        # Split ties evenly so the gradient check passes on degenerate inputs.
        mask = mask / mask.sum(axis=axis, keepdims=True)
        out_val = value if keepdims else np.squeeze(value, axis=axis)
        out = Tensor(out_val, requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad if keepdims else np.expand_dims(grad, axis)
                self._accumulate((g * mask).astype(self.dtype))

        out._backward = _backward if out.requires_grad else None
        return out

    # --------------------------------------------------------------- shaping
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(
            self.data.reshape(shape), requires_grad=self.requires_grad, _parents=(self,)
        )

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "reshape", None)
        return out

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out = Tensor(
            self.data.transpose(axes), requires_grad=self.requires_grad, _parents=(self,)
        )
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "transpose", (axes, inverse))
        return out

    def __getitem__(self, index) -> "Tensor":
        out = Tensor(self.data[index], requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                scatter_add(full, index, grad)
                self._accumulate(full)

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "getitem", (index,))
        return out

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows (axis 0) with duplicate-safe scatter-add backward.

        This is the embedding-lookup primitive: the node memory and static
        embedding tables are read through it, and gradients accumulate for
        repeated indices.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out = Tensor(self.data[indices], requires_grad=self.requires_grad, _parents=(self,))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                scatter_add(full, indices, grad)
                self._accumulate(full)

        out._backward = _backward if out.requires_grad else None
        if _TRACER is not None:
            _TRACER.record(out, "gather_rows", (indices,))
        return out


# ---------------------------------------------------------------- functions
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (the ``{x || y}`` of the paper)."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward(grad: np.ndarray) -> None:
        ax = axis % grad.ndim
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[ax] = slice(int(start), int(stop))
                t._accumulate(grad[tuple(slicer)])

    out._backward = _backward if requires else None
    if _TRACER is not None:
        _TRACER.record(out, "concat", (axis,))
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors))

    def _backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for t, g in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(np.squeeze(g, axis=axis))

    out._backward = _backward if requires else None
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    condition = np.asarray(condition, dtype=bool)
    a = Tensor._lift(a)
    b = Tensor._lift(b)
    out = Tensor(
        np.where(condition, a.data, b.data),
        requires_grad=a.requires_grad or b.requires_grad,
        _parents=(a, b),
    )

    def _backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~condition), b.shape))

    out._backward = _backward if out.requires_grad else None
    if _TRACER is not None:
        _TRACER.record(out, "where", (condition,))
    return out


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def no_grad_array(t: Union[Tensor, np.ndarray]) -> np.ndarray:
    """Return the raw array for either a Tensor or ndarray input."""
    return t.data if isinstance(t, Tensor) else np.asarray(t)
