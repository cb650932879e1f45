"""Trace-and-replay step compiler: record one step, replay it as a flat tape.

The eager engine (:mod:`repro.nn.tensor`) rebuilds the autograd graph on
every training step: one ``Tensor`` object, one backward closure, and one
parent tuple per op, plus a fresh gradient allocation per first-touch.  For
the small dense kernels of the M-TGNN hot path that bookkeeping costs more
than the arithmetic.  This module provides the drjit-style remedy:

* :class:`TapeRecorder` — installed through
  :func:`repro.nn.tensor.set_tracer`, it observes one *eagerly executed*
  step and records, per output node, the op id and its non-tensor operands
  (axes, slices, fused-primitive kwargs).
* :func:`compile_tape` — walks the recorded graph in the **exact**
  depth-first topological order ``Tensor.backward`` uses and lowers every
  node to a pair of array-level closures (forward kernel, VJP) over a flat
  slot table.  Leaves are bound by *identity* against a dict of named input
  arrays (views are re-bound by reshape), against the step-invariant
  :func:`register_static` registry, or baked as scalar constants; anything
  else raises :class:`TapeInvalid` and the step stays eager.
* :class:`TapeProgram` — replays the tape: forward walks the slots in topo
  order, backward walks them in reverse, accumulating into **pooled
  gradient buffers** with first-write-copy / in-place-add semantics that
  are bitwise identical to ``Tensor._accumulate``.  Parameter gradients are
  published to ``param.grad`` exactly as the eager backward would, so
  ``TermGradAccumulator``'s float64 block-ordered reduction sees the same
  bits on both the local and the process backend.
* :class:`StepCompiler` — a shape-keyed LRU of programs with negative
  caching: a key that failed to compile (or whose replay faulted) is marked
  as a fallback and its steps run eagerly without re-tracing.  Spans
  (``cat="compile"``: ``trace`` / ``replay`` / ``retrace``, plus
  ``fallback`` instants carrying the reason) and ``compile/*`` counters
  make the amortization visible in ``repro.cli trace``.

Bitwise contract
----------------
Replay must be indistinguishable from eager execution at the bits level:
Adam's sign-like early steps amplify any sub-noise difference to the size
of the learning rate, and the chaos/recovery suite compares full state
exactly.  Every VJP closure here therefore mirrors the corresponding
``tensor.py`` closure's arithmetic *and accumulation order*: IEEE addition
is non-associative, the first gradient write is a copy (never an add into
a zeroed buffer — ``0.0 + (-0.0)`` is ``+0.0``), and dtype conversions use
the same casting as ``astype``.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs import instant, is_enabled, span
from ..obs.metrics import get_registry
from .fused import REGISTRY
from .tensor import Tensor, _as_array, _unbroadcast, scatter_add, set_tracer

__all__ = [
    "StepCompiler",
    "TapeInvalid",
    "TapeProgram",
    "TapeRecorder",
    "compile_tape",
    "register_static",
]


class TapeInvalid(RuntimeError):
    """The traced graph cannot be lowered to a tape; the step stays eager."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------- static registry
#: Arrays registered as step-invariant (e.g. the per-batch-size zero Δt of
#: the time encoder).  Keyed by data pointer; strong references keep the
#: pointers owned so id-reuse cannot alias a dead buffer.
_STATICS: Dict[int, np.ndarray] = {}


def _ptr(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def register_static(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` as step-invariant so tapes may bake it by reference.

    The array is made read-only: a static that mutates would silently
    poison every tape that baked it.
    """
    array.setflags(write=False)
    _STATICS[_ptr(array)] = array
    return array


# ---------------------------------------------------------------- recording
class TapeRecorder:
    """Collects ``(node, op, meta)`` for every op executed while installed.

    Holding the output tensors keeps their ``id()`` stable for the lifetime
    of the recorder, so the map cannot alias recycled objects.
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: Dict[int, Tuple[Tensor, str, Any]] = {}

    def record(self, out: Tensor, op: str, meta: Any) -> None:
        self.nodes[id(out)] = (out, op, meta)


def _toposort(root: Tensor) -> List[Tensor]:
    # Must mirror Tensor.backward exactly: the DFS order fixes the gradient
    # accumulation order, and float addition is not associative.
    topo: List[Tensor] = []
    visited = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
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
    return topo


# ------------------------------------------------------------- leaf binding
_PARAM, _INPUT, _CONST = 0, 1, 2


class _Binder:
    """Resolves trace-time arrays to replay-time bindings.

    Matching is by memory identity, not value: an array leaf must either be
    one of the named input arrays (or a zero-offset contiguous view of one,
    re-bound by reshape), a view of a :func:`register_static` array, or a
    scalar that can be baked.  A value-based match could silently bake a
    per-step quantity as a constant — the one failure mode that would make
    replays *silently* wrong, so unmatched arrays are a hard
    :class:`TapeInvalid` instead.
    """

    def __init__(self, inputs: Dict[str, np.ndarray]) -> None:
        self._named = list(inputs.items())
        self.specs: Dict[str, Tuple[Tuple[int, ...], np.dtype]] = {}

    def bind(self, arr: np.ndarray) -> Tuple[int, Any]:
        p = _ptr(arr)
        for name, cand in self._named:
            if arr is cand or (
                p == _ptr(cand)
                and arr.dtype == cand.dtype
                and arr.shape == cand.shape
                and arr.strides == cand.strides
            ):
                self.specs[name] = (cand.shape, cand.dtype)
                return (_INPUT, (name, None))
            if (
                p == _ptr(cand)
                and arr.dtype == cand.dtype
                and arr.size == cand.size
                and arr.flags.c_contiguous
                and cand.flags.c_contiguous
            ):
                self.specs[name] = (cand.shape, cand.dtype)
                return (_INPUT, (name, arr.shape))
        base = _STATICS.get(p)
        if (
            base is not None
            and arr.dtype == base.dtype
            and arr.size == base.size
            and arr.flags.c_contiguous
        ):
            # step-invariant view: replaying it by reference is safe
            return (_CONST, arr)
        if arr.size <= 1:
            return (_CONST, np.array(arr, copy=True))
        raise TapeInvalid(
            f"unbound array leaf shape={arr.shape} dtype={arr.dtype}"
        )

    def resolve(self, obj: Any) -> Tuple[str, Any]:
        """Resolve an op operand (index, condition, fused kwarg)."""
        if isinstance(obj, np.ndarray):
            kind, payload = self.bind(obj)
            if kind == _CONST:
                return ("const", payload)
            return ("input",) + payload
        if isinstance(obj, tuple) and any(isinstance(x, np.ndarray) for x in obj):
            raise TapeInvalid("advanced indexing with array tuples is not taped")
        return ("const", obj)


def _make_getter(resolved: Tuple[str, Any], cell: list) -> Callable[[], Any]:
    if resolved[0] == "const":
        value = resolved[1]
        return lambda: value
    _, name, reshape = resolved
    if reshape is None:
        return lambda: cell[0][name]
    return lambda: cell[0][name].reshape(reshape)


# ------------------------------------------------------------- op lowering
def _build_op(
    op: str,
    meta: Any,
    slot: int,
    pslots: List[int],
    parents: Tuple[Tensor, ...],
    node: Tensor,
    values: list,
    res: list,
    cell: list,
    acc: Callable[[int, np.ndarray], None],
    binder: _Binder,
) -> Tuple[Callable[[], None], Optional[Callable[[np.ndarray], None]]]:
    """Lower one recorded node to (forward, vjp) closures over the slot table.

    Each VJP mirrors the matching ``tensor.py`` / ``fused.apply`` closure
    bit for bit: same arithmetic, same per-parent accumulation order, same
    dtype casts.
    """
    shapes = tuple(p.shape for p in parents)
    needs = tuple(p.requires_grad for p in parents)

    if op == "add":
        a, b = pslots
        sa, sb = shapes
        na, nb = needs

        def fwd():
            values[slot] = values[a] + values[b]

        def bwd(g):
            if na:
                acc(a, _unbroadcast(g, sa))
            if nb:
                gb = _unbroadcast(g, sb)
                if na and gb is g:
                    # same-shape add passes ``g`` through to both parents;
                    # keep their slots distinct objects so a reference-
                    # adopting accumulator can never alias two slots
                    gb = gb.copy()
                acc(b, gb)

        return fwd, bwd

    if op == "neg":
        (a,) = pslots

        def fwd():
            values[slot] = -values[a]

        def bwd(g):
            acc(a, -g)

        return fwd, bwd

    if op == "mul":
        a, b = pslots
        sa, sb = shapes
        na, nb = needs

        def fwd():
            values[slot] = values[a] * values[b]

        def bwd(g):
            if na:
                acc(a, _unbroadcast(g * values[b], sa))
            if nb:
                acc(b, _unbroadcast(g * values[a], sb))

        return fwd, bwd

    if op == "truediv":
        a, b = pslots
        sa, sb = shapes
        na, nb = needs

        def fwd():
            values[slot] = values[a] / values[b]

        def bwd(g):
            if na:
                acc(a, _unbroadcast(g / values[b], sa))
            if nb:
                acc(b, _unbroadcast(-g * values[a] / (values[b] ** 2), sb))

        return fwd, bwd

    if op == "pow":
        (a,) = pslots
        exponent = meta[0]

        def fwd():
            values[slot] = values[a] ** exponent

        def bwd(g):
            acc(a, g * exponent * values[a] ** (exponent - 1))

        return fwd, bwd

    if op == "matmul":
        a, b = pslots
        sa, sb = shapes
        na, nb = needs
        da, db = parents[0].data.dtype, parents[1].data.dtype

        def fwd():
            values[slot] = values[a] @ values[b]

        def bwd(g):
            va, vb = values[a], values[b]
            if na:
                if vb.ndim == 1:
                    ga = np.multiply.outer(g, vb) if g.ndim else g * vb
                elif g.ndim == 1 and va.ndim == 1:
                    ga = g @ vb.T
                else:
                    ga = g @ np.swapaxes(vb, -1, -2)
                acc(a, _unbroadcast(_as_array(ga, da), sa))
            if nb:
                if va.ndim == 1:
                    gb = np.multiply.outer(va, g) if g.ndim else va * g
                else:
                    gb = np.swapaxes(va, -1, -2) @ g
                acc(b, _unbroadcast(_as_array(gb, db), sb))

        return fwd, bwd

    if op == "exp":
        (a,) = pslots

        def fwd():
            values[slot] = np.exp(values[a])

        def bwd(g):
            acc(a, g * values[slot])

        return fwd, bwd

    if op == "log":
        (a,) = pslots

        def fwd():
            values[slot] = np.log(values[a])

        def bwd(g):
            acc(a, g / values[a])

        return fwd, bwd

    if op == "sqrt":
        (a,) = pslots

        def fwd():
            values[slot] = np.sqrt(values[a])

        def bwd(g):
            acc(a, g * 0.5 / values[slot])

        return fwd, bwd

    if op == "tanh":
        (a,) = pslots

        def fwd():
            values[slot] = np.tanh(values[a])

        def bwd(g):
            acc(a, g * (1.0 - values[slot] ** 2))

        return fwd, bwd

    if op == "sigmoid":
        (a,) = pslots

        def fwd():
            values[slot] = 1.0 / (1.0 + np.exp(-values[a]))

        def bwd(g):
            v = values[slot]
            acc(a, g * v * (1.0 - v))

        return fwd, bwd

    if op == "relu":
        (a,) = pslots

        def fwd():
            va = values[a]
            mask = va > 0
            res[slot] = mask
            values[slot] = va * mask

        def bwd(g):
            acc(a, g * res[slot])

        return fwd, bwd

    if op == "cos":
        (a,) = pslots

        def fwd():
            values[slot] = np.cos(values[a])

        def bwd(g):
            acc(a, -g * np.sin(values[a]))

        return fwd, bwd

    if op == "sin":
        (a,) = pslots

        def fwd():
            values[slot] = np.sin(values[a])

        def bwd(g):
            acc(a, g * np.cos(values[a]))

        return fwd, bwd

    if op == "sum":
        (a,) = pslots
        axis, keepdims = meta
        sa = shapes[0]
        dt = parents[0].data.dtype
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(x % len(sa) for x in axes)
            gshape = tuple(1 if i in axes else s for i, s in enumerate(sa))
        else:
            gshape = None

        def fwd():
            values[slot] = values[a].sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if gshape is not None:
                g = g.reshape(gshape)
            acc(a, np.broadcast_to(g, sa).astype(dt))

        return fwd, bwd

    if op == "reshape":
        (a,) = pslots
        oshape = node.shape
        sa = shapes[0]

        def fwd():
            values[slot] = values[a].reshape(oshape)

        def bwd(g):
            acc(a, g.reshape(sa))

        return fwd, bwd

    if op == "transpose":
        (a,) = pslots
        axes, inverse = meta

        def fwd():
            values[slot] = values[a].transpose(axes)

        def bwd(g):
            acc(a, g.transpose(inverse))

        return fwd, bwd

    if op in ("getitem", "gather_rows"):
        (a,) = pslots
        sa = shapes[0]
        dt = parents[0].data.dtype
        get_index = _make_getter(binder.resolve(meta[0]), cell)
        scratch = [None]

        def fwd():
            values[slot] = values[a][get_index()]

        def bwd(g):
            full = scratch[0]
            if full is None:
                full = np.zeros(sa, dtype=dt)
                scratch[0] = full
            else:
                full.fill(0)
            scatter_add(full, get_index(), g)
            acc(a, full)

        return fwd, bwd

    if op == "concat":
        axis = meta[0]
        nd = len(node.shape)
        ax = axis % nd
        sizes = [s[ax] for s in shapes]
        offsets = np.cumsum([0] + sizes)
        slicers = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            sl = [slice(None)] * nd
            sl[ax] = slice(int(start), int(stop))
            slicers.append(tuple(sl))
        ps = list(pslots)

        def fwd():
            values[slot] = np.concatenate([values[p] for p in ps], axis=axis)

        def bwd(g):
            for p, sl, need in zip(ps, slicers, needs):
                if need:
                    acc(p, g[sl])

        return fwd, bwd

    if op == "where":
        a, b = pslots
        sa, sb = shapes
        na, nb = needs
        get_cond = _make_getter(binder.resolve(meta[0]), cell)

        def fwd():
            cond = get_cond()
            res[slot] = cond
            values[slot] = np.where(cond, values[a], values[b])

        def bwd(g):
            cond = res[slot]
            if na:
                acc(a, _unbroadcast(g * cond, sa))
            if nb:
                acc(b, _unbroadcast(g * (~cond), sb))

        return fwd, bwd

    if op == "fused":
        prim_name, kwargs = meta
        prim = REGISTRY[prim_name]
        resolved = [(k, binder.resolve(v)) for k, v in kwargs.items()]
        static_kw = {k: r[1] for k, r in resolved if r[0] == "const"}
        dynamic_kw = [(k, _make_getter(r, cell)) for k, r in resolved if r[0] != "const"]
        ps = list(pslots)
        dts = tuple(p.data.dtype for p in parents)

        def fwd():
            if dynamic_kw:
                kw = dict(static_kw)
                for k, get in dynamic_kw:
                    kw[k] = get()
            else:
                kw = static_kw
            value, residuals = prim.forward(*[values[p] for p in ps], **kw)
            res[slot] = (residuals, kw)
            values[slot] = value

        def bwd(g):
            residuals, kw = res[slot]
            grads = prim.vjp(g, values[slot], residuals, needs, **kw)
            for p, gr, need, dt in zip(ps, grads, needs, dts):
                if gr is not None and need:
                    acc(p, np.asarray(gr, dtype=dt))

        return fwd, bwd

    raise TapeInvalid(f"op {op!r} has no tape rule")


# ------------------------------------------------------------------ program
class TapeProgram:
    """A compiled step: flat forward/backward closure lists + pooled buffers.

    Built by :func:`compile_tape`; replay binds the named inputs into the
    leaf slots, walks the forward closures in topo order and (optionally)
    the backward closures in reverse, then publishes parameter gradients.
    All per-slot state (value table, residuals, gradient pool) is owned by
    the program and reused across replays.
    """

    def __init__(
        self,
        key: Any,
        leaves: list,
        fwd_steps: list,
        bwd_steps: list,
        param_slots: list,
        input_specs: Dict[str, Tuple[Tuple[int, ...], np.dtype]],
        root_slot: int,
        values: list,
        cell: list,
        gbufs: list,
        written: bytearray,
        acc: Callable[[int, np.ndarray], None],
        capture_slots: Optional[List[int]] = None,
    ) -> None:
        self.key = key
        self.key_str = repr(key)
        self._leaves = leaves
        self._fwd = fwd_steps
        self._bwd = bwd_steps
        self._param_slots = param_slots
        self._input_specs = list(input_specs.items())
        self._root_slot = root_slot
        self._values = values
        self._cell = cell
        self._gbufs = gbufs
        self._written = written
        self._acc = acc
        self._capture_slots = capture_slots or []
        self._zero_flags = bytes(len(written))
        #: caller-managed token identifying who owns the slot tables of the
        #: most recent replay (e.g. the trainer's step entry).  A replay
        #: overwrites every slot, so a caller that defers consuming results
        #: must check ownership first.
        self.owner: Any = None

    @property
    def num_slots(self) -> int:
        return len(self._values)

    def captured(self) -> List[np.ndarray]:
        """Values of the ``captures`` tensors from the most recent replay.

        Forward-only tapes (e.g. the canonical-pass / serving embed) use
        this to read interior results — the updated node memory — that the
        eager path returns alongside the root.
        """
        return [self._values[slot] for slot in self._capture_slots]

    def replay(
        self,
        inputs: Dict[str, np.ndarray],
        backward: bool = True,
        publish: bool = True,
    ):
        """Run the tape; returns the root value array.

        With ``backward=True`` the parameter ``.grad`` fields are left in
        exactly the state an eager ``root.backward(free_graph=True)`` would
        produce (callers still ``zero_grad()`` first, as in the eager loop).
        ``publish=False`` computes the gradients but leaves ``param.grad``
        untouched; call :meth:`publish_grads` later — the merged-step path
        uses this to fold the term at its reduction-order position while
        other terms run in between.
        """
        for name, (shape, dtype) in self._input_specs:
            arr = inputs.get(name)
            if arr is None or arr.shape != shape or arr.dtype != dtype:
                raise TapeInvalid(f"input {name!r} changed layout")
        self._cell[0] = inputs
        values = self._values
        for slot, kind, payload in self._leaves:
            if kind == _PARAM:
                values[slot] = payload.data
            elif kind == _INPUT:
                name, reshape = payload
                arr = inputs[name]
                values[slot] = arr if reshape is None else arr.reshape(reshape)
            else:
                values[slot] = payload
        for fn in self._fwd:
            fn()
        root_value = values[self._root_slot]
        if backward:
            written = self._written
            written[:] = self._zero_flags
            # seed exactly as Tensor.backward: ones_like, first-write copy
            self._acc(self._root_slot, np.ones_like(root_value))
            gbufs = self._gbufs
            for slot, fn in self._bwd:
                if written[slot]:
                    fn(gbufs[slot])
            if publish:
                self.publish_grads()
        return root_value

    def publish_grads(self) -> None:
        """Publish the most recent backward's gradients to ``param.grad``.

        Equivalent to the eager ``zero_grad() → backward()`` postcondition:
        parameters the backward never reached get ``grad = None``.
        """
        written = self._written
        gbufs = self._gbufs
        for slot, param in self._param_slots:
            param.grad = gbufs[slot] if written[slot] else None


def compile_tape(
    root: Tensor,
    recorder: TapeRecorder,
    inputs: Dict[str, np.ndarray],
    key: Any = None,
    captures: Optional[List[Tensor]] = None,
) -> TapeProgram:
    """Lower the recorded graph under ``root`` into a :class:`TapeProgram`.

    Must run *before* ``root.backward(free_graph=True)`` frees the parent
    links.  Raises :class:`TapeInvalid` when the graph contains an op with
    no tape rule or an array leaf that cannot be bound to ``inputs`` /
    the static registry.
    """
    binder = _Binder(inputs)
    topo = _toposort(root)
    n = len(topo)
    slot_of = {id(node): i for i, node in enumerate(topo)}
    values: list = [None] * n
    res: list = [None] * n
    gbufs: list = [None] * n
    written = bytearray(n)
    dtypes = [node.data.dtype for node in topo]
    cell: list = [None]

    # exact per-slot contributor counts (the root seed plus one per
    # needs-gated VJP edge).  A slot with a single contributor can adopt the
    # incoming gradient by reference instead of copying it into the pool:
    # the value is bit-identical and the buffer is never added into, so the
    # only cost of ownership — a later in-place add — cannot occur.  Slots
    # whose VJP is gated off at runtime (written[] false upstream) only ever
    # see *fewer* contributions than counted, which degrades to the copy
    # path, never to a corrupting add.
    counts = [0] * n
    counts[slot_of[id(root)]] += 1
    for node in topo:
        if node._backward is not None and id(node) in recorder.nodes:
            for p in node._parents:
                if p.requires_grad:
                    counts[slot_of[id(p)]] += 1

    def acc(slot: int, g: np.ndarray) -> None:
        # bitwise mirror of Tensor._accumulate with a persistent pool.
        # Ownership follows the eager rule: an adopted (borrowed) array is
        # never added into — only single-contributor slots adopt, so the
        # in-place add below only ever hits a pooled buffer the slot owns.
        # 0-d ops yield numpy *scalars* (no in-place add), so those fall
        # back to rebinding — exactly what eager ``grad + g`` does.
        if written[slot]:
            buf = gbufs[slot]
            if isinstance(buf, np.ndarray):
                np.add(buf, g, out=buf)
            else:
                gbufs[slot] = buf + g
        else:
            if counts[slot] == 1 and isinstance(g, np.ndarray) and g.dtype == dtypes[slot]:
                # sole contributor: adopt by reference (same bits, no copy)
                gbufs[slot] = g
            else:
                buf = gbufs[slot]
                if isinstance(buf, np.ndarray) and buf.shape == g.shape:
                    np.copyto(buf, g, casting="unsafe")
                else:
                    gbufs[slot] = g.astype(dtypes[slot], copy=True)
            written[slot] = True

    leaves = []
    param_slots = []
    fwd_steps = []
    bwd_rev = []
    for i, node in enumerate(topo):
        rec = recorder.nodes.get(id(node))
        if rec is None:
            if node._parents or node._backward is not None:
                raise TapeInvalid(
                    f"interior node (shape={node.shape}) was built by an "
                    "op without a tape rule"
                )
            if node.requires_grad:
                leaves.append((i, _PARAM, node))
                param_slots.append((i, node))
            else:
                kind, payload = binder.bind(node.data)
                leaves.append((i, kind, payload))
            continue
        _, op, meta = rec
        pslots = [slot_of[id(p)] for p in node._parents]
        fwd, bwd = _build_op(
            op, meta, i, pslots, node._parents, node, values, res, cell, acc, binder
        )
        fwd_steps.append(fwd)
        if node._backward is not None:
            bwd_rev.append((i, bwd))
    bwd_steps = list(reversed(bwd_rev))
    capture_slots = []
    for t in captures or []:
        slot = slot_of.get(id(t))
        if slot is None:
            raise TapeInvalid("capture tensor is not reachable from root")
        capture_slots.append(slot)
    return TapeProgram(
        key,
        leaves,
        fwd_steps,
        bwd_steps,
        param_slots,
        binder.specs,
        slot_of[id(root)],
        values,
        cell,
        gbufs,
        written,
        acc,
        capture_slots,
    )


# ----------------------------------------------------------------- compiler
class _Fallback:
    """Negative cache entry: this key stays eager (no re-trace per step)."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


class _TraceHandle:
    """Mutable handle the caller uses to hand the traced root back.

    ``captures`` may list interior tensors whose values the caller wants
    back from every replay (see :meth:`TapeProgram.captured`).
    """

    __slots__ = ("root", "captures")

    def __init__(self) -> None:
        self.root: Optional[Tensor] = None
        self.captures: List[Tensor] = []


class StepCompiler:
    """Shape-keyed LRU of :class:`TapeProgram` with negative caching.

    One compiler per trainer/engine.  The protocol per step::

        program = compiler.lookup(key)
        if program is not None:
            out = compiler.replay(key, program, inputs)   # None -> fall back
        elif compiler.wants_trace(key):
            with compiler.trace(key, inputs) as handle:
                ... run the step eagerly, set handle.root = loss ...
            ... then eager backward as usual (the graph is still intact) ...
        else:
            ... eager (key is negative-cached) ...
    """

    def __init__(self, maxsize: int = 64, name: str = "step") -> None:
        self.name = name
        self.maxsize = int(maxsize)
        self._cache: "OrderedDict[Any, object]" = OrderedDict()
        self._traced = 0

    # ------------------------------------------------------------- inspection
    @property
    def num_programs(self) -> int:
        return sum(1 for v in self._cache.values() if isinstance(v, TapeProgram))

    @property
    def num_fallbacks(self) -> int:
        return sum(1 for v in self._cache.values() if isinstance(v, _Fallback))

    def fallback_reason(self, key: Any) -> Optional[str]:
        entry = self._cache.get(key)
        return entry.reason if isinstance(entry, _Fallback) else None

    # -------------------------------------------------------------- protocol
    def lookup(self, key: Any) -> Optional[TapeProgram]:
        entry = self._cache.get(key)
        if isinstance(entry, TapeProgram):
            self._cache.move_to_end(key)
            return entry
        return None

    def wants_trace(self, key: Any) -> bool:
        return key not in self._cache

    def replay(
        self,
        key: Any,
        program: TapeProgram,
        inputs: Dict[str, np.ndarray],
        backward: bool = True,
        publish: bool = True,
    ):
        """Replay ``program``; on any fault, negative-cache and return None."""
        registry = get_registry()
        try:
            if is_enabled():
                with span("replay", cat="compile", key=program.key_str):
                    out = program.replay(inputs, backward=backward, publish=publish)
            else:
                out = program.replay(inputs, backward=backward, publish=publish)
        except Exception as exc:  # noqa: BLE001 - any fault means: stay eager
            reason = f"replay-fault: {exc}"
            self._cache[key] = _Fallback(reason)
            instant("fallback", cat="compile", key=program.key_str, reason=reason)
            registry.counter("compile/fallbacks").add(1)
            return None
        registry.counter("compile/replays").add(1)
        return out

    @contextmanager
    def trace(self, key: Any, inputs: Dict[str, np.ndarray]):
        """Record the eagerly-executed step body; compile + cache on exit.

        The step body runs inside the context and must set ``handle.root``.
        Compilation happens on clean exit, *before* the caller's eager
        ``backward(free_graph=True)`` tears the graph down.  A body that
        raises is not cached at all.
        """
        handle = _TraceHandle()
        recorder = TapeRecorder()
        label = "trace" if self._traced == 0 else "retrace"
        registry = get_registry()
        with span(label, cat="compile", key=repr(key)):
            previous = set_tracer(recorder)
            try:
                yield handle
            finally:
                set_tracer(previous)
            self._traced += 1
            registry.counter(
                "compile/traces" if label == "trace" else "compile/retraces"
            ).add(1)
            if handle.root is None:
                self._store(key, _Fallback("trace body set no root"))
                return
            try:
                program = compile_tape(
                    handle.root, recorder, inputs, key=key, captures=handle.captures
                )
            except TapeInvalid as exc:
                self._store(key, _Fallback(exc.reason))
                instant("fallback", cat="compile", key=repr(key), reason=exc.reason)
                registry.counter("compile/fallbacks").add(1)
            else:
                self._store(key, program)

    def _store(self, key: Any, entry: object) -> None:
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.maxsize:
            self._cache.popitem(last=False)
