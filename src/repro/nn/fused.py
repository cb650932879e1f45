"""Fused single-node autograd primitives (the execution layer's hot kernels).

The base :class:`~repro.nn.tensor.Tensor` records one graph node *per numpy
op*, each carrying a Python closure.  That is fine for glue code but the
model's hot path — attention scoring, affine+activation stacks, the BCE loss
— spends more time dispatching tiny ops and allocating interim buffers than
doing arithmetic.  This module provides the DrJit-style remedy: entire
elementwise/contraction chains are evaluated as **one** forward kernel and
differentiated by **one** hand-written VJP, so the autograd DAG shrinks from
dozens of closure nodes per layer to a handful.

Structure (HIPS-autograd idiom: a primitive registry with explicit VJPs):

* :class:`FusedPrimitive` couples a forward kernel with its VJP;
  :func:`register` installs it in :data:`REGISTRY`.
* :func:`apply` runs a registered primitive over ``Tensor`` inputs and emits
  a single graph node whose backward calls the VJP once.
* Public fused ops: :func:`softmax` / :func:`log_softmax`,
  :func:`bce_with_logits`, :func:`attention_score` (QK·scale → mask →
  softmax → weighted sum), :func:`affine` (matmul + bias + activation),
  :func:`gru_cell` (both gate matmuls + gates + blend) and
  :func:`time_encoding` (cos(Δt·ω + φ)).

Fusion contract
---------------
Every fused kernel computes **the same floating-point operations in the same
order** as the composite op chain it replaces, so enabling or disabling
fusion never changes results beyond normal float associativity — the
equivalence suite (``tests/test_train_fused_equivalence.py``) holds the two
paths to a 1e-5 loss-trajectory match.  Fusion is toggled globally with
:func:`set_fused` / :func:`use_fused`; composite fallbacks live next to each
dispatching wrapper so the two implementations can be diffed at a glance.
A kernel may run its epilogue in place on an array it just allocated
(``_affine_forward`` adds the bias, applies relu as ``multiply(pre, pre > 0,
out=pre)`` and tanh as ``tanh(pre, out=pre)`` on the fresh GEMM output):
the same ufunc loops on the same dtypes, so the bits are those of the
allocating form, with fewer temporaries.  It must never write into an
input array or a residual.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import tensor as _tensor_mod
from .tensor import Tensor

__all__ = [
    "FusedPrimitive",
    "REGISTRY",
    "register",
    "apply",
    "fused_enabled",
    "set_fused",
    "use_fused",
    "softmax",
    "log_softmax",
    "bce_with_logits",
    "attention_score",
    "affine",
    "gru_cell",
    "time_encoding",
]


# ------------------------------------------------------------------ registry
class FusedPrimitive:
    """A forward kernel plus the VJP that differentiates it in one call.

    ``forward(*arrays, **kw) -> (value, residuals)`` computes the fused
    result and stashes whatever the backward pass needs.  ``vjp(grad, value,
    residuals, needs, **kw) -> tuple`` returns one gradient array (or
    ``None``) per positional input; ``needs[i]`` says whether input ``i``
    requires a gradient so the VJP can skip dead branches.
    """

    __slots__ = ("name", "forward", "vjp")

    def __init__(self, name: str, forward: Callable, vjp: Callable) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp


REGISTRY: Dict[str, FusedPrimitive] = {}


def register(name: str, forward: Callable, vjp: Callable) -> FusedPrimitive:
    """Install a fused primitive; later registrations override (for tests)."""
    prim = FusedPrimitive(name, forward, vjp)
    REGISTRY[name] = prim
    return prim


def apply(name: str, *inputs: Tensor, **kwargs) -> Tensor:
    """Run a registered primitive and record a single autograd node."""
    prim = REGISTRY[name]
    arrays = tuple(t.data for t in inputs)
    value, residuals = prim.forward(*arrays, **kwargs)
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(value, requires_grad=requires, _parents=inputs)

    if requires:
        needs = tuple(t.requires_grad for t in inputs)

        def _backward(grad: np.ndarray) -> None:
            grads = prim.vjp(grad, out.data, residuals, needs, **kwargs)
            for t, g in zip(inputs, grads):
                if g is not None and t.requires_grad:
                    t._accumulate(np.asarray(g, dtype=t.dtype))

        out._backward = _backward
    tracer = _tensor_mod._TRACER
    if tracer is not None:
        # The tape re-runs ``prim.forward`` at every replay, so residuals are
        # regenerated per replay and only the primitive id + kwargs need to
        # be recorded here.
        tracer.record(out, "fused", (name, kwargs))
    return out


# ------------------------------------------------------------ global switch
_FUSED_ENABLED = True


def fused_enabled() -> bool:
    return _FUSED_ENABLED


def set_fused(enabled: bool) -> None:
    global _FUSED_ENABLED
    _FUSED_ENABLED = bool(enabled)


@contextmanager
def use_fused(enabled: bool):
    """Temporarily force fused kernels on or off (equivalence tests)."""
    prev = _FUSED_ENABLED
    set_fused(enabled)
    try:
        yield
    finally:
        set_fused(prev)


# ------------------------------------------------------------------- softmax
def _softmax_forward(x: np.ndarray, axis: int = -1):
    shifted = np.max(x, axis=axis, keepdims=True)
    exps = np.exp(x - shifted)
    value = exps / exps.sum(axis=axis, keepdims=True)
    return value, None


def _softmax_vjp(grad, value, residuals, needs, axis: int = -1):
    if not needs[0]:
        return (None,)
    inner = (grad * value).sum(axis=axis, keepdims=True)
    return (value * (grad - inner),)


register("softmax", _softmax_forward, _softmax_vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax as one fused node."""
    return apply("softmax", x, axis=axis)


def _log_softmax_forward(x: np.ndarray, axis: int = -1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - lse
    return value, np.exp(value)


def _log_softmax_vjp(grad, value, probs, needs, axis: int = -1):
    if not needs[0]:
        return (None,)
    return (grad - probs * grad.sum(axis=axis, keepdims=True),)


register("log_softmax", _log_softmax_forward, _log_softmax_vjp)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply("log_softmax", x, axis=axis)


# ------------------------------------------------------------ bce_with_logits
def _bce_forward(z: np.ndarray, targets=None, reduction: str = "mean"):
    t = np.asarray(targets, dtype=z.dtype)
    value = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    if reduction == "mean":
        value = value.mean()
    elif reduction == "sum":
        value = value.sum()
    # overflow-free sigmoid (z can be +-100 from confident models)
    sigmoid = np.empty_like(z)
    pos = z >= 0
    sigmoid[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sigmoid[~pos] = ez / (1.0 + ez)
    return value, (sigmoid, t, z.size)


def _bce_vjp(grad, value, residuals, needs, targets=None, reduction: str = "mean"):
    if not needs[0]:
        return (None,)
    sigmoid, t, size = residuals
    local = sigmoid - t
    if reduction == "mean":
        local = local / size
    return (grad * local,)


register("bce_with_logits", _bce_forward, _bce_vjp)


def bce_with_logits(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Binary cross entropy on raw logits (stable log-sum-exp form).

    loss = max(z, 0) - z*y + log(1 + exp(-|z|))
    """
    return apply("bce_with_logits", logits, targets=targets, reduction=reduction)


# ---------------------------------------------------------- attention_score
def _attention_forward(
    q: np.ndarray,      # [B, H, dh]
    k: np.ndarray,      # [B, H, k, dh]
    v: np.ndarray,      # [B, H, k, dh]
    mask=None,          # [B, k] bool
    scale=None,         # broadcastable to [B, H, k]
    neg_inf: float = -1e9,
):
    b, h, kk, dh = k.shape
    inner = (q.reshape(b, h, 1, dh) * k).sum(axis=3)            # [B,H,k]
    scores = inner * scale
    bias = np.where(mask[:, None, :], 0.0, neg_inf).astype(scores.dtype)
    scores = scores + bias
    att, _ = _softmax_forward(scores, axis=2)
    any_nbr = mask.any(axis=1).astype(scores.dtype)[:, None, None]
    att = att * any_nbr
    ctx = (att.reshape(b, h, kk, 1) * v).sum(axis=2)            # [B,H,dh]
    return ctx, (att, any_nbr, q, k, v)


def _attention_vjp(
    grad, value, residuals, needs, mask=None, scale=None, neg_inf: float = -1e9
):
    att, any_nbr, q, k, v = residuals
    b, h, kk, dh = k.shape
    g4 = grad.reshape(b, h, 1, dh)
    need_q, need_k, need_v = needs
    dv = att.reshape(b, h, kk, 1) * g4 if need_v else None
    dq = dk = None
    if need_q or need_k:
        datt = (g4 * v).sum(axis=3)                     # [B,H,k]
        datt = datt * any_nbr                           # undo the zeroing mul
        # att already carries the any_nbr zeroing, but for rows with
        # neighbors the factor is 1 and for empty rows datt is zero — the
        # softmax VJP below therefore matches the composite chain exactly
        inner = (datt * att).sum(axis=2, keepdims=True)
        dscores = att * (datt - inner)                  # softmax VJP
        dscores = dscores * scale                       # scale is a constant
        ds4 = dscores.reshape(b, h, kk, 1)
        if need_q:
            dq = (ds4 * k).sum(axis=2)                  # [B,H,dh]
        if need_k:
            dk = ds4 * q.reshape(b, h, 1, dh)           # [B,H,k,dh]
    return (dq, dk, dv)


register("attention_score", _attention_forward, _attention_vjp)


def attention_score(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray,
    scale: np.ndarray,
    neg_inf: float = -1e9,
) -> Tensor:
    """Fused multi-head attention: QK·scale → mask → softmax → Σ att·V.

    Shapes: ``q [B,H,dh]``, ``k``/``v`` ``[B,H,k,dh]``, ``mask [B,k]`` bool,
    ``scale`` broadcastable to ``[B,H,k]``.  Rows whose mask is all-False
    produce a zero context (attention over an empty set is undefined — the
    caller supplies the fallback, matching the composite path).
    """
    return apply(
        "attention_score",
        q,
        k,
        v,
        mask=np.asarray(mask, dtype=bool),
        scale=np.asarray(scale, dtype=np.float32),
        neg_inf=neg_inf,
    )


# ------------------------------------------------------------------- affine
_ACTIVATIONS = ("none", "relu", "tanh")


def _affine_forward(
    x: np.ndarray, weight: np.ndarray, *maybe_bias, activation: str = "none"
):
    # the epilogue runs in place on the fresh GEMM output: the same ufunc
    # loops as ``pre + bias`` / ``pre * (pre > 0)`` / ``np.tanh(pre)``
    pre = x @ weight.T
    if maybe_bias:
        pre += maybe_bias[0]
    if activation == "relu":
        np.multiply(pre, pre > 0, out=pre)
    elif activation == "tanh":
        np.tanh(pre, out=pre)
    return pre, (x, weight)


def _affine_vjp(grad, value, residuals, needs, activation: str = "none"):
    x, weight = residuals
    # recover d(pre-activation) from the saved output alone: relu and tanh
    # gradients are both functions of the activation value
    if activation == "relu":
        dpre = grad * (value > 0)
    elif activation == "tanh":
        dpre = grad * (1.0 - value * value)
    else:
        dpre = grad
    has_bias = len(needs) == 3
    dx = dw = db = None
    if needs[0]:
        dx = dpre @ weight
    if needs[1]:
        g2 = dpre.reshape(-1, dpre.shape[-1])
        x2 = x.reshape(-1, x.shape[-1])
        dw = g2.T @ x2
    if has_bias and needs[2]:
        db = dpre.reshape(-1, dpre.shape[-1]).sum(axis=0)
    return (dx, dw, db) if has_bias else (dx, dw)


register("layer_affine", _affine_forward, _affine_vjp)


def affine(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: str = "none",
) -> Tensor:
    """``activation(x @ weight.T + bias)`` — one node when fusion is on.

    The composite fallback below is the exact op sequence the fused kernel
    replaces; both share float-op order (see the module fusion contract).
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}; use {_ACTIVATIONS}")
    if fused_enabled():
        args: Tuple[Tensor, ...] = (x, weight) if bias is None else (x, weight, bias)
        return apply("layer_affine", *args, activation=activation)
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    if activation == "relu":
        return out.relu()
    if activation == "tanh":
        return out.tanh()
    return out


# ------------------------------------------------------------------ gru_cell
def _gru_forward(
    x: np.ndarray,
    h: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
):
    H = h.shape[-1]
    gi = x @ w_ih.T + b_ih
    gh = h @ w_hh.T + b_hh
    r = 1.0 / (1.0 + np.exp(-(gi[:, :H] + gh[:, :H])))
    z = 1.0 / (1.0 + np.exp(-(gi[:, H : 2 * H] + gh[:, H : 2 * H])))
    h_n = gh[:, 2 * H :]
    n = np.tanh(gi[:, 2 * H :] + r * h_n)
    value = (1.0 - z) * n + z * h
    return value, (x, h, w_ih, w_hh, r, z, n, h_n)


def _gru_vjp(grad, value, residuals, needs):
    x, h, w_ih, w_hh, r, z, n, h_n = residuals
    # blend: out = (1-z)*n + z*h
    dn = grad * (1.0 - z)
    dz = grad * (h - n)
    # candidate: n = tanh(i_n + r*h_n)
    dpre_n = dn * (1.0 - n * n)
    dr = dpre_n * h_n
    dh_n = dpre_n * r
    # gates: r/z = sigmoid(i_* + h_*)
    dpre_r = dr * r * (1.0 - r)
    dpre_z = dz * z * (1.0 - z)
    # gate pre-activations share the [r | z | n] layout of the weights
    dgi = np.concatenate([dpre_r, dpre_z, dpre_n], axis=1)
    dgh = np.concatenate([dpre_r, dpre_z, dh_n], axis=1)
    need_x, need_h, need_wih, need_whh, need_bih, need_bhh = needs
    dx = dgi @ w_ih if need_x else None
    dh = dgh @ w_hh + grad * z if need_h else None
    dwih = dgi.T @ x if need_wih else None
    dwhh = dgh.T @ h if need_whh else None
    dbih = dgi.sum(axis=0) if need_bih else None
    dbhh = dgh.sum(axis=0) if need_bhh else None
    return (dx, dh, dwih, dwhh, dbih, dbhh)


register("gru_cell", _gru_forward, _gru_vjp)


def gru_cell(
    x: Tensor,
    h: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    b_ih: Tensor,
    b_hh: Tensor,
) -> Tensor:
    """Fused GRU cell step (both gate matmuls, gates and blend in one node).

    Weights are laid out ``[r | z | n]`` along the output dimension, matching
    :class:`repro.nn.rnn.GRUCell` / ``torch.nn.GRUCell``.
    """
    return apply("gru_cell", x, h, w_ih, w_hh, b_ih, b_hh)


# -------------------------------------------------------------- time_encoding
def _time_encoding_forward(dt: np.ndarray, omega: np.ndarray, phase: np.ndarray):
    pre = dt * omega + phase
    return np.cos(pre), (dt, omega, pre)


def _time_encoding_vjp(grad, value, residuals, needs):
    dt, omega, pre = residuals
    # cos backward first, then route through the Δt·ω + φ affine
    g2 = -grad * np.sin(pre)
    need_dt, need_omega, need_phase = needs
    dim = pre.shape[-1]
    ddt = (g2 * omega).sum(axis=-1, keepdims=True) if need_dt else None
    domega = (g2 * dt).reshape(-1, dim).sum(axis=0) if need_omega else None
    dphase = g2.reshape(-1, dim).sum(axis=0) if need_phase else None
    return (ddt, domega, dphase)


register("time_encoding", _time_encoding_forward, _time_encoding_vjp)


def time_encoding(dt: Tensor, omega: Tensor, phase: Tensor) -> Tensor:
    """Fused Φ(Δt) = cos(Δt · ω + φ); ``dt`` is ``[..., 1]``, ω/φ ``[dim]``."""
    return apply("time_encoding", dt, omega, phase)
