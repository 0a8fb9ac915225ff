"""Dense float64 tensors with reverse-mode automatic differentiation.

A flat, execution-ordered tape of primitive records is kept per thread
as a plain list (`active_graph`); each record is ``(output, inputs,
pull)``, where ``pull`` maps the output adjoint to one gradient array (or
None) per input.  The pulls of add, sub, mul, div and linear, the
primitives that take constant operands (masks, the positional table, input
volumes), skip every operand without ``requires_grad``: they return None
for it and never compute its gradient.  `backward` walks the tape once in
reverse and accumulates adjoints into per-tensor ``grad`` buffers, so
data-dependent structure (nearest-codebook selection, per-bin masks) is
differentiated exactly as executed.  Calling `backward` again on an intact
tape first clears every grad it is about to touch and therefore reproduces
identical results.

Rules kept deliberately narrow:

* float64 everywhere.  The primitives that can turn finite operands into
  NaN/Inf check their forward output and raise ``NumericsError``: add,
  sub, mul, div, linear, attention, exp, cumsum and cumprod.  ``log`` and
  ``cumprod`` raise ``DomainError`` on a non-positive operand.  The
  remaining primitives do not check; a sum or a norm can still overflow
  to Inf.
  `backward` checks only the gradient of each leaf (a tensor no record
  produced), once: a non-finite adjoint cannot vanish on its way to a
  leaf, because ``x*0``, ``inf-inf`` and ``0*inf`` are all NaN.
* broadcasting is restricted to leading-axis and trailing-singleton
  patterns, which keeps every backward rule a sum over an axis prefix
  or suffix followed by a reshape.
* ``linear`` takes one shape: a 2-D weight under an operand of rank 2 or
  more, and an optional bias as wide as the weight's output.
  ``attention`` takes (B, Pq, W) queries and (B, Pk, W) keys and values,
  W divisible by the head count.  Neither broadcasts.
* ``max`` and ``l2norm`` reduce along one given axis; ``transpose`` takes
  an explicit permutation.  ``rearrange(x, shape_in, perm, shape_out)``
  records a reshape -> transpose -> reshape chain once.
* ``detach``, ``straight_through`` and ``clip_passthrough`` are the only
  primitives whose declared Jacobian differs from the true local
  derivative of their forward map; everything else is checkable against
  central finite differences.

Recording is disabled inside a ``no_grad()`` block, so forward evaluation
of a frozen model allocates no tape and is safe to run concurrently.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError, NumericsError, ShapeError

__all__ = [
    "Tensor", "active_graph", "reset_graph", "no_grad", "backward",
    "as_tensor", "linear_spec", "init_params",
    "add", "sub", "mul", "div", "linear", "attention",
    "exp", "log", "sigmoid", "relu", "l2norm",
    "cumsum", "cumprod", "concat", "reshape", "transpose", "rearrange", "slice_along",
    "take_rows",
    "detach", "straight_through", "clip_passthrough",
]


class _ThreadState(threading.local):
    """Per-thread tape and recording switch; ``__init__`` runs once per thread."""

    def __init__(self):
        self.graph: list[tuple] = []
        self.grad_enabled = True


# graph state is per-thread so read-only inference can run concurrently
_STATE = _ThreadState()


def active_graph() -> list[tuple]:
    """This thread's tape, in execution order."""
    return _STATE.graph


def reset_graph() -> None:
    """Drop every recorded operation (start of a fresh training step)."""
    _STATE.graph.clear()


@contextmanager
def no_grad():
    """Suspend tape recording; values are computed, gradients are not."""
    previous = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


class Tensor:
    """Dense float64 array plus an optional adjoint buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return detach(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce_mean(self, axis, keepdims)

    def max(self, axis: int) -> "Tensor":
        return _reduce_max(self, axis)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes) -> "Tensor":
        return transpose(self, axes)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(arr: np.ndarray) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = False
    out.grad = None
    return out


def as_tensor(value) -> Tensor:
    """Coerce scalars / arrays to a constant Tensor; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return _wrap(np.asarray(value, dtype=np.float64))


def _record(out: Tensor, inputs: tuple, pull) -> Tensor:
    st = _STATE
    if st.grad_enabled:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                st.graph.append((out, inputs, pull))
                break
    return out


def _ensure_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericsError(f"{op} produced a non-finite value")
    return arr


# ---------------------------------------------------------------------------
# construction

def linear_spec(fan_in: int, fan_out: int) -> tuple:
    """Parameter-table entry for a weight uniform within +-1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return (fan_in, fan_out), -bound, bound


def init_params(specs: dict, rng: np.random.Generator) -> dict[str, Tensor]:
    """Trainable tensors from an ordered ``{name: (shape, low, high)}`` table.

    In table order, each entry is drawn uniformly from [low, high) when
    low < high and filled with the constant ``low`` otherwise (no draw).
    """
    return {
        name: Tensor(rng.uniform(low, high, size=shape) if low < high else np.full(shape, low),
                     requires_grad=True)
        for name, (shape, low, high) in specs.items()
    }


# ---------------------------------------------------------------------------
# broadcasting helpers

@functools.lru_cache(maxsize=1024)
def _broadcast_shape(sa: tuple, sb: tuple, op: str) -> tuple[int, ...]:
    """Result shape for the restricted broadcast; raises on anything fancier.

    An operand may omit leading axes or carry singleton axes, but the set of
    broadcast axes must form a contiguous prefix or a contiguous suffix of
    the padded axis list.  That admits bias terms, per-position gates and
    scalars while rejecting mixed interior patterns.
    """
    n = max(len(sa), len(sb))
    pa = (1,) * (n - len(sa)) + sa
    pb = (1,) * (n - len(sb)) + sb
    out = []
    for da, db in zip(pa, pb):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{op}: cannot broadcast {sa} with {sb}")
        out.append(max(da, db))
    out_t = tuple(out)
    # contiguity is judged among axes the output actually extends over; axes
    # of extent 1 on both sides are neutral and never break a block
    significant = [i for i in range(n) if out_t[i] != 1]
    for padded in (pa, pb):
        axes = [i for i in significant if padded[i] == 1]
        if not axes:
            continue
        k = len(axes)
        prefix = axes == significant[:k]
        suffix = axes == significant[-k:]
        if not (prefix or suffix):
            raise ShapeError(
                f"{op}: broadcast of {sa} with {sb} is neither leading-axis nor trailing-singleton"
            )
    return out_t


def _sum_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# binary elementwise primitives

def _binary(op: str, a, b, fwd, grad_a, grad_b) -> Tensor:
    """Record ``fwd(a, b)``; ``grad_a(g, x, y)`` and ``grad_b(g, x, y)`` give the
    unreduced operand gradients, each computed only for an operand that needs it."""
    if type(a) is Tensor and type(b) is Tensor and a.data.shape == b.data.shape:
        ta, tb = a, b  # equal shapes always broadcast
    else:
        ta, tb = as_tensor(a), as_tensor(b)
        _broadcast_shape(ta.shape, tb.shape, op)
    out = _wrap(_ensure_finite(fwd(ta.data, tb.data), op))

    def pull(g):
        x, y = ta.data, tb.data
        return (_sum_to(grad_a(g, x, y), x.shape) if ta.requires_grad else None,
                _sum_to(grad_b(g, x, y), y.shape) if tb.requires_grad else None)

    return _record(out, (ta, tb), pull)


def _pass(g, x, y):
    return g


def _divide(x, y):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, y)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, _pass, _pass)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, _pass, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary("div", a, b, _divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def linear(x, w, b=None) -> Tensor:
    """``x @ w + b`` for a 2-D weight ``w``, as one record; ``b`` is optional."""
    tx, tw = as_tensor(x), as_tensor(w)
    if tx.ndim < 2 or tw.ndim != 2 or tx.shape[-1] != tw.shape[0]:
        raise ShapeError(f"linear needs (..., n) @ (n, m), got {tx.shape} @ {tw.shape}")
    data = tx.data @ tw.data
    inputs = (tx, tw)
    if b is not None:
        tb = as_tensor(b)
        if tb.shape != (tw.shape[1],):
            raise ShapeError(f"linear bias must have shape ({tw.shape[1]},), got {tb.shape}")
        data += tb.data
        inputs = (tx, tw, tb)
    out = _wrap(_ensure_finite(data, "linear"))

    def pull(g):
        gx = g @ tw.data.T if tx.requires_grad else None
        gw = None
        if tw.requires_grad:
            # fold the batch axes into rows: one product, no (B, in, out) stack to sum
            gw = tx.data.reshape(-1, tx.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        if b is None:
            return gx, gw
        return gx, gw, _sum_to(g, tb.shape) if tb.requires_grad else None

    return _record(out, inputs, pull)


def attention(q, k, v, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention, as one record.

    q is (B, Pq, W) and k, v are (B, Pk, W) with W = n_heads * d_k.  Each
    head takes softmax(q k^T / sqrt(d_k)) v; the heads are merged back to
    (B, Pq, W).  The backward pass applies the softmax rule
    dS = P * (dP - rowsum(dP * P)) to the weights P.
    """
    tq, tk, tv = as_tensor(q), as_tensor(k), as_tensor(v)
    if tq.ndim != 3 or tk.ndim != 3 or tk.shape != tv.shape or tk.shape[::2] != tq.shape[::2]:
        raise ShapeError(f"attention expects (B,Pq,W) queries and (B,Pk,W) keys and values, "
                         f"got {tq.shape}/{tk.shape}/{tv.shape}")
    bq, pq, width = tq.shape
    if n_heads < 1 or width % n_heads:
        raise ShapeError(f"width {width} not divisible by {n_heads} heads")
    dk = width // n_heads
    scale = 1.0 / np.sqrt(dk)

    def split(t):
        return t.data.reshape(t.shape[0], t.shape[1], n_heads, dk).transpose(0, 2, 1, 3)

    qh, kh, vh = split(tq), split(tk), split(tv)
    scores = _ensure_finite((qh @ kh.transpose(0, 1, 3, 2)) * scale, "attention")
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    weights = e / e.sum(axis=3, keepdims=True)               # (B, H, Pq, Pk)
    merged = (weights @ vh).transpose(0, 2, 1, 3).reshape(bq, pq, width)
    out = _wrap(_ensure_finite(merged, "attention"))

    def pull(g):
        gh = g.reshape(bq, pq, n_heads, dk).transpose(0, 2, 1, 3)
        gw = gh @ np.swapaxes(vh, -1, -2)
        gv = np.swapaxes(weights, -1, -2) @ gh
        gs = weights * (gw - (gw * weights).sum(axis=3, keepdims=True)) * scale
        gq = gs @ kh
        gk = (np.swapaxes(qh, -1, -2) @ gs).transpose(0, 1, 3, 2)
        return tuple(gt.transpose(0, 2, 1, 3).reshape(t.shape)
                     for gt, t in ((gq, tq), (gk, tk), (gv, tv)))

    return _record(out, (tq, tk, tv), pull)


# ---------------------------------------------------------------------------
# unary elementwise primitives

def exp(x) -> Tensor:
    tx = as_tensor(x)
    with np.errstate(over="ignore"):
        data = np.exp(tx.data)
    _ensure_finite(data, "exp")
    out = _wrap(data)

    def pull(g):
        return (g * data,)

    return _record(out, (tx,), pull)


def log(x) -> Tensor:
    tx = as_tensor(x)
    if np.any(tx.data <= 0.0):
        raise DomainError("log requires strictly positive operands")
    data = np.log(tx.data)
    out = _wrap(data)

    def pull(g):
        return (g / tx.data,)

    return _record(out, (tx,), pull)


def sigmoid(x) -> Tensor:
    tx = as_tensor(x)
    v = tx.data
    data = np.empty_like(v)
    pos = v >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    data[~pos] = ev / (1.0 + ev)
    out = _wrap(data)

    def pull(g):
        return (g * data * (1.0 - data),)

    return _record(out, (tx,), pull)


def relu(x) -> Tensor:
    tx = as_tensor(x)
    data = np.maximum(tx.data, 0.0)
    out = _wrap(data)

    def pull(g):
        return (g * (tx.data > 0.0),)

    return _record(out, (tx,), pull)


# ---------------------------------------------------------------------------
# reductions

def _normalized_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def _expand_reduced(g, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def _reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    tx = as_tensor(x)
    if axis is not None:
        axis = _normalized_axis(axis, tx.ndim)
    data = tx.data.sum(axis=axis, keepdims=keepdims)
    out = _wrap(np.asarray(data))

    def pull(g):
        return (_expand_reduced(g, tx.shape, axis, keepdims).copy(),)

    return _record(out, (tx,), pull)


def _reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    tx = as_tensor(x)
    if axis is not None:
        axis = _normalized_axis(axis, tx.ndim)
    count = tx.size if axis is None else tx.shape[axis]
    # what ndarray.mean computes for float64: a pairwise sum, then one division
    data = np.add.reduce(tx.data, axis=axis, keepdims=keepdims) / count
    out = _wrap(np.asarray(data))

    def pull(g):
        return (_expand_reduced(g, tx.shape, axis, keepdims) / count,)

    return _record(out, (tx,), pull)


def _reduce_max(x, axis: int) -> Tensor:
    """Max along one axis; gradient routes to the first attaining element."""
    tx = as_tensor(x)
    ax = _normalized_axis(axis, tx.ndim)
    idx = np.expand_dims(np.argmax(tx.data, axis=ax), ax)
    data = np.take_along_axis(tx.data, idx, axis=ax).squeeze(ax)
    out = _wrap(data)

    def pull(g):
        z = np.zeros_like(tx.data)
        np.put_along_axis(z, idx, np.expand_dims(g, ax), axis=ax)
        return (z,)

    return _record(out, (tx,), pull)


def l2norm(x, axis: int) -> Tensor:
    """Euclidean norm along one axis.

    The gradient at an exactly-zero slice is taken to be zero.
    """
    tx = as_tensor(x)
    axis = _normalized_axis(axis, tx.ndim)
    sq = (tx.data * tx.data).sum(axis=axis)
    data = np.sqrt(sq)
    out = _wrap(np.asarray(data))

    def pull(g):
        norm_e = _expand_reduced(data, tx.shape, axis, False)
        g_e = _expand_reduced(g, tx.shape, axis, False)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(norm_e > 0.0, tx.data / np.where(norm_e == 0.0, 1.0, norm_e), 0.0)
        return (g_e * frac,)

    return _record(out, (tx,), pull)


# ---------------------------------------------------------------------------
# running accumulations (numpy accumulates sequentially, in axis order)

def _reverse_cumsum(g: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis)


def cumsum(x, axis: int) -> Tensor:
    """Running sum along one axis."""
    tx = as_tensor(x)
    ax = _normalized_axis(axis, tx.ndim)
    data = _ensure_finite(np.cumsum(tx.data, axis=ax), "cumsum")
    out = _wrap(data)

    def pull(g):
        return (_reverse_cumsum(g, ax),)

    return _record(out, (tx,), pull)


def cumprod(x, axis: int) -> Tensor:
    """Running product along one axis of strictly positive operands.

    The gradient is the reversed running sum of ``g * out`` divided by the
    operand, which is why the operand must be positive.
    """
    tx = as_tensor(x)
    if np.any(tx.data <= 0.0):
        raise DomainError("cumprod requires strictly positive operands")
    ax = _normalized_axis(axis, tx.ndim)
    data = _ensure_finite(np.cumprod(tx.data, axis=ax), "cumprod")
    out = _wrap(data)

    def pull(g):
        return (_reverse_cumsum(g * data, ax) / tx.data,)

    return _record(out, (tx,), pull)


# ---------------------------------------------------------------------------
# structural primitives

def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    ax = _normalized_axis(axis, ts[0].ndim)
    base = list(ts[0].shape)
    for t in ts[1:]:
        other = list(t.shape)
        if len(other) != len(base):
            raise ShapeError("concat operands differ in rank")
        if other[:ax] + other[ax + 1:] != base[:ax] + base[ax + 1:]:
            raise ShapeError("concat operands differ off the concat axis")
    data = np.concatenate([t.data for t in ts], axis=ax)
    out = _wrap(data)
    pieces, start = [], 0
    for t in ts:
        pieces.append((slice(None),) * ax + (slice(start, start + t.shape[ax]),))
        start += t.shape[ax]

    def pull(g):
        return tuple(g[piece] for piece in pieces)

    return _record(out, tuple(ts), pull)


def reshape(x, shape) -> Tensor:
    tx = as_tensor(x)
    try:
        data = tx.data.reshape(shape)
    except ValueError as err:
        raise ShapeError(f"cannot reshape {tx.shape} to {shape}: {err}") from None
    out = _wrap(data)

    def pull(g):
        return (g.reshape(tx.shape),)

    return _record(out, (tx,), pull)


def _inverse_permutation(axes: tuple) -> tuple:
    inverse = [0] * len(axes)
    for i, a in enumerate(axes):
        inverse[a] = i
    return tuple(inverse)


def transpose(x, axes) -> Tensor:
    tx = as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(tx.ndim)):
        raise ShapeError(f"invalid permutation {axes} for ndim {tx.ndim}")
    data = tx.data.transpose(axes)
    out = _wrap(data)
    inverse = _inverse_permutation(axes)

    def pull(g):
        return (g.transpose(inverse),)

    return _record(out, (tx,), pull)


def rearrange(x, shape_in, perm, shape_out) -> Tensor:
    """``x.reshape(shape_in).transpose(perm).reshape(shape_out)``, as one record."""
    tx = as_tensor(x)
    perm = tuple(int(a) for a in perm)
    if sorted(perm) != list(range(len(shape_in))):
        raise ShapeError(f"invalid permutation {perm} for shape {tuple(shape_in)}")
    try:
        moved = tx.data.reshape(shape_in).transpose(perm)
        data = moved.reshape(shape_out)
    except ValueError as err:
        raise ShapeError(f"cannot rearrange {tx.shape} via {tuple(shape_in)} "
                         f"to {tuple(shape_out)}: {err}") from None
    out = _wrap(data)
    mid, inverse = moved.shape, _inverse_permutation(perm)

    def pull(g):
        return (g.reshape(mid).transpose(inverse).reshape(tx.shape),)

    return _record(out, (tx,), pull)


def slice_along(x, axis: int, start: int, stop: int) -> Tensor:
    tx = as_tensor(x)
    ax = _normalized_axis(axis, tx.ndim)
    dim = tx.shape[ax]
    if not (0 <= start < stop <= dim):
        raise ShapeError(f"slice [{start}:{stop}] invalid for axis of size {dim}")
    sl = tuple(slice(None) if i != ax else slice(start, stop) for i in range(tx.ndim))
    data = tx.data[sl].copy()
    out = _wrap(data)

    def pull(g):
        z = np.zeros_like(tx.data)
        z[sl] = g
        return (z,)

    return _record(out, (tx,), pull)


def take_rows(matrix, indices) -> Tensor:
    """Row lookup ``matrix[indices]``; the gradient scatter-adds into rows."""
    tm = as_tensor(matrix)
    if tm.ndim != 2:
        raise ShapeError("take_rows expects a 2-D matrix")
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise ShapeError("take_rows indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= tm.shape[0]):
        raise ShapeError("take_rows index out of range")
    data = tm.data[idx]
    out = _wrap(data)

    def pull(g):
        # bincount adds each bin's weights in index order, as np.add.at does
        width = tm.shape[1]
        flat = (idx.reshape(-1, 1).astype(np.intp) * width + np.arange(width)).reshape(-1)
        return (np.bincount(flat, weights=g.reshape(-1), minlength=tm.size).reshape(tm.shape),)

    return _record(out, (tm,), pull)


def detach(x) -> Tensor:
    """Copy of ``x`` cut out of the graph; values are bit-identical."""
    tx = as_tensor(x)
    return _wrap(tx.data.copy())


def straight_through(flow, values) -> Tensor:
    """Forward the ``values`` buffer bit-exactly; route gradient to ``flow``.

    This is the estimator used to train through hard selections: the output
    carries ``values`` but behaves like the identity of ``flow`` under
    differentiation.  ``values`` itself receives no gradient.
    """
    tf, tv = as_tensor(flow), as_tensor(values)
    if tf.shape != tv.shape:
        raise ShapeError(f"straight_through shapes differ: {tf.shape} vs {tv.shape}")
    out = _wrap(tv.data.copy())

    def pull(g):
        return (g, None)

    return _record(out, (tf, tv), pull)


def clip_passthrough(x, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Clamp values into [lo, hi]; the gradient passes through unchanged."""
    tx = as_tensor(x)
    data = np.clip(tx.data, lo, hi)
    out = _wrap(data)

    def pull(g):
        return (g,)

    return _record(out, (tx,), pull)


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into ``.grad`` over the active tape.

    The walk visits each record exactly once in reverse execution order;
    records not upstream of ``loss`` carry a zero adjoint and contribute
    nothing.  All grads touched by the tape are cleared first, so repeated
    calls on an intact graph give identical results.  Each leaf gradient
    is checked once for finiteness (see the module docstring).
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    records = _STATE.graph
    produced: set[int] = set()
    leaves: dict[int, Tensor] = {}
    for out, inputs, _ in records:
        out.grad = None
        produced.add(id(out))
        for t in inputs:
            t.grad = None
            # tape order is execution order, so a record output is always
            # in ``produced`` before any record reads it
            if t.requires_grad and id(t) not in produced:
                leaves[id(t)] = t
    loss.grad = np.ones_like(loss.data)
    # an overflowing adjoint is reported by the leaf check below, not by numpy
    with np.errstate(all="ignore"):
        for out, inputs, pull in reversed(records):
            g = out.grad
            if g is None:
                continue
            for t, contrib in zip(inputs, pull(g)):
                if contrib is None or not t.requires_grad:
                    continue
                t.grad = contrib if t.grad is None else t.grad + contrib
    for t in leaves.values():
        if t.grad is not None and not np.all(np.isfinite(t.grad)):
            raise NumericsError("backward produced a non-finite gradient")
