"""Minimal dense-tensor numerics with explicit reverse-mode adjoints.

Every differentiable operation here builds its output through :func:`make_op`,
attaching a closure that knows the exact adjoint of the forward computation.
``Tensor.backward`` replays those closures in reverse topological order and
consumes the graph as it goes: one forward allows one backward, and afterwards
only the leaves (and the root) hold gradients. There is no graph optimization;
the contract is that every registered operation survives
:func:`finite_diff_check` against central differences in 64-bit mode.

Precision: 32-bit floats are the working dtype, 64-bit is used for gradient
validation. Checked mode (see :func:`checked_mode`) checks each op's output
for non-finite values and names the op that made them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import (DimensionError, DomainError, GraphConsumedError,
                     NumericError, UnsupportedOpError)

DEFAULT_DTYPE = np.float32

_checked = False


@contextmanager
def checked_mode():
    """Within the block, the first op whose output holds a NaN or an infinity
    raises :class:`NumericError` naming that op, not one of its consumers."""
    global _checked
    prev = _checked
    _checked = True
    try:
        yield
    finally:
        _checked = prev


class Tensor:
    """Dense ndarray plus an optional same-shape gradient accumulator.

    ``requires_grad`` marks leaves (parameters, inputs under test); outputs of
    ops inherit it from their parents. ``grad`` is allocated on first
    accumulation, as a copy of the incoming gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        # data is contractually contiguous row-major; reshape views rely on it
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a contiguous copy, never a view: adjoints hand on views of their
            # input and of transposed products
            self.grad = np.array(np.broadcast_to(g, self.shape), dtype=self.dtype,
                                 order="C")
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this value into every reachable leaf.

        Without an explicit seed the output must be scalar-like; the seed is
        then an array of ones.

        The pass consumes the graph, as ``retain_graph=False`` does in
        PyTorch: as soon as a node's adjoint has run, the node drops its
        closure, its parents and its gradient, so the tape is freed while the
        pass proceeds. One forward therefore allows one backward. Afterwards
        only the leaves keep their gradients, plus this root its seed. A
        second backward through a consumed node raises
        :class:`GraphConsumedError` before any gradient is touched.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise DimensionError(
                    f"seed shape {seed.shape} != output shape {self.data.shape}")

        # Iterative topological order over the recorded tape.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                raise GraphConsumedError(
                    "backward through a graph an earlier backward consumed; "
                    "run the forward again")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        self.accumulate_grad(seed)
        while order:
            # popped, so the list holds no reference once the node is done
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents = _consumed, ()
            if node is not self:
                node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.grad is not None})"


def _consumed(g: np.ndarray) -> None:
    """Adjoint slot of a node whose adjoint has run; backward never calls it."""
    raise GraphConsumedError("adjoint of a consumed graph node")


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype)
    return Tensor(arr, requires_grad=requires_grad)


def make_op(out_data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Wrap an op result, recording parents and the adjoint closure.

    ``backward(g)`` receives the upstream gradient and must accumulate into
    each parent via ``accumulate_grad``. The closure is dropped when no parent
    requires gradients. In checked mode a non-finite result raises
    :class:`NumericError` naming the op, the function that defines the closure.
    """
    if _checked and not np.isfinite(out_data).all():
        op = backward.__qualname__.partition(".<locals>")[0]
        raise NumericError(f"non-finite values in the output of '{op}'")
    out = Tensor(out_data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# --- adjoint registry, used by finite_diff_check and the gradcheck suite ---

_OP_REGISTRY: dict[str, object] = {}


def register_op(name: str, fn) -> None:
    _OP_REGISTRY[name] = fn


def registered_ops() -> tuple[str, ...]:
    return tuple(sorted(_OP_REGISTRY))


def resolve_op(op):
    if callable(op):
        return op
    try:
        return _OP_REGISTRY[op]
    except KeyError:
        raise UnsupportedOpError(f"no registered adjoint for operation '{op}'") from None


# --- parameter containers -------------------------------------------------


@dataclass
class LinearParams:
    """Weight is out x in; bias, when present, has one entry per output row."""

    weight: Tensor
    bias: Tensor | None = None

    def __post_init__(self):
        if self.bias is not None and self.weight.shape[0] != self.bias.shape[0]:
            raise DimensionError(
                f"weight rows {self.weight.shape[0]} != bias length {self.bias.shape[0]}")

    def tensors(self) -> tuple[Tensor, ...]:
        return (self.weight,) if self.bias is None else (self.weight, self.bias)


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")

    def tensors(self) -> tuple[Tensor, Tensor]:
        return (self.gamma, self.beta)


@dataclass
class Conv3x3Params:
    """Dense 3x3 grid convolution over (T, V); weight is (C_out, C_in, 3, 3)."""

    weight: Tensor
    bias: Tensor | None = None

    def tensors(self) -> tuple[Tensor, ...]:
        return (self.weight,) if self.bias is None else (self.weight, self.bias)


@dataclass
class DepthwiseConv3x3Params:
    """Per-channel 3x3 grid convolution over (T, V); weight is (C, 3, 3)."""

    weight: Tensor
    bias: Tensor | None = None

    def tensors(self) -> tuple[Tensor, ...]:
        return (self.weight,) if self.bias is None else (self.weight, self.bias)


# --- elementwise and shape ops ---------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape an operand had before broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return make_op(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(-_unbroadcast(g, b.shape))

    return make_op(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return make_op(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * a.data.dtype.type(c)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * a.data.dtype.type(c))

    return make_op(out, (a,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact erf form."""
    d = x.data
    cdf = 0.5 * (1.0 + erf(d / math.sqrt(2.0)))
    out = (d * cdf).astype(d.dtype, copy=False)

    def backward(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
            x.accumulate_grad(g * (cdf + d * pdf).astype(d.dtype, copy=False))

    return make_op(out, (x,), backward)


def silu(x: Tensor) -> Tensor:
    d = x.data
    sig = 1.0 / (1.0 + np.exp(-d))
    out = (d * sig).astype(d.dtype, copy=False)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (sig * (1.0 + d * (1.0 - sig))).astype(d.dtype, copy=False))

    return make_op(out, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; gradient is unbounded as values approach zero."""
    if np.any(x.data < 0):
        raise DomainError("sqrt of negative value")
    out = np.sqrt(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g / (2.0 * out))

    return make_op(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(g, x.shape).astype(x.dtype))

    return make_op(out, (x,), backward)


def sum_last(x: Tensor) -> Tensor:
    out = x.data.sum(axis=-1)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.repeat(g[..., None], x.shape[-1], axis=-1))

    return make_op(out, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return make_op(out, (x,), backward)


def slice0(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[0]):
        raise DimensionError(f"slice [{start}:{stop}] out of range for axis of size {x.shape[0]}")
    out = x.data[start:stop].copy()

    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[start:stop] = g
            x.accumulate_grad(full)

    return make_op(out, (x,), backward)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[-1]):
        raise DimensionError(f"slice [{start}:{stop}] out of range for axis of size {x.shape[-1]}")
    out = x.data[..., start:stop].copy()

    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[..., start:stop] = g
            x.accumulate_grad(full)

    return make_op(out, (x,), backward)


def concat_last(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_last needs at least one part")
    out = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.shape[-1] for p in parts]

    def backward(g):
        off = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p.accumulate_grad(g[..., off:off + w])
            off += w

    return make_op(out, tuple(parts), backward)


# --- core layers ------------------------------------------------------------


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """y[..., o] = sum_i weight[o, i] * x[..., i] + bias[o]."""
    w, b = p.weight, p.bias
    if x.shape[-1] != w.shape[1]:
        raise DimensionError(
            f"linear: input shape {x.shape} incompatible with weight shape {w.shape}")
    out = x.data @ w.data.T
    if b is not None:
        out = out + b.data
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.data)
        if w.requires_grad:
            g2 = g.reshape(-1, w.shape[0])
            x2 = x.data.reshape(-1, w.shape[1])
            w.accumulate_grad(g2.T @ x2)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.reshape(-1, w.shape[0]).sum(axis=0))

    return make_op(out, parents, backward)


def layer_norm(x: Tensor, p: NormParams) -> Tensor:
    """Normalize each trailing-axis slice to zero mean / unit variance, then scale-shift."""
    c = x.shape[-1] if x.data.ndim > 0 else 0
    if c == 0:
        raise DimensionError("layer_norm: empty feature axis")
    if p.gamma.shape != (c,) or p.beta.shape != (c,):
        raise DimensionError(
            f"layer_norm: gamma/beta shapes {p.gamma.shape}/{p.beta.shape} do not match C={c}")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(p.epsilon))
    xhat = centered * inv
    out = p.gamma.data * xhat + p.beta.data

    def backward(g):
        if p.gamma.requires_grad:
            p.gamma.accumulate_grad((g * xhat).reshape(-1, c).sum(axis=0))
        if p.beta.requires_grad:
            p.beta.accumulate_grad(g.reshape(-1, c).sum(axis=0))
        if x.requires_grad:
            gx = g * p.gamma.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gx - m1 - xhat * m2))

    return make_op(out, (x, p.gamma, p.beta), backward)


def scatter_rows(dst: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    """Accumulate vals[m] into dst[rows[m]] for a (R, C) destination.

    Computed as one sparse product: an (R, M) CSC matrix holding a single one
    per column m, at row ``rows[m]``, times vals. The sums run in order of m,
    so the result is deterministic whatever rows repeat.
    """
    from scipy.sparse import csc_array  # at first use: commands without a model skip it

    m = rows.shape[0]
    pick = csc_array((np.ones(m, dtype=vals.dtype), rows, np.arange(m + 1)),
                     shape=(dst.shape[0], m))
    dst += pick @ vals


def _take_rows(a: np.ndarray, rows: np.ndarray, c: int) -> np.ndarray:
    taken = a.reshape(-1, c)[rows]
    return taken[..., 0, :] if rows.shape[-1] == 1 else taken.sum(axis=-2)


def gather_sum(x: Tensor, rows: np.ndarray, inverse: np.ndarray) -> Tensor:
    """``out[m] = sum_j x[rows[m, j]]`` over the rows of x, viewed as (R, C).

    ``rows`` has shape M + (J,) and the result M + (C,); the J terms are
    added in order. ``inverse`` is the same relation read the other way, an
    (R, K) array: row r of x is read at the K flat positions ``inverse[r]``
    of M, every row equally often. The adjoint is therefore the same gather
    with ``rows`` and ``inverse`` swapped, and needs no scatter.
    """
    c = x.shape[-1]
    out = _take_rows(x.data, rows, c)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(_take_rows(g, inverse, c).reshape(x.shape))

    return make_op(out, (x,), backward)


def _neighbor_rows(t_n: int, v_n: int) -> np.ndarray:
    """Flat (t, v) rows of each position's clamp-to-edge 3x3 neighbourhood.

    Shape (T*V, 9); column ``3*i + j`` holds offset ``(i-1, j-1)``, the order
    of a 3x3 weight's trailing axes flattened.
    """
    ti = np.clip(np.arange(t_n)[:, None] + np.arange(-1, 2), 0, t_n - 1)
    vi = np.clip(np.arange(v_n)[:, None] + np.arange(-1, 2), 0, v_n - 1)
    return (ti[:, None, :, None] * v_n + vi[None, :, None, :]).reshape(t_n * v_n, 9)


def grid_conv3x3(x: Tensor, p: Conv3x3Params) -> Tensor:
    """3x3 convolution over the leading (T, V) grid with clamp-to-edge padding."""
    t_n, v_n, c_in = x.shape
    w, b = p.weight, p.bias
    if w.shape[1] != c_in:
        raise DimensionError(
            f"grid_conv3x3: input channels {c_in} != weight in-channels {w.shape[1]}")
    c_out = w.shape[0]
    rows = _neighbor_rows(t_n, v_n)
    w_mat = w.data.transpose(0, 2, 3, 1).reshape(c_out, 9 * c_in)
    out = x.data.reshape(-1, c_in)[rows].reshape(-1, 9 * c_in) @ w_mat.T
    if b is not None:
        out += b.data
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, c_out)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0))
        if w.requires_grad:
            # gathered again: at 9x the size of x, it is not kept on the tape
            xs = x.data.reshape(-1, c_in)[rows].reshape(-1, 9 * c_in)
            dw = (g2.T @ xs).reshape(c_out, 3, 3, c_in)
            w.accumulate_grad(dw.transpose(0, 3, 1, 2))
        if x.requires_grad:
            dx = np.zeros((t_n * v_n, c_in), dtype=x.dtype)
            scatter_rows(dx, rows.ravel(), (g2 @ w_mat).reshape(-1, c_in))
            x.accumulate_grad(dx.reshape(x.shape))

    return make_op(out.reshape(t_n, v_n, c_out), parents, backward)


def depthwise_conv3x3(x: Tensor, p: DepthwiseConv3x3Params) -> Tensor:
    """Per-channel 3x3 convolution over (T, V) with clamp-to-edge padding."""
    t_n, v_n, c = x.shape
    w, b = p.weight, p.bias
    if w.shape[0] != c:
        raise DimensionError(
            f"depthwise_conv3x3: input channels {c} != weight channels {w.shape[0]}")
    rows = _neighbor_rows(t_n, v_n)
    w_mat = np.ascontiguousarray(w.data.reshape(c, 9).T)          # (9, C)
    out = np.einsum("pkc,kc->pc", x.data.reshape(-1, c)[rows], w_mat)
    if b is not None:
        out += b.data
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, c)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0))
        if w.requires_grad:
            xs = x.data.reshape(-1, c)[rows]                      # as in grid_conv3x3
            w.accumulate_grad(np.einsum("pc,pkc->ck", g2, xs).reshape(c, 3, 3))
        if x.requires_grad:
            dx = np.zeros((t_n * v_n, c), dtype=x.dtype)
            scatter_rows(dx, rows.ravel(), (g2[:, None, :] * w_mat).reshape(-1, c))
            x.accumulate_grad(dx.reshape(x.shape))

    return make_op(out.reshape(x.shape), parents, backward)


# --- bilinear sampling ------------------------------------------------------


def bilinear_weights(pt: np.ndarray, pv: np.ndarray, t_n: int, v_n: int):
    """Corner indices and weights for clamp-to-edge bilinear interpolation.

    Weights use the standard product form (1-|dt|)(1-|dv|) per corner, which
    is nonnegative, sums to one, and reproduces grid values exactly at
    integer positions.
    """
    pct = np.clip(pt, 0.0, float(t_n - 1))
    pcv = np.clip(pv, 0.0, float(v_n - 1))
    t0 = np.minimum(np.floor(pct).astype(np.int64), t_n - 1)
    v0 = np.minimum(np.floor(pcv).astype(np.int64), v_n - 1)
    t1 = np.minimum(t0 + 1, t_n - 1)
    v1 = np.minimum(v0 + 1, v_n - 1)
    wt = pct - t0
    wv = pcv - v0
    w00 = (1.0 - wt) * (1.0 - wv)
    w01 = (1.0 - wt) * wv
    w10 = wt * (1.0 - wv)
    w11 = wt * wv
    return (t0, t1, v0, v1), (w00, w01, w10, w11), (wt, wv)


def bilinear_gather(x: Tensor, pt: Tensor, pv: Tensor) -> Tensor:
    """Sample x at fractional (t, v) positions; positions clamp to the edge.

    ``pt`` and ``pv`` share a common shape S; the result has shape S + (C,).
    The n = prod(S) samples are one sparse product ``W @ x`` with x viewed as
    (T*V, C): W is (n, T*V) CSR with four entries per row, the corners 00,
    01, 10, 11 and their weights. The x adjoint is ``W.T @ g``. Each position
    adjoint fills the same pattern with the weights' derivative in t (or v),
    multiplies by x and takes the row-wise dot with g; the clamp has zero
    slope unless the position lies strictly inside the grid. The tape keeps
    only the pattern, weights and masks, never an (n, C) gather. A non-finite
    position raises :class:`NumericError` whether or not checked mode is on:
    a NaN has no corner, and would cast to a negative column index.
    """
    from scipy.sparse import csr_array  # at first use, as in scatter_rows

    t_n, v_n, c = x.shape
    if pt.shape != pv.shape:
        raise DimensionError(f"position shapes differ: {pt.shape} vs {pv.shape}")
    if not (np.isfinite(pt.data).all() and np.isfinite(pv.data).all()):
        raise NumericError("non-finite sampling positions")
    (t0, t1, v0, v1), corners, (wt, wv) = bilinear_weights(pt.data, pv.data, t_n, v_n)
    n = pt.size
    cols = np.stack([t0 * v_n + v0, t0 * v_n + v1, t1 * v_n + v0, t1 * v_n + v1],
                    axis=-1).reshape(-1)
    rows = np.arange(0, 4 * n + 1, 4)

    def sampling(weights) -> csr_array:
        # in x's dtype, so that the product neither upcasts x nor its result
        data = np.stack(weights, axis=-1).astype(x.dtype).reshape(-1)
        return csr_array((data, cols, rows), shape=(n, t_n * v_n))

    w = sampling(corners)
    xf = x.data.reshape(-1, c)
    out = (w @ xf).reshape(pt.shape + (c,))

    def backward(g):
        g2 = g.reshape(n, c)
        if x.requires_grad:
            x.accumulate_grad((w.T @ g2).reshape(x.shape))
        if pt.requires_grad:
            mt = (pt.data > 0.0) & (pt.data < t_n - 1)
            d_dt = np.einsum("nc,nc->n", sampling((wv - 1.0, -wv, 1.0 - wv, wv)) @ xf, g2)
            pt.accumulate_grad(mt * d_dt.reshape(pt.shape))
        if pv.requires_grad:
            mv = (pv.data > 0.0) & (pv.data < v_n - 1)
            d_dv = np.einsum("nc,nc->n", sampling((wt - 1.0, 1.0 - wt, -wt, wt)) @ xf, g2)
            pv.accumulate_grad(mv * d_dv.reshape(pv.shape))

    return make_op(out, (x, pt, pv), backward)


# --- finite-difference validation -------------------------------------------


def finite_diff_check(op, inputs: list[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic adjoints and central differences.

    The op output is scalar-reduced by summation. Inputs are promoted to
    64-bit; relative error uses ``|a - n| / max(1, |a|, |n|)`` per element.
    """
    fn = resolve_op(op)
    xs = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in inputs]
    return finite_diff_check_leaves(lambda: fn(*xs), xs, eps)


def finite_diff_check_leaves(fn, leaves: list[Tensor], eps: float = 1e-5,
                             sample: int | None = None, rng=None) -> float:
    """Finite-difference check for composite computations.

    ``fn()`` evaluates the computation from the given leaf tensors (which it
    must reference directly) and returns a Tensor; the comparison scalar is
    its sum. Leaves must be 64-bit with ``requires_grad`` set. When ``sample``
    is given, only that many randomly chosen elements per leaf are probed,
    which keeps large composites tractable.
    """
    if not (0.0 < eps <= 1e-2):
        raise DomainError(f"eps must lie in (0, 1e-2], got {eps}")
    for leaf in leaves:
        if leaf.dtype != np.float64:
            raise DomainError("finite_diff_check_leaves requires 64-bit leaves")
        leaf.zero_grad()
    out = fn()
    sum_all(out).backward()
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for leaf in leaves:
        analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
        flat = leaf.data.reshape(-1)
        aflat = analytic.reshape(-1)
        if sample is None or sample >= flat.size:
            indices = range(flat.size)
        else:
            indices = rng.choice(flat.size, size=sample, replace=False)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(fn().data.sum())
            flat[i] = orig - eps
            f_minus = float(fn().data.sum())
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
            worst = max(worst, rel)
    return worst


# registry of taped operations with exact adjoints
register_op("add", add)
register_op("sub", sub)
register_op("mul", mul)
register_op("gelu", gelu)
register_op("silu", silu)
register_op("sqrt", sqrt)
register_op("sum_all", sum_all)
register_op("sum_last", sum_last)
register_op("linear", lambda x, w, b: linear(x, LinearParams(w, b)))
register_op("layer_norm", lambda x, g, b: layer_norm(x, NormParams(g, b)))
register_op("grid_conv3x3", lambda x, w, b: grid_conv3x3(x, Conv3x3Params(w, b)))
register_op("depthwise_conv3x3", lambda x, w, b: depthwise_conv3x3(x, DepthwiseConv3x3Params(w, b)))
register_op("bilinear_gather", bilinear_gather)
register_op("reshape_flat", lambda x: reshape(x, (x.size,)))
register_op("slice0", lambda x: slice0(x, 1, x.shape[0]))
register_op("slice_last", lambda x: slice_last(x, 0, max(1, x.shape[-1] // 2)))
register_op("concat_last", lambda a, b: concat_last([a, b]))


def _gather_sum_op(x):
    # every row read twice: out[m] = x[m] + x[m + 1], cyclically
    r = np.arange(x.size // x.shape[-1])
    return gather_sum(x, np.stack([r, np.roll(r, -1)], axis=1),
                      np.stack([r, np.roll(r, 1)], axis=1))


register_op("gather_sum", _gather_sum_op)
