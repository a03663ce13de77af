"""Minimal dense-tensor numerics with explicit reverse-mode adjoints.

Every differentiable operation here builds its output through :func:`make_op`,
attaching a closure that knows the exact adjoint of the forward computation.
The graph is made of :class:`Node` objects, kept apart from the values: an
adjoint captures only the arrays it reads, never a tensor or a node, so an
intermediate no adjoint reads is freed as soon as the forward code drops it.
An adjoint returns one gradient per op input; ``Tensor.backward`` replays the
adjoints in reverse topological order, hands each gradient to its input's
node in one place, where a node adopts a first gradient its adjoint made for
it alone and copies any other, and consumes the graph as it goes: one
forward allows one backward, and afterwards only the leaves (and the root)
hold gradients. An adjoint may write over the gradient it is handed, when
that is writeable, since nothing reads it afterwards; a root's is not. What
the tape keeps is what an adjoint cannot cheaply rebuild:
:func:`layer_norm_mlp`, for one, keeps the normalized input and GELU's CDF
and remakes the rest of each block's MLP, whose adjoint takes the CDF off
the tape and writes the hidden gradient over it. There is no graph
optimization; the contract is that every op in ``checks.OPS`` survives
:func:`finite_diff_check_leaves` against central differences in 64-bit
mode.

Precision: 32-bit floats are the working dtype, 64-bit is used for gradient
validation. Checked mode (see :func:`checked_mode`) checks each op's output
for non-finite values and names the op that made them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, DomainError, GraphConsumedError, NumericError

DEFAULT_DTYPE = np.float32
LAYER_NORM_EPS = 1e-5

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


class Node:
    """The gradient side of a tensor: what backward needs, never the value.

    ``parents`` holds one entry per op input, in input order: the input's
    node, or None when the input needs no gradient. ``backward`` is the op's
    adjoint; a leaf has neither. Adjoints capture only the arrays they read,
    never a :class:`Tensor` or a node, so the tape keeps an intermediate's
    array only while an adjoint reads it. ``grad`` is set by the first
    gradient to arrive: the array itself when the adjoint made it for this
    node alone (see :func:`_accumulate`), otherwise a contiguous copy in the
    node's shape and dtype. Later gradients are added into it in place.
    """

    __slots__ = ("grad", "parents", "backward", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], dtype,
                 parents: tuple[Node | None, ...] = (), backward=None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward = backward
        self.shape = shape
        self.dtype = dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a contiguous copy, never a view: adjoints hand on views of their
            # input and of transposed products
            self.grad = np.array(np.broadcast_to(g, self.shape), dtype=self.dtype,
                                 order="C")
        else:
            self.grad += g


def _accumulate(nodes: tuple[Node | None, ...], grads, upstream=None) -> None:
    """Add each gradient into its node, skipping inputs that need none.

    Every gradient reaches a node through here. A node's first gradient is
    adopted, not copied, when the adjoint made it for that node alone, as
    PyTorch's ``AccumulateGrad`` steals a gradient nothing else holds: an
    array that :func:`_fits` the node and shares no memory with
    ``upstream``, the gradient the adjoint was handed, nor with another of
    its returns. So ``upstream`` handed on, as by ``add`` and ``sum_all``, a
    view of it, and a buffer split between parents are copied;
    :func:`make_op`'s contract keeps a parameter's array, or any other
    array an adjoint captured, out of the returns. It is a function of its
    own so that, once it returns, no local still holds the last gradient
    while the next adjoint runs.
    """
    for i, (node, g) in enumerate(zip(nodes, grads)):
        if node is None:
            continue
        if (node.grad is None and _fits(node, g) and not np.may_share_memory(g, upstream)
                and not any(np.may_share_memory(g, h) for j, h in enumerate(grads) if j != i)):
            node.grad = g
        else:
            node.accumulate_grad(g)


def _fits(node: Node, g) -> bool:
    """Whether g can be the node's gradient as it is: a writeable row-major
    array of its shape and dtype spanning the whole buffer that g, or its
    base, owns, as a reshaped product does."""
    if not isinstance(g, np.ndarray):
        return False
    owner = g if g.base is None else g.base
    return (isinstance(owner, np.ndarray) and owner.flags.owndata
            and owner.nbytes == g.nbytes and g.flags.c_contiguous and g.flags.writeable
            and g.shape == node.shape and g.dtype == node.dtype)


class Tensor:
    """Dense ndarray plus, once gradients are involved, its :class:`Node`.

    ``requires_grad`` marks leaves (parameters, inputs under test); outputs of
    ops inherit it from their parents. ``grad`` lives on the node, which is
    made at first use.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        # data is contractually contiguous row-major; reshape views rely on it
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self._node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def node(self) -> Node:
        node = self._node
        if node is None:
            node = self._node = Node(self.data.shape, self.data.dtype)
        return node

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.node.grad = value

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this value into every reachable leaf.

        Without an explicit seed the output must be scalar-like; the seed is
        then an array of ones.

        The pass walks nodes, not tensors, and consumes the graph, as
        ``retain_graph=False`` does in PyTorch: as soon as a node's adjoint
        has run, the node drops its adjoint, its parents and its gradient, so
        the tape is freed while the pass proceeds. One forward therefore
        allows one backward. Afterwards only the leaves keep their gradients,
        plus this root its seed. A second backward through a consumed node
        raises :class:`GraphConsumedError` before any gradient is touched.

        A root with an adjoint is consumed by this pass, so nothing adds into
        its gradient: it takes a caller's seed as a read-only view, not a
        copy, and its adjoint reads it. The default seed is read-only too, and
        so is a gradient the caller set on such a root, once the seed is
        added into it, so an adjoint that writes over a writeable gradient
        (see :func:`make_op`) copies a root's first and the root keeps its
        gradient. A leaf root copies the seed, as any node copies a gradient
        it does not own.
        """
        if seed is None:
            seed = _read_only(np.ones_like(self.data))
        else:
            seed = np.asarray(seed, dtype=self.data.dtype, order="C")
            if seed.shape != self.data.shape:
                raise DimensionError(
                    f"seed shape {seed.shape} != output shape {self.data.shape}")
            seed = _read_only(seed)

        # Iterative topological order over the recorded tape.
        root = self.node
        order: list[Node] = []
        visited: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node.backward is _consumed:
                raise GraphConsumedError(
                    "backward through a graph an earlier backward consumed; "
                    "run the forward again")
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))
        del visited, stack

        if root.backward is not None and root.grad is None:
            root.grad = seed
        else:
            _accumulate((root,), (seed,))
            if root.backward is not None:
                root.grad = _read_only(root.grad)
        while order:
            # popped, so the list holds no reference once the node is done
            node = order.pop()
            if node.backward is None:
                continue
            if node.grad is not None:
                _accumulate(node.parents, node.backward(node.grad), node.grad)
            node.backward, node.parents = _consumed, ()
            if node is not root:
                node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.grad is not None})"


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _consumed(g: np.ndarray) -> None:
    """Adjoint slot of a node whose adjoint has run; backward never calls it."""
    raise GraphConsumedError("adjoint of a consumed graph node")


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype)
    return Tensor(arr, requires_grad=requires_grad)


def make_op(out_data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Wrap an op result, recording its inputs' nodes and the adjoint.

    ``backward(g)`` receives the upstream gradient and returns one gradient
    per input of ``parents``, in that order, each broadcastable to its
    input's shape; ``Tensor.backward`` accumulates them, skipping inputs that
    need no gradient. Each return is ``g``, a view of it, or an array the
    adjoint made and keeps no reference to, never an array it captured, so
    a node may adopt it as its gradient. The adjoint may write over ``g``
    when ``g`` is writeable: backward drops it once the adjoint has run, and
    a root's seed, which the root keeps, is read-only. It must not return
    ``g``, or a view of it, after writing over it. The adjoint captures
    arrays only, never a :class:`Tensor` or a node. It is dropped when no
    input requires gradients. In checked mode a non-finite result raises
    :class:`NumericError` naming the op, the function that defines the
    adjoint.
    """
    if _checked and not np.isfinite(out_data).all():
        op = backward.__qualname__.partition(".<locals>")[0]
        raise NumericError(f"non-finite values in the output of '{op}'")
    out = Tensor(out_data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = Node(out.data.shape, out.data.dtype,
                         tuple(p.node if p.requires_grad else None for p in parents),
                         backward)
    return out


# --- parameter containers -------------------------------------------------


class Params:
    """A parameter record: its fields hold its tensors, each field named as
    the last part of their manifest keys. :meth:`tensors` collects the
    :class:`Tensor` fields and the tensors of nested records in field order;
    the rest, an absent part (None) or a setting such as the strides, holds
    none."""

    def tensors(self) -> tuple[Tensor, ...]:
        out: list[Tensor] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out.append(value)
            elif isinstance(value, Params):
                out.extend(value.tensors())
        return tuple(out)


@dataclass
class LinearParams(Params):
    """Weight is (..., out, in); bias has one entry per output row,
    (..., out). Leading axes stack maps that read the same input, and
    :func:`linear` keeps them as axes of its output."""

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.weight.shape[:-1] != self.bias.shape:
            raise DimensionError(
                f"weight rows {self.weight.shape[:-1]} != bias shape {self.bias.shape}")


@dataclass
class NormParams(Params):
    gamma: Tensor
    beta: Tensor


@dataclass
class Conv3x3Params(Params):
    """3x3 grid convolution over (T, V): weight (C_out, C_in, 3, 3) for the
    dense :func:`grid_conv3x3`, (C, 3, 3) for :func:`depthwise_conv3x3`; bias
    has one entry per output channel."""

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.bias.shape != self.weight.shape[:1]:
            raise DimensionError(
                f"weight output channels {self.weight.shape[:1]} != bias shape {self.bias.shape}")


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
    sa, sb = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return make_op(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return make_op(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data

    def backward(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return make_op(ad * bd, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)

    def backward(g):
        return (g * c,)

    return make_op(a.data * c, (a,), backward)


def _gelu_cdf(a: np.ndarray, out=None) -> np.ndarray:
    """Φ(a), the standard normal CDF, each step written in place into one
    buffer: ``out`` when given. :func:`gelu` and :func:`layer_norm_mlp` both
    form it here, so they share its bits."""
    from scipy.special import erf  # at first use, as in row_selection
    cdf = np.divide(a, math.sqrt(2.0), out=out)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(a: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU's slope ``Φ(a) + a φ(a)`` from a and ``cdf`` = Φ(a), with the
    density φ(a) = exp(-a^2 / 2) / sqrt(2 pi), in one new buffer."""
    slope = np.multiply(a, -0.5)
    slope *= a
    np.exp(slope, out=slope)
    slope /= math.sqrt(2.0 * math.pi)
    slope *= a
    slope += cdf
    return slope


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact erf form: ``x Φ(x)``.

    The tape keeps one array, the slope, formed in the forward only when x
    needs a gradient; neither x nor the CDF is kept. The CDF is formed in
    one buffer, which then takes the output, and the slope in another. Each
    block's MLP runs GELU inside :func:`layer_norm_mlp`, which keeps the
    CDF instead and rebuilds the rest.
    """
    d = x.data
    cdf = _gelu_cdf(d)
    if x.requires_grad:
        slope = _gelu_slope(d, cdf)
    out = np.multiply(cdf, d, out=cdf)

    def backward(g):
        return (g * slope,)

    return make_op(out, (x,), backward)


def silu(x: Tensor) -> Tensor:
    d = x.data
    sig = 1.0 / (1.0 + np.exp(-d))
    out = (d * sig).astype(d.dtype, copy=False)

    def backward(g):
        return (g * (sig * (1.0 + d * (1.0 - sig))).astype(d.dtype, copy=False),)

    return make_op(out, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; gradient is unbounded as values approach zero."""
    if np.any(x.data < 0):
        raise DomainError("sqrt of negative value")
    out = np.sqrt(x.data)

    def backward(g):
        return (g / (2.0 * out),)

    return make_op(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        return (g,)                  # a scalar, broadcast over x when accumulated

    return make_op(np.asarray(x.data.sum(), dtype=x.dtype), (x,), backward)


def sum_axis(x: Tensor, axis: int) -> Tensor:
    def backward(g):
        return (np.expand_dims(g, axis),)   # broadcast over that axis when accumulated

    return make_op(x.data.sum(axis=axis), (x,), backward)


def slice0(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[0]):
        raise DimensionError(f"slice [{start}:{stop}] out of range for axis of size {x.shape[0]}")
    x_shape = x.shape

    def backward(g):
        full = np.zeros(x_shape, dtype=g.dtype)
        full[start:stop] = g
        return (full,)

    return make_op(x.data[start:stop].copy(), (x,), backward)


# --- core layers ------------------------------------------------------------


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """y[..., o] = sum_i weight[o, i] * x[..., i] + bias[o].

    A stacked (S..., out, in) weight and (S..., out) bias are S maps of x, and
    y is x's leading shape followed by (S..., out). The products treat them as
    their flattened rows, one (n_out, in) map with n_out = prod(S...) * out,
    and x as its flattened rows, (n, in), so each product of either pass is
    one 2-D BLAS call; numpy would run a (T, V, in) input as T (V, in) ones.
    """
    w, b = p.weight, p.bias
    if x.shape[-1] != w.shape[-1]:
        raise DimensionError(
            f"linear: input shape {x.shape} incompatible with weight shape {w.shape}")
    xd, wd = x.data.reshape(-1, w.shape[-1]), w.data.reshape(-1, w.shape[-1])
    out = xd @ wd.T
    out += b.data.reshape(-1)
    x_shape, w_shape, b_shape = x.shape, w.shape, b.shape

    def backward(g):
        g = g.reshape(-1, wd.shape[0])
        return ((g @ wd).reshape(x_shape), (g.T @ xd).reshape(w_shape),
                g.sum(axis=0).reshape(b_shape))

    return make_op(out.reshape(x_shape[:-1] + b_shape), (x, w, b), backward)


def _normalized(x: Tensor, p: NormParams) -> tuple[np.ndarray, np.ndarray]:
    """x's trailing-axis slices at zero mean and unit variance, x̂, and the
    (..., 1) inverse deviations ``inv`` they were scaled by: all that the
    normalization's adjoint reads besides gamma."""
    c = x.shape[-1] if x.data.ndim > 0 else 0
    if c == 0:
        raise DimensionError("layer_norm: empty feature axis")
    if p.gamma.shape != (c,) or p.beta.shape != (c,):
        raise DimensionError(
            f"layer_norm: gamma/beta shapes {p.gamma.shape}/{p.beta.shape} do not match C={c}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(LAYER_NORM_EPS))
    xhat *= inv
    return xhat, inv


def _normalized_adjoint(g, gamma, xhat, inv):
    """The gradients of x, gamma and beta from g, the gradient of
    ``gamma * xhat + beta``, with xhat and inv as :func:`_normalized` made them."""
    c = len(gamma)
    gx = g * gamma
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return (inv * (gx - m1 - xhat * m2), (g * xhat).reshape(-1, c).sum(axis=0),
            g.reshape(-1, c).sum(axis=0))


def layer_norm(x: Tensor, p: NormParams) -> Tensor:
    """Normalize each trailing-axis slice to zero mean / unit variance, then
    scale-shift. The tape keeps x̂ and the (..., 1) inverse deviations."""
    xhat, inv = _normalized(x, p)
    gamma = p.gamma.data

    def backward(g):
        return _normalized_adjoint(g, gamma, xhat, inv)

    return make_op(gamma * xhat + p.beta.data, (x, p.gamma, p.beta), backward)


def layer_norm_mlp(x: Tensor, norm: NormParams, lin1: LinearParams,
                   lin2: LinearParams) -> Tensor:
    """``linear(gelu(linear(layer_norm(x, norm), lin1)), lin2)`` as one op,
    with the four ops' bits: each block's norm2 -> mlp1 -> GELU -> mlp2.

    Apart, the tape would keep x̂, norm2's output, GELU's slope and its
    output, the last two (..., H) arrays at H = 4C. This op keeps x̂, the
    (..., 1) inverse deviations and Φ(a), the CDF of the hidden
    pre-activation a, the one value that costs an ``erf`` to remake. Both
    passes work in :func:`row_blocks` of :data:`MLP_ROW_BLOCK` rows, or more
    where C is too narrow for a block's products to take the whole map's
    BLAS kernel, so a, GELU's output and its slope are never whole. The
    forward writes Φ(a) into the kept array, or into a block's temporary
    without gradients. The adjoint takes Φ(a) from the one-item list that
    holds it, so once it returns the tape no longer does. Per block it
    rebuilds a from x̂, forms the slope from Φ(a) and writes GELU's output
    Φ(a) a into one new (rows, H) buffer, which mlp2's weight gradient
    reads; it writes a's gradient over Φ(a)'s buffer and drops that before
    the normalization's adjoint runs.
    """
    xhat, inv = _normalized(x, norm)
    gamma, beta = norm.gamma.data, norm.beta.data
    w1, b1, w2, b2 = lin1.weight, lin1.bias, lin2.weight, lin2.bias
    c = x.shape[-1]
    if c != w1.shape[-1]:
        raise DimensionError(
            f"linear: input shape {x.shape} incompatible with weight shape {w1.shape}")
    w1d = w1.data.reshape(-1, c)
    hid = len(w1d)
    if hid != w2.shape[-1]:
        raise DimensionError(
            f"linear: hidden width {hid} incompatible with weight shape {w2.shape}")
    w2d = w2.data.reshape(-1, hid)
    b1d, b2d = b1.data.reshape(-1), b2.data.reshape(-1)
    xn = xhat.reshape(-1, c)
    # near-equal blocks are over half this long, so mlp2's (block, C)
    # product, the narrower, has more than BLAS_SMALL_OUTPUTS outputs, as
    # the whole map's has when there are two blocks or more
    blocks = row_blocks(len(xn), max(MLP_ROW_BLOCK, 2 * BLAS_SMALL_OUTPUTS // len(w2d) + 1))
    parents = (x, norm.gamma, norm.beta, w1, b1, w2, b2)
    dt = np.result_type(xhat, gamma, beta, w1d, b1d)

    def hidden(blk):
        """a over a block of rows, as the whole product's rows."""
        a = (gamma * xn[blk] + beta) @ w1d.T
        a += b1d
        return a

    # Φ(a) is kept only for an adjoint, in x's leading shape
    tape = [np.empty(x.shape[:-1] + (hid,), dt)] if any(p.requires_grad for p in parents) else []
    phi = tape[0].reshape(-1, hid) if tape else None
    out = np.empty((len(xn), len(w2d)), np.result_type(dt, w2d, b2d))
    for blk in blocks:
        a = hidden(blk)
        cdf = _gelu_cdf(a, out=None if phi is None else phi[blk])
        # GELU's output, Φ(a) a, over a's buffer
        np.matmul(np.multiply(cdf, a, out=a), w2d.T, out=out[blk])
    out += b2d
    x_shape, w1_shape, b1_shape = x.shape, w1.shape, b1.shape
    w2_shape, b2_shape = w2.shape, b2.shape

    def backward(g):
        phi = tape.pop().reshape(-1, hid)
        g = g.reshape(-1, len(w2d))
        y = np.empty_like(phi)
        for blk in blocks:
            a = hidden(blk)
            slope = _gelu_slope(a, phi[blk])
            np.multiply(phi[blk], a, out=y[blk])
            # GELU's output gradient, g by mlp2's weight, over a, then a's
            # gradient over Φ(a)
            np.multiply(np.matmul(g[blk], w2d, out=a), slope, out=phi[blk])
            # before the next block's temporaries are made
            del a, slope
        dw2 = (g.T @ y).reshape(w2_shape)
        del y
        # phi now holds a's gradient
        dw1 = (phi.T @ (gamma * xhat + beta).reshape(-1, c)).reshape(w1_shape)
        db1 = phi.sum(axis=0).reshape(b1_shape)
        dxn = (phi @ w1d).reshape(x_shape)
        del phi
        return _normalized_adjoint(dxn, gamma, xhat, inv) + (
            dw1, db1, dw2, g.sum(axis=0).reshape(b2_shape))

    return make_op(out.reshape(x.shape[:-1] + b2.shape), parents, backward)


def row_selection(cols: np.ndarray, n_rows: int, weights, dtype):
    """The (M, n_rows) CSR matrix whose row m holds ``weights[m, j]``, or one
    when ``weights`` is None, at column ``cols[m, j]``, for ``cols`` of shape
    M + (J,) and ``weights`` of the same shape; M is flattened. Entries are
    in ``dtype``, so a product with an array of that dtype neither upcasts it
    nor its result."""
    from scipy.sparse import csr_array  # at first use: commands without a model skip it

    j = cols.shape[-1]
    data = np.ones(cols.size, dtype) if weights is None else weights.astype(dtype).reshape(-1)
    return csr_array((data, cols.reshape(-1), np.arange(0, cols.size + 1, j)),
                     shape=(cols.size // j, n_rows))


def scatter_rows(g: np.ndarray, cols: np.ndarray, n_rows: int, weights=None) -> np.ndarray:
    """Every gradient scatter: the transposed :func:`row_selection` times g,
    viewed as (M, C), which adds ``weights[m, j] * g[m]`` (or ``g[m]``) into
    row ``cols[m, j]`` of an (n_rows, C) result. Each row's terms are added
    in order of m, so the result is deterministic whatever columns repeat,
    and a row that nothing selects stays exactly zero."""
    return row_selection(cols, n_rows, weights, g.dtype).T @ g.reshape(-1, g.shape[-1])


# rows per block of depthwise_conv3x3's gather, so no whole-map gather is built
ROW_BLOCK = 1024
# rows per block of both passes of layer_norm_mlp, so that of its (rows, 4C)
# arrays only the kept CDF and the adjoint's one buffer are ever whole
MLP_ROW_BLOCK = 64
# on AVX-512 machines OpenBLAS takes a product with at most this many outputs
# and an inner length of 32 or more to its small-matrix kernel, whose sums
# differ in the last bits from those of the kernel a larger product takes
BLAS_SMALL_OUTPUTS = 1200


def row_blocks(n: int, size: int | None = None) -> list[slice]:
    """``ceil(n / size)`` slices of near-equal length covering rows 0..n in
    order, ``size`` being :data:`ROW_BLOCK` unless given. Not ``size`` rows
    and a short remainder: OpenBLAS takes another path for a few leftover
    rows, and the products of those rows would not keep the bits of one
    whole-map product."""
    nb = max(-(-n // (size or ROW_BLOCK)), 1)
    edges = [i * n // nb for i in range(nb + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def tap_grid(t_n: int, v_n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (t, v) pairs of a (T, V) grid's rows and of an odd K x K
    neighbourhood's taps, as offsets from its centre: row r of the (T*V, 2)
    grid is (r // V, r % V), frame-major, and tap j of the (K*K, 2) taps is
    (j // K - K//2, j % K - K//2), dt outer and dv inner, the order of a K x K
    weight's trailing axes flattened and of the manifest's ``tap{k}``. Every
    tap iteration reads it."""
    grid = np.stack(np.divmod(np.arange(t_n * v_n), v_n), axis=-1)
    taps = np.stack(np.divmod(np.arange(k * k), k), axis=-1) - k // 2
    return grid, taps


def neighbor_rows(t_n: int, v_n: int, k: int = 3, pad: int = 0) -> np.ndarray:
    """Flat rows of a (T, V) grid read by the clamp-to-edge K x K neighbourhood
    of each point (i, j) of the grid extended by ``pad`` on every side, centred
    on (i - pad, j - pad): ((T+2pad)*(V+2pad), K*K), in :func:`tap_grid`'s order."""
    _, taps = tap_grid(1, 1, k)
    # the frame and joint axes clamp apart, so one (T', V', K*K) array is built
    ti = np.clip(np.arange(-pad, t_n + pad)[:, None, None] + taps[:, 0], 0, t_n - 1)
    vi = np.clip(np.arange(-pad, v_n + pad)[None, :, None] + taps[:, 1], 0, v_n - 1)
    return (ti * v_n + vi).reshape(-1, k * k)


def _tap_rows(t_n: int, v_n: int) -> np.ndarray:
    """:func:`neighbor_rows` in a tap-major (9*T*V, C) array, whose row
    ``9r + k`` is tap k of row r: what each output sums and each adjoint scatters."""
    return neighbor_rows(t_n, v_n) * 9 + np.arange(9)


def grid_conv3x3(x: Tensor, p: Conv3x3Params) -> Tensor:
    """3x3 convolution over the leading (T, V) grid with clamp-to-edge padding.

    Tap-major: one product maps every row through all nine taps' weights,
    (T*V, C_in) @ (C_in, 9*C_out), and each position sums its neighbours'
    rows of the tap that reads them, a (T*V, 9, C_out) gather through
    :func:`_tap_rows`. No (T*V, 9*C_in) gather of x is built in either
    pass: the adjoint scatters g through the same rows with one
    :func:`scatter_rows` and takes two small products.
    """
    t_n, v_n, c_in = x.shape
    w, b = p.weight, p.bias
    if w.shape[1] != c_in:
        raise DimensionError(
            f"grid_conv3x3: input channels {c_in} != weight in-channels {w.shape[1]}")
    c_out = w.shape[0]
    w_taps = w.data.transpose(1, 2, 3, 0).reshape(c_in, 9 * c_out)
    xf = x.data.reshape(-1, c_in)
    out = (xf @ w_taps).reshape(-1, c_out)[_tap_rows(t_n, v_n)].sum(axis=1)
    out += b.data

    def backward(g):
        g2 = g.reshape(-1, c_out)
        # the rows are rebuilt, not kept: they take a fraction of a
        # millisecond to remake
        dy = scatter_rows(g2, _tap_rows(t_n, v_n), 9 * len(xf)).reshape(-1, 9 * c_out)
        dw = (xf.T @ dy).reshape(c_in, 3, 3, c_out)
        return (dy @ w_taps.T).reshape(t_n, v_n, c_in), dw.transpose(3, 0, 1, 2), g2.sum(axis=0)

    return make_op(out.reshape(t_n, v_n, c_out), (x, w, b), backward)


def depthwise_conv3x3(x: Tensor, p: Conv3x3Params) -> Tensor:
    """Per-channel 3x3 convolution over (T, V) with clamp-to-edge padding.

    The forward gathers and contracts each position's (9, C) neighbourhood
    in :func:`row_blocks`, so the (T*V, 9, C) gather is never whole. The
    adjoint is :func:`grid_conv3x3`'s, one :func:`scatter_rows` of g through
    :func:`_tap_rows` and two contractions, gathering no neighbourhood of x."""
    t_n, v_n, c = x.shape
    w, b = p.weight, p.bias
    if w.shape[0] != c:
        raise DimensionError(
            f"depthwise_conv3x3: input channels {c} != weight channels {w.shape[0]}")
    w_mat = np.ascontiguousarray(w.data.reshape(c, 9).T)          # (9, C)
    xf = x.data.reshape(-1, c)
    rows = neighbor_rows(t_n, v_n)
    out = np.empty(xf.shape, np.result_type(xf, w_mat))
    for blk in row_blocks(len(xf)):
        np.einsum("pkc,kc->pc", xf[rows[blk]], w_mat, out=out[blk])
    out += b.data

    def backward(g):
        g2 = g.reshape(-1, c)
        dy = scatter_rows(g2, _tap_rows(t_n, v_n), 9 * len(xf)).reshape(-1, 9, c)
        dw = np.einsum("rc,rkc->ck", xf, dy).reshape(c, 3, 3)
        return np.einsum("rkc,kc->rc", dy, w_mat).reshape(t_n, v_n, c), dw, g2.sum(axis=0)

    return make_op(out.reshape(x.shape), (x, w, b), backward)


# --- bilinear sampling ------------------------------------------------------


def bilinear_weights(pt: np.ndarray, pv: np.ndarray, t_n: int, v_n: int):
    """Corner columns and weights for clamp-to-edge bilinear interpolation.

    The columns of the corners 00, 01, 10, 11 are the flat ``t * V + v`` rows
    of the (T, V) grid, stacked on a last axis of 4; the weights come with the
    fractions (wt, wv) they are made of. Weights use the standard product form
    (1-|dt|)(1-|dv|) per corner, which is nonnegative, sums to one, and
    reproduces grid values exactly at integer positions.
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
    cols = np.stack([t0 * v_n + v0, t0 * v_n + v1, t1 * v_n + v0, t1 * v_n + v1], axis=-1)
    return cols, (w00, w01, w10, w11), (wt, wv)


def bilinear_gather(x: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sample x at fractional (t, v) positions; positions clamp to the edge.

    x is a (T, V, C) array and ``pos`` an S + (2,) one, a (t, v) position per
    sample on its last axis; the result has shape S + (C,). The n = prod(S)
    samples are one sparse product ``W @ x`` with x viewed as (T*V, C): W is
    the (n, T*V) :func:`row_selection` with four entries per row, the corners
    00, 01, 10, 11 and their :func:`bilinear_weights`. It is not taped: the
    op that consumes the samples, ``sas.NeighborMixParams.apply``, takes
    their pullback from :func:`bilinear_vjp`. A non-finite position raises
    :class:`NumericError` whether or not checked mode is on: a NaN has no
    corner, and would cast to a negative column index.
    """
    t_n, v_n, c = x.shape
    if pos.ndim < 1 or pos.shape[-1] != 2:
        raise DimensionError(f"positions must end in a (t, v) axis of 2, got {pos.shape}")
    if not np.isfinite(pos).all():
        raise NumericError("non-finite sampling positions")
    cols, corners, _ = bilinear_weights(pos[..., 0], pos[..., 1], t_n, v_n)
    w = row_selection(cols, t_n * v_n, np.stack(corners, axis=-1), x.dtype)
    return (w @ x.reshape(-1, c)).reshape(pos.shape[:-1] + (c,))


def bilinear_vjp(xf: np.ndarray, pos: np.ndarray, t_n: int, v_n: int):
    """The pullback of :func:`bilinear_gather`'s samples at P positions.

    xf is the (T*V, C) rows of a (T, V, C) map and ``pos`` a (P, 2) array of
    finite (t, v) positions. Returns ``pullback(ds)``, which maps the
    samples' (P, C) cotangent to x's, (T*V, C), one :func:`scatter_rows`
    through the corners, and to the positions', (P, 2): the slopes in t and
    in v dotted with ds, zero where the clamp is flat, at and past the
    grid's edges. One product of two :func:`row_selection` planes, (2P, T*V)
    by xf, gives both slopes.
    """
    cols, corners, (wt, wv) = bilinear_weights(pos[:, 0], pos[:, 1], t_n, v_n)
    # each corner's derivatives in t and in v, (2, 4, P)
    slopes = np.stack((wv - 1.0, -wv, 1.0 - wv, wv)
                      + (wt - 1.0, 1.0 - wt, -wt, wt)).reshape(2, 4, -1)
    w = row_selection(np.broadcast_to(cols, (2,) + cols.shape), len(xf),
                      slopes.transpose(0, 2, 1), xf.dtype)
    blend = (w @ xf).reshape(2, len(pos), -1)
    edge = np.array((t_n - 1, v_n - 1), pos.dtype)

    def pullback(ds):
        dx = scatter_rows(ds, cols, len(xf), np.stack(corners, axis=-1))
        return dx, ((pos > 0.0) & (pos < edge)) * np.einsum("qpc,pc->pq", blend, ds)

    return pullback


# --- finite-difference validation -------------------------------------------


def finite_diff_check_leaves(fn, leaves: list[Tensor], eps: float = 1e-5,
                             sample: int | None = None, rng=None) -> float:
    """Max relative error between the analytic adjoints of ``fn()`` and
    central differences, ``|a - n| / max(1, |a|, |n|)`` per probed element.

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
