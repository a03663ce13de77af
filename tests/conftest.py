"""Shared builders for degenerate and randomized layer parameters, and the
plain-numpy oracles the ops are tested against."""

import sys
import tracemalloc
import types

import numpy as np
from scipy import sparse

import sasmamba.tensor as tz
from sasmamba.errors import DimensionError, DomainError
from sasmamba.model import ModelConfig, astype_model, forward, init_model
from sasmamba.sas import NeighborMixParams, SaConvParams, tap_rank
from sasmamba.ssm import SelectiveSsmParams, _zoh, softplus_inverse
from sasmamba.tensor import Conv3x3Params, tensor
from sasmamba.training import gen_synthetic, total_loss


def zero_offset_net(c, dtype=np.float64, bias=(0.0, 0.0)):
    return Conv3x3Params(tensor(np.zeros((2, c, 3, 3)), dtype=dtype),
                         tensor(np.asarray(bias), dtype=dtype))


def zero_local(c, dtype=np.float64):
    return Conv3x3Params(tensor(np.zeros((c, 3, 3)), dtype=dtype),
                         tensor(np.zeros(c), dtype=dtype))


def identity_tap(c, k, dtype=np.float64):
    rho = tap_rank(k)
    return (np.ones(c, dtype=dtype), np.zeros((rho, c), dtype=dtype),
            np.zeros((c, rho), dtype=dtype))


def zero_tap(c, k, dtype=np.float64):
    rho = tap_rank(k)
    return (np.zeros(c, dtype=dtype), np.zeros((rho, c), dtype=dtype),
            np.zeros((c, rho), dtype=dtype))


def random_tap(rng, c, k, dtype=np.float64, scl=0.3):
    rho = tap_rank(k)
    return ((rng.normal(size=c) * scl).astype(dtype),
            (rng.normal(size=(rho, c)) * scl).astype(dtype),
            (rng.normal(size=(c, rho)) * scl).astype(dtype))


def stack_taps(taps):
    """The stacked tap maps of a list of per-tap (diag, down, up) arrays."""
    return NeighborMixParams(*(tensor(np.stack(f)) for f in zip(*taps)))


def random_sa(rng, c, k, dtype=np.float64, zero_offsets=False):
    if zero_offsets:
        offset = zero_offset_net(c, dtype)
    else:
        offset = Conv3x3Params(tensor(rng.normal(size=(2, c, 3, 3)) * 0.1, dtype=dtype),
                               tensor(rng.normal(size=2) * 0.1, dtype=dtype))
    local = Conv3x3Params(tensor(rng.normal(size=(c, 3, 3)) * 0.3, dtype=dtype),
                          tensor(rng.normal(size=c) * 0.3, dtype=dtype))
    mix = stack_taps([random_tap(rng, c, k, dtype) for _ in range(k * k)])
    return SaConvParams(offset_net=offset, mix=mix, local_conv=local)


def random_stream(rng, d, n=2, r=1, dtype=np.float64):
    """One stream's scan parameters (S = 1)."""
    fields = (rng.normal(size=(d, n)) * 0.3,
              rng.normal(size=(n, d)) * 0.4, rng.normal(size=n) * 0.4,
              rng.normal(size=(n, d)) * 0.4, rng.normal(size=n) * 0.4,
              rng.normal(size=(r, d)) * 0.4, rng.normal(size=(d, r)) * 0.4,
              rng.normal(size=d) - 1.5, rng.normal(size=d))
    return SelectiveSsmParams(*(tensor(f[None], dtype=dtype) for f in fields))


def stack_streams(streams):
    """The scan parameters of several streams stacked on the stream axis."""
    return SelectiveSsmParams(*(tensor(np.concatenate([t.data for t in f]))
                                for f in zip(*(p.tensors() for p in streams))))


def identity_order(length, streams=1):
    """The scan order of ``streams`` streams that all read ``length`` rows
    in order: (L, S), column s the rows 0 .. L-1."""
    return np.tile(np.arange(length)[:, None], (1, streams))


def scan_by_unroll(seq, p, s=0):
    """Plain-numpy selective scan of one (L, D) sequence by stream s of p,
    step by step."""
    a_log, bw, bb, cw, cb, dd, du, db, skip = (t.data[s] for t in p.tensors())
    a = -np.exp(a_log)
    h = np.zeros_like(a)
    ys = []
    for u in seq:
        delta = np.log1p(np.exp(du @ (dd @ u) + db))
        b = bw @ u + bb
        c = cw @ u + cb
        a_bar = np.exp(delta[:, None] * a)
        h = a_bar * h + (a_bar - 1.0) / a * b[None, :] * u[:, None]
        ys.append(h @ c + skip * u)
    return np.array(ys)


def discretize(delta, a, b):
    """Zero-order-hold discretization of a diagonal-per-channel system.

    ``a_bar = exp(delta * a)`` and ``b_bar = (expm1(delta * a) / a) * b``,
    the scan's own hold (``ssm._zoh``) with the input vector applied.

    Shapes: delta (L, D), a (D, N), b (L, N) -> a_bar, b_bar both (L, D, N).
    """
    delta = np.asarray(delta)
    b = np.asarray(b)
    if np.any(delta <= 0):
        raise DomainError("discretize requires strictly positive step sizes")
    a_bar, factor = _zoh(delta, np.asarray(a).T)
    return a_bar.swapaxes(1, 2), (factor * b[:, :, None]).swapaxes(1, 2)


def frozen_params(d, n, delta, b_const, c_const, a, skip, dtype=np.float64):
    """One stream's scan parameters (S = 1) whose projections ignore the input.

    Zero projection weights with biases set from the constants make the scan
    time-invariant; ``delta`` is realized through the softplus bias.
    """
    a = np.asarray(a, dtype=dtype)
    if np.any(a >= 0):
        raise DomainError("state matrix entries must be strictly negative")
    fields = (np.log(-a), np.zeros((n, d)), b_const, np.zeros((n, d)), c_const,
              np.zeros((1, d)), np.zeros((d, 1)),
              softplus_inverse(np.broadcast_to(delta, (d,))), skip)
    return SelectiveSsmParams(*(tensor(np.asarray(f)[None], dtype=dtype) for f in fields))


def ssm_kernel(a_bar, b_bar, c, length):
    """Impulse-response kernel of the time-invariant system, the
    convolutional view of the recurrence:
    ``kernel[l, d] = sum_n c[n] * a_bar[d, n]**l * b_bar[d, n]`` for
    ``l = 0 .. length-1``."""
    if length <= 0:
        raise DomainError(f"kernel length must be positive, got {length}")
    a_bar = np.asarray(a_bar, dtype=np.float64)
    b_bar = np.asarray(b_bar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    kernel = np.empty((length, a_bar.shape[0]), dtype=np.float64)
    power = np.ones_like(a_bar)
    for l in range(length):
        kernel[l] = (power * b_bar) @ c
        power = power * a_bar
    return kernel


def conv_apply(u, kernel, skip):
    """Causal convolution ``y_t = sum_{tau<=t} kernel[t-tau] u_tau + skip*u_t``."""
    u = np.asarray(u, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape[0] != u.shape[0]:
        raise DimensionError(
            f"kernel length {kernel.shape[0]} != sequence length {u.shape[0]}")
    y = np.zeros_like(u)
    for t in range(u.shape[0]):
        lags = kernel[:t + 1]                 # (t+1, D), lag 0 .. t
        y[t] = (lags * u[t::-1]).sum(axis=0)
    return y + np.asarray(skip, dtype=np.float64) * u


def feedthrough_stream(d, n=1, dtype=np.float64):
    """Scan parameters of one stream whose output is exactly the input
    (c = 0, skip = 1)."""
    return frozen_params(d, n, delta=np.full(d, 0.1), b_const=np.ones(n),
                         c_const=np.zeros(n), a=-np.ones((d, n)),
                         skip=np.ones(d), dtype=dtype)


def stream_set(rng, d, names, dtype=np.float64):
    """Random scan parameters of the named streams, drawn one stream at a time."""
    return stack_streams([random_stream(rng, d, dtype=dtype) for _ in names])


def conv3x3_by_definition(x, weight, depthwise):
    """Per-position sum over the clamp-to-edge 3x3 neighbourhood."""
    t_n, v_n, _ = x.shape
    out = np.zeros((t_n, v_n, weight.shape[0]))
    for t in range(t_n):
        for v in range(v_n):
            for i in range(3):
                for j in range(3):
                    xs = x[min(max(t + i - 1, 0), t_n - 1), min(max(v + j - 1, 0), v_n - 1)]
                    out[t, v] += weight[:, i, j] * xs if depthwise else weight[:, :, i, j] @ xs
    return out


def bilinear_by_corners(x, t, v):
    """Clamp-to-edge bilinear sample of x at one (t, v) position, corner by corner."""
    t_n, v_n, _ = x.shape
    t, v = min(max(t, 0.0), t_n - 1.0), min(max(v, 0.0), v_n - 1.0)
    t0, v0 = int(np.floor(t)), int(np.floor(v))
    t1, v1 = min(t0 + 1, t_n - 1), min(v0 + 1, v_n - 1)
    a, b = t - t0, v - v0
    return ((1 - a) * (1 - b) * x[t0, v0] + (1 - a) * b * x[t0, v1]
            + a * (1 - b) * x[t1, v0] + a * b * x[t1, v1])


def captured_bases(obj):
    """The base buffers of the arrays ``obj`` holds: an array, a list or
    tuple of them, a sparse matrix (its data, indices and indptr) or a nested
    function, through its own closure."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from captured_bases(item)
    elif sparse.issparse(obj):
        yield from captured_bases((obj.data, obj.indices, obj.indptr))
    elif isinstance(obj, types.FunctionType):
        for cell in obj.__closure__ or ():
            yield from captured_bases(cell.cell_contents)


def op_name(backward):
    """The op an adjoint belongs to, named as checked mode names it."""
    return backward.__qualname__.partition(".<locals>")[0]


def tape_captures(root):
    """What the adjoint closures reachable from the tensor ``root`` keep.

    Returns ``(op, bases)`` for each tape node with an adjoint, the op named
    as checked mode names it. Every captured array is counted as its base
    buffer and only once, under the first node of the walk that captures
    it, so the bytes of all ``bases`` sum to the tape's size.
    """
    out, seen, visited = [], set(), set()
    stack = [root._node]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.extend(p for p in node.parents if p is not None)
        if node.backward is not None:
            bases = []
            for base in captured_bases(node.backward):
                if id(base) not in seen:
                    seen.add(id(base))
                    bases.append(base)
            out.append((op_name(node.backward), bases))
    return out


def backward_peak(step, monkeypatch):
    """Run ``step()``, which returns a tensor, and then its backward, under
    tracemalloc. Returns ``(held, peak, op)``: the bytes traced once the
    forward is done, the most traced during the backward, and the op whose
    adjoint ran then. The traced peak is reset at each ``tensor._accumulate``
    call, so each stretch between two calls is one adjoint's run, after the
    accumulation of the gradients the one before it returned; the adjoint
    is read off ``Tensor.backward``'s frame, which calls ``_accumulate``."""
    accumulate = tz._accumulate
    worst = [0, "the seed"]

    def reset(nodes, grads, upstream=None):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > worst[0]:
            node = sys._getframe(1).f_locals.get("node")
            worst[:] = peak, "the seed" if node is None else op_name(node.backward)
        tracemalloc.reset_peak()
        accumulate(nodes, grads, upstream)

    tracemalloc.start()
    try:
        root = step()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with monkeypatch.context() as m:
            m.setattr(tz, "_accumulate", reset)
            root.backward()
        last = tracemalloc.get_traced_memory()[1]
        if last > worst[0]:
            worst[:] = last, "the last accumulation"
    finally:
        tracemalloc.stop()
    return held, worst[0], worst[1]


def traced_peak(fn):
    """The most memory traced while ``fn()`` runs, above what was traced
    when it started, in bytes; what ``fn`` returns is still held at its end,
    so an op's output counts."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# gated streams, K=5, two strides and N=2; T*V = 36 rows, past one SCAN_CHUNK
GOLDEN_STEP = ModelConfig(L=2, D=8, T=9, V=4, K=5, N=2, strides=(1, 3), gated_streams=True)


def golden_step():
    """One float64 training step of ``GOLDEN_STEP``: its forward output
    ``out``, its ``loss`` and each parameter's gradient ``grad/<name>``, the
    arrays that ``tests/data/golden_float64_step.npz`` holds."""
    cfg = GOLDEN_STEP
    model = astype_model(init_model(cfg, seed=0), np.float64)
    model.mark_trainable()
    kp2d, pose3d = gen_synthetic(1, 1, cfg.T, cfg.V).pairs[0]
    out = forward(model, kp2d.astype(np.float64))
    loss = total_loss(out, pose3d.astype(np.float64))
    loss.backward()
    return {"out": out.data, "loss": loss.data,
            **{f"grad/{name}": t.grad for name, t in model.named_params()}}
