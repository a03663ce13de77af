"""Selective state-space machinery.

The sequential scan is the reference computation: an input-dependent linear
recurrence evaluated strictly left to right, with a single fused adjoint that
backpropagates through the whole recurrence. ``ssm_kernel`` plus
``conv_apply`` realize the time-invariant convolutional form and serve as a
correctness oracle for the scan. The two sides share only the zero-order hold
(:func:`discretize`), which is tested on its own against its closed form.

:func:`selective_scan` runs several independent streams as one computation:
its input carries a stream axis, (L, S, D), and each stream has its own
parameters. Every per-step array is laid out (..., S, N, D) with the channel
axis D innermost, so the elementwise work broadcasting over the state axis N
runs on contiguous rows. Steps are taken in chunks of ``SCAN_CHUNK``; the
adjoint keeps only the states and recomputes ``a_bar``, ``factor`` and the
series mask per chunk from the saved step sizes, as Mamba's recomputation
does (Gu & Dao, arXiv 2312.00752, section 3.3.2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .tensor import Tensor, make_op, register_op, tensor

_SERIES_CUTOFF = 1e-6
# steps per chunk of the scan: long enough that per-chunk work runs as a few
# large array ops, short enough that a chunk of (S, N, D) states stays small
SCAN_CHUNK = 128


def softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) without overflow; np.logaddexp computes the same but runs
    # about ten times slower
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus_inverse(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise DomainError("softplus_inverse requires positive input")
    return y + np.log1p(-np.exp(-y))


@dataclass
class SelectiveSsmParams:
    """Input-dependent state-space parameters for one scan direction.

    The state matrix is diagonal per channel and always negative real:
    ``A = -exp(a_log)``. Step sizes come from a rank-``r`` bottleneck followed
    by softplus, so they are strictly positive. ``skip`` is the direct
    feedthrough vector.
    """

    a_log: Tensor           # (D, N)
    b_weight: Tensor        # (N, D)
    b_bias: Tensor          # (N,)
    c_weight: Tensor        # (N, D)
    c_bias: Tensor          # (N,)
    dt_down: Tensor         # (r, D)
    dt_up: Tensor           # (D, r)
    dt_bias: Tensor         # (D,)
    skip: Tensor            # (D,)

    def __post_init__(self):
        d, n = self.a_log.shape
        if n < 1:
            raise DomainError("state size N must be >= 1")
        if self.dt_down.shape[0] < 1:
            raise DomainError("dt bottleneck rank must be >= 1")
        if self.b_weight.shape != (n, d) or self.c_weight.shape != (n, d):
            raise DimensionError("b/c projection shapes inconsistent with (D, N)")
        if self.skip.shape != (d,) or self.dt_bias.shape != (d,):
            raise DimensionError("skip/dt_bias must be D-vectors")

    @property
    def channels(self) -> int:
        return self.a_log.shape[0]

    @property
    def state_size(self) -> int:
        return self.a_log.shape[1]

    def tensors(self) -> tuple[Tensor, ...]:
        return (self.a_log, self.b_weight, self.b_bias, self.c_weight,
                self.c_bias, self.dt_down, self.dt_up, self.dt_bias, self.skip)


def _zoh(delta: np.ndarray, a: np.ndarray):
    """The zero-order hold of :func:`discretize` without the input vector.

    ``delta`` is (..., D) and ``a`` is (N, D), or (S, N, D) against a stream
    axis at ``delta[..., S, D]``. Returns ``a_bar``, ``factor`` (so
    ``b_bar = factor * b``) and the mask of entries on the series branch, all
    (..., N, D): the channel axis stays innermost, so broadcasting over N
    runs whole contiguous rows.
    """
    d = delta[..., None, :]
    da = d * a
    small = np.abs(da) < _SERIES_CUTOFF
    a_bar = np.exp(da, out=da)
    factor = np.subtract(a_bar, 1.0)
    np.divide(factor, a, out=factor, where=~small)
    np.copyto(factor, d, where=small)
    return a_bar, factor, small


def discretize(delta: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Zero-order-hold discretization of a diagonal-per-channel system.

    ``a_bar = exp(delta * a)`` and ``b_bar = ((exp(delta * a) - 1) / a) * b``,
    with a first-order series fallback ``b_bar = delta * b`` where
    ``|delta * a|`` is small enough for the exact form to cancel.

    Shapes: delta (L, D), a (D, N), b (L, N) -> a_bar, b_bar both (L, D, N).
    """
    delta = np.asarray(delta)
    b = np.asarray(b)
    if np.any(delta <= 0):
        raise DomainError("discretize requires strictly positive step sizes")
    a_bar, factor, _ = _zoh(delta, np.asarray(a).T)
    return a_bar.swapaxes(1, 2), (factor * b[:, :, None]).swapaxes(1, 2)


def _chunks(seq_len: int) -> list[slice]:
    return [slice(i, min(i + SCAN_CHUNK, seq_len)) for i in range(0, seq_len, SCAN_CHUNK)]


def _batched(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``out[l, s] = w[s] @ x[l, s]``: one matmul over the stream axis."""
    return np.ascontiguousarray(np.matmul(x.swapaxes(0, 1), w.swapaxes(1, 2)).swapaxes(0, 1))


def selective_scan(u: Tensor, p: SelectiveSsmParams | Sequence[SelectiveSsmParams]) -> Tensor:
    """Run the input-dependent recurrence over one or several streams.

    ``u`` is (L, D) with one :class:`SelectiveSsmParams`, or (L, S, D) with a
    sequence of S of them: stream s scans ``u[:, s]`` with ``p[s]``. Per step:
    project the input to step sizes, input and output vectors; discretize;
    advance ``h_t = a_bar_t h_{t-1} + b_bar_t u_t`` from a zero state; emit
    ``y_t = C_t h_t + skip * u_t``.

    All streams run as one computation. The per-stream weights are stacked
    at call time, so the projections are one batched matmul, and one
    recurrence advances an (S, N, D) state, channels innermost. Steps are
    processed in chunks of ``SCAN_CHUNK``: discretization and readout happen
    per chunk, and when nothing requires a gradient no (L, S, N, D) array
    exists. Otherwise the states ``hs`` are kept, and the adjoint walks the
    chunks in reverse, recomputing ``a_bar``, ``factor`` and the series mask
    from the saved step sizes through :func:`_zoh`. The adjoint is exact.
    """
    streams = [p] if isinstance(p, SelectiveSsmParams) else list(p)
    ud = u.data[:, None, :] if u.data.ndim == 2 else u.data
    if ud.ndim != 3 or ud.shape[1] != len(streams):
        raise DimensionError(f"selective_scan expects (L, D) with one parameter set or "
                             f"(L, S, D) with S of them, got {u.shape} with {len(streams)}")
    seq_len, s_n, d = ud.shape
    n, r = streams[0].state_size, streams[0].dt_down.shape[0]
    for q in streams:
        if q.channels != d:
            raise DimensionError(f"sequence width {d} != parameter width {q.channels}")
        if (q.state_size, q.dt_down.shape[0]) != (n, r):
            raise DimensionError("streams must share the state size and the dt rank")
    dt = ud.dtype

    def stacked(field):
        return np.stack([getattr(q, field).data for q in streams])

    a = -np.exp(np.ascontiguousarray(stacked("a_log").swapaxes(1, 2)))  # (S, N, D)
    w = np.stack([np.concatenate([q.b_weight.data, q.c_weight.data, q.dt_down.data])
                  for q in streams])                                    # (S, 2N+r, D)
    proj = _batched(ud, w)                                              # (L, S, 2N+r)
    b_seq = proj[..., :n] + stacked("b_bias")                           # (L, S, N)
    c_seq = proj[..., n:2 * n] + stacked("c_bias")
    m1 = proj[..., 2 * n:]                                              # (L, S, r)
    dt_up = stacked("dt_up")                                            # (S, D, r)
    delta = softplus(_batched(m1, dt_up) + stacked("dt_bias"))          # (L, S, D)
    skip = stacked("skip")                                              # (S, D)

    parents = (u,) + tuple(t for q in streams for t in q.tensors())
    keep = any(t.requires_grad for t in parents)
    hs = np.empty((seq_len, s_n, n, d), dtype=dt) if keep else None
    ys = np.empty((seq_len, s_n, d), dtype=dt)
    h = np.zeros((s_n, n, d), dtype=dt)
    for sl in _chunks(seq_len):
        a_bar, factor, _ = _zoh(delta[sl], a)
        # b_bar * u, advanced in place into the states of the chunk
        hc = np.multiply(factor * b_seq[sl, :, :, None], ud[sl, :, None, :],
                         out=hs[sl] if keep else None)
        for cur, step in zip(hc, a_bar):
            cur += step * h
            h = cur
        np.matmul(c_seq[sl, :, None, :], hc, out=ys[sl, :, None, :])
    ys += skip * ud

    def backward(gy):
        g = gy.reshape(ud.shape)
        d_a = np.zeros((s_n, n, d), dtype=dt)
        d_b = np.empty((seq_len, s_n, n), dtype=dt)
        d_delta = np.empty((seq_len, s_n, d), dtype=dt)
        du = g * skip
        carry = np.zeros((s_n, n, d), dtype=dt)
        for sl in reversed(_chunks(seq_len)):
            a_bar, factor, small = _zoh(delta[sl], a)
            # gradient into each state h_t; only this recurrence is sequential
            dh = g[sl, :, None, :] * c_seq[sl, :, :, None]
            for cur, step in zip(dh[::-1], a_bar[::-1]):
                cur += carry
                carry = cur * step
            if sl.start:
                h_prev = hs[sl.start - 1:sl.stop - 1]
            else:
                h_prev = np.concatenate([np.zeros_like(hs[:1]), hs[:sl.stop - 1]])
            b_c = b_seq[sl, :, :, None]
            db_bar = dh * ud[sl, :, None, :]
            du[sl] += np.einsum("lsnd,lsnd->lsd", dh, factor * b_c)
            d_b[sl] = np.einsum("lsnd,lsnd->lsn", db_bar, factor)
            d_factor = db_bar * b_c
            # exact branch: factor = (a_bar - 1)/a passes d_factor/a on to
            # a_bar and -d_factor*factor/a to a; series branch: factor = delta
            # exactly, so all sensitivity goes to delta
            dfa = np.divide(d_factor, a, out=np.zeros_like(d_factor), where=~small)
            dda = (dh * h_prev + dfa) * a_bar
            dd = dda * a
            np.add(dd, d_factor, out=dd, where=small)
            d_delta[sl] = dd.sum(axis=2)
            d_a += (dda * delta[sl, :, None, :] - dfa * factor).sum(axis=0)
        d_c = np.einsum("lsd,lsnd->lsn", g, hs)
        # softplus' = sigmoid, which is 1 - exp(-softplus)
        dz = d_delta * -np.expm1(-delta)
        dm1 = np.matmul(dz.swapaxes(0, 1), dt_up).swapaxes(0, 1)        # (L, S, r)
        dproj = np.concatenate([d_b, d_c, dm1], axis=2).swapaxes(0, 1)  # (S, L, 2N+r)
        dw = np.matmul(dproj.swapaxes(1, 2), ud.swapaxes(0, 1))         # (S, 2N+r, D)
        grads = ((d_a * a).swapaxes(1, 2), dw[:, :n], d_b.sum(axis=0),
                 dw[:, n:2 * n], d_c.sum(axis=0), dw[:, 2 * n:],
                 np.matmul(dz.transpose(1, 2, 0), m1.swapaxes(0, 1)),   # dt_up
                 dz.sum(axis=0), (g * ud).sum(axis=0))
        for s, q in enumerate(streams):
            for t, grad in zip(q.tensors(), grads):
                if t.requires_grad:
                    t.accumulate_grad(grad[s])
        if u.requires_grad:
            du += np.matmul(dproj, w).swapaxes(0, 1)
            u.accumulate_grad(du.reshape(u.shape))

    return make_op(ys.reshape(u.shape), parents, backward)


def frozen_params(d: int, n: int, delta: np.ndarray, b_const: np.ndarray,
                  c_const: np.ndarray, a: np.ndarray, skip: np.ndarray,
                  dtype=np.float64) -> SelectiveSsmParams:
    """Build scan parameters whose projections ignore the input.

    Zero projection weights with biases set from the constants make the scan
    time-invariant; ``delta`` is realized through the softplus bias.
    """
    a = np.asarray(a, dtype=dtype)
    if np.any(a >= 0):
        raise DomainError("state matrix entries must be strictly negative")
    return SelectiveSsmParams(
        a_log=tensor(np.log(-a), dtype=dtype),
        b_weight=tensor(np.zeros((n, d)), dtype=dtype),
        b_bias=tensor(b_const, dtype=dtype),
        c_weight=tensor(np.zeros((n, d)), dtype=dtype),
        c_bias=tensor(c_const, dtype=dtype),
        dt_down=tensor(np.zeros((1, d)), dtype=dtype),
        dt_up=tensor(np.zeros((d, 1)), dtype=dtype),
        dt_bias=tensor(softplus_inverse(np.broadcast_to(delta, (d,))), dtype=dtype),
        skip=tensor(skip, dtype=dtype),
    )


def ssm_kernel(a_bar: np.ndarray, b_bar: np.ndarray, c: np.ndarray, length: int) -> np.ndarray:
    """Impulse-response kernel of the time-invariant system.

    ``kernel[l, d] = sum_n c[n] * a_bar[d, n]**l * b_bar[d, n]`` for
    ``l = 0 .. length-1``. This is the convolutional view of the recurrence
    and is used purely as an oracle.
    """
    if length <= 0:
        raise DomainError(f"kernel length must be positive, got {length}")
    a_bar = np.asarray(a_bar, dtype=np.float64)
    b_bar = np.asarray(b_bar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d, n = a_bar.shape
    kernel = np.empty((length, d), dtype=np.float64)
    power = np.ones_like(a_bar)
    for l in range(length):
        kernel[l] = (power * b_bar) @ c
        power = power * a_bar
    return kernel


def conv_apply(u: np.ndarray, kernel: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Causal convolution ``y_t = sum_{tau<=t} kernel[t-tau] u_tau + skip*u_t``."""
    u = np.asarray(u, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape[0] != u.shape[0]:
        raise DimensionError(
            f"kernel length {kernel.shape[0]} != sequence length {u.shape[0]}")
    seq_len = u.shape[0]
    y = np.zeros_like(u)
    for t in range(seq_len):
        lags = kernel[:t + 1]                 # (t+1, D), lag 0 .. t
        y[t] = (lags * u[t::-1]).sum(axis=0)
    return y + np.asarray(skip, dtype=np.float64) * u


def _scan_opwrap(u, a_log, bw, bb, cw, cb, dd, du_, db, sk):
    return selective_scan(u, SelectiveSsmParams(a_log, bw, bb, cw, cb, dd, du_, db, sk))


register_op("selective_scan", _scan_opwrap)
