"""Selective state-space machinery.

The sequential scan is the reference computation: an input-dependent linear
recurrence evaluated strictly left to right, with a single fused adjoint that
backpropagates through the whole recurrence. ``ssm_kernel`` plus
``conv_apply`` realize the time-invariant convolutional form and serve as a
correctness oracle for the scan. The two sides share only the zero-order hold
(:func:`discretize`), which is tested on its own against its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .tensor import Tensor, make_op, register_op, tensor

_SERIES_CUTOFF = 1e-6


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


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

    Returns ``a_bar``, ``factor`` (so ``b_bar = factor * b``) and the mask of
    entries on the series branch, all (L, D, N).
    """
    da = delta[:, :, None] * a[None, :, :]
    a_bar = np.exp(da)
    small = np.abs(da) < _SERIES_CUTOFF
    safe_a = np.where(small, 1.0, a[None, :, :])
    factor = np.where(small, delta[:, :, None], (a_bar - 1.0) / safe_a)
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
    a_bar, factor, _ = _zoh(delta, np.asarray(a))
    return a_bar, factor * b[:, None, :]


def selective_scan(u: Tensor, p: SelectiveSsmParams) -> Tensor:
    """Run the input-dependent recurrence over a (L, D) sequence.

    Per step: project the input to step sizes, input and output vectors;
    discretize; advance ``h_t = a_bar_t h_{t-1} + b_bar_t u_t`` from a zero
    state; emit ``y_t = C_t h_t + skip * u_t``. The adjoint runs the
    recurrence in reverse and is exact.
    """
    if u.data.ndim != 2:
        raise DimensionError(f"selective_scan expects (L, D), got {u.shape}")
    seq_len, d = u.shape
    if d != p.channels:
        raise DimensionError(f"sequence width {d} != parameter width {p.channels}")
    ud = u.data
    dt = ud.dtype

    a = -np.exp(p.a_log.data)                                   # (D, N)
    m1 = ud @ p.dt_down.data.T                                  # (L, r)
    z = m1 @ p.dt_up.data.T + p.dt_bias.data                    # (L, D)
    delta = softplus(z)
    b_seq = ud @ p.b_weight.data.T + p.b_bias.data              # (L, N)
    c_seq = ud @ p.c_weight.data.T + p.c_bias.data              # (L, N)

    a_bar, factor, small = _zoh(delta, a)
    b_bar_u = factor * b_seq[:, None, :] * ud[:, :, None]      # (L, D, N)

    n = p.state_size
    hs = np.empty((seq_len, d, n), dtype=dt)
    h = np.zeros((d, n), dtype=dt)
    for t in range(seq_len):
        h = a_bar[t] * h + b_bar_u[t]
        hs[t] = h
    skip = p.skip.data
    ys = np.einsum("ldn,ln->ld", hs, c_seq) + skip * ud

    parents = (u,) + p.tensors()

    def backward(gy):
        # gradient into each state h_t; only this recurrence is sequential
        dh_all = np.empty_like(hs)
        carry = np.zeros((d, n), dtype=dt)
        for t in range(seq_len - 1, -1, -1):
            carry = gy[t][:, None] * c_seq[t][None, :] + carry
            dh_all[t] = carry
            carry = carry * a_bar[t]
        d_c = np.einsum("ld,ldn->ln", gy, hs)
        h_prev = np.concatenate([np.zeros((1, d, n), dtype=dt), hs[:-1]], axis=0)
        db_bar = dh_all * ud[:, :, None]
        du = gy * skip[None, :] + np.einsum(
            "ldn,ldn->ld", dh_all, factor * b_seq[:, None, :])
        d_skip = (gy * ud).sum(axis=0)
        d_b = np.einsum("ldn,ldn->ln", db_bar, factor)
        d_factor = db_bar * b_seq[:, None, :]
        # exact branch: factor = (a_bar - 1)/a, so d(factor)/d(a_bar) = 1/a
        # plus an explicit -(a_bar - 1)/a^2 term for a; series branch:
        # factor = delta exactly, all sensitivity goes to delta.
        safe_a = np.where(small, 1.0, a[None, :, :])
        da_bar = dh_all * h_prev + np.where(small, 0.0, d_factor / safe_a)
        dda = da_bar * a_bar
        d_delta = (np.where(small, d_factor, 0.0) + dda * a[None, :, :]).sum(axis=2)
        d_a = (np.where(small, 0.0, -d_factor * (a_bar - 1.0) / (safe_a ** 2))
               + dda * delta[:, :, None]).sum(axis=0)
        sigma = 1.0 / (1.0 + np.exp(-z))
        dz = d_delta * sigma
        if p.a_log.requires_grad:
            p.a_log.accumulate_grad(d_a * a)
        if p.b_weight.requires_grad:
            p.b_weight.accumulate_grad(d_b.T @ ud)
        if p.b_bias.requires_grad:
            p.b_bias.accumulate_grad(d_b.sum(axis=0))
        if p.c_weight.requires_grad:
            p.c_weight.accumulate_grad(d_c.T @ ud)
        if p.c_bias.requires_grad:
            p.c_bias.accumulate_grad(d_c.sum(axis=0))
        if p.dt_up.requires_grad:
            p.dt_up.accumulate_grad(dz.T @ m1)
        dm1 = dz @ p.dt_up.data
        if p.dt_down.requires_grad:
            p.dt_down.accumulate_grad(dm1.T @ ud)
        if p.dt_bias.requires_grad:
            p.dt_bias.accumulate_grad(dz.sum(axis=0))
        if p.skip.requires_grad:
            p.skip.accumulate_grad(d_skip)
        if u.requires_grad:
            du = du + d_b @ p.b_weight.data + d_c @ p.c_weight.data + dm1 @ p.dt_down.data
            u.accumulate_grad(du)

    return make_op(ys, parents, backward)


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
