"""Selective state-space machinery.

The sequential scan is the reference computation: an input-dependent linear
recurrence evaluated strictly left to right, with a single fused adjoint that
backpropagates through the whole recurrence.

:func:`selective_scan` runs several independent streams as one computation:
every stream reads the same (L, D) rows, each in its own order, so its
sequence carries a stream axis, (L, S, D), and so does every field of its
parameters, stored stacked: stream s reads row s. Its output goes back to
the rows, (R, S, D), each stream's step at the row it read, so a caller
adds the streams with one sum over the stream axis. Every per-step array is
laid out (..., S, N, D) with the channel axis D innermost, so the
elementwise work broadcasting over the state axis N runs on contiguous
rows. Steps are taken in chunks of ``SCAN_CHUNK``, and one builder forms a
chunk's inputs for both passes: its input rows, step sizes and input and
output vectors, from the input projections, which each pass makes with one
product and one gather. Each pass writes its per-chunk temporaries into one
reused workspace; the forward writes each chunk's output to its rows, so it
builds no (L, S, D) array besides its output. The tape keeps x, the
parameters and one state per chunk, the state entering it; the adjoint
makes the projections again, builds each chunk's inputs again and
recomputes the chunk's states, ``a_bar`` and ``factor`` from that state, as
Mamba's recomputation does (Gu & Dao, arXiv 2312.00752, section 3.3.2):
gradient checkpointing at chunk granularity (Chen et al., arXiv
1604.06174). It writes its gradients into x and into the projections at
their rows, so what follows the chunks is row work: the projections'
adjoint is two flat products, as ``tensor.linear``'s is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .tensor import Params, Tensor, make_op

# steps per chunk of the scan: long enough that per-chunk work runs as a few
# large array ops, short enough that a chunk of (S, N, D) states stays small.
# The chunk also sizes the adjoint's four-slot (SCAN_CHUNK, S, N, D)
# workspace, which with x's (L, S, D) gradient terms and the (L, S, 2N+r)
# projections and their gradients makes the adjoint's transient, bounded
# against the tape by the tape-ratio test of tests/test_model.py: the smaller
# the tape, the smaller the chunk that test allows
SCAN_CHUNK = 32


def softplus(z: np.ndarray) -> np.ndarray:
    # max(z, 0) + log1p(e^-|z|), log(1 + e^z) without overflow and with two
    # z-sized temporaries; np.logaddexp is the same but about ten times slower
    out = -np.abs(z)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def softplus_inverse(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise DomainError("softplus_inverse requires positive input")
    return y + np.log1p(-np.exp(-y))


@dataclass
class SelectiveSsmParams(Params):
    """Input-dependent state-space parameters of S scan streams, stacked.

    Every field carries a leading stream axis S; row s holds stream s. The
    state matrix is diagonal per channel and always negative real:
    ``A = -exp(a_log)``. Step sizes come from a rank-``r`` bottleneck followed
    by softplus, so they are strictly positive. ``skip`` is the direct
    feedthrough vector.
    """

    a_log: Tensor           # (S, D, N)
    b_weight: Tensor        # (S, N, D)
    b_bias: Tensor          # (S, N)
    c_weight: Tensor        # (S, N, D)
    c_bias: Tensor          # (S, N)
    dt_down: Tensor         # (S, r, D)
    dt_up: Tensor           # (S, D, r)
    dt_bias: Tensor         # (S, D)
    skip: Tensor            # (S, D)

    def __post_init__(self):
        if self.a_log.data.ndim != 3:
            raise DimensionError(f"a_log must be (S, D, N), got {self.a_log.shape}")
        s, d, n = self.a_log.shape
        if n < 1:
            raise DomainError("state size N must be >= 1")
        if self.dt_down.shape[1] < 1:
            raise DomainError("dt bottleneck rank must be >= 1")
        if self.b_weight.shape != (s, n, d) or self.c_weight.shape != (s, n, d):
            raise DimensionError("b/c projection shapes inconsistent with (S, D, N)")
        if self.skip.shape != (s, d) or self.dt_bias.shape != (s, d):
            raise DimensionError("skip/dt_bias must be (S, D)")


def _zoh(delta: np.ndarray, a: np.ndarray, a_bar=None, factor=None):
    """The zero-order hold of Mamba (Gu & Dao, arXiv 2312.00752, eq. 4)
    without the input vector.

    ``delta`` is (..., D) and ``a`` is (N, D), or (S, N, D) against a stream
    axis at ``delta[..., S, D]``. Returns ``a_bar = exp(delta * a)`` and
    ``factor = expm1(delta * a) / a`` (so ``b_bar = factor * b``), both
    (..., N, D): the channel axis stays innermost, so broadcasting over N
    runs whole contiguous rows. ``a`` is never 0 (it is ``-exp(a_log)``), and
    ``expm1`` keeps ``factor`` accurate to a few ulps however small
    ``|delta * a|`` is, in float32 as in float64. When ``a_bar`` and
    ``factor`` are given, the results are written into them.
    """
    da = np.multiply(delta[..., None, :], a, out=a_bar)
    factor = np.expm1(da, out=factor)
    factor /= a
    return np.exp(da, out=da), factor


def _chunks(seq_len: int) -> list[slice]:
    return [slice(i, min(i + SCAN_CHUNK, seq_len)) for i in range(0, seq_len, SCAN_CHUNK)]


def _step_sizes(m1, dt_up, dt_bias):
    """The (L, S, D) step sizes from the (L, S, r) bottleneck rows ``m1``:
    ``softplus(dt_up[s] @ m1[l, s] + dt_bias[s])``, one matmul over the
    stream axis."""
    z = np.ascontiguousarray(np.matmul(m1.swapaxes(0, 1), dt_up.swapaxes(1, 2)).swapaxes(0, 1))
    z += dt_bias
    return softplus(z)


def _projections(xf, w, order):
    """Every stream's (L, S, 2N+r) input projections in its own order: the
    (R, D) rows by every stream's stacked (S, 2N+r, D) weights in one
    product, then gathered at ``[order, streams]``. Both passes call it, so
    the adjoint rebuilds the forward's bits rather than the tape keeping them."""
    s_n = len(w)
    proj = (xf @ w.reshape(-1, xf.shape[1]).T).reshape(-1, s_n, w.shape[1])
    return proj[order, np.arange(s_n)]


def _advance(delta, a, b, u, start, w):
    """Run the recurrence over one chunk from the state ``start``.

    ``delta`` and ``u`` are the chunk's (k, S, D) rows and ``b`` its (k, S, N)
    input vectors. Returns ``a_bar``, ``factor`` and the chunk's states, all
    (k, S, N, D), written into slots 0-2 of the workspace ``w``. The forward
    and the adjoint both call this on the chunk's inputs from one builder,
    so the adjoint recomputes the forward's bits.
    """
    k = len(delta)
    a_bar, factor = _zoh(delta, a, w[0, :k], w[1, :k])
    # b_bar * u, advanced in place into the states of the chunk
    hc = np.multiply(factor, b[..., None], out=w[2, :k])
    hc *= u[:, :, None, :]
    prev = start
    for cur, step in zip(hc, a_bar):
        cur += step * prev
        prev = cur
    return a_bar, factor, hc


def selective_scan(x: Tensor, p: SelectiveSsmParams, order: np.ndarray) -> Tensor:
    """Run the input-dependent recurrence over S independent streams.

    ``x`` holds the rows the streams read, viewed as (R, D), and ``order``
    is (L, S) with L = R: each column is a permutation of the rows, and
    stream s reads row ``order[l, s]`` at step l, with row s of every field
    of ``p``. The result is x's leading shape + (S, D): stream s's step l
    goes back to the row it read, ``[order[l, s], s]`` of the result viewed
    as (R, S, D), so the streams' outputs for one row sit side by side. Per
    step: project the input to step sizes, input and output vectors;
    discretize; advance ``h_t = a_bar_t h_{t-1} + b_bar_t u_t`` from a zero
    state; emit ``y_t = C_t h_t + skip * u_t``.

    All streams run as one computation: the stacked weights make the
    projections of every row one product, gathered into the streams' orders,
    and one recurrence advances an (S, N, D) state, channels innermost. Steps
    are processed in chunks of ``SCAN_CHUNK``, and one builder forms a
    chunk's inputs for both passes: its gathered input rows, its step sizes
    and its input and output vectors, from the projections. The forward
    discretizes each chunk, advances the recurrence, reads out and writes
    its outputs to their rows, so the output is the forward's only (L, S, D)
    array and no (L, S, N, D) array exists, with gradients or without. The
    tape keeps x, the parameters and ``starts``, the (S, N, D) state
    entering each chunk, but not the (L, S, 2N+r) projections: the adjoint
    makes them again through :func:`_projections`, one product and one
    gather, then walks the chunks in reverse, builds each chunk's inputs
    again, recomputes its states from its start to the forward's bits and
    writes x's per-stream gradient terms and the projections' gradients
    straight to their rows. What follows is row work: the skip terms, and
    the projections' adjoint as two flat products of the rows, as
    :func:`~sasmamba.tensor.linear`'s. The per-chunk (k, S, N, D)
    temporaries of either pass are written into a workspace allocated once
    per pass. The adjoint is exact.
    """
    s_n, d, n = p.a_log.shape
    if x.shape[-1] != d or np.shape(order) != (x.size // d, s_n):
        raise DimensionError(f"selective_scan expects rows of {d} channels and an "
                             f"(L, {s_n}) order over them, got {x.shape} and "
                             f"{np.shape(order)}")
    xf, x_shape = x.data.reshape(-1, d), x.shape
    dt = xf.dtype
    streams = np.arange(s_n)
    a = -np.exp(np.ascontiguousarray(p.a_log.data.swapaxes(1, 2)))     # (S, N, D)
    w = np.concatenate([p.b_weight.data, p.c_weight.data, p.dt_down.data],
                       axis=1)                                          # (S, 2N+r, D)
    proj = _projections(xf, w, order)                                   # (L, S, 2N+r)
    b_bias, c_bias = p.b_bias.data, p.c_bias.data                       # (S, N)
    dt_up, dt_bias = p.dt_up.data, p.dt_bias.data                       # (S, D, r), (S, D)
    skip = p.skip.data                                                  # (S, D)

    def chunk_inputs(proj, sl):
        """The chunk's (k, S, D) input rows and step sizes and its (k, S, N)
        input and output vectors, from the :func:`_projections` ``proj``."""
        pc = proj[sl]
        return (xf[order[sl]], _step_sizes(pc[..., 2 * n:], dt_up, dt_bias),
                pc[..., :n] + b_bias, pc[..., n:2 * n] + c_bias)

    chunks = _chunks(len(order))
    # the state entering each chunk: all the adjoint keeps of the recurrence
    starts = np.zeros((len(chunks), s_n, n, d), dtype=dt)
    # per-chunk (k, S, N, D) temporaries live in one workspace per pass,
    # written with out= and sliced to the length of the last, partial chunk
    ws = np.empty((3, chunks[0].stop, s_n, n, d), dtype=dt)
    # each stream's step l back at the row it read, stream s at [..., s, :]
    out = np.empty(x_shape[:-1] + (s_n, d), dtype=dt)
    rows = out.reshape(-1, s_n, d)
    for ci, sl in enumerate(chunks):
        u, delta, b, c = chunk_inputs(proj, sl)
        hc = _advance(delta, a, b, u, starts[ci], ws)[2]
        if ci + 1 < len(chunks):
            starts[ci + 1] = hc[-1]
        y = np.matmul(c[:, :, None, :], hc)[:, :, 0]
        y += skip * u
        rows[order[sl], streams] = y

    def backward(g):
        proj = _projections(xf, w, order)
        g = g.reshape(-1, s_n, d)
        # x's gradient terms at their rows, stream s at [:, s]: the skip
        # terms, then each chunk's terms through the recurrence. Each column
        # of order is a permutation, so every (row, stream) is written once
        dx = g * skip
        dproj = np.empty((len(g), s_n, w.shape[1]), dtype=dt)          # (R, S, 2N+r)
        d_a_log = np.zeros((s_n, n, d), dtype=dt)
        d_dt_up, d_dt_bias = np.zeros_like(dt_up), np.zeros_like(dt_bias)
        carry = np.zeros((s_n, n, d), dtype=dt)
        wb = np.empty((4, chunks[0].stop, s_n, n, d), dtype=dt)
        for ci in reversed(range(len(chunks))):
            sl = chunks[ci]
            k = sl.stop - sl.start
            u, delta, b, c = chunk_inputs(proj, sl)
            gc = g[order[sl], streams]
            a_bar, factor, hc = _advance(delta, a, b, u, starts[ci], wb)
            # the chunk's gradients into b, c and m1, side by side as proj's
            dpc = np.empty((k, s_n, w.shape[1]), dtype=dt)
            np.einsum("lsd,lsnd->lsn", gc, hc, out=dpc[..., n:2 * n])
            # gradient into each state h_t; only this recurrence is sequential
            dh = np.multiply(gc[:, :, None, :], c[..., None], out=wb[3, :k])
            for cur, step in zip(dh[::-1], a_bar[::-1]):
                cur += carry
                carry = cur * step
            # b_bar * u = factor * b * u: gradients into u and b through
            # q = dh factor, formed in factor's place, which nothing reads after
            q = np.multiply(dh, factor, out=factor)
            dx[order[sl], streams] += np.einsum("lsnd,lsn->lsd", q, b)
            np.einsum("lsnd,lsd->lsn", q, u, out=dpc[..., :n])
            # a_bar = exp(delta a) and factor = expm1(delta a) / a with
            # a = -exp(a_log): d factor/d delta = a_bar and d factor/d a_log =
            # delta a_bar - factor, so with d_factor = dh u b and
            # q = a_bar (a dh h_prev + d_factor), d delta = sum_n q and
            # d a_log = sum_l delta q - sum_l d_factor factor; the second sum is
            # taken first, from dh factor u b, so that q's slot is free for the
            # first and the pass needs four slots
            d_a_log -= np.einsum("lsnd,lsd,lsn->snd", q, u, b)
            # q = dh h_prev, h_prev being the start state and then every state of
            # the chunk but the last; d_factor then takes the place of dh
            np.multiply(dh[0], starts[ci], out=q[0])
            np.multiply(dh[1:], hc[:-1], out=q[1:])
            d_factor = np.multiply(dh, u[:, :, None, :], out=dh)
            d_factor *= b[..., None]
            q *= a
            q += d_factor
            q *= a_bar
            dz = np.einsum("lsnd->lsd", q)
            q *= delta[:, :, None, :]
            d_a_log += q.sum(axis=0)
            # the softplus argument's gradient: softplus' = sigmoid, which is
            # 1 - exp(-softplus)
            dz *= -np.expm1(-delta)
            dpc[..., 2 * n:] = np.matmul(dz.swapaxes(0, 1), dt_up).swapaxes(0, 1)
            d_dt_up += np.matmul(dz.transpose(1, 2, 0), proj[sl, :, 2 * n:].swapaxes(0, 1))
            d_dt_bias += dz.sum(axis=0)
            dproj[order[sl], streams] = dpc
        # the projections' adjoint as linear's: two flat products of the rows
        flat = dproj.reshape(len(g), -1)                                # (R, S(2N+r))
        dw = (flat.T @ xf).reshape(w.shape)
        dx = dx.sum(axis=1)
        dx += flat @ w.reshape(-1, d)
        return (dx.reshape(x_shape), d_a_log.swapaxes(1, 2), dw[:, :n],
                dproj[..., :n].sum(axis=0), dw[:, n:2 * n], dproj[..., n:2 * n].sum(axis=0),
                dw[:, 2 * n:], d_dt_up, d_dt_bias, np.einsum("rsd,rd->sd", g, xf))

    return make_op(out, (x,) + p.tensors(), backward)

