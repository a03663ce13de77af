"""Structure-aware stride layer.

Composition: a deformable local aggregation over the (frame, joint) grid,
then multi-stride joint subsampling with preceding-valid fill (every stride
group in one :func:`stride_scan` op), then selective scans over four flatten
directions, summed. Shapes are (T, V, C) throughout, with two exceptions.
Inside :func:`sa_conv` the K*K taps are a leading axis and each sampling
position is one (t, v) pair on a last axis of 2: one
:meth:`NeighborMixParams.apply` samples x at the (K*K, T, V, 2) positions and
mixes and sums the taps. Its forward samples one block of rows at a time,
(K*K, rows, C) through :func:`bilinear_gather`, and mixes it before the next
block. That op is the one taped: it differentiates the sampling and the
mixing together, keeping x and the positions, and its adjoint rebuilds the
samples one tap at a time. Deformable convolution forms and rebuilds its
sampled columns in the same way, in steps (Dai et al., ICCV 2017).
Inside :func:`four_stream_scan` the enabled streams are a stream axis S: one
:func:`selective_scan` call reads the (T*V, C) rows of the map in every
stream's order, an (L, S) table with L = T*V, and returns each stream's
output at the row it read, (T, V, S, C), which one sum over S adds, as
VMamba's cross-merge does (Liu et al., arXiv 2401.10166); its state is
(S, N, C), channels innermost.
The parameters are stored on the same axes: each field of the tap maps is
one (K*K, ...) tensor and each field of the scan, and of the stream gates,
one (S, ...) tensor, so no call stacks or splits them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, DimensionError
from .ssm import SelectiveSsmParams, selective_scan
from .tensor import (Conv3x3Params, LinearParams, Params, Tensor, add,
                     bilinear_gather, bilinear_weights, depthwise_conv3x3,
                     grid_conv3x3, linear, make_op, mul, row_blocks,
                     row_selection, scatter_rows, silu, sum_axis, tensor)

STREAM_ORDER = ("temporal_forward", "temporal_backward",
                "spatial_forward", "spatial_backward")


def tap_rank(k: int) -> int:
    """Channel-mixing rank per sampled neighbor; grows with the tap grid."""
    return 2 * k * k


@dataclass
class NeighborMixParams(Params):
    """The channel maps of all K*K taps, stacked on a leading tap axis.

    Tap k maps a feature vector s to ``diag[k] * s + up[k] @ (down[k] @ s)``.
    The diagonal part keeps identity and zero maps exactly representable at
    any rank.
    """

    diag: Tensor   # (K*K, C)
    down: Tensor   # (K*K, rho, C)
    up: Tensor     # (K*K, C, rho)

    @staticmethod
    def apply(x: Tensor, pos: Tensor, mix: NeighborMixParams) -> Tensor:
        """Sum over taps k of ``diag[k] * s[k] + up[k] @ (down[k] @ s[k])``,
        s[k] being x sampled at tap k's positions: the one op of both the
        bilinear sampling and the mixing.

        ``pos`` stacks one (..., 2) block of (t, v) positions per tap on its
        leading axis; the result drops the tap axis. The forward walks the P
        positions in :func:`row_blocks`: per block, one :func:`bilinear_gather`
        samples every tap, (K*K, rows, C), a batched ``down`` product writes
        every tap's low-rank rows once, side by side as (rows, K*R), and one
        matmul of the ``up`` maps side by side writes the block's output rows.
        So neither the (K*K, P, C) samples nor their CSR matrix is ever whole,
        and each product keeps the bits of one whole-map call, as the blocks
        are near-equal. The tape keeps x and the positions, not the samples,
        and the adjoint walks the taps: for tap k it rebuilds the corners and
        weights through :func:`bilinear_weights`, and one :func:`row_selection`
        product gives the (P, C) samples, with the forward's bits, and their
        derivatives in t and in v. With ``ds = diag[k] * g + (g @ up[k]) @
        down[k]``, :func:`scatter_rows` adds ``W_k.T @ ds`` into x's gradient,
        the positions' gradient is the row-wise dot of ``ds`` with the
        derivatives, zero where the clamp is flat, and the samples give the
        maps' gradients. Call it through the class.
        """
        t_n, v_n, c = x.shape
        k_n = mix.diag.shape[0]
        if pos.shape[0] != k_n or pos.shape[-1] != 2:
            raise DimensionError(f"positions {pos.shape} are not (t, v) pairs of {k_n} taps")
        diag, down, up = mix.diag.data, mix.down.data, mix.up.data     # (K, C), (K, R, C), (K, C, R)
        xf, posd = x.data.reshape(-1, c), pos.data.reshape(k_n, -1, 2)
        up_rows = up.transpose(1, 0, 2).reshape(c, -1).T                # (K*R, C)
        out = np.empty((posd.shape[1], c), np.result_type(xf, diag))
        for rows in row_blocks(posd.shape[1]):
            sf = bilinear_gather(x.data, posd[:, rows])                 # (K, rows, C)
            # tap k's low-rank rows down[k] @ s go straight to their (rows, K*R) place
            low = np.empty((sf.shape[1], k_n, down.shape[1]), dtype=sf.dtype)
            np.matmul(sf, down.transpose(0, 2, 1), out=low.transpose(1, 0, 2))
            np.add(np.einsum("kpc,kc->pc", sf, diag), low.reshape(len(low), -1) @ up_rows,
                   out=out[rows])
            del sf, low                             # before the next block's gather
        x_shape, pos_shape, edge = x.shape, pos.shape, (t_n - 1, v_n - 1)

        def backward(g):
            g2 = g.reshape(-1, c)
            inside = (posd > 0.0) & (posd < edge)     # the clamp is flat elsewhere
            dx = np.zeros_like(xf)
            d_pos = np.empty_like(posd)
            d_diag, d_down, d_up = np.empty_like(diag), np.empty_like(down), np.empty_like(up)
            for k, pk in enumerate(posd):
                cols, corners, (wt, wv) = bilinear_weights(pk[:, 0], pk[:, 1], t_n, v_n)
                # each corner's weight, then its derivatives in t and in v,
                # (3, 4, P): they blend tap k's samples and their derivatives
                weights = np.stack(corners + (wv - 1.0, -wv, 1.0 - wv, wv)
                                   + (wt - 1.0, 1.0 - wt, -wt, wt)).reshape(3, 4, -1)
                w = row_selection(np.broadcast_to(cols, (3,) + cols.shape), len(xf),
                                  weights.transpose(0, 2, 1), xf.dtype)
                blend = (w @ xf).reshape(3, -1, c)
                s_k, d_s = blend[0], blend[1:]
                d_lo = g2 @ up[k]                                       # (P, R)
                ds = diag[k] * g2 + d_lo @ down[k]
                dx += scatter_rows(ds, cols, len(xf), weights[0].T)
                d_pos[k] = inside[k] * np.einsum("qpc,pc->pq", d_s, ds)
                d_diag[k] = np.einsum("pc,pc->c", g2, s_k)
                d_down[k] = d_lo.T @ s_k
                d_up[k] = g2.T @ (s_k @ down[k].T)
            return dx.reshape(x_shape), d_pos.reshape(pos_shape), d_diag, d_down, d_up

        return make_op(out.reshape(pos_shape[1:-1] + (c,)), (x, pos) + mix.tensors(), backward)


@dataclass
class SaConvParams(Params):
    """Deformable spatiotemporal aggregation parameters.

    ``offset_net`` predicts one (dt, dv) displacement per joint from a 3x3
    grid convolution; ``mix`` holds one channel mixer per sampled neighbor
    of the K x K grid placed around the shifted center; ``local_conv`` is a
    per-channel 3x3 aggregation of the undisplaced neighborhood.
    """

    offset_net: Conv3x3Params          # C -> 2
    mix: NeighborMixParams             # K*K taps
    local_conv: Conv3x3Params          # depthwise, C -> C

    def __post_init__(self):
        taps = self.mix.diag.shape[0]
        if self.kernel_size ** 2 != taps or taps % 2 == 0:
            raise ConfigError(f"{taps} neighbor mixers do not fill an odd square grid")
        if self.offset_net.weight.shape[0] != 2:
            raise ConfigError("offset net must produce exactly 2 channels")

    @property
    def kernel_size(self) -> int:
        """K, the side of the K x K tap grid that ``mix`` holds."""
        return math.isqrt(self.mix.diag.shape[0])


def stride_groups(strides: tuple[int, ...], channels: int) -> list[tuple[slice, int]]:
    """The channel block and stride of each stride group: the model's split
    rule, half and two quarters of the channels for three strides, equal
    parts otherwise, in the order of ``strides``."""
    if not strides:
        raise ConfigError("at least one stride must be given")
    if any(s < 1 for s in strides):
        raise ConfigError(f"strides must be >= 1, got {tuple(strides)}")
    parts = (2, 1, 1) if len(strides) == 3 else (1,) * len(strides)
    unit, rest = divmod(channels, sum(parts))
    if rest:
        raise ConfigError(f"channel count {channels} not divisible into parts {parts}")
    edges = [unit * e for e in accumulate(parts, initial=0)]
    return [(slice(a, b), s) for a, b, s in zip(edges, edges[1:], strides)]


@dataclass
class SasLayerParams(Params):
    """One structure-aware stride layer. ``scan`` stacks the parameters of
    the enabled ``streams`` in that order, and so does ``gate``, when the
    streams are gated: an (S, C, C) weight and an (S, C) bias."""

    sa: SaConvParams
    strides: tuple[int, ...]
    streams: tuple[str, ...]
    scan: SelectiveSsmParams
    gate: LinearParams | None = None


def sa_conv(x: Tensor, p: SaConvParams) -> Tensor:
    """Deformable aggregation: shift the K x K grid by the predicted offset,
    bilinearly sample each tap, mix per tap, and add the local aggregation.

    Every sampling position p0 + pn + dp is one (t, v) pair on a last axis
    of 2: the (T, V, 2) offsets plus the (T, V, 2) grid p0 plus the
    (K*K, 1, 1, 2) tap offsets pn in the order of the tap axis of ``p.mix``
    (dt outer, dv inner). One :meth:`NeighborMixParams.apply` samples all
    (K*K, T, V) positions, a block of rows at a time, and mixes them; its
    adjoint differentiates both.
    """
    t_n, v_n, _ = x.shape
    half = (p.kernel_size - 1) // 2
    offsets = grid_conv3x3(x, p.offset_net)
    grid = np.stack(np.meshgrid(np.arange(t_n, dtype=x.dtype), np.arange(v_n, dtype=x.dtype),
                                indexing="ij"), axis=-1)
    steps = np.arange(-half, half + 1, dtype=x.dtype)
    taps = np.stack(np.meshgrid(steps, steps, indexing="ij"), axis=-1).reshape(-1, 1, 1, 2)
    local = depthwise_conv3x3(x, p.local_conv)
    pos = add(add(offsets, tensor(grid)), tensor(taps))
    return add(local, NeighborMixParams.apply(x, pos, p.mix))


def stride_scan(x: Tensor, strides: tuple[int, ...]) -> Tensor:
    """Split channels into the :func:`stride_groups` of ``strides`` and
    subsample each group's joints at its stride, with preceding-valid fill,
    as one op.

    Group i keeps channel block i of the input in place; its joint v reads
    joint floor(v/s)*s. Stride-1 channels pass verbatim; shape is preserved.
    The adjoint is one :func:`scatter_rows` per group over the (T*V) rows.
    """
    groups = stride_groups(strides, x.shape[-1])
    t_n, v_n, _ = x.shape
    out = np.empty_like(x.data)
    for cols, s in groups:
        out[..., cols] = x.data[:, (np.arange(v_n) // s) * s, cols]

    def backward(g):
        # joint block [v0, v0 + s) reads joint v0: its gradient is the block
        # sum, added left to right
        dx = np.empty_like(g)
        for cols, s in groups:
            reads = np.arange(t_n)[:, None] * v_n + (np.arange(v_n) // s) * s
            dx[..., cols] = scatter_rows(g[..., cols], reads[..., None],
                                         t_n * v_n).reshape(t_n, v_n, -1)
        return (dx,)

    return make_op(out, (x,), backward)


def _scan_rows(t_n: int, v_n: int, names) -> np.ndarray:
    """Where each named stream reads the frame-major rows of a (T, V) map:
    ``order``, (L, S) with L = T*V, the row stream s reads at step l.

    Temporal streams flatten frame-major (all joints of frame 0 first),
    spatial streams joint-major; backward streams read their order reversed.
    """
    if not names:
        raise ConfigError("at least one scan stream must be enabled")
    unknown = set(names) - set(STREAM_ORDER)
    if unknown:
        raise ConfigError(f"unknown stream names: {sorted(unknown)}")
    frame_major = np.arange(t_n * v_n)
    joint_major = frame_major.reshape(t_n, v_n).T.ravel()
    columns = []
    for name in names:
        col = joint_major if name.startswith("spatial") else frame_major
        columns.append(col[::-1] if name.endswith("backward") else col)
    return np.stack(columns, axis=1)


def four_stream_scan(x: Tensor, streams: tuple[str, ...], scan: SelectiveSsmParams,
                     gate: LinearParams | None = None) -> Tensor:
    """Sum of the named directional scans; stream s runs with row s of ``scan``.

    One :func:`selective_scan` runs all S streams over the (T, V, C) map,
    each reading its rows in its own scan order, and returns each stream's
    output at the row it read, (T, V, S, C); the scan gathers its input
    itself, so its tape keeps the map once, not once per stream. With a
    ``gate``, stacked as ``scan`` is, stream s's output is multiplied by
    ``silu(gate[s](x))`` at the same row: one :func:`linear` makes the
    (T, V, S, C) map of all S gates. One sum over the stream axis adds the
    streams in the order given.
    """
    t_n, v_n, _ = x.shape
    y = selective_scan(x, scan, _scan_rows(t_n, v_n, streams))
    if gate is not None:
        y = mul(y, silu(linear(x, gate)))
    return sum_axis(y, -2)


def sas_ssm_layer(x: Tensor, p: SasLayerParams) -> Tensor:
    """Full structure-aware stride layer: sa_conv -> stride_scan -> streams."""
    return four_stream_scan(stride_scan(sa_conv(x, p.sa), p.strides),
                            p.streams, p.scan, p.gate)
