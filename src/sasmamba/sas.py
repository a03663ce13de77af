"""Structure-aware stride layer.

Composition: a deformable local aggregation over the (frame, joint) grid,
then multi-stride joint subsampling with preceding-valid fill (every stride
group in one :func:`stride_scan` op), then selective scans over four flatten
directions, summed. Shapes are (T, V, C) throughout, with two exceptions.
Inside :func:`sa_conv` the offset net predicts a (T, V, 2) field of (t, v)
shifts, and one :meth:`NeighborMixParams.apply` takes x and that field, as
deformable convolution takes its input and offsets (Dai et al., ICCV 2017):
it samples x at each row's K*K taps, shifted by the row's offset, as a
(K*K, rows, C) block with the taps on a leading axis, and mixes and sums the
taps before the next block. That op is the one taped for both the sampling
and the mixing.
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
                     bilinear_gather, bilinear_vjp, depthwise_conv3x3,
                     grid_conv3x3, linear, make_op, mul, row_blocks,
                     scatter_rows, silu, sum_axis, tap_grid)

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

    def __post_init__(self):
        taps = self.diag.shape[0]
        if self.kernel_size ** 2 != taps or taps % 2 == 0:
            raise ConfigError(f"{taps} neighbor mixers do not fill an odd square grid")

    @property
    def kernel_size(self) -> int:
        """K, the side of the K x K tap grid."""
        return math.isqrt(self.diag.shape[0])

    @staticmethod
    def apply(x: Tensor, offsets: Tensor, mix: NeighborMixParams) -> Tensor:
        """Sum over taps k of ``diag[k] * s[k] + up[k] @ (down[k] @ s[k])``,
        s[k] being x sampled at tap k's positions p0 + pn + dp: the one op of
        both the bilinear sampling and the mixing. Call it through the class.

        x is (T, V, C) and ``offsets`` the (T, V, 2) field dp of (t, v)
        shifts; :func:`tap_grid` gives each row's p0 and tap k's pn. The op
        forms the (T*V, 2) base dp + p0 once. The forward samples a block of
        :func:`row_blocks` at ``base[rows] + pn`` with one
        :func:`bilinear_gather`, (K*K, rows, C), and mixes it before the
        next, so the (K*K, T*V, C) samples are never whole; near-equal blocks
        keep each product's bits. The tape keeps x and the base. The adjoint
        walks the taps: :func:`bilinear_vjp` at tap k's positions gives its
        samples, with the forward's bits, and their pullback, which maps
        ``ds = diag[k] * g + (g @ up[k]) @ down[k]`` to tap k's terms of x's
        and the offsets' gradients; the samples give the maps'.
        """
        t_n, v_n, c = x.shape
        if offsets.shape != (t_n, v_n, 2):
            raise DimensionError(f"offsets {offsets.shape} are not (t, v) shifts of a "
                                 f"{(t_n, v_n)} grid")
        diag, down, up = mix.diag.data, mix.down.data, mix.up.data     # (K, C), (K, R, C), (K, C, R)
        grid, taps = (a.astype(offsets.dtype) for a in tap_grid(t_n, v_n, mix.kernel_size))
        base, xf = offsets.data.reshape(-1, 2) + grid, x.data.reshape(-1, c)
        up_rows = up.transpose(1, 0, 2).reshape(c, -1).T                # (K*R, C)
        out = np.empty(xf.shape, np.result_type(xf, diag))
        for rows in row_blocks(len(base)):
            sf = bilinear_gather(x.data, base[rows] + taps[:, None])    # (K, rows, C)
            # tap k's low-rank rows down[k] @ s go straight to their (rows, K*R) place
            low = np.empty((sf.shape[1],) + down.shape[:2], dtype=sf.dtype)
            np.matmul(sf, down.transpose(0, 2, 1), out=low.transpose(1, 0, 2))
            np.add(np.einsum("kpc,kc->pc", sf, diag), low.reshape(len(low), -1) @ up_rows,
                   out=out[rows])
            del sf, low                             # before the next block's gather
        x_shape = x.shape

        def backward(g):
            g2 = g.reshape(-1, c)
            dx = np.zeros_like(xf)
            d_diag, d_down, d_up = np.empty_like(diag), np.empty_like(down), np.empty_like(up)
            for k, tap in enumerate(taps):
                s_k, pullback = bilinear_vjp(xf, base + tap, t_n, v_n)
                d_lo = g2 @ up[k]                                       # (P, R)
                ds = diag[k] * g2 + d_lo @ down[k]
                dx_k, d_pk = pullback(ds)
                dx += dx_k
                # the taps' terms add up in tap order, starting from tap 0's
                d_off = d_off + d_pk if k else d_pk
                d_diag[k] = np.einsum("pc,pc->c", g2, s_k)
                d_down[k] = d_lo.T @ s_k
                d_up[k] = g2.T @ (s_k @ down[k].T)
            return dx.reshape(x_shape), d_off.reshape(t_n, v_n, 2), d_diag, d_down, d_up

        return make_op(out.reshape(x_shape), (x, offsets) + mix.tensors(), backward)


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
        if self.offset_net.weight.shape[0] != 2:
            raise ConfigError("offset net must produce exactly 2 channels")


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
    """Deformable aggregation: the offset net predicts one (t, v) shift per
    position, :meth:`NeighborMixParams.apply` samples the K x K grid moved
    by it and mixes the taps, and the local aggregation is added."""
    offsets = grid_conv3x3(x, p.offset_net)
    local = depthwise_conv3x3(x, p.local_conv)
    return add(local, NeighborMixParams.apply(x, offsets, p.mix))


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
