"""Structure-aware stride layer.

Composition: a deformable local aggregation over the (frame, joint) grid,
then multi-stride joint subsampling with preceding-valid fill (every stride
group in one :func:`stride_scan` op), then selective scans over four flatten
directions, summed. Shapes are (T, V, C) throughout, with two exceptions.
Inside :func:`sa_conv` the offset net predicts a (T, V, 2) field of (t, v)
shifts, and one :meth:`NeighborMixParams.apply` takes x and that field, as
deformable convolution takes its input and offsets (Dai et al., ICCV 2017):
it mixes and sums x's samples at each row's K*K taps, shifted by the row's
offset, as one sample per row of a K x K convolution of x, the one op taped
for both the sampling and the mixing. That needs one offset per row for all
taps, as here; per-tap offsets, as in Dai et al.'s, would break it.
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
                     grid_conv3x3, linear, make_op, mul, neighbor_rows,
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
        """Sum over taps k of tap k's map of x sampled at p0 + pn + dp, the
        one op of the bilinear sampling and the mixing; call it through the
        class. x is (T, V, C), ``offsets`` the (T, V, 2) field dp of (t, v)
        shifts, and :func:`tap_grid` gives each row's p0. A row's taps share
        its dp and the pn are whole numbers, so the sum is one sample of
        :func:`_tap_conv`'s Z at p0 + dp + K//2: clamp-to-edge sampling
        commutes with whole-number shifts and with the tap maps. The tape
        keeps x and those positions; the adjoint rebuilds Z, takes one
        :func:`bilinear_vjp` pullback and walks the taps for Z's adjoint.
        At whole-number positions the offsets' gradient is the right-hand
        difference, also for a tap on row 0 or column 0 of x while the
        position lies strictly inside Z's grid (sampling x there gives 0).
        """
        t_n, v_n, c = x.shape
        if offsets.shape != (t_n, v_n, 2):
            raise DimensionError(f"offsets {offsets.shape} are not (t, v) shifts of a "
                                 f"{(t_n, v_n)} grid")
        diag, down, up = mix.diag.data, mix.down.data, mix.up.data     # (K, C), (K, R, C), (K, C, R)
        xf, half = x.data.reshape(-1, c), mix.kernel_size // 2
        pos = tap_grid(t_n, v_n, mix.kernel_size)[0].astype(offsets.dtype) + half
        pos += offsets.data.reshape(-1, 2)
        z = _tap_conv(xf, t_n, v_n, half, diag, down, up)[0]
        out = bilinear_gather(z.reshape(t_n + 2 * half, v_n + 2 * half, c), pos)

        def backward(g):
            z, rows = _tap_conv(xf, t_n, v_n, half, diag, down, up)
            dz, d_off = bilinear_vjp(z, pos, t_n + 2 * half, v_n + 2 * half)(g.reshape(-1, c))
            del z                                   # the taps' loop reads dz only
            dx, xk = np.zeros_like(xf), np.empty(dz.shape, xf.dtype)
            d_diag, d_down, d_up = np.empty_like(diag), np.empty_like(down), np.empty_like(up)
            for k in range(len(diag)):
                np.take(xf, rows[:, k], axis=0, out=xk, mode="clip")
                d_lo = dz @ up[k]                                       # (E, R)
                d_diag[k] = np.einsum("ec,ec->c", dz, xk)
                d_down[k] = d_lo.T @ xk
                d_up[k] = dz.T @ (xk @ down[k].T)
                dx += scatter_rows(diag[k] * dz + d_lo @ down[k], rows[:, k, None], len(xf))
            return dx.reshape(t_n, v_n, c), d_off.reshape(t_n, v_n, 2), d_diag, d_down, d_up

        return make_op(out.reshape(x.shape), (x, offsets) + mix.tensors(), backward)


def _tap_conv(xf, t_n, v_n, half, diag, down, up):
    """Z, (E, C): x's (T*V, C) rows convolved by the K x K tap maps, clamp-to-
    edge, over the E = (T+K-1)*(V+K-1) points of the grid extended by half =
    K//2 on each side; and the (E, K*K) :func:`neighbor_rows` the taps read."""
    rows = neighbor_rows(t_n, v_n, 2 * half + 1, half)
    z = np.zeros((len(rows), xf.shape[1]), np.result_type(xf, diag))
    buf = np.empty_like(z)
    for k in range(len(diag)):
        np.take(xf, rows[:, k], axis=0, out=buf, mode="clip")    # "raise" would buffer out
        buf *= diag[k]
        z += buf
        # down maps x's T*V rows before the gather to E rows, not after
        np.matmul((xf @ down[k].T)[rows[:, k]], up[k].T, out=buf)
        z += buf
    return z, rows


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
