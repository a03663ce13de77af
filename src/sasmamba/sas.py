"""Structure-aware stride layer.

Composition: a deformable local aggregation over the (frame, joint) grid,
then multi-stride joint subsampling with preceding-valid fill, then selective
scans over four flatten directions, summed. Shapes are (T, V, C) throughout,
with two exceptions. Inside :func:`sa_conv` the K*K taps are a leading axis:
one :func:`bilinear_gather` samples (K*K, T, V, C) and one
:meth:`NeighborMixParams.apply` mixes and sums them. Inside
:func:`four_stream_scan` the enabled streams are a stream axis S of one
(L, S, C) sequence, L = T*V, built by one index gather and scanned by one
:func:`selective_scan` call whose state is (S, N, C), channels innermost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .ssm import SelectiveSsmParams, selective_scan
from .tensor import (Conv3x3Params, DepthwiseConv3x3Params, LinearParams,
                     Tensor, add, bilinear_gather, concat_last,
                     depthwise_conv3x3, gather_sum, grid_conv3x3, linear,
                     make_op, mul, register_op, reshape, silu, slice_last,
                     tensor)

STREAM_ORDER = ("temporal_forward", "temporal_backward",
                "spatial_forward", "spatial_backward")


def tap_rank(k: int) -> int:
    """Channel-mixing rank per sampled neighbor; grows with the tap grid."""
    return 2 * k * k


@dataclass
class NeighborMixParams:
    """Per-tap channel map: diagonal plus a low-rank correction.

    Applying to a feature vector s gives ``diag * s + up @ (down @ s)``. The
    diagonal part keeps identity and zero maps exactly representable at any
    rank.
    """

    diag: Tensor   # (C,)
    down: Tensor   # (rho, C)
    up: Tensor     # (C, rho)

    def tensors(self) -> tuple[Tensor, ...]:
        return (self.diag, self.down, self.up)

    @staticmethod
    def apply(s: Tensor, taps: list[NeighborMixParams]) -> Tensor:
        """Sum over taps k of ``diag_k * s[k] + up_k @ (down_k @ s[k])``.

        ``s`` stacks one (..., C) sample per tap on its leading axis; the
        result drops that axis. The taps' tensors are stacked at call time,
        so all maps run as one op: a batched ``down`` product and one matmul
        with the ``up`` maps side by side. The adjoint splits the stacked
        gradients back per tap. Call it through the class,
        ``NeighborMixParams.apply(s, taps)``.
        """
        k_n, c = s.shape[0], s.shape[-1]
        if k_n != len(taps):
            raise DimensionError(f"{k_n} stacked samples for {len(taps)} taps")
        diag = np.stack([tap.diag.data for tap in taps])                # (K, C)
        down = np.stack([tap.down.data for tap in taps])                # (K, R, C)
        rho = down.shape[1]
        up = np.stack([tap.up.data for tap in taps], axis=1).reshape(c, k_n * rho)
        sf = s.data.reshape(k_n, -1, c)                                 # (K, P, C)
        lo = np.matmul(sf, down.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(-1, k_n * rho)
        out = np.einsum("kpc,kc->pc", sf, diag) + lo @ up.T
        parents = (s,) + tuple(t for tap in taps for t in tap.tensors())

        def backward(g):
            g2 = g.reshape(-1, c)
            d_lo = np.ascontiguousarray((g2 @ up).reshape(-1, k_n, rho).transpose(1, 0, 2))
            if s.requires_grad:
                s.accumulate_grad((diag[:, None, :] * g2 + d_lo @ down).reshape(s.shape))
            grads = (np.einsum("pc,kpc->kc", g2, sf),
                     d_lo.transpose(0, 2, 1) @ sf,
                     (g2.T @ lo).reshape(c, k_n, rho).transpose(1, 0, 2))
            for k, tap in enumerate(taps):
                for t, d in zip(tap.tensors(), grads):
                    if t.requires_grad:
                        t.accumulate_grad(d[k])

        return make_op(out.reshape(s.shape[1:]), parents, backward)


@dataclass
class SaConvParams:
    """Deformable spatiotemporal aggregation parameters.

    ``offset_net`` predicts one (dt, dv) displacement per joint from a 3x3
    grid convolution; ``taps`` holds one channel mixer per sampled neighbor
    of the K x K grid placed around the shifted center; ``local_conv`` is a
    per-channel 3x3 aggregation of the undisplaced neighborhood.
    """

    kernel_size: int
    offset_net: Conv3x3Params          # C -> 2
    taps: list[NeighborMixParams]      # K*K entries
    local_conv: DepthwiseConv3x3Params

    def __post_init__(self):
        k = self.kernel_size
        if k < 1 or k % 2 == 0:
            raise ConfigError(f"kernel size must be odd and >= 1, got {k}")
        if self.offset_net.weight.shape[0] != 2:
            raise ConfigError("offset net must produce exactly 2 channels")
        if len(self.taps) != k * k:
            raise ConfigError(f"expected {k * k} neighbor mixers, got {len(self.taps)}")

    def tensors(self) -> tuple[Tensor, ...]:
        out = list(self.offset_net.tensors()) + list(self.local_conv.tensors())
        for tap in self.taps:
            out.extend(tap.tensors())
        return tuple(out)


@dataclass
class StrideConfig:
    strides: tuple[int, ...] = (1, 2, 3)
    fractions: tuple[float, ...] = (0.5, 0.25, 0.25)

    def __post_init__(self):
        if len(self.strides) != len(self.fractions):
            raise ConfigError("strides and fractions must align")
        if any(s < 1 for s in self.strides):
            raise ConfigError(f"strides must be >= 1, got {self.strides}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigError(f"channel fractions must sum to 1, got {self.fractions}")

    def split_points(self, channels: int) -> list[int]:
        """Channel boundaries of each stride group; rejects indivisible widths."""
        bounds = [0]
        acc = 0.0
        for frac in self.fractions:
            acc += frac
            edge = acc * channels
            if abs(edge - round(edge)) > 1e-9:
                raise ConfigError(
                    f"channel count {channels} not divisible by fractions {self.fractions}")
            bounds.append(int(round(edge)))
        return bounds


@dataclass
class StreamSet:
    """Enabled scan directions, each with its own scan parameters."""

    params: dict[str, SelectiveSsmParams] = field(default_factory=dict)

    def __post_init__(self):
        if not self.params:
            raise ConfigError("at least one scan stream must be enabled")
        unknown = set(self.params) - set(STREAM_ORDER)
        if unknown:
            raise ConfigError(f"unknown stream names: {sorted(unknown)}")

    def ordered(self) -> list[tuple[str, SelectiveSsmParams]]:
        return [(name, self.params[name]) for name in STREAM_ORDER if name in self.params]

    def tensors(self) -> tuple[Tensor, ...]:
        out = []
        for _, p in self.ordered():
            out.extend(p.tensors())
        return tuple(out)


@dataclass
class SasLayerParams:
    sa: SaConvParams
    stride_cfg: StrideConfig
    streams: StreamSet
    gates: dict[str, LinearParams] = field(default_factory=dict)

    def tensors(self) -> tuple[Tensor, ...]:
        out = list(self.sa.tensors()) + list(self.streams.tensors())
        for name in STREAM_ORDER:
            if name in self.gates:
                out.extend(self.gates[name].tensors())
        return tuple(out)


def predict_offsets(x: Tensor, p: SaConvParams) -> Tensor:
    """Per-(frame, joint) displacement (dt, dv), unbounded; clamping happens
    later in sampling."""
    if x.shape[-1] != p.offset_net.weight.shape[1]:
        raise DimensionError(
            f"offset net expects {p.offset_net.weight.shape[1]} channels, got {x.shape[-1]}")
    return grid_conv3x3(x, p.offset_net)


def sa_conv(x: Tensor, p: SaConvParams) -> Tensor:
    """Deformable aggregation: shift the K x K grid by the predicted offset,
    bilinearly sample each tap, mix per tap, and add the local aggregation.

    All K*K taps are sampled by one :func:`bilinear_gather` over (K*K, T, V)
    positions, the shifted centre plus each tap's offset in ``p.taps`` order
    (dt outer, dv inner), and mixed by one :meth:`NeighborMixParams.apply`.
    """
    t_n, v_n, _ = x.shape
    k = p.kernel_size
    offsets = predict_offsets(x, p)
    half = (k - 1) // 2
    base_t = tensor(np.broadcast_to(np.arange(t_n, dtype=x.dtype)[:, None], (t_n, v_n)).copy())
    base_v = tensor(np.broadcast_to(np.arange(v_n, dtype=x.dtype)[None, :], (t_n, v_n)).copy())
    center_t = add(base_t, reshape(slice_last(offsets, 0, 1), (t_n, v_n)))
    center_v = add(base_v, reshape(slice_last(offsets, 1, 2), (t_n, v_n)))
    tap_t, tap_v = np.meshgrid(np.arange(-half, half + 1, dtype=x.dtype),
                               np.arange(-half, half + 1, dtype=x.dtype), indexing="ij")
    local = depthwise_conv3x3(x, p.local_conv)
    samples = bilinear_gather(x, add(center_t, tensor(tap_t.reshape(-1, 1, 1))),
                              add(center_v, tensor(tap_v.reshape(-1, 1, 1))))
    return add(local, NeighborMixParams.apply(samples, p.taps))


def stride_sample(x: Tensor, s: int) -> Tensor:
    """Subsample joints at stride s, filling skipped joints with the
    preceding valid joint: y(t, v) = x(t, floor(v/s)*s)."""
    if s < 1:
        raise DomainError(f"stride must be >= 1, got {s}")
    v_n = x.shape[1]
    idx = (np.arange(v_n) // s) * s
    out = x.data[:, idx]

    def backward(g):
        if x.requires_grad:
            # joint block [v0, v0 + s) reads joint v0: its gradient is the block sum
            dx = np.zeros_like(x.data)
            dx[:, ::s] = np.add.reduceat(g, np.arange(0, v_n, s), axis=1)
            x.accumulate_grad(dx)

    return make_op(out, (x,), backward)


def stride_scan(x: Tensor, cfg: StrideConfig) -> Tensor:
    """Split channels into stride groups, subsample each, and re-concatenate.

    The first group keeps its stride-1 channels verbatim; joint ordering and
    shape are preserved.
    """
    bounds = cfg.split_points(x.shape[-1])
    parts = []
    for i, s in enumerate(cfg.strides):
        group = slice_last(x, bounds[i], bounds[i + 1])
        parts.append(group if s == 1 else stride_sample(group, s))
    return concat_last(parts)


def _scan_rows(t_n: int, v_n: int, names) -> tuple[np.ndarray, np.ndarray]:
    """Where each named stream reads the frame-major rows of a (T, V) map.

    Returns ``order``, (L, S) with L = T*V: the row stream s reads at step l;
    and ``home``, (T, V, S): the flat position ``l * S + s`` of an (L, S)
    array at which stream s reads row (t, v). Temporal streams flatten
    frame-major (all joints of frame 0 first), spatial streams joint-major;
    backward streams read their order reversed.
    """
    frame_major = np.arange(t_n * v_n)
    joint_major = frame_major.reshape(t_n, v_n).T.ravel()
    columns = []
    for name in names:
        col = joint_major if name.startswith("spatial") else frame_major
        columns.append(col[::-1] if name.endswith("backward") else col)
    order = np.stack(columns, axis=1)
    home = np.empty_like(order)
    home[order, np.arange(len(names))] = np.arange(order.size).reshape(order.shape)
    return order, home.reshape(t_n, v_n, len(names))


def four_stream_scan(x: Tensor, streams: StreamSet,
                     gates: dict[str, LinearParams] | None = None) -> Tensor:
    """Sum of the enabled directional scans, in fixed stream order.

    One gather puts the (T, V, C) map into every stream's scan order at once,
    an (L, S, C) sequence; one :func:`selective_scan` runs all S streams; one
    gather brings each stream's output back to its (t, v) row and adds the
    streams in ``STREAM_ORDER``. A gated stream's output is multiplied by
    ``silu(gate(x))`` at the same row before the sum.
    """
    t_n, v_n, c = x.shape
    names, params = zip(*streams.ordered())
    s_n = len(names)
    order, home = _scan_rows(t_n, v_n, names)
    y = selective_scan(gather_sum(x, order[..., None], home.reshape(-1, s_n)), params)
    if gates:
        gate = concat_last([silu(linear(x, gates[name])) if name in gates
                            else tensor(np.ones_like(x.data)) for name in names])
        y = mul(y, gather_sum(reshape(gate, (-1, c)), (order * s_n + np.arange(s_n))[..., None],
                              home.reshape(-1, 1)))
    return gather_sum(y, home, order.reshape(-1, 1))


def stream_scan(x: Tensor, name: str, p: SelectiveSsmParams,
                gate: LinearParams | None = None) -> Tensor:
    """One directional scan: the one-stream case of :func:`four_stream_scan`."""
    return four_stream_scan(x, StreamSet({name: p}), None if gate is None else {name: gate})


def sas_ssm_layer(x: Tensor, p: SasLayerParams) -> Tensor:
    """Full structure-aware stride layer: sa_conv -> stride_scan -> streams."""
    return four_stream_scan(stride_scan(sa_conv(x, p.sa), p.stride_cfg),
                            p.streams, p.gates or None)


def _stride_sample_op(x):
    return stride_sample(x, 2)


def _neighbor_mix_op(s, *tap_tensors):
    taps = [NeighborMixParams(*tap_tensors[i:i + 3]) for i in range(0, len(tap_tensors), 3)]
    return NeighborMixParams.apply(s, taps)


register_op("stride_sample", _stride_sample_op)
register_op("neighbor_mix", _neighbor_mix_op)
