"""Full pose-lifting network.

A linear embedding lifts (T, V, 2) keypoints to D channels; spatial and
temporal positional fields are added before and after the first block; each
block applies the structure-aware stride layer and an MLP with pre-norm
residuals; a linear head regresses (T, V, 3).

The parameter manifest produced by :func:`param_entries` is the single source
of truth for initialization, analytic counting, checkpoint layout and the
stacked parameters that hold its tensors, so the four can never drift apart.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, NumericError
from .sas import (STREAM_ORDER, NeighborMixParams, SaConvParams,
                  SasLayerParams, sas_ssm_layer, stride_groups, tap_rank)
from .ssm import SelectiveSsmParams, softplus_inverse
from .tensor import (Conv3x3Params, LinearParams, NormParams, Tensor, add,
                     gelu, layer_norm, layer_norm_linear, linear, slice0)


@dataclass
class ModelConfig:
    """Architecture hyperparameters; serializes to a flat JSON object."""

    L: int = 10
    D: int = 64
    T: int = 243
    V: int = 17
    K: int = 3
    N: int = 4
    strides: tuple[int, ...] = (1, 2, 3)
    streams: tuple[str, ...] = STREAM_ORDER
    mlp_ratio: int = 4
    gated_streams: bool = False

    def __post_init__(self):
        self.strides = tuple(int(s) for s in self.strides)
        self.streams = tuple(str(s) for s in self.streams)
        violations = []
        if self.L < 1:
            violations.append(f"L must be >= 1, got {self.L}")
        if self.D < 1:
            violations.append(f"D must be >= 1, got {self.D}")
        if self.T < 1:
            violations.append(f"T must be >= 1, got {self.T}")
        if self.V < 1:
            violations.append(f"V must be >= 1, got {self.V}")
        if self.K < 1 or self.K % 2 == 0:
            violations.append(f"K must be odd and >= 1, got {self.K}")
        if self.N < 1:
            violations.append(f"N must be >= 1, got {self.N}")
        if self.mlp_ratio < 1:
            violations.append(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if not self.streams:
            violations.append("at least one stream must be enabled")
        unknown = set(self.streams) - set(STREAM_ORDER)
        if unknown:
            violations.append(f"unknown streams: {sorted(unknown)}")
        repeated = {s for s in self.streams if self.streams.count(s) > 1}
        if repeated:
            violations.append(f"duplicate streams: {sorted(repeated)}")
        if violations:
            raise ConfigError("; ".join(violations))
        stride_groups(self.strides, self.D)

    @property
    def dt_rank(self) -> int:
        return max(1, self.D // 16)

    @property
    def ordered_streams(self) -> tuple[str, ...]:
        """The enabled streams in ``STREAM_ORDER``, the order they stack in."""
        return tuple(name for name in STREAM_ORDER if name in self.streams)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["strides"] = list(self.strides)
        d["streams"] = list(self.streams)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from a JSON object; each value must have its default's JSON type."""
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        mistyped = sorted(k for k, v in d.items()
                          if not _same_json_type(v, getattr(cls, k)))
        if mistyped:
            raise ConfigError(f"config fields of the wrong type: {mistyped}")
        return cls(**d)


def _same_json_type(value, default) -> bool:
    if isinstance(default, tuple):
        return isinstance(value, list) and all(type(v) is type(default[0]) for v in value)
    return type(value) is type(default)


@dataclass
class BlockParams:
    norm1: NormParams
    sas: SasLayerParams
    norm2: NormParams
    mlp1: LinearParams
    mlp2: LinearParams


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, Tensor]
    embed: LinearParams = field(repr=False, default=None)
    pos_spatial: Tensor = field(repr=False, default=None)
    pos_temporal: Tensor = field(repr=False, default=None)
    blocks: list[BlockParams] = field(repr=False, default=None)
    head: LinearParams = field(repr=False, default=None)

    def named_params(self):
        return self.params.items()

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def mark_trainable(self) -> None:
        for t in self.params.values():
            t.requires_grad = True


def param_entries(cfg: ModelConfig) -> Iterator[
        tuple[str, tuple[int, ...], str, str, int | None]]:
    """Canonical manifest of every trainable tensor of checkpoint format v1.

    Each entry is ``(name, shape, init_kind, key, index)``: the v1 tensor,
    and the model parameter that holds it, all of ``params[key]`` when
    ``index`` is None and its row ``index`` otherwise. A block's tap maps,
    scan streams and stream gates are stored stacked:
    ``blocks.{i}.sas.tap{k}.{field}`` is row k of
    ``blocks.{i}.sas.taps.{field}``; for the s-th enabled stream in
    ``STREAM_ORDER``, ``blocks.{i}.sas.{stream}.{field}`` is row s of
    ``blocks.{i}.sas.scan.{field}`` and ``blocks.{i}.sas.{stream}.gate.{field}``
    row s of ``blocks.{i}.sas.gate.{field}``. Every other key is its tensor's
    name.

    Entries are generated in order as they are consumed, so a reader checking
    a stored manifest against them can stop at the first disagreement.
    """
    d, big_t, v, k, n = cfg.D, cfg.T, cfg.V, cfg.K, cfg.N
    r = cfg.dt_rank
    rho = tap_rank(k)
    hidden = cfg.mlp_ratio * d
    tap_fields = (("diag", (d,), "tap_diag"), ("down", (rho, d), "fan_in"),
                  ("up", (d, rho), "tap_up"))
    scan_fields = (("a_log", (d, n), "a_log"), ("b_weight", (n, d), "fan_in"),
                   ("b_bias", (n,), "zeros"), ("c_weight", (n, d), "fan_in"),
                   ("c_bias", (n,), "zeros"), ("dt_down", (r, d), "fan_in"),
                   ("dt_up", (d, r), "fan_in"), ("dt_bias", (d,), "dt_bias"),
                   ("skip", (d,), "ones"))

    def whole(*entries):
        return [(name, shape, kind, name, None) for name, shape, kind in entries]

    yield from whole(
        ("embed.weight", (d, 2), "fan_in"),
        ("embed.bias", (d,), "zeros"),
        ("pos_spatial", (1, v, d), "pos"),
        ("pos_temporal", (big_t, 1, d), "pos"),
    )
    for i in range(cfg.L):
        p = f"blocks.{i}"
        yield from whole(
            (f"{p}.norm1.gamma", (d,), "ones"),
            (f"{p}.norm1.beta", (d,), "zeros"),
            (f"{p}.sas.offset.weight", (2, d, 3, 3), "fan_in"),
            (f"{p}.sas.offset.bias", (2,), "zeros"),
            (f"{p}.sas.local.weight", (d, 3, 3), "fan_in"),
            (f"{p}.sas.local.bias", (d,), "zeros"),
        )
        for tap in range(k * k):
            for field_name, shape, kind in tap_fields:
                yield (f"{p}.sas.tap{tap}.{field_name}", shape, kind,
                       f"{p}.sas.taps.{field_name}", tap)
        for row, name in enumerate(cfg.ordered_streams):
            q = f"{p}.sas.{name}"
            for field_name, shape, kind in scan_fields:
                yield f"{q}.{field_name}", shape, kind, f"{p}.sas.scan.{field_name}", row
            if cfg.gated_streams:
                yield f"{q}.gate.weight", (d, d), "fan_in", f"{p}.sas.gate.weight", row
                yield f"{q}.gate.bias", (d,), "zeros", f"{p}.sas.gate.bias", row
        yield from whole(
            (f"{p}.norm2.gamma", (d,), "ones"),
            (f"{p}.norm2.beta", (d,), "zeros"),
            (f"{p}.mlp1.weight", (hidden, d), "fan_in"),
            (f"{p}.mlp1.bias", (hidden,), "zeros"),
            (f"{p}.mlp2.weight", (d, hidden), "fan_in"),
            (f"{p}.mlp2.bias", (d,), "zeros"),
        )
    yield from whole(
        ("head.weight", (3, d), "fan_in"),
        ("head.bias", (3,), "zeros"),
    )


def non_finite_entry(cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> str:
    """The manifest name of the first tensor, in manifest order, whose part
    of ``arrays``, a map from each parameter key to an array of that
    parameter's shape, is not all finite."""
    return next(name for name, _, _, key, index in param_entries(cfg)
                if not np.isfinite(arrays[key] if index is None else arrays[key][index]).all())


def stack_params(slices) -> dict[str, Tensor]:
    """Model parameters from ``(key, index, array)`` triples in manifest order.

    An array without an index is ``params[key]``; the arrays with one are the
    rows of ``params[key]``, in the order given. Every parameter is a new
    float32 array.
    """
    parts: dict[str, object] = {}
    for key, index, arr in slices:
        if index is None:
            parts[key] = arr
        else:
            parts.setdefault(key, []).append(arr)
    return {key: Tensor(np.array(part, dtype=np.float32)) for key, part in parts.items()}


def _init_tensor(kind: str, shape: tuple[int, ...], rng: np.random.Generator,
                 cfg: ModelConfig) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(shape, dtype=np.float32)
    if kind == "ones":
        return np.ones(shape, dtype=np.float32)
    if kind == "pos":
        return rng.normal(0.0, 0.02, size=shape).astype(np.float32)
    if kind == "fan_in":
        # fan_in is every axis after the output's: (out, in), (out, in, 3, 3), (C, 3, 3)
        bound = 1.0 / np.sqrt(math.prod(shape[1:]))
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)
    if kind == "tap_diag":
        bound = 1.0 / (cfg.K * cfg.K)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)
    if kind == "tap_up":
        bound = 1.0 / (cfg.K * cfg.K * np.sqrt(shape[-1]))
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)
    if kind == "a_log":
        # state matrix spans -1 .. -N per channel
        row = np.log(np.arange(1, shape[1] + 1, dtype=np.float64))
        return np.broadcast_to(row, shape).astype(np.float32)
    if kind == "dt_bias":
        # softplus output lands in [1e-3, 1e-1]
        dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=shape))
        return softplus_inverse(dt).astype(np.float32)
    raise ConfigError(f"unknown init kind '{kind}'")


def build_model(cfg: ModelConfig, params: dict[str, Tensor]) -> Model:
    """Wire structured parameter views over the parameters that
    :func:`stack_params` builds from the config's manifest."""
    def record(cls, prefix):
        return cls(*(params[f"{prefix}.{f.name}"] for f in fields(cls)))

    blocks = []
    for i in range(cfg.L):
        p = f"blocks.{i}"
        sa = SaConvParams(offset_net=record(Conv3x3Params, f"{p}.sas.offset"),
                          mix=record(NeighborMixParams, f"{p}.sas.taps"),
                          local_conv=record(Conv3x3Params, f"{p}.sas.local"))
        gate = record(LinearParams, f"{p}.sas.gate") if cfg.gated_streams else None
        sas = SasLayerParams(sa=sa, strides=cfg.strides, streams=cfg.ordered_streams,
                             scan=record(SelectiveSsmParams, f"{p}.sas.scan"), gate=gate)
        blocks.append(BlockParams(norm1=record(NormParams, f"{p}.norm1"), sas=sas,
                                  norm2=record(NormParams, f"{p}.norm2"),
                                  mlp1=record(LinearParams, f"{p}.mlp1"),
                                  mlp2=record(LinearParams, f"{p}.mlp2")))
    return Model(config=cfg, params=params, embed=record(LinearParams, "embed"),
                 pos_spatial=params["pos_spatial"], pos_temporal=params["pos_temporal"],
                 blocks=blocks, head=record(LinearParams, "head"))


def init_model(cfg: ModelConfig, seed: int) -> Model:
    """Deterministically initialize all parameters from one seed.

    Tensors are drawn in manifest order from a single PCG64 generator, so the
    same (config, seed) pair is bit-identical across runs.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return build_model(cfg, stack_params(
        (key, index, _init_tensor(kind, shape, rng, cfg))
        for _, shape, kind, key, index in param_entries(cfg)))


def astype_model(model: Model, dtype) -> Model:
    params = {name: Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
              for name, t in model.params.items()}
    return build_model(model.config, params)


def block_forward(x: Tensor, bp: BlockParams) -> Tensor:
    # norm1's output is kept, as three SA-Conv ops read it; norm2's feeds
    # mlp1 alone, so one op rebuilds it in its adjoint
    h = add(x, sas_ssm_layer(layer_norm(x, bp.norm1), bp.sas))
    m = linear(gelu(layer_norm_linear(h, bp.norm2, bp.mlp1)), bp.mlp2)
    return add(h, m)


def forward(model: Model, x) -> Tensor:
    """Lift a (T, V, 2) keypoint sequence to (T, V, 3) positions.

    Inputs shorter than the configured T are supported by cropping the
    temporal positional field; longer inputs must be windowed by the caller.
    """
    cfg = model.config
    xt = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    if xt.data.ndim != 3 or xt.shape[2] != 2:
        raise DimensionError(f"expected input of shape (T, V, 2), got {xt.shape}")
    t_in = xt.shape[0]
    if xt.shape[1] != cfg.V:
        raise DimensionError(f"input joints {xt.shape[1]} != configured V {cfg.V}")
    if t_in > cfg.T:
        raise DimensionError(f"input frames {t_in} exceed configured T {cfg.T}")
    if not np.all(np.isfinite(xt.data)):
        raise NumericError("non-finite values in model input")

    h = add(linear(xt, model.embed), model.pos_spatial)
    h = block_forward(h, model.blocks[0])
    pos_t = model.pos_temporal if t_in == cfg.T else slice0(model.pos_temporal, 0, t_in)
    h = add(h, pos_t)
    for bp in model.blocks[1:]:
        h = block_forward(h, bp)
    return linear(h, model.head)


def count_params(cfg: ModelConfig):
    """Exact analytic count of trainable scalars, itemized per tensor.

    Returns (total, breakdown) where breakdown lists (name, count) in
    manifest order; the checkpoint writer serializes exactly these tensors.
    """
    breakdown = [(name, int(np.prod(shape))) for name, shape, *_ in param_entries(cfg)]
    return sum(c for _, c in breakdown), breakdown


def group_counts(breakdown) -> dict[str, int]:
    """Aggregate a per-tensor breakdown into reader-friendly module groups."""
    groups: dict[str, int] = {}
    for name, count in breakdown:
        parts = name.split(".")
        if parts[0] == "blocks":
            if parts[2] == "sas":
                sub = parts[3]
                if sub.startswith("tap"):
                    key = "blocks.sas.taps"
                elif sub in STREAM_ORDER:
                    key = "blocks.sas.streams"
                else:
                    key = f"blocks.sas.{sub}"
            else:
                key = f"blocks.{parts[2].rstrip('0123456789')}"
        else:
            key = parts[0]
        groups[key] = groups.get(key, 0) + count
    return groups


def count_macs(cfg: ModelConfig, frames: int):
    """Analytic multiply-accumulate count of one forward pass.

    Counts the dot-product style work: linear projections, grid convolutions,
    bilinear sampling (four weighted corners per position), the tap mixing's
    K x K convolution over the grid extended by K//2 on each side (the
    diagonal and ``up`` maps per extended point, ``down`` per position, as
    ``sas._tap_conv`` applies them), and the scan recurrences
    (discretization, state update, and readout). Pure normalizations and
    activations contribute no MACs.
    """
    if frames < 1:
        raise ConfigError(f"frames must be >= 1, got {frames}")
    d, v, k, n, r = cfg.D, cfg.V, cfg.K, cfg.N, cfg.dt_rank
    rho = tap_rank(k)
    hidden = cfg.mlp_ratio * d
    positions = frames * v
    extended = (frames + k - 1) * (v + k - 1)
    per_stream = 2 * n * d + 2 * r * d + 6 * d * n + d
    if cfg.gated_streams:
        per_stream += d * d
    block = {
        "offset_conv": positions * 9 * d * 2,
        "local_conv": positions * 9 * d,
        "bilinear_sampling": positions * 4 * d,
        "tap_mixing": k * k * (extended * (d + rho * d) + positions * rho * d),
        "scan_streams": positions * len(cfg.streams) * per_stream,
        "mlp": positions * 2 * d * hidden,
    }
    breakdown = {key: cfg.L * val for key, val in block.items()}
    breakdown["embed"] = positions * 2 * d
    breakdown["head"] = positions * 3 * d
    return sum(breakdown.values()), breakdown
