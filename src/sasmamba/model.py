"""Full pose-lifting network.

A linear embedding lifts (T, V, 2) keypoints to D channels; spatial and
temporal positional fields are added before and after the first block; each
block applies the structure-aware stride layer and an MLP with pre-norm
residuals; a linear head regresses (T, V, 3).

The parameter manifest produced by :func:`param_entries` is the single source
of truth for initialization, analytic counting, and checkpoint layout, so the
three can never drift apart.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .sas import (STREAM_ORDER, NeighborMixParams, SaConvParams,
                  SasLayerParams, StreamSet, StrideConfig, sas_ssm_layer,
                  tap_rank)
from .ssm import SelectiveSsmParams, softplus_inverse
from .tensor import (Conv3x3Params, DepthwiseConv3x3Params, LinearParams,
                     NormParams, Tensor, add, gelu, layer_norm, linear, slice0)


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
        if self.D < 4 or self.D % 4 != 0:
            violations.append(f"D must be a positive multiple of 4, got {self.D}")
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
        if not self.strides:
            violations.append("at least one stride must be given")
        if any(s < 1 for s in self.strides):
            violations.append(f"strides must be >= 1, got {self.strides}")
        if not self.streams:
            violations.append("at least one stream must be enabled")
        unknown = set(self.streams) - set(STREAM_ORDER)
        if unknown:
            violations.append(f"unknown streams: {sorted(unknown)}")
        if violations:
            raise ConfigError("; ".join(violations))

    @property
    def dt_rank(self) -> int:
        return max(1, self.D // 16)

    def stride_config(self) -> StrideConfig:
        if len(self.strides) == 3:
            cfg = StrideConfig(strides=self.strides)
        else:
            n = len(self.strides)
            cfg = StrideConfig(strides=self.strides, fractions=(1.0 / n,) * n)
        cfg.split_points(self.D)  # validate divisibility eagerly
        return cfg

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

    def mark_trainable(self, flag: bool = True) -> None:
        for t in self.params.values():
            t.requires_grad = flag


def param_entries(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """Canonical (name, shape, init_kind) manifest of every trainable tensor.

    Entries are generated in order as they are consumed, so a reader checking
    a stored manifest against them can stop at the first disagreement.
    """
    d, big_t, v, k, n = cfg.D, cfg.T, cfg.V, cfg.K, cfg.N
    r = cfg.dt_rank
    rho = tap_rank(k)
    hidden = cfg.mlp_ratio * d
    yield from [
        ("embed.weight", (d, 2), "linear"),
        ("embed.bias", (d,), "zeros"),
        ("pos_spatial", (1, v, d), "pos"),
        ("pos_temporal", (big_t, 1, d), "pos"),
    ]
    for i in range(cfg.L):
        p = f"blocks.{i}"
        yield from [
            (f"{p}.norm1.gamma", (d,), "ones"),
            (f"{p}.norm1.beta", (d,), "zeros"),
            (f"{p}.sas.offset.weight", (2, d, 3, 3), "conv"),
            (f"{p}.sas.offset.bias", (2,), "zeros"),
            (f"{p}.sas.local.weight", (d, 3, 3), "dwconv"),
            (f"{p}.sas.local.bias", (d,), "zeros"),
        ]
        for tap in range(k * k):
            q = f"{p}.sas.tap{tap}"
            yield from [
                (f"{q}.diag", (d,), "tap_diag"),
                (f"{q}.down", (rho, d), "linear"),
                (f"{q}.up", (d, rho), "tap_up"),
            ]
        for name in STREAM_ORDER:
            if name not in cfg.streams:
                continue
            q = f"{p}.sas.{name}"
            yield from [
                (f"{q}.a_log", (d, n), "a_log"),
                (f"{q}.b_weight", (n, d), "linear"),
                (f"{q}.b_bias", (n,), "zeros"),
                (f"{q}.c_weight", (n, d), "linear"),
                (f"{q}.c_bias", (n,), "zeros"),
                (f"{q}.dt_down", (r, d), "linear"),
                (f"{q}.dt_up", (d, r), "linear"),
                (f"{q}.dt_bias", (d,), "dt_bias"),
                (f"{q}.skip", (d,), "ones"),
            ]
            if cfg.gated_streams:
                yield from [
                    (f"{q}.gate.weight", (d, d), "linear"),
                    (f"{q}.gate.bias", (d,), "zeros"),
                ]
        yield from [
            (f"{p}.norm2.gamma", (d,), "ones"),
            (f"{p}.norm2.beta", (d,), "zeros"),
            (f"{p}.mlp1.weight", (hidden, d), "linear"),
            (f"{p}.mlp1.bias", (hidden,), "zeros"),
            (f"{p}.mlp2.weight", (d, hidden), "linear"),
            (f"{p}.mlp2.bias", (d,), "zeros"),
        ]
    yield from [
        ("head.weight", (3, d), "linear"),
        ("head.bias", (3,), "zeros"),
    ]


def _init_tensor(kind: str, shape: tuple[int, ...], rng: np.random.Generator,
                 cfg: ModelConfig) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(shape, dtype=np.float32)
    if kind == "ones":
        return np.ones(shape, dtype=np.float32)
    if kind == "pos":
        return rng.normal(0.0, 0.02, size=shape).astype(np.float32)
    if kind == "linear":
        bound = 1.0 / np.sqrt(shape[-1])
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)
    if kind == "conv":
        bound = 1.0 / np.sqrt(shape[1] * 9)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)
    if kind == "dwconv":
        bound = 1.0 / 3.0
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


def _structure(cfg: ModelConfig, params: dict[str, Tensor]) -> dict:
    def lin(prefix):
        return LinearParams(params[f"{prefix}.weight"], params[f"{prefix}.bias"])

    blocks = []
    for i in range(cfg.L):
        p = f"blocks.{i}"
        taps = [NeighborMixParams(params[f"{p}.sas.tap{t}.diag"],
                                  params[f"{p}.sas.tap{t}.down"],
                                  params[f"{p}.sas.tap{t}.up"])
                for t in range(cfg.K * cfg.K)]
        sa = SaConvParams(
            kernel_size=cfg.K,
            offset_net=Conv3x3Params(params[f"{p}.sas.offset.weight"],
                                     params[f"{p}.sas.offset.bias"]),
            taps=taps,
            local_conv=DepthwiseConv3x3Params(params[f"{p}.sas.local.weight"],
                                              params[f"{p}.sas.local.bias"]))
        stream_params, gates = {}, {}
        for name in STREAM_ORDER:
            if name not in cfg.streams:
                continue
            q = f"{p}.sas.{name}"
            stream_params[name] = SelectiveSsmParams(
                a_log=params[f"{q}.a_log"],
                b_weight=params[f"{q}.b_weight"], b_bias=params[f"{q}.b_bias"],
                c_weight=params[f"{q}.c_weight"], c_bias=params[f"{q}.c_bias"],
                dt_down=params[f"{q}.dt_down"], dt_up=params[f"{q}.dt_up"],
                dt_bias=params[f"{q}.dt_bias"], skip=params[f"{q}.skip"])
            if cfg.gated_streams:
                gates[name] = lin(f"{q}.gate")
        sas = SasLayerParams(sa=sa, stride_cfg=cfg.stride_config(),
                             streams=StreamSet(stream_params), gates=gates)
        blocks.append(BlockParams(
            norm1=NormParams(params[f"{p}.norm1.gamma"], params[f"{p}.norm1.beta"]),
            sas=sas,
            norm2=NormParams(params[f"{p}.norm2.gamma"], params[f"{p}.norm2.beta"]),
            mlp1=lin(f"{p}.mlp1"),
            mlp2=lin(f"{p}.mlp2")))
    return dict(embed=lin("embed"),
                pos_spatial=params["pos_spatial"],
                pos_temporal=params["pos_temporal"],
                blocks=blocks,
                head=lin("head"))


def build_model(cfg: ModelConfig, params: dict[str, Tensor]) -> Model:
    """Wire structured parameter views over a canonical name -> tensor map."""
    expected = list(param_entries(cfg))
    if list(params) != [name for name, _, _ in expected]:
        raise ConfigError("parameter map does not match the config manifest")
    for name, shape, _ in expected:
        if params[name].shape != shape:
            raise DimensionError(
                f"parameter '{name}' has shape {params[name].shape}, expected {shape}")
    return Model(config=cfg, params=params, **_structure(cfg, params))


def init_model(cfg: ModelConfig, seed: int) -> Model:
    """Deterministically initialize all parameters from one seed.

    Tensors are drawn in manifest order from a single PCG64 generator, so the
    same (config, seed) pair is bit-identical across runs.
    """
    rng = np.random.default_rng(seed)
    params = {name: Tensor(_init_tensor(kind, shape, rng, cfg))
              for name, shape, kind in param_entries(cfg)}
    return build_model(cfg, params)


def astype_model(model: Model, dtype) -> Model:
    params = {name: Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
              for name, t in model.params.items()}
    return build_model(model.config, params)


def block_forward(x: Tensor, bp: BlockParams) -> Tensor:
    h = add(x, sas_ssm_layer(layer_norm(x, bp.norm1), bp.sas))
    m = linear(gelu(linear(layer_norm(h, bp.norm2), bp.mlp1)), bp.mlp2)
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
    breakdown = [(name, int(np.prod(shape))) for name, shape, _ in param_entries(cfg)]
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
    bilinear sampling (four weighted corners per tap), per-tap channel mixing,
    and the scan recurrences (discretization, state update, and readout).
    Pure normalizations and activations contribute no MACs.
    """
    if frames < 1:
        raise ConfigError(f"frames must be >= 1, got {frames}")
    d, v, k, n, r = cfg.D, cfg.V, cfg.K, cfg.N, cfg.dt_rank
    rho = tap_rank(k)
    hidden = cfg.mlp_ratio * d
    positions = frames * v
    per_stream = 2 * n * d + 2 * r * d + 6 * d * n + d
    if cfg.gated_streams:
        per_stream += d * d
    block = {
        "offset_conv": 9 * d * 2,
        "local_conv": 9 * d,
        "bilinear_sampling": k * k * 4 * d,
        "tap_mixing": k * k * (d + 2 * rho * d),
        "scan_streams": len(cfg.streams) * per_stream,
        "mlp": 2 * d * hidden,
    }
    breakdown = {key: positions * cfg.L * val for key, val in block.items()}
    breakdown["embed"] = positions * 2 * d
    breakdown["head"] = positions * 3 * d
    return sum(breakdown.values()), breakdown
