"""Finite-difference validation suite over every op in :data:`OPS`.

Exercised by the command-line ``gradcheck`` subcommand and the acceptance
tests: each op gets randomized 64-bit inputs and its analytic adjoint is
compared against central differences; composite checks cover the loss
functions and an end-to-end tiny network.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import ModelConfig, astype_model, forward, init_model
from .sas import NeighborMixParams, stride_scan
from .ssm import SCAN_CHUNK, SelectiveSsmParams, selective_scan
from .tensor import (Conv3x3Params, LinearParams, NormParams, add, depthwise_conv3x3,
                     finite_diff_check_leaves, gelu, grid_conv3x3, layer_norm,
                     layer_norm_mlp, linear, mul, scale, silu, slice0, sqrt, sub,
                     sum_all, sum_axis, tensor)
from .training import mpjve, tc_loss, total_loss, wmpjpe

OP_TOLERANCE = 1e-4
LOSS_TOLERANCE = 1e-5


def _t(rng, shape, scl=1.0):
    return tensor(rng.normal(size=shape) * scl, dtype=np.float64)


def _one(rng):
    return [_t(rng, (3, 4))]


def _two(rng):
    return [_t(rng, (3, 4)), _t(rng, (3, 4))]


# two streams over two chunks of rows: the first reads them in order, the
# second reversed, so the x gradient goes back through a non-identity order
# and the state crosses a chunk boundary
_SCAN_ORDER = np.stack([np.arange(SCAN_CHUNK + 3), np.arange(SCAN_CHUNK + 3)[::-1]], axis=1)


def _scan_inputs(rng):
    s, d, n, r, length = 2, 3, 2, 2, SCAN_CHUNK + 3
    return [
        _t(rng, (length, d)), _t(rng, (s, d, n), 0.3),
        _t(rng, (s, n, d), 0.5), _t(rng, (s, n), 0.5),
        _t(rng, (s, n, d), 0.5), _t(rng, (s, n), 0.5),
        _t(rng, (s, r, d), 0.5), _t(rng, (s, d, r), 0.5),
        tensor(rng.normal(size=(s, d)) - 1.5, dtype=np.float64), _t(rng, (s, d)),
    ]


def _sampling_inputs(rng):
    """x on a (4, 5) grid, its (4, 5, 2) offsets and rank-2 maps of nine
    taps. The edge rows and columns move every tap past their edge; six inner
    cells move by whole numbers past one edge or two, so the clamp puts exact
    integers on edge lines and corners. Every other offset component, and so
    every tap position inside the grid, has a fractional part in [0.1, 0.9]:
    at an integer there, central differences would meet a kink."""
    t_n, v_n, c, k_n = 4, 5, 3, 9
    off = rng.integers(-1, 1, size=(t_n, v_n, 2)) + rng.uniform(0.1, 0.9, size=(t_n, v_n, 2))
    off[0, :, 0] -= t_n + 1
    off[-1, :, 0] += t_n + 1
    off[:, 0, 1] -= v_n + 1
    off[:, -1, 1] += v_n + 1
    off[1, 1:4] = [(-3.0, 0.5), (t_n + 1.0, 0.5), (t_n + 1.0, -5.0)]
    off[2, 1:4] = [(0.5, -3.0), (0.5, v_n + 1.0), (-4.0, v_n)]
    return [_t(rng, (t_n, v_n, c)), tensor(off, dtype=np.float64), _t(rng, (k_n, c)),
            _t(rng, (k_n, 2, c), 0.5), _t(rng, (k_n, c, 2), 0.5)]


# One entry per function of tensor, sas and ssm that calls make_op (a test
# holds the table to that list): name -> (fn, inputs), where ``inputs(rng)``
# draws the randomized 64-bit tensors that ``fn`` takes.
OPS = {
    "add": (add, _two),
    "depthwise_conv3x3": (
        lambda x, w, b: depthwise_conv3x3(x, Conv3x3Params(w, b)),
        lambda rng: [_t(rng, (4, 5, 3)), _t(rng, (3, 3, 3), 0.4), _t(rng, (3,))]),
    "gelu": (gelu, _one),
    "grid_conv3x3": (
        lambda x, w, b: grid_conv3x3(x, Conv3x3Params(w, b)),
        lambda rng: [_t(rng, (4, 5, 3)), _t(rng, (2, 3, 3, 3), 0.4), _t(rng, (2,))]),
    "layer_norm": (lambda x, g, b: layer_norm(x, NormParams(g, b)),
                   lambda rng: [_t(rng, (3, 5)), _t(rng, (5,)), _t(rng, (5,))]),
    # the norm2 -> mlp2 op of every block
    "layer_norm_mlp": (
        lambda x, g, bt, w1, b1, w2, b2: layer_norm_mlp(
            x, NormParams(g, bt), LinearParams(w1, b1), LinearParams(w2, b2)),
        lambda rng: [_t(rng, (3, 5)), _t(rng, (5,)), _t(rng, (5,)), _t(rng, (6, 5)),
                     _t(rng, (6,)), _t(rng, (4, 6)), _t(rng, (4,))]),
    "linear": (lambda x, w, b: linear(x, LinearParams(w, b)),
               lambda rng: [_t(rng, (3, 4)), _t(rng, (2, 4)), _t(rng, (2,))]),
    "mul": (mul, _two),
    # sampling and mixing, one op over nine taps of x's (4, 5) grid
    "neighbor_mix": (
        lambda x, off, *mix: NeighborMixParams.apply(x, off, NeighborMixParams(*mix)),
        _sampling_inputs),
    "scale": (lambda x: scale(x, -0.7), _one),
    "selective_scan": (
        lambda x, *fields: selective_scan(x, SelectiveSsmParams(*fields), _SCAN_ORDER),
        _scan_inputs),
    "silu": (silu, _one),
    "slice0": (lambda x: slice0(x, 1, x.shape[0]), _one),
    "sqrt": (sqrt, lambda rng: [tensor(rng.uniform(0.3, 2.5, size=(3, 4)), dtype=np.float64)]),
    # the three stride groups the model runs, on channel blocks of 2, 1 and 1
    "stride_scan": (lambda x: stride_scan(x, (1, 2, 3)), lambda rng: [_t(rng, (3, 6, 4))]),
    "sub": (sub, _two),
    "sum_all": (sum_all, _one),
    # over a middle axis, as the scan's streams are summed
    "sum_axis": (lambda x: sum_axis(x, -2), lambda rng: [_t(rng, (3, 2, 4))]),
}


def check_registered_ops(seed: int) -> dict[str, float]:
    """Max finite-difference error of every op in :data:`OPS` at one seed."""
    rng = np.random.default_rng(seed)
    errors = {}
    for name, (fn, inputs) in sorted(OPS.items()):
        xs = inputs(rng)
        for x in xs:
            x.requires_grad = True
        errors[name] = finite_diff_check_leaves(lambda: fn(*xs), xs, eps=1e-5)
    return errors


def check_losses(seed: int) -> dict[str, float]:
    """Gradients of each loss with respect to the predicted poses."""
    rng = np.random.default_rng(seed)
    pred = tensor(rng.normal(size=(4, 3, 3)), requires_grad=True, dtype=np.float64)
    gt = tensor(rng.normal(size=(4, 3, 3)), dtype=np.float64)
    w = rng.uniform(0.5, 2.0, size=3)
    cases = {
        "loss/wmpjpe": lambda: wmpjpe(pred, gt, w),
        "loss/tc_loss": lambda: tc_loss(pred),
        "loss/mpjve": lambda: mpjve(pred, gt),
        "loss/total_loss": lambda: total_loss(pred, gt),
    }
    return {name: finite_diff_check_leaves(fn, [pred], eps=1e-5, rng=rng)
            for name, fn in cases.items()}


def check_tiny_model(seed: int) -> float:
    """End-to-end gradient of a tiny network against central differences,
    probing one random element of each leaf."""
    cfg = ModelConfig(L=1, D=8, T=3, V=4, K=3, N=2)
    model = astype_model(init_model(cfg, seed=seed), np.float64)
    model.mark_trainable()
    rng = np.random.default_rng(seed + 1)
    x = tensor(rng.normal(size=(cfg.T, cfg.V, 2)), requires_grad=True, dtype=np.float64)
    leaves = [x] + [t for _, t in model.named_params()]
    return finite_diff_check_leaves(lambda: forward(model, x), leaves,
                                    sample=1, rng=rng)


def run_gradcheck(seed: int, rounds: int = 5) -> tuple[bool, list[str]]:
    """Run the whole suite over several derived seeds; report worst errors."""
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    worst: dict[str, float] = {}
    for i in range(rounds):
        s = seed + i
        for name, err in check_registered_ops(s).items():
            worst[name] = max(worst.get(name, 0.0), err)
        for name, err in check_losses(s).items():
            worst[name] = max(worst.get(name, 0.0), err)
        worst["model/end_to_end"] = max(worst.get("model/end_to_end", 0.0),
                                        check_tiny_model(s))
    ok = True
    lines = []
    for name in sorted(worst):
        tol = LOSS_TOLERANCE if name.startswith("loss/") else OP_TOLERANCE
        passed = worst[name] < tol
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name:<24} "
                     f"max_rel_err={worst[name]:.3e}  tol={tol:.0e}")
    return ok, lines
