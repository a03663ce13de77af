"""Finite-difference validation suite over every registered operation.

Exercised by the command-line ``gradcheck`` subcommand and the acceptance
tests: each registered op gets randomized 64-bit inputs and its analytic
adjoint is compared against central differences; composite checks cover the
loss functions and an end-to-end tiny network.
"""

from __future__ import annotations

import numpy as np

from .model import ModelConfig, astype_model, forward, init_model
from .tensor import (Tensor, finite_diff_check, finite_diff_check_leaves,
                     registered_ops, tensor)
from .training import mpjve, tc_loss, total_loss, wmpjpe

OP_TOLERANCE = 1e-4
LOSS_TOLERANCE = 1e-5


def _t(rng, shape, scl=1.0):
    return tensor(rng.normal(size=shape) * scl, dtype=np.float64)


def _op_inputs(name: str, rng: np.random.Generator) -> list[Tensor]:
    two = ("add", "sub", "mul", "concat_last")
    one = ("gelu", "silu", "sum_all", "sum_last", "reshape_flat", "slice0",
           "slice_last", "gather_sum")
    if name in two:
        return [_t(rng, (3, 4)), _t(rng, (3, 4))]
    if name in one:
        return [_t(rng, (3, 4))]
    if name == "sqrt":
        return [tensor(rng.uniform(0.3, 2.5, size=(3, 4)), dtype=np.float64)]
    if name == "linear":
        return [_t(rng, (3, 4)), _t(rng, (2, 4)), _t(rng, (2,))]
    if name == "layer_norm":
        return [_t(rng, (3, 5)), _t(rng, (5,)), _t(rng, (5,))]
    if name == "grid_conv3x3":
        return [_t(rng, (4, 5, 3)), _t(rng, (2, 3, 3, 3), 0.4), _t(rng, (2,))]
    if name == "depthwise_conv3x3":
        return [_t(rng, (4, 5, 3)), _t(rng, (3, 3, 3), 0.4), _t(rng, (3,))]
    if name == "bilinear_gather":
        return [_t(rng, (5, 6, 3)),
                tensor(rng.uniform(0.55, 3.45, size=8), dtype=np.float64),
                tensor(rng.uniform(0.55, 4.45, size=8), dtype=np.float64)]
    if name == "stride_sample":
        return [_t(rng, (3, 6, 2))]
    if name == "neighbor_mix":
        k, c, rho = 2, 3, 2
        taps = [[_t(rng, (c,)), _t(rng, (rho, c), 0.5), _t(rng, (c, rho), 0.5)]
                for _ in range(k)]
        return [_t(rng, (k, 4, 2, c))] + [t for tap in taps for t in tap]
    if name == "selective_scan":
        d, n, r, length = 3, 2, 2, 5
        return [
            _t(rng, (length, d)), _t(rng, (d, n), 0.3),
            _t(rng, (n, d), 0.5), _t(rng, (n,), 0.5),
            _t(rng, (n, d), 0.5), _t(rng, (n,), 0.5),
            _t(rng, (r, d), 0.5), _t(rng, (d, r), 0.5),
            tensor(rng.normal(size=d) - 1.5, dtype=np.float64), _t(rng, (d,)),
        ]
    raise KeyError(f"no input builder for registered op '{name}'")


def check_registered_ops(seed: int) -> dict[str, float]:
    """Max finite-difference error of every registered op at one seed."""
    rng = np.random.default_rng(seed)
    return {name: finite_diff_check(name, _op_inputs(name, rng), eps=1e-5)
            for name in registered_ops()}


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


def check_tiny_model(seed: int, sample: int = 1) -> float:
    """End-to-end gradient of a tiny network against central differences."""
    cfg = ModelConfig(L=1, D=8, T=3, V=4, K=3, N=2)
    model = astype_model(init_model(cfg, seed=seed), np.float64)
    model.mark_trainable()
    rng = np.random.default_rng(seed + 1)
    x = tensor(rng.normal(size=(cfg.T, cfg.V, 2)), requires_grad=True, dtype=np.float64)
    leaves = [x] + [t for _, t in model.named_params()]
    return finite_diff_check_leaves(lambda: forward(model, x), leaves,
                                    sample=sample, rng=rng)


def run_gradcheck(seed: int, rounds: int = 5) -> tuple[bool, list[str]]:
    """Run the whole suite over several derived seeds; report worst errors."""
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
