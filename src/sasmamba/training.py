"""Losses, optimizer, synthetic motion data, and the training loop.

The composite objective combines a weighted per-joint position error with a
temporal smoothness penalty on predictions and a velocity error against the
target motion; the mixing weights default to lambda_m = 20.0, lambda_t = 0.5.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .fileio import _atomic_write
from .metrics import _check_pair
from .model import Model, forward, non_finite_entry
from .tensor import (Tensor, add, mul, scale, slice0, sqrt, sub, sum_all,
                     sum_axis)


@dataclass
class LossWeights:
    lambda_t: float = 0.5
    lambda_m: float = 20.0

    def __post_init__(self):
        if self.lambda_t < 0 or self.lambda_m < 0:
            raise DomainError("loss mixing weights must be nonnegative")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def wmpjpe(pred, gt, w: np.ndarray | None = None) -> Tensor:
    """Weighted mean per-joint distance between predicted and target poses;
    every joint weighs 1 when ``w`` is None."""
    pred, gt = _as_tensor(pred), _as_tensor(gt)
    _check_pair(pred.data, gt.data, 3)
    t_n, v_n, _ = pred.shape
    diff = sub(pred, gt)
    dist = sqrt(sum_axis(mul(diff, diff), -1))
    if w is not None:
        wv = np.asarray(w, dtype=pred.dtype)
        if wv.shape != (v_n,):
            raise DimensionError(f"weight vector shape {wv.shape} != ({v_n},)")
        dist = mul(dist, Tensor(wv))
    return scale(sum_all(dist), 1.0 / (t_n * v_n))


def _velocity(x: Tensor) -> Tensor:
    """Frame-to-frame displacement along the first axis."""
    t_n = x.shape[0]
    return sub(slice0(x, 1, t_n), slice0(x, 0, t_n - 1))


def tc_loss(pred) -> Tensor:
    """Mean squared frame-to-frame displacement of the prediction."""
    pred = _as_tensor(pred)
    t_n, v_n = pred.shape[0], pred.shape[1]
    if t_n < 2:
        warnings.warn("temporal consistency needs at least two frames; returning 0",
                      RuntimeWarning, stacklevel=2)
        return Tensor(np.zeros((), dtype=pred.dtype))
    vel = _velocity(pred)
    return scale(sum_all(sum_axis(mul(vel, vel), -1)), 1.0 / ((t_n - 1) * v_n))


def mpjve(pred, gt) -> Tensor:
    """Mean per-joint error between prediction and target velocities."""
    pred, gt = _as_tensor(pred), _as_tensor(gt)
    _check_pair(pred.data, gt.data, 3)
    t_n, v_n, _ = pred.shape
    if t_n < 2:
        warnings.warn("velocity error needs at least two frames; returning 0",
                      RuntimeWarning, stacklevel=2)
        return Tensor(np.zeros((), dtype=pred.dtype))
    diff = sub(_velocity(pred), _velocity(gt))
    return scale(sum_all(sqrt(sum_axis(mul(diff, diff), -1))), 1.0 / ((t_n - 1) * v_n))


def _objective(pred: Tensor, gt: Tensor, weights: LossWeights) -> tuple[Tensor, dict]:
    """The loss ``wmpjpe + (lambda_t * tc_loss + lambda_m * mpjve)`` and its
    terms, keyed as in the training trace. On a single frame the two motion
    terms are not defined, and the loss is the position term alone."""
    terms = {"wmpjpe": wmpjpe(pred, gt)}
    if pred.shape[0] < 2:
        return terms["wmpjpe"], terms
    terms.update(tcloss=tc_loss(pred), mpjve=mpjve(pred, gt))
    return add(terms["wmpjpe"], add(scale(terms["tcloss"], weights.lambda_t),
                                    scale(terms["mpjve"], weights.lambda_m))), terms


def total_loss(pred, gt, weights: LossWeights | None = None) -> Tensor:
    """Position term plus weighted smoothness and velocity terms."""
    return _objective(_as_tensor(pred), _as_tensor(gt), weights or LossWeights())[0]


# --- optimizer ---------------------------------------------------------------

# moment decay rates, the term that keeps the step finite at a zero moment,
# and the decoupled weight decay
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
ADAM_WEIGHT_DECAY = 0.01


@dataclass
class OptimState:
    """Adaptive-moment optimizer settings and state."""

    lr: float = 5e-4
    decay_factor: float = 0.99
    step: int = field(default=0, init=False)
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)

    def __post_init__(self):
        for name in ("lr", "decay_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0, got {value}")


def lr_at(epoch: int, base: float, factor: float) -> float:
    """Exponentially decayed learning rate: base * factor**epoch."""
    if epoch < 0:
        raise DomainError(f"epoch must be >= 0, got {epoch}")
    return base * factor ** epoch


def optim_step(model: Model, state: OptimState, lr: float | None = None) -> None:
    """One decoupled-weight-decay adaptive update over all model parameters.

    Decay multiplies weights directly by (1 - lr * ADAM_WEIGHT_DECAY); the
    moment update never sees it. Rejects the step if any gradient is
    non-finite, naming the first such tensor in manifest order.
    """
    if lr is None:
        lr = state.lr
    grads = {name: t.grad if t.grad is not None else np.zeros_like(t.data)
             for name, t in model.named_params()}
    if not all(np.isfinite(g).all() for g in grads.values()):
        raise NumericError(f"non-finite gradient in "
                           f"'{non_finite_entry(model.config, grads)}'; step rejected")
    state.step += 1
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, t in model.named_params():
        g = grads[name].astype(np.float64)
        if name not in state.m:
            state.m[name] = np.zeros_like(t.data, dtype=np.float64)
            state.v[name] = np.zeros_like(t.data, dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        new = t.data.astype(np.float64) - lr * update - lr * ADAM_WEIGHT_DECAY * t.data
        t.data = new.astype(t.data.dtype)


# --- synthetic motion --------------------------------------------------------


@dataclass
class Camera:
    focal: float = 1000.0
    principal: tuple[float, float] = (0.0, 0.0)
    depth: float = 4.0


@dataclass
class SyntheticDataset:
    pairs: list[tuple[np.ndarray, np.ndarray]]
    seed: int
    camera: Camera


def project(pose3d: np.ndarray, camera: Camera) -> np.ndarray:
    """Pinhole projection of root-relative poses placed at the camera depth."""
    pose = np.asarray(pose3d, dtype=np.float64)
    z = pose[..., 2] + camera.depth
    u = camera.focal * pose[..., 0] / z + camera.principal[0]
    v = camera.focal * pose[..., 1] / z + camera.principal[1]
    return np.stack([u, v], axis=-1).astype(np.float32)


def gen_synthetic(seed: int, n_seqs: int, frames: int, joints: int,
                  noise_sigma: float = 0.0) -> SyntheticDataset:
    """Deterministic harmonic motions around a fixed skeleton template.

    Each sequence sums 2 to 4 low-frequency harmonics, of amplitude up to
    0.15 per joint coordinate, on top of a template point cloud, is
    re-centered per frame on the root, joint 0, and is projected through a
    pinhole camera to produce the paired 2D input. With zero noise the stored
    2D is exactly the projection of the stored 3D. The 2D noise comes from a
    generator of its own, so a noisy dataset is the clean one plus noise.
    """
    if n_seqs < 1 or frames < 1 or joints < 1:
        raise DomainError("n_seqs, frames, and joints must all be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise DomainError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    noise_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    camera = Camera()
    template = rng.uniform(-0.5, 0.5, size=(joints, 3))
    template[0] = 0.0
    pairs = []
    for _ in range(n_seqs):
        pose = np.broadcast_to(template, (frames, joints, 3)).copy()
        steps = np.arange(frames, dtype=np.float64)
        for _ in range(int(rng.integers(2, 5))):
            amp = rng.uniform(-0.15, 0.15, size=(joints, 3))
            cycles = rng.uniform(0.5, 3.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * cycles * steps / max(frames, 2) + phase)
            pose += wave[:, None, None] * amp
        pose -= pose[:, :1, :]
        pose3d = pose.astype(np.float32)
        kp2d = project(pose3d, camera)
        if noise_sigma > 0:
            kp2d = (kp2d + noise_rng.normal(0.0, noise_sigma, size=kp2d.shape)).astype(np.float32)
        pairs.append((kp2d, pose3d))
    return SyntheticDataset(pairs=pairs, seed=seed, camera=camera)


# --- training loop -----------------------------------------------------------


def train(model: Model, dataset: SyntheticDataset, epochs: int, batch: int,
          weights: LossWeights | None = None, optim: OptimState | None = None,
          shuffle_seed: int = 0) -> list[dict]:
    """Minibatch training with deterministic shuffling and accumulation.

    Shuffling is a pure function of (shuffle_seed, epoch); per-item gradients
    accumulate in batch-index order; the batch loss is the mean over items.
    Returns one trace row per epoch with the mean of each loss component.
    """
    if not dataset.pairs:
        raise DomainError("dataset must be nonempty")
    if batch < 1 or epochs < 0 or shuffle_seed < 0:
        raise DomainError(f"need batch >= 1, epochs >= 0 and shuffle_seed >= 0, got "
                          f"batch={batch}, epochs={epochs}, shuffle_seed={shuffle_seed}")
    weights = weights or LossWeights()
    optim = optim or OptimState()
    model.mark_trainable()
    trace: list[dict] = []
    n = len(dataset.pairs)
    for epoch in range(epochs):
        lr = lr_at(epoch, optim.lr, optim.decay_factor)
        order = np.random.default_rng(
            np.random.SeedSequence([shuffle_seed, epoch])).permutation(n)
        sums = dict(total=0.0, wmpjpe=0.0, tcloss=0.0, mpjve=0.0)
        batches = 0
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            model.zero_grads()
            batch_total = 0.0
            for j in idx:
                kp2d, pose3d = dataset.pairs[j]
                loss, terms = _objective(forward(model, kp2d), Tensor(pose3d), weights)
                item_loss = float(loss.data)
                if not np.isfinite(item_loss):
                    raise NumericError(
                        f"loss diverged at epoch {epoch}, step {batches}, item {int(j)}")
                loss.backward(np.asarray(1.0 / len(idx), dtype=loss.dtype))
                batch_total += item_loss / len(idx)
                for key, term in terms.items():
                    sums[key] += float(term.data) / len(idx)
            optim_step(model, optim, lr)
            sums["total"] += batch_total
            batches += 1
        trace.append({"epoch": epoch, "lr": lr,
                      **{key: value / batches for key, value in sums.items()}})
    return trace


def write_trace_csv(path, trace: list[dict]) -> None:
    """Write the per-epoch trace as CSV, atomically: a failed write leaves nothing."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["epoch", "lr", "total", "wmpjpe", "tcloss", "mpjve"])
    for row in trace:
        writer.writerow([row["epoch"], repr(row["lr"]), repr(row["total"]),
                         repr(row["wmpjpe"]), repr(row["tcloss"]),
                         repr(row["mpjve"])])
    _atomic_write(path, text.getvalue().encode("utf-8"))
