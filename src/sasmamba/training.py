"""Losses, optimizer, synthetic motion data, and the training loop.

The composite objective combines a weighted per-joint position error with a
temporal smoothness penalty on predictions and a velocity error against the
target motion; the mixing weights default to lambda_m = 20.0, lambda_t = 0.5.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .model import Model, forward
from .tensor import (Tensor, add, mul, scale, slice0, sqrt, sub, sum_all,
                     sum_last)


@dataclass
class LossWeights:
    lambda_t: float = 0.5
    lambda_m: float = 20.0
    joint_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.lambda_t < 0 or self.lambda_m < 0:
            raise DomainError("loss mixing weights must be nonnegative")
        if self.joint_weights is not None:
            self.joint_weights = np.asarray(self.joint_weights, dtype=np.float64)
            if np.any(self.joint_weights <= 0):
                raise DomainError("joint weights must be positive")

    def weights_for(self, v: int, dtype) -> np.ndarray:
        if self.joint_weights is None:
            return np.ones(v, dtype=dtype)
        if self.joint_weights.shape != (v,):
            raise DimensionError(
                f"joint weights shape {self.joint_weights.shape} != ({v},)")
        return self.joint_weights.astype(dtype)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _check_pose_pair(pred: Tensor, gt: Tensor) -> None:
    if pred.shape != gt.shape:
        raise DimensionError(f"pose shapes differ: {pred.shape} vs {gt.shape}")
    if pred.data.ndim != 3 or pred.shape[-1] != 3:
        raise DimensionError(f"expected (T, V, 3) poses, got {pred.shape}")


def wmpjpe(pred, gt, w: np.ndarray | None = None) -> Tensor:
    """Weighted mean per-joint distance between predicted and target poses."""
    pred, gt = _as_tensor(pred), _as_tensor(gt)
    _check_pose_pair(pred, gt)
    t_n, v_n, _ = pred.shape
    wv = np.ones(v_n, dtype=pred.dtype) if w is None else np.asarray(w, dtype=pred.dtype)
    if wv.shape != (v_n,):
        raise DimensionError(f"weight vector shape {wv.shape} != ({v_n},)")
    diff = sub(pred, gt)
    dist = sqrt(sum_last(mul(diff, diff)))
    return scale(sum_all(mul(dist, Tensor(wv))), 1.0 / (t_n * v_n))


def tc_loss(pred) -> Tensor:
    """Mean squared frame-to-frame displacement of the prediction."""
    pred = _as_tensor(pred)
    t_n, v_n = pred.shape[0], pred.shape[1]
    if t_n < 2:
        warnings.warn("temporal consistency needs at least two frames; returning 0",
                      RuntimeWarning, stacklevel=2)
        return Tensor(np.zeros((), dtype=pred.dtype))
    vel = sub(slice0(pred, 1, t_n), slice0(pred, 0, t_n - 1))
    return scale(sum_all(sum_last(mul(vel, vel))), 1.0 / ((t_n - 1) * v_n))


def mpjve(pred, gt) -> Tensor:
    """Mean per-joint error between prediction and target velocities."""
    pred, gt = _as_tensor(pred), _as_tensor(gt)
    _check_pose_pair(pred, gt)
    t_n, v_n, _ = pred.shape
    if t_n < 2:
        warnings.warn("velocity error needs at least two frames; returning 0",
                      RuntimeWarning, stacklevel=2)
        return Tensor(np.zeros((), dtype=pred.dtype))
    vel_p = sub(slice0(pred, 1, t_n), slice0(pred, 0, t_n - 1))
    vel_g = sub(slice0(gt, 1, t_n), slice0(gt, 0, t_n - 1))
    diff = sub(vel_p, vel_g)
    return scale(sum_all(sqrt(sum_last(mul(diff, diff)))), 1.0 / ((t_n - 1) * v_n))


def total_loss(pred, gt, weights: LossWeights | None = None) -> Tensor:
    """Position term plus weighted smoothness and velocity terms."""
    weights = weights or LossWeights()
    pred, gt = _as_tensor(pred), _as_tensor(gt)
    w = weights.weights_for(pred.shape[1], pred.dtype)
    out = wmpjpe(pred, gt, w)
    if pred.shape[0] >= 2:
        out = add(out, scale(tc_loss(pred), weights.lambda_t))
        out = add(out, scale(mpjve(pred, gt), weights.lambda_m))
    return out


# --- optimizer ---------------------------------------------------------------


@dataclass
class OptimState:
    """Adaptive-moment optimizer state with decoupled weight decay."""

    lr: float = 5e-4
    decay_factor: float = 0.99
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def lr_at(epoch: int, base: float, factor: float) -> float:
    """Exponentially decayed learning rate: base * factor**epoch."""
    if epoch < 0:
        raise DomainError(f"epoch must be >= 0, got {epoch}")
    return base * factor ** epoch


def optim_step(model: Model, state: OptimState, lr: float | None = None) -> None:
    """One decoupled-weight-decay adaptive update over all model parameters.

    Decay multiplies weights directly by (1 - lr * wd); the moment update
    never sees it. Rejects the step if any gradient is non-finite.
    """
    if lr is None:
        lr = lr_at(0, state.lr, state.decay_factor)
    for name, t in model.named_params():
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in '{name}'; step rejected")
        if name not in state.m:
            state.m[name] = np.zeros_like(t.data, dtype=np.float64)
            state.v[name] = np.zeros_like(t.data, dtype=np.float64)
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, t in model.named_params():
        g = (t.grad if t.grad is not None else np.zeros_like(t.data)).astype(np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
        new = t.data.astype(np.float64) - lr * update - lr * state.weight_decay * t.data
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
                  noise_sigma: float = 0.0, amplitude: float = 0.15,
                  root_index: int = 0) -> SyntheticDataset:
    """Deterministic harmonic motions around a fixed skeleton template.

    Each sequence sums 2 to 4 low-frequency harmonics on top of a template
    point cloud, is re-centered on the root joint per frame, and is projected
    through a pinhole camera to produce the paired 2D input. With zero noise
    the stored 2D is exactly the projection of the stored 3D.
    """
    if n_seqs < 1 or frames < 1 or joints < 1:
        raise DomainError("n_seqs, frames, and joints must all be >= 1")
    rng = np.random.default_rng(seed)
    camera = Camera()
    template = rng.uniform(-0.5, 0.5, size=(joints, 3))
    template[root_index] = 0.0
    pairs = []
    for _ in range(n_seqs):
        pose = np.broadcast_to(template, (frames, joints, 3)).copy()
        steps = np.arange(frames, dtype=np.float64)
        for _ in range(int(rng.integers(2, 5))):
            amp = rng.uniform(-amplitude, amplitude, size=(joints, 3))
            cycles = rng.uniform(0.5, 3.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * cycles * steps / max(frames, 2) + phase)
            pose += wave[:, None, None] * amp
        pose -= pose[:, root_index:root_index + 1, :]
        pose3d = pose.astype(np.float32)
        kp2d = project(pose3d, camera)
        if noise_sigma > 0:
            kp2d = (kp2d + rng.normal(0.0, noise_sigma, size=kp2d.shape)).astype(np.float32)
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
    if batch < 1 or epochs < 0:
        raise DomainError(
            f"need batch >= 1 and epochs >= 0, got batch={batch}, epochs={epochs}")
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
                pred = forward(model, kp2d)
                w = weights.weights_for(pred.shape[1], pred.dtype)
                term_w = wmpjpe(pred, pose3d, w)
                term_t = tc_loss(pred)
                term_m = mpjve(pred, pose3d)
                loss = add(term_w, add(scale(term_t, weights.lambda_t),
                                       scale(term_m, weights.lambda_m)))
                item_loss = float(loss.data)
                if not np.isfinite(item_loss):
                    raise NumericError(
                        f"loss diverged at epoch {epoch}, step {batches}, item {int(j)}")
                loss.backward(np.asarray(1.0 / len(idx), dtype=loss.dtype))
                batch_total += item_loss / len(idx)
                sums["wmpjpe"] += float(term_w.data) / len(idx)
                sums["tcloss"] += float(term_t.data) / len(idx)
                sums["mpjve"] += float(term_m.data) / len(idx)
            optim_step(model, optim, lr)
            sums["total"] += batch_total
            batches += 1
        trace.append({"epoch": epoch, "lr": lr,
                      "total": sums["total"] / batches,
                      "wmpjpe": sums["wmpjpe"] / batches,
                      "tcloss": sums["tcloss"] / batches,
                      "mpjve": sums["mpjve"] / batches})
    return trace


def write_trace_csv(path, trace: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "total", "wmpjpe", "tcloss", "mpjve"])
        for row in trace:
            writer.writerow([row["epoch"], repr(row["lr"]), repr(row["total"]),
                             repr(row["wmpjpe"]), repr(row["tcloss"]),
                             repr(row["mpjve"])])
