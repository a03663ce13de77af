"""The four benchmark workloads.

Each workload is driven by one closed-loop client: ``request(i)`` does the
timed work of request ``i``; ``check(i, result)`` then verifies its outputs
untimed and returns the frames it completed plus the frames the program
dropped. ``finish()`` holds the checks that need the whole run. Every input is
made with ``training.gen_synthetic`` from the workload seed, and where a CLI
path reads inputs they are written to keypoint files first.

Timed calls go through module attributes (``cli.main``, ``model.forward``,
``fileio.write_keypoints``...) so that the tracer, which patches those
attributes, sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from sasmamba import cli, fileio, model, training
from sasmamba.model import ModelConfig, astype_model
from sasmamba.training import LossWeights, OptimState, SyntheticDataset

# Agreement of the float32 CLI output with the float64 model, relative to the
# largest float64 coordinate; float32 rounding stays near 1e-6 of it.
F64_REL_TOL = 1e-4
# The CLI prints eval scores with six decimals.
EVAL_ABS_TOL = 1e-6
# Criterion 09 of the acceptance suite: mean wMPJPE below a tenth of its start.
OVERFIT_TARGET = 0.10


class CheckFailed(Exception):
    """An output did not pass its correctness check."""


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _flip_payload_byte(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))


def _write_pairs(workdir: Path, pairs) -> SyntheticDataset:
    """Write 2D/3D pairs as keypoint files and read them back, as ``train`` does."""
    loaded = []
    for i, (kp2d, pose3d) in enumerate(pairs):
        p2d, p3d = workdir / f"seq_{i:04d}_2d.json", workdir / f"seq_{i:04d}_3d.json"
        fileio.write_keypoints(p2d, kp2d)
        fileio.write_keypoints(p3d, pose3d)
        loaded.append((fileio.read_keypoints(p2d), fileio.read_keypoints(p3d)))
    return SyntheticDataset(pairs=loaded, seed=0, camera=training.Camera())


def _init_checkpoint(cfg: ModelConfig, seed: int, path: Path):
    fileio.save_ckpt(model.init_model(cfg, seed=seed), path)
    return fileio.load_ckpt(path)


class Infer:
    """``sasmamba infer`` on clips shorter than T, multiples of T, and one with a
    remainder; one cycle is one request per clip."""

    def __init__(self, seed: int, workdir: Path, tiny: bool, fault: str):
        self.cfg = ModelConfig(L=1, D=8, T=9, N=2) if tiny else ModelConfig()
        t = self.cfg.T
        self.lengths = (max(3, t // 9), t, 2 * t, t + max(2, t // 18))
        self.cycle = len(self.lengths)
        self.model_seed, self.data_seed = _seeds(seed, 2)
        self.workdir, self.fault = workdir, fault
        self.ckpt = workdir / "model.ckpt"
        self.clips = [workdir / f"clip_{k}_2d.json" for k in range(self.cycle)]
        self.outputs = [workdir / f"pred_{k}_3d.json" for k in range(self.cycle)]
        self._reference = None

    def setup(self) -> None:
        fileio.save_ckpt(model.init_model(self.cfg, seed=self.model_seed), self.ckpt)
        if self.fault == "flip-ckpt-byte":
            _flip_payload_byte(self.ckpt)
        for k, length in enumerate(self.lengths):
            kp2d, _ = training.gen_synthetic(self.data_seed + k, 1, length, self.cfg.V).pairs[0]
            fileio.write_keypoints(self.clips[k], kp2d)

    def warmup(self) -> None:
        pass

    def request(self, i: int) -> int:
        k = i % self.cycle
        code, _ = _run_cli(["infer", "--model", str(self.ckpt), "--input", str(self.clips[k]),
                            "--output", str(self.outputs[k])])
        if self.fault == "perturb-pred" and code == 0:
            pred = fileio.read_keypoints(self.outputs[k])
            pred[0, 0] += 0.1 * (1.0 + np.abs(pred).max())
            fileio.write_keypoints(self.outputs[k], pred)
        return code

    def check(self, i: int, code: int) -> tuple[int, int]:
        k = i % self.cycle
        if code != 0:
            raise CheckFailed(f"infer exited with code {code}")
        pred = fileio.read_keypoints(self.outputs[k])
        length, t = self.lengths[k], self.cfg.T
        allowed = {length, (length // t) * t}  # the CLI may drop a trailing remainder
        if pred.shape[1:] != (self.cfg.V, 3) or pred.shape[0] not in allowed:
            raise CheckFailed(f"output shape {pred.shape} for a {length}-frame clip")
        if not np.all(np.isfinite(pred)):
            raise CheckFailed("non-finite output")
        if k == 0:
            ref = self._float64_reference()
            err = float(np.abs(pred - ref).max())
            if err > F64_REL_TOL * float(np.abs(ref).max()):
                raise CheckFailed(f"window differs from the float64 model by {err:.3g}")
        return pred.shape[0], length - pred.shape[0]

    def _float64_reference(self) -> np.ndarray:
        if self._reference is None:
            m64 = astype_model(model.init_model(self.cfg, seed=self.model_seed), np.float64)
            clip = fileio.read_keypoints(self.clips[0]).astype(np.float64)
            self._reference = model.forward(m64, clip).data
        return self._reference

    def finish(self) -> None:
        pass


class TrainDefault:
    """One training step on a T-frame clip at the default config."""

    cycle = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool, fault: str):
        self.cfg = ModelConfig(L=1, D=8, T=9, N=2) if tiny else ModelConfig()
        self.model_seed, self.data_seed = _seeds(seed, 2)
        self.workdir = workdir
        self.losses: list[float] = []

    def setup(self) -> None:
        self.model = _init_checkpoint(self.cfg, self.model_seed, self.workdir / "model.ckpt")
        self.model.mark_trainable()
        ds = _write_pairs(self.workdir, training.gen_synthetic(
            self.data_seed, 1, self.cfg.T, self.cfg.V).pairs)
        self.kp2d, self.pose3d = ds.pairs[0]
        self.optim = OptimState(lr=1e-3)
        self.losses = []

    def warmup(self) -> None:
        self.check(-1, self.request(-1))

    def request(self, i: int) -> float:
        # pred and loss are locals, so the previous step's tape is gone before
        # the next forward starts
        self.model.zero_grads()
        pred = model.forward(self.model, self.kp2d)
        loss = training.total_loss(pred, self.pose3d)
        loss.backward()
        training.optim_step(self.model, self.optim)
        return float(loss.data)

    def check(self, i: int, loss: float) -> tuple[int, int]:
        self.losses.append(loss)
        if not math.isfinite(loss):
            raise CheckFailed(f"loss {loss}")
        for name, t in self.model.named_params():
            if t.grad is not None and not np.all(np.isfinite(t.grad)):
                raise CheckFailed(f"non-finite gradient in {name}")
        return self.cfg.T, 0

    def finish(self) -> None:
        if not self.losses[-1] < self.losses[0]:
            raise CheckFailed(f"loss did not fall: {self.losses[0]} -> {self.losses[-1]}")


class TrainSmall:
    """One optimizer step of ``training.train`` on the criterion-09 overfit task."""

    cycle = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool, fault: str):
        self.cfg = ModelConfig(L=1, D=8, T=9, N=2) if tiny else ModelConfig(L=2, D=32, T=27)
        self.n_seqs = 4
        self.model_seed, self.data_seed = _seeds(seed, 2)
        self.workdir = workdir
        self.weights = LossWeights(lambda_t=0.5, lambda_m=20.0)

    def setup(self) -> None:
        self.model = _init_checkpoint(self.cfg, self.model_seed, self.workdir / "model.ckpt")
        self.data = _write_pairs(self.workdir, training.gen_synthetic(
            self.data_seed, self.n_seqs, self.cfg.T, self.cfg.V).pairs)
        self.optim = OptimState(lr=1e-2, decay_factor=0.99)

    def warmup(self) -> None:
        self.initial = self._mean_wmpjpe()

    def _mean_wmpjpe(self) -> float:
        return float(np.mean([float(training.wmpjpe(model.forward(self.model, kp), gt).data)
                              for kp, gt in self.data.pairs]))

    def request(self, i: int) -> list[dict]:
        return training.train(self.model, self.data, epochs=1, batch=self.n_seqs,
                              weights=self.weights, optim=self.optim, shuffle_seed=i)

    def check(self, i: int, trace: list[dict]) -> tuple[int, int]:
        if len(trace) != 1 or not math.isfinite(trace[0]["total"]):
            raise CheckFailed(f"bad training trace {trace}")
        return self.n_seqs * self.cfg.T, 0

    def finish(self) -> None:
        final = self._mean_wmpjpe()
        if not final < OVERFIT_TARGET * self.initial:
            raise CheckFailed(f"mean wMPJPE {final:.4g} did not fall below "
                              f"{OVERFIT_TARGET} x {self.initial:.4g}")


def _reference_p1(pred: np.ndarray, gt: np.ndarray) -> float:
    rel_p = pred.astype(np.float64) - pred[:, :1].astype(np.float64)
    rel_g = gt.astype(np.float64) - gt[:, :1].astype(np.float64)
    return float(np.sqrt(((rel_p - rel_g) ** 2).sum(axis=-1)).mean())


def _reference_p2(pred: np.ndarray, gt: np.ndarray) -> float:
    """Batched Umeyama alignment of every frame at once."""
    x = pred.astype(np.float64)
    y = gt.astype(np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    u, s, vt = np.linalg.svd(np.einsum("tvi,tvj->tij", xc, yc))
    flip = np.sign(np.linalg.det(np.einsum("tij,tjk->tik", u, vt)))
    s[:, -1] *= flip
    vt[:, -1] *= flip[:, None]
    rot = np.einsum("tji,tkj->tik", vt, u)  # V U^T, maps centred pred onto gt
    scale = s.sum(axis=1) / (xc ** 2).sum(axis=(1, 2))
    aligned = scale[:, None, None] * np.einsum("tij,tvj->tvi", rot, xc) \
        + y.mean(axis=1, keepdims=True)
    return float(np.sqrt(((aligned - y) ** 2).sum(axis=-1)).mean())


class IoEval:
    """A long sequence through keypoint write and read, ``sasmamba eval`` under
    p1 and p2, and a checkpoint save -> load -> save round trip."""

    def __init__(self, seed: int, workdir: Path, tiny: bool, fault: str):
        self.cfg = ModelConfig(L=1, D=8, T=9, N=2) if tiny else ModelConfig()
        self.frames = 30 if tiny else 1215
        self.cycle = 3
        self.model_seed, self.data_seed = _seeds(seed, 2)
        self.workdir, self.fault = workdir, fault
        self.pred_path, self.gt_path = workdir / "pred_3d.json", workdir / "gt_3d.json"
        self.ckpt_a, self.ckpt_b = workdir / "a.ckpt", workdir / "b.ckpt"
        self._references: dict[int, tuple[float, float]] = {}

    def setup(self) -> None:
        self.model = model.init_model(self.cfg, seed=self.model_seed)
        ds = training.gen_synthetic(self.data_seed, self.cycle, self.frames, self.cfg.V)
        rng = np.random.default_rng(self.data_seed)
        self.pairs = []
        for _, gt in ds.pairs:
            # a prediction off by a random similarity transform plus joint noise
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            pred = 1.1 * gt @ q.T + rng.normal(0.0, 0.05, size=gt.shape) + 0.3
            self.pairs.append((pred.astype(np.float32), gt))

    def warmup(self) -> None:
        pass

    def request(self, i: int) -> dict:
        pred, gt = self.pairs[i % self.cycle]
        fileio.write_keypoints(self.pred_path, pred)
        fileio.write_keypoints(self.gt_path, gt)
        if self.fault == "perturb-pred":
            fileio.write_keypoints(self.pred_path, pred + 0.01)
        read_pred = fileio.read_keypoints(self.pred_path)
        read_gt = fileio.read_keypoints(self.gt_path)
        scores = {}
        for protocol in ("p1", "p2"):
            scores[protocol] = _run_cli(["eval", "--pred", str(self.pred_path),
                                         "--gt", str(self.gt_path), "--protocol", protocol])
        fileio.save_ckpt(self.model, self.ckpt_a)
        if self.fault == "flip-ckpt-byte":
            _flip_payload_byte(self.ckpt_a)
        fileio.save_ckpt(fileio.load_ckpt(self.ckpt_a), self.ckpt_b)
        return {"pred": read_pred, "gt": read_gt, "scores": scores}

    def check(self, i: int, result: dict) -> tuple[int, int]:
        k = i % self.cycle
        pred, gt = self.pairs[k]
        if not (np.array_equal(result["pred"], pred) and np.array_equal(result["gt"], gt)):
            raise CheckFailed("keypoints changed in a write -> read round trip")
        if k not in self._references:
            self._references[k] = (_reference_p1(pred, gt), _reference_p2(pred, gt))
        for protocol, ref in zip(("p1", "p2"), self._references[k]):
            code, out = result["scores"][protocol]
            if code != 0:
                raise CheckFailed(f"eval {protocol} exited with code {code}")
            if abs(float(out) - ref) > EVAL_ABS_TOL:
                raise CheckFailed(f"eval {protocol} printed {out.strip()}, reference {ref:.6f}")
        if self.ckpt_a.read_bytes() != self.ckpt_b.read_bytes():
            raise CheckFailed("checkpoint save -> load -> save changed the bytes")
        return self.frames, 0

    def finish(self) -> None:
        pass


WORKLOADS = {
    "infer": Infer,
    "train-default": TrainDefault,
    "train-small": TrainSmall,
    "io-eval": IoEval,
}
