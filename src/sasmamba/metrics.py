"""Evaluation protocols: root-aligned and similarity-aligned position errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DimensionError, DomainError

# every check of one frame's alignment, in the order the frame runs them
_CHECKS = ("target cloud is rank-deficient; alignment is ill-posed",
           "source cloud is a single point; scale is undefined",
           "scale must be positive, got {scale}",
           "rotation is not orthonormal",
           "rotation determinant is not +1")


def _transform_faults(scale: np.ndarray, rotation: np.ndarray) -> list[np.ndarray]:
    """Masks of the frames whose (T,) scale or (T, 3, 3) rotation fails the
    scale, orthonormality or determinant check."""
    gram = np.swapaxes(rotation, 1, 2) @ rotation
    return [scale <= 0,
            ~np.isclose(gram, np.eye(3), atol=1e-6).all(axis=(1, 2)),
            np.abs(np.linalg.det(rotation) - 1.0) > 1e-6]


def _raise_first_fault(faults: list[np.ndarray], checks: tuple[str, ...],
                       scale: np.ndarray, name_frame: bool) -> None:
    """Raise :class:`DegeneracyError` for the first frame failing any of
    ``faults``, naming the first of ``checks`` it fails."""
    failed = np.stack(faults)
    if failed.any():
        t = int(np.argmax(failed.any(axis=0)))
        msg = checks[int(np.argmax(failed[:, t]))].format(scale=scale[t])
        raise DegeneracyError(f"frame {t}: {msg}" if name_frame else msg)


@dataclass
class SimilarityTransform:
    """Scale, proper rotation, and translation mapping one cloud onto another."""

    scale: float
    rotation: np.ndarray   # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        scale = np.array([self.scale])
        _raise_first_fault(_transform_faults(scale, self.rotation[None]), _CHECKS[2:],
                           scale, name_frame=False)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * pts @ self.rotation.T + self.translation


def _check_pair(pred: np.ndarray, gt: np.ndarray, ndim: int) -> None:
    if pred.shape != gt.shape:
        raise DimensionError(f"pose shapes differ: {pred.shape} vs {gt.shape}")
    if pred.ndim != ndim or pred.shape[-1] != 3:
        raise DimensionError(f"expected {ndim}-d array ending in 3, got {pred.shape}")


def mpjpe_p1(pred, gt, root_index: int = 0) -> float:
    """Mean per-joint distance after subtracting the root joint per frame."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    _check_pair(pred, gt, 3)
    v = pred.shape[1]
    if not (0 <= root_index < v):
        raise DomainError(f"root index {root_index} out of range for {v} joints")
    pred = pred - pred[:, root_index:root_index + 1, :]
    gt = gt - gt[:, root_index:root_index + 1, :]
    return float(np.linalg.norm(pred - gt, axis=-1).mean())


def _align_frames(pred: np.ndarray, gt: np.ndarray, name_frame: bool):
    """Least-squares similarity alignment (Umeyama, 1991) of each (V, 3)
    frame of ``pred`` onto the same frame of ``gt``, both (T, V, 3) float64.

    Returns the per-frame scale (T,), proper rotation (T, 3, 3) and
    translation (T, 3). The first frame whose alignment is ill-posed, or
    whose transform fails a check, raises :class:`DegeneracyError`.
    """
    v = pred.shape[1]
    if v < 3:
        raise DimensionError(f"alignment needs at least 3 points, got {v}")
    mu_p = pred.mean(axis=1)
    mu_g = gt.mean(axis=1)
    xc = pred - mu_p[:, None]
    yc = gt - mu_g[:, None]
    rank = (np.linalg.svd(yc, compute_uv=False) > 1e-9).sum(axis=1)
    var_p = (xc * xc).sum(axis=(1, 2)) / v
    u, d, vt = np.linalg.svd(np.swapaxes(yc, 1, 2) @ xc / v)
    # flip the smallest singular direction where U V^T is a reflection
    sign = np.ones_like(d)
    sign[:, 2] = np.where(np.linalg.det(u) * np.linalg.det(vt) < 0, -1.0, 1.0)
    rot = (u * sign[:, None, :]) @ vt
    with np.errstate(divide="ignore", invalid="ignore"):  # a single-point source fails below
        scale = (d * sign).sum(axis=1) / var_p
    _raise_first_fault([rank < 2, var_p <= 0.0, *_transform_faults(scale, rot)], _CHECKS,
                       scale, name_frame)
    return scale, rot, mu_g - scale[:, None] * (rot @ mu_p[:, :, None])[:, :, 0]


def procrustes_align(pred, gt) -> tuple[SimilarityTransform, np.ndarray]:
    """Least-squares similarity alignment of one point cloud onto another.

    Returns the transform minimizing ``sum_v ||s R pred_v + t - gt_v||^2``
    and the aligned points. Reflections are corrected by flipping the
    smallest singular direction so the rotation is always proper.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    _check_pair(pred, gt, 2)
    scale, rot, translation = _align_frames(pred[None], gt[None], name_frame=False)
    transform = SimilarityTransform(scale=float(scale[0]), rotation=rot[0],
                                    translation=translation[0])
    return transform, transform.apply(pred)


def mpjpe_p2(pred, gt) -> float:
    """Mean per-joint distance after per-frame similarity alignment; a frame
    whose alignment is ill-posed raises :class:`DegeneracyError` naming it."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    _check_pair(pred, gt, 3)
    if len(pred) == 0:
        raise DimensionError("P2 needs at least one frame")
    scale, rot, translation = _align_frames(pred, gt, name_frame=True)
    aligned = scale[:, None, None] * pred @ np.swapaxes(rot, 1, 2) + translation[:, None]
    return float(np.linalg.norm(aligned - gt, axis=-1).mean())

