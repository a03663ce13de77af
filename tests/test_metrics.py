"""Evaluation protocols: root alignment and Procrustes similarity alignment."""

import numpy as np
import pytest

from sasmamba.errors import DegeneracyError, DimensionError, DomainError
from sasmamba.metrics import (SimilarityTransform, mpjpe_p1, mpjpe_p2,
                              procrustes_align)
from sasmamba.training import mpjve


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_cloud(rng, v=17):
    return rng.normal(size=(v, 3))


def umeyama_oracle(pred, gt):
    """Per-frame float64 Umeyama (1991) alignment, written out independently
    of ``sasmamba.metrics``: the mean joint distance after aligning each
    frame of ``pred`` onto ``gt`` by scale, proper rotation and translation."""
    dists = []
    for x, y in zip(np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)):
        mx, my = x.mean(axis=0), y.mean(axis=0)
        sigma = (y - my).T @ (x - mx) / len(x)
        u, d, vt = np.linalg.svd(sigma)
        s = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
        rot = u @ s @ vt
        c = np.trace(np.diag(d) @ s) / ((x - mx) ** 2).sum(axis=1).mean()
        aligned = c * (x - mx) @ rot.T + my
        dists.extend(np.sqrt(((aligned - y) ** 2).sum(axis=1)))
    return float(np.mean(dists))


class TestP1:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(0)
        pose = rng.normal(size=(3, 5, 3))
        assert mpjpe_p1(pose, pose) == pytest.approx(0.0)

    def test_global_per_frame_translation_removed(self):
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(4, 5, 3))
        shift = rng.normal(size=(4, 1, 3))
        assert mpjpe_p1(gt + shift, gt) == pytest.approx(0.0, abs=1e-7)

    def test_hand_computed_two_joints(self):
        gt = np.zeros((1, 2, 3))
        pred = np.zeros((1, 2, 3))
        pred[0, 1] = [0.0, 3.0, 4.0]
        # joint0 coincides with the root, joint1 is off by norm 5: mean 2.5
        assert mpjpe_p1(pred, gt, root_index=0) == pytest.approx(2.5)

    def test_invalid_root(self):
        with pytest.raises(DomainError):
            mpjpe_p1(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), root_index=5)

    def test_joint_translation_invariance(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(3, 6, 3))
        gt = rng.normal(size=(3, 6, 3))
        shift = rng.normal(size=(3, 1, 3))
        assert mpjpe_p1(pred, gt) == pytest.approx(
            mpjpe_p1(pred + shift, gt + shift), rel=1e-9)


class TestProcrustes:
    def test_exact_recovery_of_similarity_copy(self):
        rng = np.random.default_rng(3)
        gt = random_cloud(rng)
        s = rng.uniform(0.5, 2.0)
        rot = random_rotation(rng)
        t = rng.normal(size=3)
        pred = (gt - t) @ rot / s   # pred = (1/s) R^T (gt - t)
        transform, aligned = procrustes_align(pred, gt)
        assert np.abs(aligned - gt).max() < 1e-9
        assert transform.scale == pytest.approx(s, rel=1e-6)
        np.testing.assert_allclose(transform.rotation, rot, atol=1e-6)
        np.testing.assert_allclose(transform.translation, t, atol=1e-6)

    def test_identity_for_equal_clouds(self):
        rng = np.random.default_rng(4)
        gt = random_cloud(rng)
        transform, aligned = procrustes_align(gt, gt)
        assert transform.scale == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(transform.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(transform.translation, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(aligned, gt, atol=1e-12)

    def test_rotation_always_proper(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            transform, _ = procrustes_align(random_cloud(rng), random_cloud(rng))
            rot = transform.rotation
            assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    def test_reflected_cloud_still_gets_rotation(self):
        rng = np.random.default_rng(6)
        gt = random_cloud(rng)
        pred = gt * np.array([-1.0, 1.0, 1.0])   # mirror image
        transform, _ = procrustes_align(pred, gt)
        assert np.linalg.det(transform.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_target(self):
        line = np.outer(np.arange(5.0), np.array([1.0, 0.0, 0.0]))
        rng = np.random.default_rng(7)
        with pytest.raises(DegeneracyError):
            procrustes_align(random_cloud(rng, 5), line)

    def test_coincident_source(self):
        rng = np.random.default_rng(8)
        with pytest.raises(DegeneracyError):
            procrustes_align(np.ones((5, 3)), random_cloud(rng, 5))

    def test_too_few_points(self):
        with pytest.raises(DimensionError):
            procrustes_align(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_transform_invariants_enforced(self):
        with pytest.raises(DegeneracyError):
            SimilarityTransform(scale=-1.0, rotation=np.eye(3), translation=np.zeros(3))
        with pytest.raises(DegeneracyError):
            SimilarityTransform(scale=1.0, rotation=np.eye(3) * 2.0,
                                translation=np.zeros(3))


class TestP2:
    def test_zero_for_per_frame_similarity_copies(self):
        rng = np.random.default_rng(9)
        gt = rng.normal(size=(4, 17, 3))
        pred = np.empty_like(gt)
        for t in range(4):
            s = rng.uniform(0.5, 2.0)
            rot = random_rotation(rng)
            shift = rng.normal(size=3)
            pred[t] = (gt[t] - shift) @ rot / s
        assert mpjpe_p2(pred, gt) < 1e-9

    def test_zero_for_equal(self):
        rng = np.random.default_rng(10)
        gt = rng.normal(size=(3, 8, 3))
        assert mpjpe_p2(gt, gt) < 1e-12

    def test_similarity_invariance_of_pred(self):
        rng = np.random.default_rng(11)
        gt = rng.normal(size=(3, 9, 3))
        pred = rng.normal(size=(3, 9, 3))
        rot = random_rotation(rng)
        transformed = 1.7 * pred @ rot.T + rng.normal(size=3)
        assert mpjpe_p2(pred, gt) == pytest.approx(mpjpe_p2(transformed, gt), rel=1e-7)

    @pytest.mark.parametrize("seed", range(20))
    def test_procrustes_not_worse_than_root_alignment(self, seed):
        rng = np.random.default_rng(200 + seed)
        pred = rng.normal(size=(2, 11, 3))
        gt = rng.normal(size=(2, 11, 3))
        for t in range(2):
            _, aligned = procrustes_align(pred[t], gt[t])
            ssr_procrustes = ((aligned - gt[t]) ** 2).sum()
            rooted = (pred[t] - pred[t, 0]) + gt[t, 0]
            ssr_root = ((rooted - gt[t]) ** 2).sum()
            assert ssr_procrustes <= ssr_root + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_frame_oracle_with_reflected_frames(self, seed):
        rng = np.random.default_rng(300 + seed)
        gt = rng.normal(size=(40, 17, 3))
        pred = 1.3 * gt @ random_rotation(rng).T + rng.normal(0.0, 0.1, size=gt.shape) + 0.5
        # mirror every third frame, so that the unconstrained optimum there is a reflection
        pred[::3] *= np.array([1.0, -1.0, 1.0])
        assert mpjpe_p2(pred, gt) == pytest.approx(umeyama_oracle(pred, gt), rel=1e-12)

    def test_error_names_the_first_frame_at_fault(self):
        rng = np.random.default_rng(12)
        gt = rng.normal(size=(30, 17, 3))
        pred = rng.normal(size=(30, 17, 3))
        gt[17] = np.outer(np.arange(17.0), [1.0, 2.0, 3.0])   # collinear target
        pred[23] = 1.0                                        # coincident source
        with pytest.raises(DegeneracyError, match=r"^frame 17: target cloud is rank-deficient"):
            mpjpe_p2(pred, gt)
        gt[17] = rng.normal(size=(17, 3))
        with pytest.raises(DegeneracyError, match=r"^frame 23: source cloud is a single point"):
            mpjpe_p2(pred, gt)

    def test_frame_failing_both_checks_names_the_rank_check(self):
        pred = np.ones((2, 5, 3))
        gt = np.zeros((2, 5, 3))
        with pytest.raises(DegeneracyError, match=r"^frame 0: target cloud is rank-deficient"):
            mpjpe_p2(pred, gt)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DimensionError):
            mpjpe_p2(np.zeros((0, 5, 3)), np.zeros((0, 5, 3)))


class TestMpjve:
    def test_constant_velocity_offset_gives_its_norm(self):
        rng = np.random.default_rng(12)
        gt = rng.normal(size=(6, 5, 3))
        drift = np.array([3.0, 4.0, 12.0])                # norm 13 per frame
        pred = gt + np.arange(6.0)[:, None, None] * drift
        assert float(mpjve(pred, gt).data) == pytest.approx(13.0, rel=1e-12)

    def test_fewer_than_two_frames_give_zero(self):
        rng = np.random.default_rng(13)
        with pytest.warns(RuntimeWarning, match="two frames"):
            value = mpjve(rng.normal(size=(1, 4, 3)), rng.normal(size=(1, 4, 3)))
        assert float(value.data) == 0.0
