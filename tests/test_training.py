"""Losses, optimizer semantics, synthetic data, and training determinism."""

import warnings

import numpy as np
import pytest

from sasmamba.errors import DimensionError, DomainError, NumericError
from sasmamba.model import ModelConfig, init_model
from sasmamba.tensor import finite_diff_check_leaves, tensor
from sasmamba.training import (ADAM_WEIGHT_DECAY, LossWeights, OptimState,
                               gen_synthetic, lr_at, mpjve, optim_step, project,
                               tc_loss, total_loss, train, wmpjpe,
                               write_trace_csv)


def rand_pose(rng, t=4, v=3):
    return rng.normal(size=(t, v, 3))


class TestWmpjpe:
    def test_zero_for_equal_inputs(self):
        rng = np.random.default_rng(0)
        pose = rand_pose(rng)
        assert float(wmpjpe(pose, pose).data) == 0.0

    def test_weighted_single_joint(self):
        pred = np.array([[[3.0, 4.0, 0.0]]])
        gt = np.zeros((1, 1, 3))
        # 2 * ||(3,4,0)|| = 2 * 5
        assert float(wmpjpe(pred, gt, np.array([2.0])).data) == pytest.approx(10.0)

    def test_unit_weights_equal_unweighted(self):
        rng = np.random.default_rng(1)
        pred, gt = rand_pose(rng), rand_pose(rng)
        a = float(wmpjpe(pred, gt).data)
        b = float(wmpjpe(pred, gt, np.ones(3)).data)
        assert a == pytest.approx(b)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        pred, gt = rand_pose(rng), rand_pose(rng)
        shift = rng.normal(size=3)
        a = float(wmpjpe(pred, gt).data)
        b = float(wmpjpe(pred + shift, gt + shift).data)
        assert a == pytest.approx(b, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            wmpjpe(np.zeros((2, 3, 3)), np.zeros((2, 4, 3)))


class TestTcLoss:
    def test_constant_sequence_is_zero(self):
        pose = np.broadcast_to(np.arange(9.0).reshape(1, 3, 3), (5, 3, 3)).copy()
        assert float(tc_loss(pose).data) == 0.0

    def test_single_step(self):
        pred = np.zeros((2, 1, 3))
        pred[1, 0] = [1.0, 0.0, 0.0]
        assert float(tc_loss(pred).data) == pytest.approx(1.0)

    def test_global_offset_invariance(self):
        rng = np.random.default_rng(3)
        pose = rand_pose(rng)
        assert float(tc_loss(pose).data) == pytest.approx(
            float(tc_loss(pose + np.array([5.0, -2.0, 1.0])).data), rel=1e-6)

    def test_short_sequence_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning):
            out = tc_loss(np.zeros((1, 2, 3)))
        assert float(out.data) == 0.0


class TestMpjve:
    def test_constant_offset_has_zero_velocity_error(self):
        rng = np.random.default_rng(4)
        gt = rand_pose(rng)
        assert float(mpjve(gt + 0.37, gt).data) == pytest.approx(0.0, abs=1e-7)

    def test_both_static_is_zero(self):
        a = np.broadcast_to(np.arange(3.0), (4, 1, 3)).copy()
        b = a + 2.0
        assert float(mpjve(a, b).data) == 0.0

    def test_single_step_velocity(self):
        pred = np.zeros((2, 1, 3))
        pred[1, 0] = [1.0, 0.0, 0.0]
        gt = np.zeros((2, 1, 3))
        assert float(mpjve(pred, gt).data) == pytest.approx(1.0)


class TestTotalLoss:
    def test_zero_when_equal_and_static(self):
        gt = np.broadcast_to(np.arange(9.0).reshape(1, 3, 3), (4, 3, 3)).copy()
        assert float(total_loss(gt, gt).data) == 0.0

    def test_identity_prediction_leaves_only_smoothness(self):
        rng = np.random.default_rng(5)
        gt = rand_pose(rng)
        w = LossWeights()
        expect = w.lambda_t * float(tc_loss(gt).data)
        assert float(total_loss(gt, gt, w).data) == pytest.approx(expect, rel=1e-6)

    def test_zero_lambdas_reduce_to_wmpjpe(self):
        rng = np.random.default_rng(6)
        pred, gt = rand_pose(rng), rand_pose(rng)
        w = LossWeights(lambda_t=0.0, lambda_m=0.0)
        assert float(total_loss(pred, gt, w).data) == pytest.approx(
            float(wmpjpe(pred, gt).data), rel=1e-7)

    def test_default_mixing_weights(self):
        rng = np.random.default_rng(7)
        pred, gt = rand_pose(rng), rand_pose(rng)
        a = float(wmpjpe(pred, gt).data)
        b = float(tc_loss(pred).data)
        c = float(mpjve(pred, gt).data)
        assert float(total_loss(pred, gt).data) == pytest.approx(
            a + 0.5 * b + 20.0 * c, rel=1e-6)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            pred, gt = rand_pose(rng), rand_pose(rng)
            assert float(total_loss(pred, gt).data) >= 0.0

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(9)
        pred = tensor(rand_pose(rng), requires_grad=True, dtype=np.float64)
        gt = tensor(rand_pose(rng), dtype=np.float64)
        err = finite_diff_check_leaves(lambda: total_loss(pred, gt), [pred])
        assert err < 1e-5


class TestOptim:
    def _model(self):
        return init_model(ModelConfig(L=1, D=8, T=4, V=3, K=1, N=2), seed=0)

    def test_zero_grad_with_decay_shrinks_weights(self):
        m = self._model()
        before = {n: t.data.copy() for n, t in m.named_params()}
        lr = 0.1
        optim_step(m, OptimState(), lr=lr)
        for n, t in m.named_params():
            np.testing.assert_allclose(t.data, before[n] * (1.0 - lr * ADAM_WEIGHT_DECAY),
                                       rtol=1e-6)

    def test_first_step_closed_form(self):
        m = self._model()
        name = "head.bias"
        t = m.params[name]
        t.data[:] = 0.0
        t.grad = np.ones_like(t.data)
        lr = 0.05
        optim_step(m, OptimState(), lr=lr)
        # bias-corrected first step with g=1: update = 1 / (1 + eps); the
        # decay scales the zero weights to zero
        np.testing.assert_allclose(t.data, -lr / (1.0 + 1e-8) * np.ones_like(t.data),
                                   rtol=1e-6)

    def test_non_finite_gradient_rejected(self):
        m = self._model()
        m.params["head.bias"].grad = np.array([np.nan, 0.0, 0.0], dtype=np.float32)
        with pytest.raises(NumericError, match="head.bias"):
            optim_step(m, OptimState(), lr=1e-3)

    def test_non_finite_gradient_names_the_stream(self):
        # the scan fields stack the four streams; row 2 is spatial_forward
        m = self._model()
        t = m.params["blocks.0.sas.scan.dt_bias"]
        t.grad = np.zeros_like(t.data)
        t.grad[2, 1] = np.inf
        with pytest.raises(NumericError, match=r"'blocks\.0\.sas\.spatial_forward\.dt_bias'"):
            optim_step(m, OptimState(), lr=1e-3)

    def test_non_finite_gradient_names_the_gated_stream(self):
        # the gates stack like the scan fields; row 1 is temporal_backward
        m = init_model(ModelConfig(L=1, D=8, T=4, V=3, K=1, N=2, gated_streams=True), seed=0)
        t = m.params["blocks.0.sas.gate.weight"]
        t.grad = np.zeros_like(t.data)
        t.grad[1, 2, 3] = np.nan
        with pytest.raises(NumericError,
                           match=r"'blocks\.0\.sas\.temporal_backward\.gate\.weight'"):
            optim_step(m, OptimState(), lr=1e-3)

    @pytest.mark.parametrize("field", ["lr", "decay_factor"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_rate_and_decay_must_be_finite_and_positive(self, field, value):
        with pytest.raises(DomainError, match=field):
            OptimState(**{field: value})


class TestLrSchedule:
    def test_epoch_zero(self):
        assert lr_at(0, 5e-4, 0.99) == pytest.approx(5e-4)

    def test_one_decay(self):
        assert lr_at(1, 5e-4, 0.99) == pytest.approx(4.95e-4)

    def test_constant_factor(self):
        assert lr_at(17, 3e-4, 1.0) == pytest.approx(3e-4)

    def test_negative_epoch(self):
        with pytest.raises(DomainError):
            lr_at(-1, 1e-3, 0.99)


class TestSynthetic:
    def test_projection_consistency_without_noise(self):
        ds = gen_synthetic(seed=3, n_seqs=2, frames=9, joints=5)
        for kp2d, pose3d in ds.pairs:
            np.testing.assert_array_equal(kp2d, project(pose3d, ds.camera))

    def test_deterministic_per_seed(self):
        a = gen_synthetic(seed=9, n_seqs=2, frames=6, joints=4)
        b = gen_synthetic(seed=9, n_seqs=2, frames=6, joints=4)
        for (k1, p1), (k2, p2) in zip(a.pairs, b.pairs):
            assert k1.tobytes() == k2.tobytes()
            assert p1.tobytes() == p2.tobytes()

    def test_noise_moves_only_the_2d(self):
        # the noise has a generator of its own, so drawing it moves no later
        # sequence's 3D poses
        clean = gen_synthetic(seed=4, n_seqs=3, frames=6, joints=4)
        noisy = gen_synthetic(seed=4, n_seqs=3, frames=6, joints=4, noise_sigma=0.01)
        for (k_clean, p_clean), (k_noisy, p_noisy) in zip(clean.pairs, noisy.pairs):
            assert p_clean.tobytes() == p_noisy.tobytes()
            assert 0 < np.abs(k_noisy - k_clean).max() < 0.1

    def test_root_centering(self):
        ds = gen_synthetic(seed=5, n_seqs=1, frames=6, joints=5)
        _, pose3d = ds.pairs[0]
        np.testing.assert_array_equal(pose3d[:, 0], np.zeros((6, 3)))

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_synthetic(seed=0, n_seqs=0, frames=3, joints=2)
        with pytest.raises(DomainError, match="seed"):
            gen_synthetic(seed=-1, n_seqs=1, frames=3, joints=2)
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError, match="noise"):
                gen_synthetic(seed=0, n_seqs=1, frames=3, joints=2, noise_sigma=sigma)


class TestTrain:
    def _setup(self):
        cfg = ModelConfig(L=1, D=8, T=6, V=4, K=1, N=2)
        model = init_model(cfg, seed=1)
        ds = gen_synthetic(seed=2, n_seqs=3, frames=6, joints=4)
        return model, ds

    def test_zero_epochs_changes_nothing(self):
        model, ds = self._setup()
        before = {n: t.data.copy() for n, t in model.named_params()}
        trace = train(model, ds, epochs=0, batch=2)
        assert trace == []
        for n, t in model.named_params():
            np.testing.assert_array_equal(t.data, before[n])

    def test_bit_identical_traces_for_same_seeds(self):
        model1, ds = self._setup()
        t1 = train(model1, ds, epochs=3, batch=2, shuffle_seed=5)
        model2, _ = self._setup()
        t2 = train(model2, ds, epochs=3, batch=2, shuffle_seed=5)
        assert t1 == t2
        for (n1, a), (_, b) in zip(model1.named_params(), model2.named_params()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_trace_csv_roundtrip(self, tmp_path):
        model, ds = self._setup()
        trace = train(model, ds, epochs=2, batch=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "epoch,lr,total,wmpjpe,tcloss,mpjve"
        assert len(rows) == 3

    def test_empty_dataset_rejected(self):
        model, ds = self._setup()
        ds.pairs.clear()
        with pytest.raises(DomainError):
            train(model, ds, epochs=1, batch=1)

    def test_negative_shuffle_seed_rejected(self):
        model, ds = self._setup()
        with pytest.raises(DomainError, match="shuffle_seed"):
            train(model, ds, epochs=1, batch=1, shuffle_seed=-1)

    def test_single_frame_data_trains_without_warning(self):
        # the motion terms need two frames; the objective leaves them out
        # quietly, as total_loss does, and the trace reads 0 for them
        model, _ = self._setup()
        ds = gen_synthetic(seed=2, n_seqs=2, frames=1, joints=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = train(model, ds, epochs=1, batch=2)
        assert trace[0]["tcloss"] == trace[0]["mpjve"] == 0.0
        assert trace[0]["total"] == trace[0]["wmpjpe"]
