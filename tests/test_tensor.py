"""Numerics core: op semantics, boundary behavior, and adjoint correctness."""

import numpy as np
import pytest

import sasmamba.tensor as tz
from sasmamba.errors import (DimensionError, DomainError, NumericError,
                             UnsupportedOpError)
from sasmamba.tensor import (Conv3x3Params, DepthwiseConv3x3Params,
                             LinearParams, NormParams, bilinear_gather,
                             bilinear_sample, bilinear_weights, checked_mode,
                             depthwise_conv3x3, finite_diff_check, grid_conv3x3,
                             layer_norm, linear, tensor)


def t64(a, grad=False):
    return tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


class TestLinear:
    def test_identity_map(self):
        y = linear(t64([1.0, 2.0]), LinearParams(t64(np.eye(2)), t64([0.0, 0.0])))
        np.testing.assert_allclose(y.data, [1.0, 2.0])

    def test_zero_input_returns_bias(self):
        p = LinearParams(t64([[5.0, -2.0], [0.3, 9.0]]), t64([3.0, -1.0]))
        y = linear(t64([0.0, 0.0]), p)
        np.testing.assert_allclose(y.data, [3.0, -1.0])

    def test_hand_matrix_multiply(self):
        # y_o = sum_i W[o, i] x_i + b_o with x=[1,2], W=[[1,1],[2,-1]], b=[0,1]
        p = LinearParams(t64([[1.0, 1.0], [2.0, -1.0]]), t64([0.0, 1.0]))
        y = linear(t64([1.0, 2.0]), p)
        np.testing.assert_allclose(y.data, [3.0, 1.0])

    def test_shape_mismatch_names_both_shapes(self):
        p = LinearParams(t64(np.zeros((2, 3))), None)
        with pytest.raises(DimensionError, match=r"\(2,\).*\(2, 3\)"):
            linear(t64([1.0, 2.0]), p)

    def test_bias_length_invariant(self):
        with pytest.raises(DimensionError):
            LinearParams(t64(np.zeros((2, 3))), t64(np.zeros(3)))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.normal(size=(4, 3)).astype(np.float32))
        p = LinearParams(tensor(rng.normal(size=(5, 3)).astype(np.float32)),
                         tensor(rng.normal(size=5).astype(np.float32)))
        a = linear(x, p).data
        b = linear(x, p).data
        assert np.array_equal(a, b)


class TestLayerNorm:
    def test_constant_slice_normalizes_to_zero(self):
        p = NormParams(t64([1.0, 1.0, 1.0]), t64([0.0, 0.0, 0.0]))
        y = layer_norm(t64([5.0, 5.0, 5.0]), p)
        np.testing.assert_allclose(y.data, [0.0, 0.0, 0.0], atol=1e-12)

    def test_two_point_slice(self):
        p = NormParams(t64([1.0, 1.0]), t64([0.0, 0.0]), epsilon=1e-12)
        y = layer_norm(t64([1.0, 3.0]), p)
        np.testing.assert_allclose(y.data, [-1.0, 1.0], atol=1e-6)

    def test_zero_scale_returns_shift(self):
        p = NormParams(t64([0.0, 0.0]), t64([7.0, 7.0]))
        y = layer_norm(t64([1.0, 3.0]), p)
        np.testing.assert_allclose(y.data, [7.0, 7.0])

    def test_empty_feature_axis_rejected(self):
        p = NormParams(t64(np.ones(1)), t64(np.zeros(1)))
        with pytest.raises(DimensionError):
            layer_norm(tensor(np.zeros((3, 0))), p)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(DomainError):
            NormParams(t64([1.0]), t64([0.0]), epsilon=0.0)


class TestBilinear:
    def test_integer_position_is_gather(self):
        rng = np.random.default_rng(1)
        x = t64(rng.normal(size=(4, 5, 3)))
        y = bilinear_sample(x, (1.0, 2.0))
        np.testing.assert_array_equal(y.data, x.data[1, 2])

    def test_cell_center_averages_corners(self):
        x = np.zeros((2, 2, 1))
        x[0, 0], x[0, 1], x[1, 0], x[1, 1] = 1.0, 2.0, 3.0, 4.0
        y = bilinear_sample(t64(x), (0.5, 0.5))
        np.testing.assert_allclose(y.data, [(1.0 + 2.0 + 3.0 + 4.0) / 4])

    def test_clamp_to_edge(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(3, 4, 2)))
        y = bilinear_sample(x, (-3.7, 0.0))
        np.testing.assert_allclose(y.data, x.data[0, 0])

    def test_weights_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(3)
        pt = rng.uniform(-5, 10, size=200)
        pv = rng.uniform(-5, 10, size=200)
        _, ws, _ = bilinear_weights(pt, pv, 6, 7)
        total = sum(ws)
        np.testing.assert_allclose(total, np.ones_like(total), atol=1e-12)
        for w in ws:
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_reproduces_affine_functions_exactly(self):
        t_n, v_n = 6, 5
        tt, vv = np.meshgrid(np.arange(t_n), np.arange(v_n), indexing="ij")
        x = (0.7 * tt - 1.3 * vv + 0.25)[..., None]
        rng = np.random.default_rng(4)
        pts = tensor(rng.uniform(0.0, t_n - 1.0, size=50))
        pvs = tensor(rng.uniform(0.0, v_n - 1.0, size=50))
        y = bilinear_gather(t64(x), pts, pvs)
        expected = 0.7 * pts.data - 1.3 * pvs.data + 0.25
        np.testing.assert_allclose(y.data[:, 0], expected, atol=1e-6)

    def test_non_finite_position_rejected(self):
        x = t64(np.zeros((2, 2, 1)))
        with pytest.raises(NumericError):
            bilinear_sample(x, (float("nan"), 0.0))


class TestCheckedMode:
    def test_rejects_nan_inside_block(self):
        bad = tensor(np.array([np.nan, 1.0]))
        with checked_mode():
            with pytest.raises(NumericError):
                tz.add(bad, tensor(np.zeros(2)))

    def test_no_validation_outside_block(self):
        bad = tensor(np.array([np.nan, 1.0]))
        out = tz.add(bad, tensor(np.zeros(2)))
        assert np.isnan(out.data[0])


class TestTape:
    def test_grad_accumulates_over_reuse(self):
        x = t64([2.0], grad=True)
        y = tz.mul(x, x)  # x^2: dy/dx = 2x = 4
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_broadcast_add_reduces_grad(self):
        a = t64(np.zeros((3, 4)), grad=True)
        b = t64(np.zeros(4), grad=True)
        tz.sum_all(tz.add(a, b)).backward()
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))


class TestFiniteDiffCheck:
    def test_eps_domain(self):
        with pytest.raises(DomainError):
            finite_diff_check("add", [t64([1.0]), t64([1.0])], eps=0.5)

    def test_unregistered_op(self):
        with pytest.raises(UnsupportedOpError):
            finite_diff_check("no_such_op", [t64([1.0])])

    def test_linear_tight(self):
        rng = np.random.default_rng(5)
        err = finite_diff_check(
            "linear",
            [t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(2, 4))),
             t64(rng.normal(size=2))],
            eps=1e-5)
        assert err < 1e-6

    def test_layer_norm(self):
        rng = np.random.default_rng(6)
        err = finite_diff_check(
            "layer_norm",
            [t64(rng.normal(size=(3, 5))), t64(rng.normal(size=5)),
             t64(rng.normal(size=5))],
            eps=1e-5)
        assert err < 1e-5

    def test_bilinear_interior(self):
        rng = np.random.default_rng(7)
        err = finite_diff_check(
            "bilinear_sample",
            [t64(rng.normal(size=(5, 6, 3))),
             t64(rng.uniform(0.6, 3.4, size=8)),
             t64(rng.uniform(0.6, 4.4, size=8))],
            eps=1e-5)
        assert err < 1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_registered_elementwise_ops(self, seed):
        rng = np.random.default_rng(seed)
        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(3, 4)))
        for op in ("add", "sub", "mul", "concat_last"):
            assert finite_diff_check(op, [a, b]) < 1e-4
        for op in ("gelu", "silu", "sum_all", "sum_last", "reshape_flat",
                   "transpose01", "reverse0", "slice0", "slice_last"):
            assert finite_diff_check(op, [a]) < 1e-4
        pos = t64(rng.uniform(0.4, 2.2, size=(3, 4)))
        assert finite_diff_check("sqrt", [pos]) < 1e-4

    def test_conv_ops(self):
        rng = np.random.default_rng(8)
        x = t64(rng.normal(size=(4, 5, 3)))
        w = t64(rng.normal(size=(2, 3, 3, 3)))
        b = t64(rng.normal(size=2))
        assert finite_diff_check("grid_conv3x3", [x, w, b]) < 1e-5
        wd = t64(rng.normal(size=(3, 3, 3)))
        bd = t64(rng.normal(size=3))
        assert finite_diff_check("depthwise_conv3x3", [x, wd, bd]) < 1e-5


def conv3x3_by_definition(x, weight, depthwise):
    """Per-position sum over the clamp-to-edge 3x3 neighbourhood."""
    t_n, v_n, _ = x.shape
    out = np.zeros((t_n, v_n, weight.shape[0]))
    for t in range(t_n):
        for v in range(v_n):
            for i in range(3):
                for j in range(3):
                    xs = x[min(max(t + i - 1, 0), t_n - 1), min(max(v + j - 1, 0), v_n - 1)]
                    out[t, v] += weight[:, i, j] * xs if depthwise else weight[:, :, i, j] @ xs
    return out


class TestGridConv:
    @pytest.mark.parametrize("shape", [(1, 1, 2), (1, 5, 3), (4, 1, 2), (4, 6, 3)])
    def test_convs_match_definition(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        w = rng.normal(size=(2, shape[2], 3, 3))
        wd = rng.normal(size=(shape[2], 3, 3))
        y = grid_conv3x3(t64(x), Conv3x3Params(t64(w), None))
        np.testing.assert_allclose(y.data, conv3x3_by_definition(x, w, False),
                                   rtol=1e-12, atol=1e-12)
        y = depthwise_conv3x3(t64(x), DepthwiseConv3x3Params(t64(wd), None))
        np.testing.assert_allclose(y.data, conv3x3_by_definition(x, wd, True),
                                   rtol=1e-12, atol=1e-12)

    def test_channel_mismatch(self):
        p = Conv3x3Params(t64(np.zeros((2, 4, 3, 3))), None)
        with pytest.raises(DimensionError):
            grid_conv3x3(t64(np.zeros((3, 3, 3))), p)

    def test_depthwise_identity_kernel(self):
        rng = np.random.default_rng(9)
        x = t64(rng.normal(size=(4, 4, 2)))
        w = np.zeros((2, 3, 3))
        w[:, 1, 1] = 1.0
        y = depthwise_conv3x3(x, DepthwiseConv3x3Params(t64(w), None))
        np.testing.assert_allclose(y.data, x.data, atol=1e-12)
