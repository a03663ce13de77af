"""Numerics core: op semantics, boundary behavior, and adjoint correctness."""

import numpy as np
import pytest

import sasmamba.tensor as tz
from conftest import bilinear_by_corners, conv3x3_by_definition
from sasmamba.checks import _op_inputs
from sasmamba.errors import (DimensionError, DomainError, GraphConsumedError,
                             NumericError, UnsupportedOpError)
from sasmamba.tensor import (Conv3x3Params, DepthwiseConv3x3Params,
                             LinearParams, NormParams, bilinear_gather,
                             bilinear_weights, checked_mode, depthwise_conv3x3,
                             finite_diff_check, grid_conv3x3, layer_norm, linear,
                             registered_ops, resolve_op, tensor)


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
        y = bilinear_gather(x, t64(1.0), t64(2.0))
        np.testing.assert_array_equal(y.data, x.data[1, 2])

    def test_cell_center_averages_corners(self):
        x = np.zeros((2, 2, 1))
        x[0, 0], x[0, 1], x[1, 0], x[1, 1] = 1.0, 2.0, 3.0, 4.0
        y = bilinear_gather(t64(x), t64(0.5), t64(0.5))
        np.testing.assert_allclose(y.data, [(1.0 + 2.0 + 3.0 + 4.0) / 4])

    def test_clamp_to_edge(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(3, 4, 2)))
        y = bilinear_gather(x, t64(-3.7), t64(0.0))
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
        # outside checked mode too: a NaN would become a negative sparse index
        x = t64(np.zeros((2, 2, 1)))
        for bad in (np.nan, np.inf, -np.inf):
            for pos in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(NumericError, match="sampling positions"):
                    bilinear_gather(x, t64(pos[0]), t64(pos[1]))
                with pytest.raises(NumericError, match="sampling positions"):
                    bilinear_gather(x, t64([0.5, pos[0]]), t64([0.5, pos[1]]))

    def test_stacked_taps_match_four_corner_reference(self):
        # (K*K, T, V) positions: a 3x3 tap grid around every cell, perturbed,
        # with a block past each edge and a block on exact grid lines
        rng = np.random.default_rng(10)
        t_n, v_n, c = 5, 4, 3
        x = rng.normal(size=(t_n, v_n, c))
        taps = np.arange(-1, 2)
        pt = (np.arange(t_n)[None, :, None] + np.repeat(taps, 3)[:, None, None]
              + rng.uniform(-0.45, 0.45, size=(9, t_n, v_n)))
        pv = (np.arange(v_n)[None, None, :] + np.tile(taps, 3)[:, None, None]
              + rng.uniform(-0.45, 0.45, size=(9, t_n, v_n)))
        pt[0], pv[1] = pt[0] - 7.5, pv[1] - 6.5        # far below 0
        pt[2], pv[3] = pt[2] + 8.5, pv[3] + 5.5        # far past the last row
        pt[4] = np.round(pt[4])                        # on 0, T-1 and inner lines
        pv[4] = np.round(pv[4])
        pt[5], pv[5] = np.zeros((t_n, v_n)), np.full((t_n, v_n), v_n - 1.0)
        pt[6], pv[6] = np.full((t_n, v_n), t_n - 1.0), np.zeros((t_n, v_n))
        g = rng.normal(size=(9, t_n, v_n, c))
        xt, ptt, pvt = t64(x, grad=True), t64(pt, grad=True), t64(pv, grad=True)
        y = bilinear_gather(xt, ptt, pvt)
        y.backward(g)

        ref = np.empty((9, t_n, v_n, c))
        ref_dx = np.zeros_like(x)
        ref_dt, ref_dv = np.zeros_like(pt), np.zeros_like(pv)
        for i in np.ndindex(pt.shape):
            t, v = pt[i], pv[i]
            ref[i] = bilinear_by_corners(x, t, v)
            for dt, dv in ((0, 0), (0, 1), (1, 0), (1, 1)):
                tc, vc = min(max(t, 0.0), t_n - 1.0), min(max(v, 0.0), v_n - 1.0)
                t0, v0 = int(np.floor(tc)), int(np.floor(vc))
                wt = (tc - t0) if dt else 1.0 - (tc - t0)
                wv = (vc - v0) if dv else 1.0 - (vc - v0)
                ref_dx[min(t0 + dt, t_n - 1), min(v0 + dv, v_n - 1)] += wt * wv * g[i]
            if 0.0 < t < t_n - 1.0:
                ref_dt[i] = (bilinear_by_corners(x, np.floor(t) + 1.0, v)
                             - bilinear_by_corners(x, np.floor(t), v)) @ g[i]
            if 0.0 < v < v_n - 1.0:
                ref_dv[i] = (bilinear_by_corners(x, t, np.floor(v) + 1.0)
                             - bilinear_by_corners(x, t, np.floor(v))) @ g[i]
        assert y.shape == (9, t_n, v_n, c)
        np.testing.assert_allclose(y.data, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(xt.grad, ref_dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ptt.grad, ref_dt, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(pvt.grad, ref_dv, rtol=1e-12, atol=1e-12)
        # clamped and exact-edge positions have zero slope
        assert not ptt.grad[(pt <= 0.0) | (pt >= t_n - 1.0)].any()
        assert not pvt.grad[(pv <= 0.0) | (pv >= v_n - 1.0)].any()
        assert ((pt <= 0.0) | (pt >= t_n - 1.0)).sum() >= 2 * t_n * v_n


class TestScatterRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_duplicate_rows_match_add_at(self, dtype):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 6, size=40)          # every row several times
        vals = rng.normal(size=(40, 3)).astype(dtype)
        dst = rng.normal(size=(7, 3)).astype(dtype)
        ref = dst.astype(np.float64)
        np.add.at(ref, rows, vals.astype(np.float64))
        tz.scatter_rows(dst, rows, vals)
        assert dst.dtype == dtype
        tol = 1e-5 if dtype == np.float32 else 1e-13
        np.testing.assert_allclose(dst, ref, rtol=tol, atol=tol)
        np.testing.assert_array_equal(dst[6], ref[6].astype(dtype))


# the function each registered op runs, where its registry key differs
OP_FUNCTION = {"neighbor_mix": "NeighborMixParams.apply", "reshape_flat": "reshape"}


class TestCheckedMode:
    @pytest.mark.parametrize("name", registered_ops())
    def test_rejects_nan_inside_block(self, name):
        inputs = _op_inputs(name, np.random.default_rng(0))
        inputs[0].data.fill(np.nan)
        op = resolve_op(name)
        op(*inputs)
        with checked_mode():
            with pytest.raises(NumericError) as info:
                op(*inputs)
        assert OP_FUNCTION.get(name, name) in str(info.value)

    def test_names_the_op_that_overflows(self):
        big = tensor(np.full(3, 1e30, dtype=np.float32))
        with np.errstate(over="ignore"), checked_mode():
            with pytest.raises(NumericError, match="output of 'scale'"):
                tz.scale(big, 1e10)

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

    def test_first_accumulation_broadcasts_casts_and_copies(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=4)                           # float64 row
        t = tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        t.accumulate_grad(g)
        ref = np.zeros((3, 4), dtype=np.float32)
        ref += g
        assert t.grad.dtype == np.float32 and t.grad.shape == (3, 4)
        assert t.grad.tobytes() == ref.tobytes()
        # same shape and dtype: still a copy, not the caller's array
        g32 = rng.normal(size=(3, 4)).astype(np.float32)
        u = tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        u.accumulate_grad(g32)
        assert not np.shares_memory(u.grad, g32)
        first = g32.copy()
        g32 += 1.0
        np.testing.assert_array_equal(u.grad, first)
        # later accumulations add in place
        u.accumulate_grad(g32)
        np.testing.assert_array_equal(u.grad, first + g32)
        # a transposed gradient is stored row-major, like the data
        v = tensor(np.zeros((3, 4)), requires_grad=True)
        v.accumulate_grad(g32.T.copy().T)
        assert v.grad.flags.c_contiguous and v.grad.dtype == np.float64
        np.testing.assert_array_equal(v.grad, g32)

    def test_second_backward_raises(self):
        x = t64([2.0, 3.0], grad=True)
        y = tz.sum_all(tz.mul(x, x))
        y.backward()
        with pytest.raises(GraphConsumedError, match="forward again"):
            y.backward()
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])

    def test_backward_through_a_consumed_node_raises(self):
        x = t64([2.0, 3.0], grad=True)
        sq = tz.mul(x, x)
        tz.sum_all(sq).backward()
        assert sq.grad is None and sq._parents == ()
        with pytest.raises(GraphConsumedError):
            tz.sum_all(tz.scale(sq, 2.0)).backward()
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])

    @pytest.mark.parametrize("conv", ["grid", "depthwise"])
    def test_conv_adjoint_keeps_no_neighbourhood(self, conv):
        # the (T*V, 9, C) gather is nine times x; the adjoint rebuilds it
        rng = np.random.default_rng(13)
        x = t64(rng.normal(size=(12, 10, 16)), grad=True)
        if conv == "grid":
            y = grid_conv3x3(x, Conv3x3Params(t64(rng.normal(size=(8, 16, 3, 3)), True),
                                              t64(rng.normal(size=8), True)))
        else:
            y = depthwise_conv3x3(x, DepthwiseConv3x3Params(
                t64(rng.normal(size=(16, 3, 3)), True), t64(rng.normal(size=16), True)))
        kept = [c.cell_contents for c in y._backward.__closure__]
        arrays = [k.data if isinstance(k, tz.Tensor) else k for k in kept]
        sizes = [a.nbytes for a in arrays if isinstance(a, np.ndarray)]
        assert sizes and max(sizes) <= 2 * x.data.nbytes


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
            "bilinear_gather",
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
                   "slice0", "slice_last"):
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
