"""Numerics core: op semantics, boundary behavior, and adjoint correctness."""

import ast
import inspect

import numpy as np
import pytest

import sasmamba.sas as sas
import sasmamba.ssm as ssm
import sasmamba.tensor as tz
from conftest import (bilinear_by_corners, captured_bases, conv3x3_by_definition,
                      identity_tap, stack_taps, traced_peak)
from sasmamba.checks import OPS
from sasmamba.errors import (DimensionError, DomainError, GraphConsumedError,
                             NumericError)
from sasmamba.tensor import (LAYER_NORM_EPS, MLP_ROW_BLOCK, Conv3x3Params,
                             LinearParams, NormParams, bilinear_gather, bilinear_vjp,
                             bilinear_weights, checked_mode, depthwise_conv3x3,
                             finite_diff_check_leaves, gelu, grid_conv3x3,
                             layer_norm, layer_norm_mlp, linear, tensor)


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
        p = LinearParams(t64(np.zeros((2, 3))), t64(np.zeros(2)))
        with pytest.raises(DimensionError, match=r"\(2,\).*\(2, 3\)"):
            linear(t64([1.0, 2.0]), p)

    def test_bias_length_invariant(self):
        # one bias entry per output row of a linear, per output channel of a
        # conv; a bias that would broadcast is refused when the record is built
        cases = [(LinearParams, (2, 3), (3,)), (LinearParams, (4, 2, 3), (2, 4)),
                 (Conv3x3Params, (2, 4, 3, 3), (1,)), (Conv3x3Params, (2, 4, 3, 3), (4,)),
                 (Conv3x3Params, (4, 3, 3), (1,)), (Conv3x3Params, (4, 3, 3), ())]
        for record, weight, bias in cases:
            with pytest.raises(DimensionError):
                record(t64(np.zeros(weight)), t64(np.zeros(bias)))

    def test_stacked_weight_is_side_by_side_linears(self):
        # an (S, out, in) weight maps x with each of its S maps; the outputs
        # keep the stacked axis, map s at [..., s, :]
        rng = np.random.default_rng(3)
        s_n, out, inp = 3, 2, 4
        x = t64(rng.normal(size=(5, 2, inp)), grad=True)
        w = t64(rng.normal(size=(s_n, out, inp)), grad=True)
        b = t64(rng.normal(size=(s_n, out)), grad=True)
        y = linear(x, LinearParams(w, b))
        assert y.shape == (5, 2, s_n, out)
        for s in range(s_n):
            one = linear(x, LinearParams(t64(w.data[s]), t64(b.data[s])))
            np.testing.assert_allclose(y.data[..., s, :], one.data,
                                       rtol=1e-13, atol=1e-13)
        err = tz.finite_diff_check_leaves(lambda: linear(x, LinearParams(w, b)), [x, w, b])
        assert err < 1e-8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_of_a_grid_are_one_flat_product(self, dtype):
        # a (T, V, in) input is its (T*V, in) rows in both passes, bit for
        # bit: numpy would run the 3-D product as T products of (V, in),
        # which at the MLP's second map gives other bits
        rng = np.random.default_rng(4)
        x = rng.normal(size=(27, 17, 256)).astype(dtype)
        w, b = (rng.normal(size=(64, 256)) * 0.1).astype(dtype), rng.normal(size=64).astype(dtype)
        g = rng.normal(size=(27 * 17, 64)).astype(dtype)
        passes = []
        for rows in (x, x.reshape(-1, 256)):
            leaves = [tensor(a, True) for a in (rows, w, b)]
            y = linear(leaves[0], LinearParams(*leaves[1:]))
            y.backward(g.reshape(y.shape))
            passes.append([y.data.reshape(g.shape), leaves[0].grad.reshape(x.shape)]
                          + [t.grad for t in leaves[1:]])
        assert passes[0][0].tobytes() == (x.reshape(-1, 256) @ w.T + b).tobytes()
        assert [a.tobytes() for a in passes[0]] == [a.tobytes() for a in passes[1]]

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.normal(size=(4, 3)).astype(np.float32))
        p = LinearParams(tensor(rng.normal(size=(5, 3)).astype(np.float32)),
                         tensor(rng.normal(size=5).astype(np.float32)))
        a = linear(x, p).data
        b = linear(x, p).data
        assert np.array_equal(a, b)


class TestGelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_steps_keep_the_expressions_bits(self, dtype):
        from scipy.special import erf
        d = np.random.default_rng(6).normal(size=(27, 17, 128)).astype(dtype) * 3
        x = tensor(d, requires_grad=True)
        y = gelu(x)
        y.backward(np.ones_like(d))
        # Python floats, so that float32 stays float32
        cdf = 0.5 * (1.0 + erf(d / 2.0 ** 0.5))
        slope = cdf + d * (np.exp(-0.5 * d * d) / (2.0 * np.pi) ** 0.5)
        assert y.data.tobytes() == (d * cdf).tobytes()
        assert x.grad.tobytes() == slope.tobytes()

    def test_forward_holds_its_output_and_slope(self):
        # the CDF's buffer becomes the output and the slope has its own; the
        # expressions written out held four to five x-sized arrays at once
        x = tensor(np.random.default_rng(7).normal(size=(27, 17, 128)), True, np.float32)
        gelu(x)   # scipy.special is imported at first use
        assert traced_peak(lambda: gelu(x)) <= 2.1 * x.data.nbytes
        x.requires_grad = False
        assert traced_peak(lambda: gelu(x)) <= 1.1 * x.data.nbytes


class TestLayerNorm:
    def test_constant_slice_normalizes_to_zero(self):
        p = NormParams(t64([1.0, 1.0, 1.0]), t64([0.0, 0.0, 0.0]))
        y = layer_norm(t64([5.0, 5.0, 5.0]), p)
        np.testing.assert_allclose(y.data, [0.0, 0.0, 0.0], atol=1e-12)

    def test_two_point_slice(self):
        p = NormParams(t64([1.0, 1.0]), t64([0.0, 0.0]))
        y = layer_norm(t64([1.0, 3.0]), p)
        np.testing.assert_allclose(y.data, np.array([-1.0, 1.0]) / np.sqrt(1 + LAYER_NORM_EPS),
                                   atol=1e-6)

    def test_zero_scale_returns_shift(self):
        p = NormParams(t64([0.0, 0.0]), t64([7.0, 7.0]))
        y = layer_norm(t64([1.0, 3.0]), p)
        np.testing.assert_allclose(y.data, [7.0, 7.0])

    def test_empty_feature_axis_rejected(self):
        p = NormParams(t64(np.ones(1)), t64(np.zeros(1)))
        with pytest.raises(DimensionError):
            layer_norm(tensor(np.zeros((3, 0))), p)


class TestLayerNormMlp:
    """Each block's norm2 -> mlp1 -> GELU -> mlp2 as one op."""

    @staticmethod
    def _arrays(rng, grid, c=8, hidden=32):
        """x over a (T, V) grid and the norm's and both maps' parameters."""
        return [rng.normal(size=grid + (c,)), 1.0 + 0.2 * rng.normal(size=c),
                0.2 * rng.normal(size=c), rng.normal(size=(hidden, c)) / 3,
                0.2 * rng.normal(size=hidden), rng.normal(size=(c, hidden)) / 6,
                0.2 * rng.normal(size=c)]

    @staticmethod
    def _call(op, xs):
        x, g, bt, w1, b1, w2, b2 = xs
        return op(x, NormParams(g, bt), LinearParams(w1, b1), LinearParams(w2, b2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # 459 rows, 129 and 10, none a multiple of the block: at C=32, 7 blocks,
    # 2 and one; at C=8, whose blocks are longer so that mlp2's products keep
    # the whole map's kernel, 2 blocks, one and one
    @pytest.mark.parametrize("grid", [(27, 17), (43, 3), (2, 5)])
    @pytest.mark.parametrize("c", [8, 32])
    def test_output_and_gradients_keep_the_four_ops_bits(self, c, grid, dtype):
        rng = np.random.default_rng(21)
        arrays = self._arrays(rng, grid, c, 4 * c)
        seed = rng.normal(size=grid + (arrays[-1].shape[0],)).astype(dtype)

        def run(op):
            xs = [tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            y = self._call(op, xs)
            y.backward(seed)
            return [y.data] + [t.grad for t in xs]

        def apart(x, norm, lin1, lin2):
            return linear(gelu(linear(layer_norm(x, norm), lin1)), lin2)

        fused, reference = run(layer_norm_mlp), run(apart)
        for i, (got, want) in enumerate(zip(fused, reference)):
            assert got.dtype == want.dtype and got.shape == want.shape, i
            assert got.tobytes() == want.tobytes(), i

    def test_without_gradients_no_hidden_array_is_whole(self):
        # at the default layer shape: x̂, the output and a few (block, 4C)
        # temporaries, where one whole (T*V, 4C) array is four x's
        rng = np.random.default_rng(22)
        xs = [tensor(a.astype(np.float32)) for a in self._arrays(rng, (243, 17), 64, 256)]
        self._call(layer_norm_mlp, xs)   # scipy.special is imported at first use
        peak = traced_peak(lambda: self._call(layer_norm_mlp, xs))
        block = MLP_ROW_BLOCK * 256 * 4
        assert peak <= 2 * xs[0].data.nbytes + 5 * block, peak

    def test_the_tape_gives_up_the_cdf_to_the_adjoint(self):
        rng = np.random.default_rng(23)
        xs = [tensor(a, requires_grad=True) for a in self._arrays(rng, (5, 3))]
        y = self._call(layer_norm_mlp, xs)
        hidden = (5, 3, xs[3].shape[0])
        assert [b.shape for b in captured_bases(y._node.backward)
                if b.shape == hidden] == [hidden]
        y._node.backward(np.ones(y.shape))
        assert [b.shape for b in captured_bases(y._node.backward)
                if b.shape == hidden] == []


class TestBilinear:
    def test_integer_position_is_gather(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 3))
        y = bilinear_gather(x, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(y, x[1, 2])

    def test_cell_center_averages_corners(self):
        x = np.zeros((2, 2, 1))
        x[0, 0], x[0, 1], x[1, 0], x[1, 1] = 1.0, 2.0, 3.0, 4.0
        y = bilinear_gather(x, np.array([0.5, 0.5]))
        np.testing.assert_allclose(y, [(1.0 + 2.0 + 3.0 + 4.0) / 4])

    def test_clamp_to_edge(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 2))
        y = bilinear_gather(x, np.array([-3.7, 0.0]))
        np.testing.assert_allclose(y, x[0, 0])

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
        pts = rng.uniform(0.0, t_n - 1.0, size=50)
        pvs = rng.uniform(0.0, v_n - 1.0, size=50)
        y = bilinear_gather(x, np.stack([pts, pvs], axis=-1))
        expected = 0.7 * pts - 1.3 * pvs + 0.25
        np.testing.assert_allclose(y[:, 0], expected, atol=1e-6)

    def test_non_finite_position_rejected(self):
        # outside checked mode too: a NaN would become a negative sparse index
        x = np.zeros((2, 2, 1))
        for bad in (np.nan, np.inf, -np.inf):
            for pos in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(NumericError, match="sampling positions"):
                    bilinear_gather(x, np.array(pos))
                with pytest.raises(NumericError, match="sampling positions"):
                    bilinear_gather(x, np.array([(0.5, 0.5), pos]))

    def test_positions_need_a_last_axis_of_two(self):
        x = np.zeros((2, 2, 1))
        for bad in (np.zeros(3), np.zeros((4, 1)), np.zeros(())):
            with pytest.raises(DimensionError, match="positions"):
                bilinear_gather(x, bad)

    def test_stacked_taps_match_four_corner_reference(self):
        # a 3x3 tap grid around every cell, moved by the cell's perturbed
        # offset: the first row and column far below 0, the last ones far
        # past their edge, and two cells moved by whole numbers, so taps land
        # on 0, T-1, V-1, inner grid lines and past the edges. The sampler's
        # forward, and the gradients of the op that samples and mixes, with
        # identity tap maps, so every tap's samples get g
        rng = np.random.default_rng(10)
        t_n, v_n, c = 5, 4, 3
        x = rng.normal(size=(t_n, v_n, c))
        off = rng.uniform(-0.45, 0.45, size=(t_n, v_n, 2))
        off[0, :, 0] -= 7.5
        off[:, 0, 1] -= 6.5
        off[-1, :, 0] += 8.5
        off[:, -1, 1] += 5.5
        off[1, 1], off[2, 2] = (2.0, -1.0), (-2.0, 1.0)
        taps = np.arange(-1, 2)
        pt = (np.arange(t_n)[None, :, None] + np.repeat(taps, 3)[:, None, None]
              + off[None, ..., 0])
        pv = (np.arange(v_n)[None, None, :] + np.tile(taps, 3)[:, None, None]
              + off[None, ..., 1])
        g = rng.normal(size=(t_n, v_n, c))
        xt, offt = t64(x, grad=True), t64(off, grad=True)
        y = bilinear_gather(x, np.stack([pt, pv], axis=-1))
        mix = stack_taps([identity_tap(c, 3)] * 9)
        out = sas.NeighborMixParams.apply(xt, offt, mix)
        out.backward(g)

        ref = np.empty((9, t_n, v_n, c))
        ref_dx = np.zeros_like(x)
        ref_dt, ref_dv = np.zeros_like(pt), np.zeros_like(pv)
        for i in np.ndindex(pt.shape):
            t, v, gi = pt[i], pv[i], g[i[1:]]
            ref[i] = bilinear_by_corners(x, t, v)
            for dt, dv in ((0, 0), (0, 1), (1, 0), (1, 1)):
                tc, vc = min(max(t, 0.0), t_n - 1.0), min(max(v, 0.0), v_n - 1.0)
                t0, v0 = int(np.floor(tc)), int(np.floor(vc))
                wt = (tc - t0) if dt else 1.0 - (tc - t0)
                wv = (vc - v0) if dv else 1.0 - (vc - v0)
                ref_dx[min(t0 + dt, t_n - 1), min(v0 + dv, v_n - 1)] += wt * wv * gi
            # a tap on row 0 (column 0) takes the right-hand difference while
            # the centre lies strictly inside the grid extended by one
            if 0.0 <= t < t_n - 1.0 and -1.0 < pt[(4,) + i[1:]] < t_n:
                ref_dt[i] = (bilinear_by_corners(x, np.floor(t) + 1.0, v)
                             - bilinear_by_corners(x, np.floor(t), v)) @ gi
            if 0.0 <= v < v_n - 1.0 and -1.0 < pv[(4,) + i[1:]] < v_n:
                ref_dv[i] = (bilinear_by_corners(x, t, np.floor(v) + 1.0)
                             - bilinear_by_corners(x, t, np.floor(v))) @ gi
        assert y.shape == (9, t_n, v_n, c)
        np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.data, ref.sum(axis=0), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(xt.grad, ref_dx, rtol=1e-12, atol=1e-12)
        assert offt.grad.shape == (t_n, v_n, 2)
        np.testing.assert_allclose(offt.grad[..., 0], ref_dt.sum(axis=0), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(offt.grad[..., 1], ref_dv.sum(axis=0), rtol=1e-12, atol=1e-12)
        # clamped and exact-edge positions have zero slope: the rows whose
        # taps all clamp in t, and the columns whose taps all clamp in v
        assert not offt.grad[[0, -1], :, 0].any()
        assert not offt.grad[:, [0, -1], 1].any()
        assert ((pt <= 0.0) | (pt >= t_n - 1.0)).sum() >= 2 * t_n * v_n
        assert {0.0, 1.0, t_n - 1.0} <= set(pt[:, 1, 1]) | set(pt[:, 2, 2])
        assert {-1.0, 0.0, v_n - 1.0} <= set(pv[:, 1, 1]) | set(pv[:, 2, 2])

    def test_vjp_x_cotangent_is_the_corner_matrix_transposed(self):
        # row p of the dense (P, T*V) corner matrix samples the unit maps
        rng = np.random.default_rng(15)
        t_n, v_n, c = 5, 4, 3
        x = rng.normal(size=(t_n * v_n, c))
        pos = rng.uniform(-2.0, 7.0, size=(40, 2))
        pos[:4] = [(0.0, 0.0), (4.0, 3.0), (2.0, 1.5), (-1.0, 9.0)]
        ds = rng.normal(size=(40, c))
        unit = np.eye(t_n * v_n).reshape(t_n, v_n, -1)
        dense = np.stack([bilinear_by_corners(unit, t, v) for t, v in pos])
        dx, _ = bilinear_vjp(x, pos, t_n, v_n)(ds)
        assert dx.shape == x.shape
        np.testing.assert_allclose(dx, dense.T @ ds, rtol=1e-13, atol=1e-13)

    def test_vjp_position_cotangent_matches_central_differences(self):
        # interior positions whose fractional parts keep a step of eps inside
        # their cell, where the sampler is smooth
        rng = np.random.default_rng(16)
        t_n, v_n, c, eps = 5, 4, 3, 1e-6
        x = rng.normal(size=(t_n, v_n, c))
        cells = np.stack([rng.integers(0, t_n - 1, 50), rng.integers(0, v_n - 1, 50)], axis=-1)
        pos = cells + rng.uniform(0.1, 0.9, size=(50, 2))
        ds = rng.normal(size=(50, c))
        _, d_pos = bilinear_vjp(x.reshape(-1, c), pos, t_n, v_n)(ds)
        for axis in (0, 1):
            step = np.zeros(2)
            step[axis] = eps
            numeric = ((bilinear_gather(x, pos + step) - bilinear_gather(x, pos - step))
                       / (2 * eps) * ds).sum(axis=-1)
            np.testing.assert_allclose(d_pos[:, axis], numeric, rtol=1e-7, atol=1e-8)

    def test_vjp_position_cotangent_is_zero_at_and_past_the_edges(self):
        # the clamp is flat there: 0 and T-1 (V-1) themselves, and beyond
        rng = np.random.default_rng(17)
        t_n, v_n, c = 5, 4, 3
        x = rng.normal(size=(t_n * v_n, c))
        edges = [(-3.5, 1.5), (0.0, 1.5), (4.0, 1.5), (6.2, 1.5),
                 (2.5, -0.5), (2.5, 0.0), (2.5, 3.0), (2.5, 8.0)]
        pos = np.array(edges)
        ds = rng.normal(size=(len(pos), c))
        _, d_pos = bilinear_vjp(x, pos, t_n, v_n)(ds)
        assert not d_pos[:4, 0].any() and not d_pos[4:, 1].any()
        # the other coordinate is interior, so its slope is not masked
        assert d_pos[:4, 1].all() and d_pos[4:, 0].all()

    def test_mixing_checks_the_offsets_shape(self):
        rng = np.random.default_rng(11)
        x, off = t64(rng.normal(size=(3, 4, 2))), t64(rng.uniform(-1, 1, size=(3, 4, 2)))
        mix = stack_taps([identity_tap(2, 3)] * 9)
        for bad in (off.data[:2], off.data[..., :1], off.data[None]):
            with pytest.raises(DimensionError, match="offsets"):
                sas.NeighborMixParams.apply(x, t64(bad), mix)


class TestScatterRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_duplicate_rows_match_add_at(self, dtype):
        # every row but the last is read several times; each row's terms are
        # added in order of m, as np.add.at adds them, so the bits agree
        rng = np.random.default_rng(11)
        cols = rng.integers(0, 6, size=(40, 1))
        g = rng.normal(size=(40, 3)).astype(dtype)
        ref = np.zeros((7, 3), dtype=dtype)
        np.add.at(ref, cols[:, 0], g)
        out = tz.scatter_rows(g, cols, 7)
        assert out.dtype == dtype and out.shape == (7, 3)
        assert out.tobytes() == ref.tobytes()
        assert not out[6].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weighted_corners_match_add_at(self, dtype):
        # the bilinear case: four weighted columns per source row, M = (5, 2),
        # with repeats inside a row as at a clamped corner; destination row 9
        # is never selected and stays exactly zero
        rng = np.random.default_rng(12)
        cols = rng.integers(0, 9, size=(5, 2, 4))
        cols[0, 0] = [3, 3, 4, 4]
        weights = rng.uniform(0.0, 1.0, size=(5, 2, 4))
        g = rng.normal(size=(5, 2, 3)).astype(dtype)
        ref = np.zeros((10, 3))
        np.add.at(ref, cols.reshape(-1),
                  (weights.astype(dtype)[..., None] * g[..., None, :]).reshape(-1, 3))
        out = tz.scatter_rows(g, cols, 10, weights)
        assert out.dtype == dtype and out.shape == (10, 3)
        tol = 1e-6 if dtype == np.float32 else 1e-14
        np.testing.assert_allclose(out, ref, rtol=tol, atol=tol)
        assert not out[9].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selection_gathers_what_scatter_returns(self, dtype):
        # <S x, g> = <x, S.T g>: the scatter is the gather's adjoint
        rng = np.random.default_rng(13)
        cols = rng.integers(0, 6, size=(8, 4))
        weights = rng.uniform(0.0, 1.0, size=(8, 4))
        x = rng.normal(size=(6, 3)).astype(dtype)
        g = rng.normal(size=(8, 3)).astype(dtype)
        gathered = tz.row_selection(cols, 6, weights, dtype) @ x
        assert gathered.dtype == dtype
        np.testing.assert_allclose(
            gathered, np.einsum("mj,mjc->mc", weights, x[cols]), rtol=1e-5)
        np.testing.assert_allclose(np.vdot(gathered, g),
                                   np.vdot(x, tz.scatter_rows(g, cols, 6, weights)),
                                   rtol=1e-5)


# the function each op of the suite runs, where its key in OPS differs
OP_FUNCTION = {"neighbor_mix": "NeighborMixParams.apply"}


class TestCheckedMode:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_rejects_nan_inside_block(self, name):
        op, draw = OPS[name]
        inputs = draw(np.random.default_rng(0))
        inputs[0].data.fill(np.nan)
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
        t.node.accumulate_grad(g)
        ref = np.zeros((3, 4), dtype=np.float32)
        ref += g
        assert t.grad.dtype == np.float32 and t.grad.shape == (3, 4)
        assert t.grad.tobytes() == ref.tobytes()
        # same shape and dtype: still a copy, not the caller's array
        g32 = rng.normal(size=(3, 4)).astype(np.float32)
        u = tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        u.node.accumulate_grad(g32)
        assert not np.shares_memory(u.grad, g32)
        first = g32.copy()
        g32 += 1.0
        np.testing.assert_array_equal(u.grad, first)
        # later accumulations add in place
        u.node.accumulate_grad(g32)
        np.testing.assert_array_equal(u.grad, first + g32)
        # a transposed gradient is stored row-major, like the data
        v = tensor(np.zeros((3, 4)), requires_grad=True)
        v.node.accumulate_grad(g32.T.copy().T)
        assert v.grad.flags.c_contiguous and v.grad.dtype == np.float64
        np.testing.assert_array_equal(v.grad, g32)

    @pytest.mark.parametrize("seed", ["caller's", "default", "added to a set gradient"])
    def test_backward_leaves_the_roots_gradient_as_it_was(self, seed):
        # the scan's adjoint writes x's terms over a writeable upstream
        # gradient; a root's, the caller's seed, the default ones or a
        # gradient the caller set plus the seed, is read-only, so the scan
        # copies it and the root keeps it
        fn, draw = OPS["selective_scan"]
        xs = draw(np.random.default_rng(14))
        for x in xs:
            x.requires_grad = True
        out = fn(*xs)
        given = np.random.default_rng(15).normal(size=out.shape)
        kept = given.copy()
        if seed == "default":
            out.backward()
            assert np.all(out.grad == 1.0)
        elif seed == "caller's":
            out.backward(given)
            assert out.grad.tobytes() == kept.tobytes()
        else:
            out.grad = np.ones(out.shape)
            out.backward(given)
            assert out.grad.tobytes() == (kept + 1.0).tobytes()
        assert given.tobytes() == kept.tobytes()
        assert not out.grad.flags.writeable

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
        assert sq.grad is None and sq._node.parents == ()
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
            y = depthwise_conv3x3(x, Conv3x3Params(t64(rng.normal(size=(16, 3, 3)), True),
                                                   t64(rng.normal(size=16), True)))
        kept = [c.cell_contents for c in y._node.backward.__closure__]
        assert not any(isinstance(k, tz.Tensor) for k in kept)
        sizes = [a.nbytes for a in kept if isinstance(a, np.ndarray)]
        assert sizes and max(sizes) <= 2 * x.data.nbytes


class TestFiniteDiffCheck:
    def test_eps_domain(self):
        xs = [t64([1.0], True), t64([1.0], True)]
        with pytest.raises(DomainError):
            finite_diff_check_leaves(lambda: tz.add(*xs), xs, eps=0.5)

    def test_linear_tight(self):
        rng = np.random.default_rng(5)
        xs = [t64(rng.normal(size=(3, 4)), True), t64(rng.normal(size=(2, 4)), True),
              t64(rng.normal(size=2), True)]
        err = finite_diff_check_leaves(lambda: OPS["linear"][0](*xs), xs, eps=1e-5)
        assert err < 1e-6

    def test_layer_norm(self):
        rng = np.random.default_rng(6)
        xs = [t64(rng.normal(size=(3, 5)), True), t64(rng.normal(size=5), True),
              t64(rng.normal(size=5), True)]
        err = finite_diff_check_leaves(lambda: OPS["layer_norm"][0](*xs), xs, eps=1e-5)
        assert err < 1e-5

    def test_bilinear_interior(self):
        # sampling and mixing over nine taps, every tap's position inside
        # the grid: row t's offset lies in (1 - t, T - 2 - t), so its taps
        # t - 1 .. t + 1 stay in (0, T - 1), and likewise in v
        rng = np.random.default_rng(7)
        t_n, v_n = 5, 6
        lo = 1.05 - np.stack(np.meshgrid(np.arange(t_n), np.arange(v_n), indexing="ij"), -1)
        off = lo + rng.uniform(0.0, 1.0, size=(t_n, v_n, 2)) * (np.array((t_n, v_n)) - 3.1)
        xs = [t64(rng.normal(size=(t_n, v_n, 3)), True), t64(off, True),
              t64(rng.normal(size=(9, 3)), True), t64(rng.normal(size=(9, 2, 3)) * 0.5, True),
              t64(rng.normal(size=(9, 3, 2)) * 0.5, True)]
        err = finite_diff_check_leaves(lambda: OPS["neighbor_mix"][0](*xs), xs, eps=1e-5)
        assert err < 1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_registered_elementwise_ops(self, seed):
        rng = np.random.default_rng(seed)
        a = t64(rng.normal(size=(3, 4)), True)
        b = t64(rng.normal(size=(3, 4)), True)
        for name in ("add", "sub", "mul"):
            assert finite_diff_check_leaves(lambda: OPS[name][0](a, b), [a, b]) < 1e-4
        for name in ("gelu", "silu", "sum_all", "sum_axis", "slice0", "scale"):
            assert finite_diff_check_leaves(lambda: OPS[name][0](a), [a]) < 1e-4
        pos = t64(rng.uniform(0.4, 2.2, size=(3, 4)), True)
        assert finite_diff_check_leaves(lambda: OPS["sqrt"][0](pos), [pos]) < 1e-4

    def test_conv_ops(self):
        rng = np.random.default_rng(8)
        x = t64(rng.normal(size=(4, 5, 3)), True)
        w = t64(rng.normal(size=(2, 3, 3, 3)), True)
        b = t64(rng.normal(size=2), True)
        err = finite_diff_check_leaves(lambda: OPS["grid_conv3x3"][0](x, w, b), [x, w, b])
        assert err < 1e-5
        wd = t64(rng.normal(size=(3, 3, 3)), True)
        bd = t64(rng.normal(size=3), True)
        err = finite_diff_check_leaves(lambda: OPS["depthwise_conv3x3"][0](x, wd, bd),
                                       [x, wd, bd])
        assert err < 1e-5


def functions_where(match) -> set[str]:
    """Qualified names of the functions and methods of ``tensor``, ``sas``
    and ``ssm`` whose body, nested functions included, holds an AST node
    for which ``match`` is true, read from their source."""
    names = set()
    for mod in (tz, sas, ssm):
        tree = ast.parse(inspect.getsource(mod))
        scopes = [("", tree.body)] + [(f"{c.name}.", c.body) for c in tree.body
                                      if isinstance(c, ast.ClassDef)]
        for prefix, body in scopes:
            for fn in body:
                if isinstance(fn, ast.FunctionDef) and any(map(match, ast.walk(fn))):
                    names.add(prefix + fn.name)
    return names


def make_op_callers() -> set[str]:
    return functions_where(
        lambda c: isinstance(c, ast.Call) and getattr(c.func, "id", None) == "make_op")


class TestGradientSuite:
    def test_covers_every_taped_op(self, monkeypatch):
        owners = set()
        make_op = tz.make_op

        def recording(out, parents, backward):
            owners.add(backward.__qualname__.partition(".<locals>")[0])
            return make_op(out, parents, backward)

        for mod in (tz, sas, ssm):
            monkeypatch.setattr(mod, "make_op", recording)
        rng = np.random.default_rng(0)
        for fn, draw in OPS.values():
            fn(*draw(rng))
        assert owners == make_op_callers()

    def test_gradients_are_accumulated_in_one_place(self):
        # adjoints return their gradients; only backward's helper adds them
        # into nodes, and nothing reads a node to accumulate into
        assert functions_where(
            lambda c: isinstance(c, ast.Call) and getattr(c.func, "attr", None)
            == "accumulate_grad") == {"_accumulate"}
        assert functions_where(
            lambda a: isinstance(a, ast.Attribute) and a.attr == "grad_node") == set()


def _rows_op(x, y, rows):
    """x + 2y, whose adjoint makes one (2, ...) buffer and hands x row 0 and
    y row 1 when ``rows`` is 2, and x row 0 alone when it is 1."""
    def backward(g):
        buf = np.stack([g, 2.0 * g])
        return buf[0], (buf[1] if rows == 2 else 2.0 * g)

    return tz.make_op(x.data + 2.0 * y.data, (x, y), backward)


def _shared_op(x, y):
    # one fresh array handed to both parents: x + y
    def backward(g):
        both = g.copy()
        return both, both

    return tz.make_op(x.data + y.data, (x, y), backward)


# every way an adjoint hands on an array that another node or the caller
# holds: the ops run on two intermediates, h and k, of the leaves p and q
ADOPTION_CASES = {
    "add(x, x)": lambda h, k: tz.add(h, h),
    "add hands its gradient to one parent": lambda h, k: tz.scale(
        tz.add(h, tz.sum_axis(k, 0)), 2.0),
    "sum_all hands its seed on": lambda h, k: tz.sum_all(h),
    "one tensor read by two ops": lambda h, k: tz.add(tz.mul(h, k), tz.scale(h, 3.0)),
    "two slices of one buffer": lambda h, k: _rows_op(h, k, 2),
    "one slice of a larger buffer": lambda h, k: _rows_op(h, k, 1),
    "one array to two parents": _shared_op,
    "a caller's seed handed on": lambda h, k: tz.sub(h, k),
}


class TestAdoption:
    @staticmethod
    def _copy_all(nodes, grads, upstream=None):
        for node, g in zip(nodes, grads):
            if node is not None:
                node.accumulate_grad(g)

    @staticmethod
    def _graph(case):
        rng = np.random.default_rng(3)
        p, q = t64(rng.normal(size=(3, 4)), True), t64(rng.normal(size=(3, 4)), True)
        out = ADOPTION_CASES[case](tz.mul(p, q), tz.scale(q, -0.5))
        return out, (p, q), rng.normal(size=out.shape)

    @pytest.mark.parametrize("case", sorted(ADOPTION_CASES))
    def test_gradients_keep_their_bits_and_share_no_buffer(self, monkeypatch, case):
        out, leaves, seed = self._graph(case)
        monkeypatch.setattr(tz, "_accumulate", self._copy_all)
        out.backward(seed)
        reference = [leaf.grad for leaf in leaves]
        monkeypatch.undo()

        out, leaves, seed = self._graph(case)
        kept = [seed.copy()] + [leaf.data.copy() for leaf in leaves]
        nodes, stack = [], [out._node]
        while stack:
            node = stack.pop()
            if all(node is not n for n in nodes):
                nodes.append(node)
                stack.extend(n for n in node.parents if n is not None)
        accumulate = tz._accumulate

        def checked(*args):
            # no node holds another's gradient, the caller's seed (but the
            # root), a leaf's data or part of a larger buffer
            accumulate(*args)
            held = [n.grad for n in nodes if n.grad is not None]
            for i, g in enumerate(held):
                assert not any(np.shares_memory(g, h) for h in held[i + 1:])
                assert not any(np.shares_memory(g, a) for a in [seed] * (i > 0) + [
                    leaf.data for leaf in leaves])
                assert (g if g.base is None else g.base).nbytes == g.nbytes

        monkeypatch.setattr(tz, "_accumulate", checked)
        out.backward(seed)
        for leaf, ref in zip(leaves, reference):
            assert leaf.grad.tobytes() == ref.tobytes()
        for before, now in zip(kept, [seed] + [leaf.data for leaf in leaves]):
            assert now.tobytes() == before.tobytes()
        # the root reads the caller's seed, and cannot write it
        assert np.shares_memory(out.grad, seed) and not out.grad.flags.writeable

    def test_a_made_gradient_is_adopted(self):
        # a node takes the array its consumer's adjoint made for it alone:
        # an intermediate's adjoint reads it, and a leaf keeps it
        made, read = [], []

        def double(x):
            def backward(g):
                read.append(g)
                made.append(2.0 * g)
                return (made[-1],)

            return tz.make_op(2.0 * x.data, (x,), backward)

        x = t64(np.arange(4.0), grad=True)
        double(double(x)).backward(np.ones(4))
        assert read[1] is made[0] and x.grad is made[1]


class TestAdjointContract:
    """``make_op``'s contract on every op of ``OPS``, at its own float64 draws."""

    @staticmethod
    def _inputs(name, constant=None):
        draws = OPS[name][1](np.random.default_rng(0))
        return [t64(t.data, grad=i != constant) for i, t in enumerate(draws)]

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_one_gradient_per_input(self, name):
        xs = self._inputs(name)
        out = OPS[name][0](*xs)
        node = out._node
        assert len(node.parents) == len(xs)
        assert all(p is x.node for p, x in zip(node.parents, xs))
        grads = node.backward(np.random.default_rng(1).normal(size=out.shape))
        assert len(grads) == len(xs)
        for g, x in zip(grads, xs):
            assert isinstance(g, np.ndarray)
            assert np.broadcast_shapes(g.shape, x.shape) == x.shape

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_returns_no_array_it_captured(self, name):
        # so a node that adopts a return never holds, nor adds into, a
        # parameter's array or one the tape keeps
        xs = self._inputs(name)
        out = OPS[name][0](*xs)
        kept = list(captured_bases(out._node.backward)) + [x.data for x in xs]
        for g in out._node.backward(np.random.default_rng(1).normal(size=out.shape)):
            assert not any(np.shares_memory(g, a) for a in kept)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_a_constant_input_changes_no_other_gradient(self, name):
        def grads(constant=None):
            xs = self._inputs(name, constant)
            out = OPS[name][0](*xs)
            if out.requires_grad:
                out.backward(np.random.default_rng(1).normal(size=out.shape))
            return [x.grad for x in xs]

        full = grads()
        for i in range(len(full)):
            partial = grads(constant=i)
            assert partial[i] is None
            for j, (g, ref) in enumerate(zip(partial, full)):
                if j != i:
                    assert g.tobytes() == ref.tobytes(), (i, j)


class TestGridConv:
    @pytest.mark.parametrize("shape", [(1, 1, 2), (1, 5, 3), (4, 1, 2), (4, 6, 3)])
    def test_convs_match_definition(self, shape):
        # and so do their adjoints, by the dot-product test: the definition is
        # linear in x and in w, so <dx, u> = <g, conv(u, w)> and <dw, u> =
        # <g, conv(x, u)>. On these grids taps clamp onto shared rows, so the
        # tap-row scatter adds several terms into one row
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        w = rng.normal(size=(2, shape[2], 3, 3))
        wd = rng.normal(size=(shape[2], 3, 3))
        for op, weight, depthwise in ((grid_conv3x3, w, False), (depthwise_conv3x3, wd, True)):
            xt, wt = t64(x, grad=True), t64(weight, grad=True)
            y = op(xt, Conv3x3Params(wt, t64(np.zeros(weight.shape[0]))))
            np.testing.assert_allclose(y.data, conv3x3_by_definition(x, weight, depthwise),
                                       rtol=1e-12, atol=1e-12)
            g, ux, uw = (rng.normal(size=a.shape) for a in (y.data, x, weight))
            y.backward(g)
            np.testing.assert_allclose(
                np.vdot(xt.grad, ux), np.vdot(g, conv3x3_by_definition(ux, weight, depthwise)),
                rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                np.vdot(wt.grad, uw), np.vdot(g, conv3x3_by_definition(x, uw, depthwise)),
                rtol=1e-12, atol=1e-12)

    def test_channel_mismatch(self):
        p = Conv3x3Params(t64(np.zeros((2, 4, 3, 3))), t64(np.zeros(2)))
        with pytest.raises(DimensionError):
            grid_conv3x3(t64(np.zeros((3, 3, 3))), p)

    def test_depthwise_identity_kernel(self):
        rng = np.random.default_rng(9)
        x = t64(rng.normal(size=(4, 4, 2)))
        w = np.zeros((2, 3, 3))
        w[:, 1, 1] = 1.0
        y = depthwise_conv3x3(x, Conv3x3Params(t64(w), t64(np.zeros(2))))
        np.testing.assert_allclose(y.data, x.data, atol=1e-12)
