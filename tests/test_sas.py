"""Structure-aware layer: offsets, deformable sampling, stride fill, streams."""

import weakref

import numpy as np
import pytest

from conftest import (bilinear_by_corners, conv3x3_by_definition,
                      feedthrough_stream, frozen_params, identity_tap, random_sa,
                      random_stream, scan_by_unroll, stack_streams, stack_taps,
                      stream_set, traced_peak, zero_local, zero_offset_net, zero_tap)
from sasmamba import sas
from sasmamba import tensor as tz
from sasmamba.errors import ConfigError, DimensionError, NumericError
from sasmamba.model import ModelConfig, astype_model, init_model
from sasmamba.sas import (STREAM_ORDER, SaConvParams, SasLayerParams,
                          four_stream_scan, sa_conv, sas_ssm_layer,
                          stride_groups, stride_scan)
from sasmamba.tensor import (LinearParams, finite_diff_check_leaves,
                             grid_conv3x3, tensor)


def t64(a, grad=False):
    return tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


def sa_conv_by_taps(x, sa):
    """Plain-numpy SA-Conv: each tap samples its four corners and applies
    ``diag * s + up @ (down @ s)``, one position at a time."""
    t_n, v_n, _ = x.shape
    half = (sa.mix.kernel_size - 1) // 2
    off = conv3x3_by_definition(x, sa.offset_net.weight.data, False) + sa.offset_net.bias.data
    out = conv3x3_by_definition(x, sa.local_conv.weight.data, True) + sa.local_conv.bias.data
    taps = zip(*(t.data for t in sa.mix.tensors()))
    for dt in range(-half, half + 1):
        for dv in range(-half, half + 1):
            diag, down, up = next(taps)
            for t in range(t_n):
                for v in range(v_n):
                    s = bilinear_by_corners(x, t + off[t, v, 0] + dt, v + off[t, v, 1] + dv)
                    out[t, v] += diag * s + up @ (down @ s)
    return out, off


def clamping_sa(rng, c, k=3):
    """Parameters of K x K taps whose offsets reach past every edge of a
    small grid."""
    sa = random_sa(rng, c, k=k)
    sa.offset_net.weight.data[:] = rng.normal(size=sa.offset_net.weight.shape) * 1.5
    return sa


class TestPredictOffsets:
    def test_zero_network_gives_zero_offsets(self):
        sa = random_sa(np.random.default_rng(0), c=3, k=1, zero_offsets=True)
        sa.offset_net.bias.data[:] = 0.0
        x = t64(np.random.default_rng(1).normal(size=(4, 5, 3)))
        out = grid_conv3x3(x, sa.offset_net)
        assert out.shape == (4, 5, 2)
        np.testing.assert_array_equal(out.data, np.zeros((4, 5, 2)))

    def test_bias_passthrough_on_zero_input(self):
        sa = random_sa(np.random.default_rng(0), c=3, k=1)
        sa.offset_net.bias.data[:] = [0.5, -0.5]
        out = grid_conv3x3(t64(np.zeros((3, 4, 3))), sa.offset_net)
        np.testing.assert_allclose(out.data, np.broadcast_to([0.5, -0.5], (3, 4, 2)))

    def test_translation_equivariance_on_interior(self):
        rng = np.random.default_rng(2)
        sa = random_sa(rng, c=2, k=1)
        x = rng.normal(size=(9, 4, 2))
        a = grid_conv3x3(t64(x), sa.offset_net).data
        b = grid_conv3x3(t64(x[1:]), sa.offset_net).data
        # row t of the shifted input sees the same 3x3 window as row t+1 of
        # the original, away from the clamped borders
        np.testing.assert_allclose(b[1:-1], a[2:-1], atol=1e-5)

    def test_channel_mismatch(self):
        sa = random_sa(np.random.default_rng(0), c=3, k=1)
        with pytest.raises(DimensionError):
            sa_conv(t64(np.zeros((2, 2, 5))), sa)


class TestSaConv:
    def test_degenerate_identity(self):
        c = 3
        sa = SaConvParams(zero_offset_net(c), stack_taps([identity_tap(c, 1)]), zero_local(c))
        x = t64(np.random.default_rng(3).normal(size=(5, 4, c)))
        out = sa_conv(x, sa)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_zero_taps_leave_local_conv_only(self):
        rng = np.random.default_rng(4)
        c = 3
        sa = random_sa(rng, c, k=3, zero_offsets=True)
        sa.mix = stack_taps([zero_tap(c, 3) for _ in range(9)])
        from sasmamba.tensor import depthwise_conv3x3
        x = t64(rng.normal(size=(4, 4, c)))
        out = sa_conv(x, sa)
        local = depthwise_conv3x3(x, sa.local_conv)
        np.testing.assert_allclose(out.data, local.data, atol=1e-12)

    @pytest.mark.parametrize("k", range(9))
    def test_tap_k_reads_the_depthwise_weight_k(self, k):
        # one tap grid: with zero offsets, mixing only tap k samples what a
        # 3x3 kernel's entry (k // 3, k % 3) reads, clamped past the edges
        # alike, so SA-Conv's taps, the 3x3 weights and the manifest's tap{k}
        # share one order
        rng = np.random.default_rng(30 + k)
        c = 3
        x = t64(rng.normal(size=(4, 5, c)))
        mix = stack_taps([identity_tap(c, 3) if i == k else zero_tap(c, 3) for i in range(9)])
        kernel = np.zeros((c, 3, 3))
        kernel[:, k // 3, k % 3] = 1.0
        out = sas.NeighborMixParams.apply(x, t64(np.zeros((4, 5, 2))), mix)
        ref = tz.depthwise_conv3x3(x, tz.Conv3x3Params(t64(kernel), t64(np.zeros(c))))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.data, ref.data)

    def test_integer_offset_gathers_shifted_frame(self):
        c = 2
        sa = SaConvParams(zero_offset_net(c, bias=(1.0, 0.0)),
                          stack_taps([identity_tap(c, 1)]), zero_local(c))
        t_n, v_n = 6, 3
        x = np.zeros((t_n, v_n, c))
        x[..., 0] = np.arange(t_n)[:, None] * 1.5
        x[..., 1] = np.arange(t_n)[:, None] * -0.5 + 2.0
        out = sa_conv(t64(x), sa)
        np.testing.assert_allclose(out.data[:-1], x[1:], atol=1e-9)

    def test_zero_offset_k3_is_fixed_local_aggregation(self):
        rng = np.random.default_rng(5)
        c = 2
        sa = random_sa(rng, c, k=3, zero_offsets=True)
        x = rng.normal(size=(7, 7, c))
        t0, v0 = 3, 3
        base = sa_conv(t64(x), sa).data[t0, v0]
        x2 = x.copy()
        x2[t0 + 2, v0 + 2] += 10.0   # outside the 3x3 neighborhood of (t0, v0)
        x2[t0, v0 - 3] -= 4.0
        moved = sa_conv(t64(x2), sa).data[t0, v0]
        np.testing.assert_allclose(moved, base, atol=1e-12)

    @pytest.mark.parametrize("zero_offsets", [False, True])
    def test_matches_per_tap_oracle(self, zero_offsets):
        rng = np.random.default_rng(12)
        t_n, v_n, c = 5, 4, 3
        sa = random_sa(rng, c, k=3, zero_offsets=True) if zero_offsets else clamping_sa(rng, c)
        x = rng.normal(size=(t_n, v_n, c))
        ref, off = sa_conv_by_taps(x, sa)
        np.testing.assert_allclose(sa_conv(t64(x), sa).data, ref, rtol=1e-12, atol=1e-12)
        pt = np.arange(t_n)[:, None] + off[..., 0]
        pv = np.arange(v_n)[None, :] + off[..., 1]
        if zero_offsets:
            # the outer taps land exactly on row 0 and row T-1 (and past them)
            assert not off.any()
        else:
            # the centre itself is clamped at every edge somewhere
            assert pt.min() < 0 and pt.max() > t_n - 1
            assert pv.min() < 0 and pv.max() > v_n - 1

    def test_gradients_against_finite_differences(self):
        # K=3 probes every element; K=5 walks 25 taps whose outer rings sit
        # past the 4 x 3 grid, and probes a sample of each leaf
        rng = np.random.default_rng(13)
        for k, sample in ((3, None), (5, 40)):
            sa = clamping_sa(rng, c=2, k=k)
            x = t64(rng.normal(size=(4, 3, 2)), grad=True)
            leaves = [x, sa.offset_net.weight, sa.offset_net.bias, *sa.mix.tensors()]
            for leaf in leaves:
                leaf.requires_grad = True
            err = finite_diff_check_leaves(lambda: sa_conv(x, sa), leaves, eps=1e-6,
                                           sample=sample, rng=rng)
            assert err < 1e-6, k

    def test_whole_number_offsets_take_the_right_hand_difference(self):
        # zero offsets put every tap on a whole-number position: the outer
        # taps on row 0 and column 0, on T-1 and V-1 and past them. Each
        # output row is linear in its own offset on [0, 1), so the slope to
        # the right is the difference quotient of a half step; a tap on row 0
        # (column 0) adds x(1) - x(0) to it, where the clamp is not flat
        rng = np.random.default_rng(25)
        x, g = t64(rng.normal(size=(5, 4, 3))), rng.normal(size=(5, 4, 3))
        mix = random_sa(rng, 3, k=3).mix
        off = t64(np.zeros((5, 4, 2)), grad=True)
        sas.NeighborMixParams.apply(x, off, mix).backward(g)
        for axis in (0, 1):
            step = np.zeros((5, 4, 2))
            step[..., axis] = 0.5
            moved = sas.NeighborMixParams.apply(x, t64(step), mix).data
            right = ((moved - sas.NeighborMixParams.apply(x, t64(0 * step), mix).data)
                     / 0.5 * g).sum(axis=-1)
            np.testing.assert_allclose(off.grad[..., axis], right, rtol=1e-12, atol=1e-12)
        # sampling each tap of x on its own gives a tap on row 0 (column 0)
        # no slope, so the two differ on the first two rows (columns) only
        grid, taps = tz.tap_grid(5, 4, 3)
        g2, by_taps = g.reshape(-1, 3), 0.0
        for tap, diag, down, up in zip(taps, *(t.data for t in mix.tensors())):
            pullback = tz.bilinear_vjp(x.data.reshape(-1, 3), (grid + tap) * 1.0, 5, 4)
            by_taps = by_taps + pullback(diag * g2 + (g2 @ up) @ down)[1].reshape(5, 4, 2)
        moved = np.abs(off.grad - by_taps) > 1e-6
        assert moved[:2, :, 0].all() and not moved[2:, :, 0].any()
        assert moved[:, :2, 1].all() and not moved[:, 2:, 1].any()

    def test_non_finite_offsets_name_the_sampling_positions(self):
        # outside checked mode too, as bilinear_gather raises it
        rng = np.random.default_rng(14)
        sa = random_sa(rng, 2, k=3)
        sa.offset_net.bias.data[0] = np.nan
        with pytest.raises(NumericError, match="sampling positions"):
            sa_conv(t64(rng.normal(size=(4, 3, 2))), sa)

    def test_config_invariants(self):
        c = 2
        for taps in (2, 4):  # not a square; the square of an even kernel size
            with pytest.raises(ConfigError):
                SaConvParams(zero_offset_net(c), stack_taps([identity_tap(c, 1)] * taps),
                             zero_local(c))
        assert SaConvParams(zero_offset_net(c), stack_taps([identity_tap(c, 3)] * 9),
                            zero_local(c)).mix.kernel_size == 3


def k5_gated_sa():
    """The SA-Conv parameters of a float64 model with K=5, gated streams and
    two strides, over 9 x 4 grids of 8 channels."""
    cfg = ModelConfig(L=1, D=8, T=9, V=4, K=5, N=2, strides=(1, 3), gated_streams=True)
    sa = astype_model(init_model(cfg, seed=8), np.float64).blocks[0].sas.sa
    for leaf in sa.tensors():
        leaf.requires_grad = True
    return sa


class TestRowBlocks:
    """Only ``depthwise_conv3x3``, SA-Conv's local aggregation, convolves its
    rows in blocks of at most ``tensor.ROW_BLOCK``; at 5 rows a 9 x 4 grid's
    36 rows split into eight uneven blocks of 4 and 5, which must give the
    one-block results. The sampling and mixing op samples each row once, on
    the whole map, so no block setting may move it either."""

    @pytest.mark.parametrize("n", [4, 5, 6, 36])
    def test_blocks_cover_the_rows_once_in_order(self, n, monkeypatch):
        monkeypatch.setattr(tz, "ROW_BLOCK", 5)
        blocks = tz.row_blocks(n)
        assert len(blocks) == -(-n // 5)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(0 < b.stop - b.start <= 5 for b in blocks)

    def _one_and_five(self, monkeypatch, run):
        """``run()``'s arrays with one block, then with blocks of 5 rows."""
        runs = [run()]
        monkeypatch.setattr(tz, "ROW_BLOCK", 5)
        runs.append(run())
        for one, blocked in zip(*runs):
            np.testing.assert_allclose(blocked, one, rtol=0, atol=1e-12)

    def test_sa_conv_and_its_gradients_do_not_depend_on_the_block(self, monkeypatch):
        rng = np.random.default_rng(21)
        x_data, g = rng.normal(size=(2, 9, 4, 8))

        def run():
            sa, x = k5_gated_sa(), t64(x_data, grad=True)
            out = sa_conv(x, sa)
            out.backward(g)
            leaves = [x, *sa.mix.tensors(), sa.local_conv.weight, sa.local_conv.bias,
                      *sa.offset_net.tensors()]
            return [out.data] + [leaf.grad for leaf in leaves]

        self._one_and_five(monkeypatch, run)

    def test_offsets_gradient_does_not_depend_on_the_block(self, monkeypatch):
        # offsets that move taps past every edge of the grid, so some clamp
        # in every block
        rng = np.random.default_rng(22)
        x_data, g = rng.normal(size=(2, 9, 4, 8))
        off_data = rng.uniform(-1.5, 1.0, size=(9, 4, 2)) * (10.0, 5.0)

        def run():
            sa, x, off = k5_gated_sa(), t64(x_data, grad=True), t64(off_data, grad=True)
            out = sas.NeighborMixParams.apply(x, off, sa.mix)
            out.backward(g)
            return [out.data, x.grad, off.grad] + [t.grad for t in sa.mix.tensors()]

        self._one_and_five(monkeypatch, run)

    def test_non_finite_position_in_the_last_block_raises(self, monkeypatch):
        # a NaN offset in the grid's last row, which a block of 5 rows would
        # reach last
        monkeypatch.setattr(tz, "ROW_BLOCK", 5)
        rng = np.random.default_rng(23)
        off = rng.uniform(-1.0, 1.0, size=(9, 4, 2))
        off[8, 3, 1] = np.nan
        with pytest.raises(NumericError, match="sampling positions"):
            sas.NeighborMixParams.apply(t64(rng.normal(size=(9, 4, 8))), t64(off),
                                        k5_gated_sa().mix)

    def test_sa_conv_peak_stays_at_its_measured_bound(self):
        # a no-grad SA-Conv at the default layer shape peaked at 15,776,276-
        # 15,776,756 bytes while its forward gathered the (K*K, T*V, C)
        # samples and the (T*V, 9, C) neighbourhood whole, at 5,390,170-
        # 5,390,284 in blocks of at most 1024 rows, at 5,125,104-
        # 5,127,204 once no (K*K, T, V, 2) positions were formed, and at
        # 4,480,120 once the taps became one convolution over the extended
        # grid, sampled once per row
        rng = np.random.default_rng(24)
        sa = random_sa(rng, 64, k=3, dtype=np.float32)
        x = tensor(rng.normal(size=(243, 17, 64)), dtype=np.float32)
        sa_conv(x, sa)
        peak = traced_peak(lambda: sa_conv(x, sa))
        assert peak <= 4_485_000, peak


class TestStrideSample:
    def test_stride_one_is_identity(self):
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(3, 5, 2)))
        np.testing.assert_array_equal(stride_scan(x, (1,)).data, x.data)

    def test_fill_rule_s2_v5(self):
        x = np.broadcast_to(np.arange(5.0)[None, :, None], (2, 5, 1)).copy()
        out = stride_scan(t64(x), (2,))
        np.testing.assert_array_equal(out.data[0, :, 0], [0, 0, 2, 2, 4])

    def test_fill_rule_s3_v7(self):
        x = np.broadcast_to(np.arange(7.0)[None, :, None], (1, 7, 1)).copy()
        out = stride_scan(t64(x), (3,))
        np.testing.assert_array_equal(out.data[0, :, 0], [0, 0, 0, 3, 3, 3, 6])

    def test_stride_zero_rejected(self):
        with pytest.raises(ConfigError):
            stride_scan(t64(np.zeros((1, 2, 1))), (0,))

    def test_prefix_property(self):
        # output at joint v depends only on joints <= v
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 9, 3))
        for s in (2, 3, 4):
            base = stride_scan(t64(x), (s,)).data
            for v in (3, 6):
                x2 = x.copy()
                x2[:, v + 1:] = rng.normal(size=x2[:, v + 1:].shape)
                out = stride_scan(t64(x2), (s,)).data
                np.testing.assert_array_equal(out[:, :v + 1], base[:, :v + 1])


class TestStrideScan:
    def test_identity_strides(self):
        rng = np.random.default_rng(8)
        x = t64(rng.normal(size=(3, 6, 8)))
        np.testing.assert_array_equal(stride_scan(x, (1, 1, 1)).data, x.data)

    def test_groupwise_fill_rules(self):
        t_n, v_n = 2, 5
        x = np.broadcast_to(np.arange(v_n, dtype=np.float64)[None, :, None],
                            (t_n, v_n, 4)).copy()
        out = stride_scan(t64(x), (1, 2, 3)).data
        np.testing.assert_array_equal(out[..., 0], x[..., 0])       # stride 1
        np.testing.assert_array_equal(out[..., 1], x[..., 1])
        np.testing.assert_array_equal(out[0, :, 2], [0, 0, 2, 2, 4])  # stride 2
        np.testing.assert_array_equal(out[0, :, 3], [0, 0, 0, 3, 3])  # stride 3

    def test_channel_count_preserved(self):
        x = t64(np.random.default_rng(9).normal(size=(2, 4, 8)))
        assert stride_scan(x, (1, 2, 3)).shape == (2, 4, 8)

    def test_first_half_channels_verbatim(self):
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(3, 7, 12)))
        out = stride_scan(x, (1, 2, 3))
        np.testing.assert_array_equal(out.data[..., :6], x.data[..., :6])

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ConfigError):
            stride_scan(t64(np.zeros((2, 3, 6))), (1, 2, 3))

    def test_group_widths(self):
        def blocks(strides, channels):
            return [(cols.start, cols.stop, s) for cols, s in stride_groups(strides, channels)]
        assert blocks((1, 2, 3), 8) == [(0, 4, 1), (4, 6, 2), (6, 8, 3)]
        assert blocks((1, 3), 6) == [(0, 3, 1), (3, 6, 3)]
        assert blocks((2,), 5) == [(0, 5, 2)]
        assert blocks((1, 2, 3, 4), 8) == [(0, 2, 1), (2, 4, 2), (4, 6, 3), (6, 8, 4)]
        for strides, channels in (((), 4), ((1, 0), 4), ((1, 3), 5), ((1, 2, 3), 6)):
            with pytest.raises(ConfigError):
                stride_groups(strides, channels)


class TestFourStreamScan:
    def test_feedthrough_streams_sum_to_four_x(self):
        d = 3
        scan = stack_streams([feedthrough_stream(d) for _ in STREAM_ORDER])
        x = t64(np.random.default_rng(11).normal(size=(2, 4, d)))
        out = four_stream_scan(x, STREAM_ORDER, scan)
        np.testing.assert_allclose(out.data, 4.0 * x.data, atol=1e-12)

    def test_single_frame_temporal_equals_spatial(self):
        rng = np.random.default_rng(12)
        d = 2
        p = random_stream(rng, d)
        x = t64(rng.normal(size=(1, 5, d)))
        a = four_stream_scan(x, ("temporal_forward",), p)
        b = four_stream_scan(x, ("spatial_forward",), p)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_two_by_two_hand_unrolled_oracle(self):
        # independent unroll of all four orderings for T=V=2, D=1, frozen params
        rng = np.random.default_rng(13)
        d = 1
        delta, a, b, c, skip = 0.4, -0.8, 1.2, 0.7, 0.3
        scan = stack_streams([frozen_params(d, 1, delta=np.array([delta]),
                                            b_const=np.array([b]), c_const=np.array([c]),
                                            a=np.array([[a]]), skip=np.array([skip]))
                              for _ in STREAM_ORDER])
        x = rng.normal(size=(2, 2, 1))
        ab = np.exp(delta * a)
        bb = (ab - 1.0) / a * b

        def unroll(seq):
            h, ys = 0.0, []
            for val in seq:
                h = ab * h + bb * val
                ys.append(c * h + skip * val)
            return np.array(ys)

        tf = x.reshape(4)                       # frame-major
        sf = x.transpose(1, 0, 2).reshape(4)    # joint-major
        expect = np.zeros(4)
        expect += unroll(tf)
        expect += unroll(tf[::-1])[::-1]
        sp = unroll(sf).reshape(2, 2).T.reshape(4)
        expect += sp
        expect += unroll(sf[::-1])[::-1].reshape(2, 2).T.reshape(4)
        out = four_stream_scan(t64(x), STREAM_ORDER, scan)
        np.testing.assert_allclose(out.data.reshape(4), expect, rtol=1e-10)

    def test_backward_stream_reversal_consistency(self):
        rng = np.random.default_rng(14)
        d = 3
        p = random_stream(rng, d)
        x = rng.normal(size=(4, 5, d))
        rev = np.flip(x, (0, 1)).copy()   # reversal of the frame-major flattening
        fwd_on_rev = four_stream_scan(t64(rev), ("temporal_forward",), p).data
        bwd = four_stream_scan(t64(x), ("temporal_backward",), p).data
        np.testing.assert_allclose(fwd_on_rev, np.flip(bwd, (0, 1)), rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("names, gated", [
        (STREAM_ORDER, False),
        (("temporal_backward", "spatial_forward"), False),
        (STREAM_ORDER, True),
    ])
    def test_input_dependent_oracle(self, names, gated):
        # plain-numpy unroll of every stream with projections that read the
        # input, for T=5, V=4, D=3, N=2
        rng = np.random.default_rng(19)
        t_n, v_n, d = 5, 4, 3
        streams = stream_set(rng, d, names)
        gate = (LinearParams(t64(rng.normal(size=(len(names), d, d)) * 0.5),
                             t64(rng.normal(size=(len(names), d)) * 0.5))
                if gated else None)
        x = rng.normal(size=(t_n, v_n, d))
        expect = np.zeros_like(x)
        for s, name in enumerate(names):
            spatial = name.startswith("spatial")
            seq = (x.transpose(1, 0, 2) if spatial else x).reshape(-1, d)
            if name.endswith("backward"):
                seq = seq[::-1]
            y = scan_by_unroll(seq, streams, s)
            if gated:
                z = seq @ gate.weight.data[s].T + gate.bias.data[s]
                y = y * z / (1.0 + np.exp(-z))
            if name.endswith("backward"):
                y = y[::-1]
            expect += y.reshape(v_n, t_n, d).transpose(1, 0, 2) if spatial else y.reshape(x.shape)
        out = four_stream_scan(t64(x), names, streams, gate)
        np.testing.assert_allclose(out.data, expect, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("gated", [False, True])
    def test_stacked_adjoint_splits_per_stream(self, gated):
        # the nine stacked fields (and the gate's two) are leaves, each row
        # one stream's, so a gradient credited to the wrong stream or the
        # wrong field fails
        rng = np.random.default_rng(20)
        d = 4
        streams = stream_set(rng, d, STREAM_ORDER)
        s_n = len(STREAM_ORDER)
        gate = (LinearParams(t64(rng.normal(size=(s_n, d, d)) * 0.5),
                             t64(rng.normal(size=(s_n, d)) * 0.5))
                if gated else None)
        x = t64(rng.normal(size=(3, 4, d)), grad=True)
        leaves = [x] + list(streams.tensors())
        if gated:
            leaves += list(gate.tensors())
        for leaf in leaves:
            leaf.requires_grad = True
        err = finite_diff_check_leaves(lambda: four_stream_scan(x, STREAM_ORDER, streams, gate),
                                       leaves)
        assert err < 1e-6

    def test_scan_output_is_freed_when_the_layer_returns(self, monkeypatch):
        # no adjoint reads the (T, V, S, C) scan output: the stream sum keeps
        # nothing, so the array dies with its Tensor, before any backward,
        # while the gradients through the scan stay exact
        rng = np.random.default_rng(21)
        d = 4
        streams = stream_set(rng, d, STREAM_ORDER)
        x = t64(rng.normal(size=(3, 4, d)), grad=True)
        leaves = [x] + list(streams.tensors())
        for leaf in leaves:
            leaf.requires_grad = True
        buffers = []
        scan = sas.selective_scan

        def recording_scan(x, p, order):
            y = scan(x, p, order)
            buf = y.data
            while isinstance(buf.base, np.ndarray):
                buf = buf.base
            buffers.append(weakref.ref(buf))
            return y

        monkeypatch.setattr(sas, "selective_scan", recording_scan)
        out = four_stream_scan(x, STREAM_ORDER, streams)
        assert out.requires_grad and len(buffers) == 1 and buffers[0]() is None
        err = finite_diff_check_leaves(lambda: four_stream_scan(x, STREAM_ORDER, streams),
                                       leaves)
        assert err < 1e-6

    def test_empty_stream_set_rejected(self):
        with pytest.raises(ConfigError):
            four_stream_scan(t64(np.zeros((2, 3, 2))), (), feedthrough_stream(2))

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigError):
            four_stream_scan(t64(np.zeros((2, 3, 2))), ("diagonal_forward",),
                             feedthrough_stream(2))


class TestSasLayer:
    def _degenerate_layer(self, c):
        sa = SaConvParams(zero_offset_net(c), stack_taps([identity_tap(c, 1)]), zero_local(c))
        scan = stack_streams([feedthrough_stream(c) for _ in STREAM_ORDER])
        return SasLayerParams(sa=sa, strides=(1, 1, 1), streams=STREAM_ORDER, scan=scan)

    def test_degenerate_composition_is_proportional_to_input(self):
        c = 4
        layer = self._degenerate_layer(c)
        x = t64(np.random.default_rng(15).normal(size=(3, 5, c)))
        out = sas_ssm_layer(x, layer)
        np.testing.assert_allclose(out.data, 4.0 * x.data, atol=1e-12)

    def test_shape_invariance(self):
        rng = np.random.default_rng(16)
        for t_n, v_n, c in ((2, 3, 4), (5, 4, 8), (1, 7, 12)):
            sa = random_sa(rng, c, k=3)
            layer = SasLayerParams(sa=sa, strides=(1, 2, 3), streams=STREAM_ORDER,
                                   scan=stream_set(rng, c, STREAM_ORDER))
            out = sas_ssm_layer(t64(rng.normal(size=(t_n, v_n, c))), layer)
            assert out.shape == (t_n, v_n, c)
            assert np.all(np.isfinite(out.data))

    def test_end_to_end_equals_manual_composition(self):
        rng = np.random.default_rng(17)
        c = 4
        sa = random_sa(rng, c, k=3)
        names = ("temporal_forward", "spatial_backward")
        scan = stream_set(rng, c, names)
        layer = SasLayerParams(sa=sa, strides=(1, 2, 3), streams=names, scan=scan)
        x = t64(rng.normal(size=(2, 4, c)))
        fused = sas_ssm_layer(x, layer)
        step = four_stream_scan(stride_scan(sa_conv(x, sa), (1, 2, 3)), names, scan)
        np.testing.assert_array_equal(fused.data, step.data)

    def test_full_layer_gradcheck(self):
        rng = np.random.default_rng(18)
        c = 8
        sa = random_sa(rng, c, k=3)
        layer = SasLayerParams(sa=sa, strides=(1, 2, 3), streams=STREAM_ORDER,
                               scan=stream_set(rng, c, STREAM_ORDER))
        x = t64(rng.normal(size=(3, 4, c)), grad=True)
        leaves = [x] + [t for t in layer.tensors()]
        for leaf in leaves:
            leaf.requires_grad = True
        err = finite_diff_check_leaves(lambda: sas_ssm_layer(x, layer), leaves,
                                       sample=3, rng=rng)
        assert err < 1e-4
