"""Structure-aware layer: offsets, deformable sampling, stride fill, streams."""

import numpy as np
import pytest

from conftest import (feedthrough_stream, identity_tap, random_sa,
                      random_stream, stream_set, zero_local, zero_offset_net,
                      zero_tap)
from sasmamba.errors import ConfigError, DimensionError, DomainError
from sasmamba.sas import (STREAM_ORDER, SaConvParams, SasLayerParams,
                          StreamSet, StrideConfig, four_stream_scan,
                          predict_offsets, sa_conv, sas_ssm_layer,
                          stride_sample, stride_scan, stream_scan)
from sasmamba.tensor import LinearParams, finite_diff_check_leaves, tensor


def t64(a, grad=False):
    return tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


def scan_by_unroll(seq, p):
    """Plain-numpy selective scan of one (L, D) sequence, step by step."""
    a = -np.exp(p.a_log.data)
    h = np.zeros_like(a)
    ys = []
    for u in seq:
        delta = np.log1p(np.exp(p.dt_up.data @ (p.dt_down.data @ u) + p.dt_bias.data))
        b = p.b_weight.data @ u + p.b_bias.data
        c = p.c_weight.data @ u + p.c_bias.data
        a_bar = np.exp(delta[:, None] * a)
        h = a_bar * h + (a_bar - 1.0) / a * b[None, :] * u[:, None]
        ys.append(h @ c + p.skip.data * u)
    return np.array(ys)


class TestPredictOffsets:
    def test_zero_network_gives_zero_offsets(self):
        sa = random_sa(np.random.default_rng(0), c=3, k=1, zero_offsets=True)
        sa.offset_net.bias.data[:] = 0.0
        x = t64(np.random.default_rng(1).normal(size=(4, 5, 3)))
        out = predict_offsets(x, sa)
        assert out.shape == (4, 5, 2)
        np.testing.assert_array_equal(out.data, np.zeros((4, 5, 2)))

    def test_bias_passthrough_on_zero_input(self):
        sa = random_sa(np.random.default_rng(0), c=3, k=1)
        sa.offset_net.bias.data[:] = [0.5, -0.5]
        out = predict_offsets(t64(np.zeros((3, 4, 3))), sa)
        np.testing.assert_allclose(out.data, np.broadcast_to([0.5, -0.5], (3, 4, 2)))

    def test_translation_equivariance_on_interior(self):
        rng = np.random.default_rng(2)
        sa = random_sa(rng, c=2, k=1)
        x = rng.normal(size=(9, 4, 2))
        a = predict_offsets(t64(x), sa).data
        b = predict_offsets(t64(x[1:]), sa).data
        # row t of the shifted input sees the same 3x3 window as row t+1 of
        # the original, away from the clamped borders
        np.testing.assert_allclose(b[1:-1], a[2:-1], atol=1e-5)

    def test_channel_mismatch(self):
        sa = random_sa(np.random.default_rng(0), c=3, k=1)
        with pytest.raises(DimensionError):
            predict_offsets(t64(np.zeros((2, 2, 5))), sa)


class TestSaConv:
    def test_degenerate_identity(self):
        c = 3
        sa = SaConvParams(1, zero_offset_net(c), [identity_tap(c, 1)], zero_local(c))
        x = t64(np.random.default_rng(3).normal(size=(5, 4, c)))
        out = sa_conv(x, sa)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_zero_taps_leave_local_conv_only(self):
        rng = np.random.default_rng(4)
        c = 3
        sa = random_sa(rng, c, k=3, zero_offsets=True)
        sa.taps = [zero_tap(c, 3) for _ in range(9)]
        from sasmamba.tensor import depthwise_conv3x3
        x = t64(rng.normal(size=(4, 4, c)))
        out = sa_conv(x, sa)
        local = depthwise_conv3x3(x, sa.local_conv)
        np.testing.assert_allclose(out.data, local.data, atol=1e-12)

    def test_integer_offset_gathers_shifted_frame(self):
        c = 2
        sa = SaConvParams(1, zero_offset_net(c, bias=(1.0, 0.0)),
                          [identity_tap(c, 1)], zero_local(c))
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

    def test_config_invariants(self):
        c = 2
        with pytest.raises(ConfigError):
            SaConvParams(2, zero_offset_net(c), [identity_tap(c, 1)], zero_local(c))
        with pytest.raises(ConfigError):
            SaConvParams(3, zero_offset_net(c), [identity_tap(c, 3)], zero_local(c))


class TestStrideSample:
    def test_stride_one_is_identity(self):
        rng = np.random.default_rng(6)
        x = t64(rng.normal(size=(3, 5, 2)))
        np.testing.assert_array_equal(stride_sample(x, 1).data, x.data)

    def test_fill_rule_s2_v5(self):
        x = np.broadcast_to(np.arange(5.0)[None, :, None], (2, 5, 1)).copy()
        out = stride_sample(t64(x), 2)
        np.testing.assert_array_equal(out.data[0, :, 0], [0, 0, 2, 2, 4])

    def test_fill_rule_s3_v7(self):
        x = np.broadcast_to(np.arange(7.0)[None, :, None], (1, 7, 1)).copy()
        out = stride_sample(t64(x), 3)
        np.testing.assert_array_equal(out.data[0, :, 0], [0, 0, 0, 3, 3, 3, 6])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            stride_sample(t64(np.zeros((1, 2, 1))), 0)

    def test_prefix_property(self):
        # output at joint v depends only on joints <= v
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 9, 3))
        for s in (2, 3, 4):
            base = stride_sample(t64(x), s).data
            for v in (3, 6):
                x2 = x.copy()
                x2[:, v + 1:] = rng.normal(size=x2[:, v + 1:].shape)
                out = stride_sample(t64(x2), s).data
                np.testing.assert_array_equal(out[:, :v + 1], base[:, :v + 1])


class TestStrideScan:
    def test_identity_strides(self):
        rng = np.random.default_rng(8)
        cfg = StrideConfig(strides=(1, 1, 1))
        x = t64(rng.normal(size=(3, 6, 8)))
        np.testing.assert_array_equal(stride_scan(x, cfg).data, x.data)

    def test_groupwise_fill_rules(self):
        cfg = StrideConfig()
        t_n, v_n = 2, 5
        x = np.broadcast_to(np.arange(v_n, dtype=np.float64)[None, :, None],
                            (t_n, v_n, 4)).copy()
        out = stride_scan(t64(x), cfg).data
        np.testing.assert_array_equal(out[..., 0], x[..., 0])       # stride 1
        np.testing.assert_array_equal(out[..., 1], x[..., 1])
        np.testing.assert_array_equal(out[0, :, 2], [0, 0, 2, 2, 4])  # stride 2
        np.testing.assert_array_equal(out[0, :, 3], [0, 0, 0, 3, 3])  # stride 3

    def test_channel_count_preserved(self):
        x = t64(np.random.default_rng(9).normal(size=(2, 4, 8)))
        assert stride_scan(x, StrideConfig()).shape == (2, 4, 8)

    def test_first_half_channels_verbatim(self):
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(3, 7, 12)))
        out = stride_scan(x, StrideConfig())
        np.testing.assert_array_equal(out.data[..., :6], x.data[..., :6])

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ConfigError):
            stride_scan(t64(np.zeros((2, 3, 6))), StrideConfig())

    def test_fraction_invariant(self):
        with pytest.raises(ConfigError):
            StrideConfig(fractions=(0.5, 0.3, 0.3))


class TestFourStreamScan:
    def test_feedthrough_streams_sum_to_four_x(self):
        d = 3
        streams = StreamSet({name: feedthrough_stream(d) for name in STREAM_ORDER})
        x = t64(np.random.default_rng(11).normal(size=(2, 4, d)))
        out = four_stream_scan(x, streams)
        np.testing.assert_allclose(out.data, 4.0 * x.data, atol=1e-12)

    def test_single_frame_temporal_equals_spatial(self):
        rng = np.random.default_rng(12)
        d = 2
        p = random_stream(rng, d)
        x = t64(rng.normal(size=(1, 5, d)))
        a = stream_scan(x, "temporal_forward", p)
        b = stream_scan(x, "spatial_forward", p)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_two_by_two_hand_unrolled_oracle(self):
        # independent unroll of all four orderings for T=V=2, D=1, frozen params
        rng = np.random.default_rng(13)
        d = 1
        delta, a, b, c, skip = 0.4, -0.8, 1.2, 0.7, 0.3
        from sasmamba.ssm import frozen_params
        params = {name: frozen_params(d, 1, delta=np.array([delta]),
                                      b_const=np.array([b]), c_const=np.array([c]),
                                      a=np.array([[a]]), skip=np.array([skip]))
                  for name in STREAM_ORDER}
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
        out = four_stream_scan(t64(x), StreamSet(params))
        np.testing.assert_allclose(out.data.reshape(4), expect, rtol=1e-10)

    def test_backward_stream_reversal_consistency(self):
        rng = np.random.default_rng(14)
        d = 3
        p = random_stream(rng, d)
        x = rng.normal(size=(4, 5, d))
        rev = np.flip(x, (0, 1)).copy()   # reversal of the frame-major flattening
        fwd_on_rev = stream_scan(t64(rev), "temporal_forward", p).data
        bwd = stream_scan(t64(x), "temporal_backward", p).data
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
        gates = ({name: LinearParams(t64(rng.normal(size=(d, d)) * 0.5),
                                     t64(rng.normal(size=d) * 0.5)) for name in names}
                 if gated else None)
        x = rng.normal(size=(t_n, v_n, d))
        expect = np.zeros_like(x)
        for name, p in streams.ordered():
            spatial = name.startswith("spatial")
            seq = (x.transpose(1, 0, 2) if spatial else x).reshape(-1, d)
            if name.endswith("backward"):
                seq = seq[::-1]
            y = scan_by_unroll(seq, p)
            if gated:
                z = seq @ gates[name].weight.data.T + gates[name].bias.data
                y = y * z / (1.0 + np.exp(-z))
            if name.endswith("backward"):
                y = y[::-1]
            expect += y.reshape(v_n, t_n, d).transpose(1, 0, 2) if spatial else y.reshape(x.shape)
        out = four_stream_scan(t64(x), streams, gates)
        np.testing.assert_allclose(out.data, expect, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("gated", [False, True])
    def test_stacked_adjoint_splits_per_stream(self, gated):
        # every stream's nine tensors are leaves, so a gradient credited to
        # the wrong stream or the wrong field fails
        rng = np.random.default_rng(20)
        d = 4
        streams = stream_set(rng, d, STREAM_ORDER)
        gates = ({name: LinearParams(t64(rng.normal(size=(d, d)) * 0.5),
                                     t64(rng.normal(size=d) * 0.5)) for name in STREAM_ORDER}
                 if gated else None)
        x = t64(rng.normal(size=(3, 4, d)), grad=True)
        leaves = [x] + list(streams.tensors())
        if gated:
            leaves += [t for name in STREAM_ORDER for t in gates[name].tensors()]
        for leaf in leaves:
            leaf.requires_grad = True
        err = finite_diff_check_leaves(lambda: four_stream_scan(x, streams, gates), leaves)
        assert err < 1e-6

    def test_empty_stream_set_rejected(self):
        with pytest.raises(ConfigError):
            StreamSet({})

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigError):
            StreamSet({"diagonal_forward": feedthrough_stream(2)})


class TestSasLayer:
    def _degenerate_layer(self, c):
        sa = SaConvParams(1, zero_offset_net(c), [identity_tap(c, 1)], zero_local(c))
        streams = StreamSet({name: feedthrough_stream(c) for name in STREAM_ORDER})
        return SasLayerParams(sa=sa, stride_cfg=StrideConfig(strides=(1, 1, 1)),
                              streams=streams)

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
            layer = SasLayerParams(sa=sa, stride_cfg=StrideConfig(),
                                   streams=stream_set(rng, c, STREAM_ORDER))
            out = sas_ssm_layer(t64(rng.normal(size=(t_n, v_n, c))), layer)
            assert out.shape == (t_n, v_n, c)
            assert np.all(np.isfinite(out.data))

    def test_end_to_end_equals_manual_composition(self):
        rng = np.random.default_rng(17)
        c = 4
        sa = random_sa(rng, c, k=3)
        cfg = StrideConfig()
        streams = stream_set(rng, c, ("temporal_forward", "spatial_backward"))
        layer = SasLayerParams(sa=sa, stride_cfg=cfg, streams=streams)
        x = t64(rng.normal(size=(2, 4, c)))
        fused = sas_ssm_layer(x, layer)
        step = four_stream_scan(stride_scan(sa_conv(x, sa), cfg), streams)
        np.testing.assert_array_equal(fused.data, step.data)

    def test_full_layer_gradcheck(self):
        rng = np.random.default_rng(18)
        c = 8
        sa = random_sa(rng, c, k=3)
        layer = SasLayerParams(sa=sa, stride_cfg=StrideConfig(),
                               streams=stream_set(rng, c, STREAM_ORDER))
        x = t64(rng.normal(size=(3, 4, c)), grad=True)
        leaves = [x] + [t for t in layer.tensors()]
        for leaf in leaves:
            leaf.requires_grad = True
        err = finite_diff_check_leaves(lambda: sas_ssm_layer(x, layer), leaves,
                                       sample=3, rng=rng)
        assert err < 1e-4
