"""Network assembly: init determinism, forward contracts, accounting."""

from pathlib import Path

import numpy as np
import pytest

from conftest import backward_peak, golden_step, tape_captures

import sasmamba.sas
import sasmamba.ssm
import sasmamba.tensor as tz
from sasmamba.errors import ConfigError, DimensionError, NumericError
from sasmamba.model import (ModelConfig, astype_model, block_forward,
                            count_macs, count_params, forward, group_counts,
                            init_model, param_entries)
from sasmamba.sas import four_stream_scan, sa_conv, stride_scan
from sasmamba.tensor import (Tensor, add, finite_diff_check_leaves, gelu,
                             layer_norm, linear, tensor)
from sasmamba.training import gen_synthetic, total_loss

TINY = dict(L=1, D=8, T=6, V=4, K=1, N=2)


def tiny_cfg(**over):
    kw = dict(TINY)
    kw.update(over)
    return ModelConfig(**kw)


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = ModelConfig()
        assert (cfg.L, cfg.D, cfg.T, cfg.V, cfg.K) == (10, 64, 243, 17, 3)
        assert cfg.strides == (1, 2, 3)
        assert len(cfg.streams) == 4
        assert cfg.mlp_ratio == 4 and cfg.gated_streams is False

    def test_dict_roundtrip(self):
        cfg = tiny_cfg(streams=("temporal_forward", "spatial_backward"))
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"L": 1, "bogus": 3})

    def test_invalid_configs_list_violations(self):
        with pytest.raises(ConfigError, match="D must be"):
            ModelConfig(D=0)
        # the width rule is the stride split's alone
        with pytest.raises(ConfigError, match="not divisible"):
            ModelConfig(D=30)
        with pytest.raises(ConfigError, match="K must be odd"):
            tiny_cfg(K=2)
        with pytest.raises(ConfigError, match="stream"):
            tiny_cfg(streams=())


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = tiny_cfg()
        m1 = init_model(cfg, seed=7)
        m2 = init_model(cfg, seed=7)
        for (n1, t1), (n2, t2) in zip(m1.named_params(), m2.named_params()):
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_different_seeds_differ(self):
        cfg = tiny_cfg()
        m1 = init_model(cfg, seed=1)
        m2 = init_model(cfg, seed=2)
        assert any(not np.array_equal(t1.data, m2.params[n].data)
                   for n, t1 in m1.named_params())

    def test_indivisible_width_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(D=30)

    def test_width_the_stride_groups_cannot_split_rejected(self):
        # 8 channels in fifths: the config is rejected before anything counts it
        with pytest.raises(ConfigError, match="not divisible"):
            ModelConfig(D=8, strides=(1, 2, 3, 4, 5))

    def test_width_the_stride_groups_split_runs(self):
        # 6 channels in halves: no multiple of 4, yet the two stride groups split it
        m = init_model(tiny_cfg(D=6, strides=(1, 3)), seed=0)
        m.mark_trainable()
        rng = np.random.default_rng(0)
        out = forward(m, rng.normal(size=(6, 4, 2)))
        total_loss(out, rng.normal(size=(6, 4, 3))).backward()
        assert np.isfinite(out.data).all()
        for _, t in m.named_params():
            assert t.grad is not None and np.isfinite(t.grad).all()

    def test_state_matrix_negative_and_dt_in_range(self):
        m = init_model(tiny_cfg(N=3), seed=0)
        from sasmamba.ssm import softplus
        for name, t in m.named_params():
            if name.endswith("a_log"):
                a = -np.exp(t.data.astype(np.float64))
                assert np.all(a < 0)
                # (S, D, N): the first channel of every stream
                np.testing.assert_allclose(a[:, 0], [[-1.0, -2.0, -3.0]] * len(a), rtol=1e-6)
            if name.endswith("dt_bias"):
                dt = softplus(t.data.astype(np.float64))
                assert np.all(dt >= 1e-3 * 0.99) and np.all(dt <= 1e-1 * 1.01)


class TestForward:
    def test_output_shape(self):
        m = init_model(tiny_cfg(), seed=0)
        out = forward(m, np.random.default_rng(0).normal(size=(6, 4, 2)))
        assert out.shape == (6, 4, 3)
        assert np.all(np.isfinite(out.data))

    def test_shorter_input_crops_temporal_embedding(self):
        m = init_model(tiny_cfg(), seed=0)
        out = forward(m, np.zeros((3, 4, 2), dtype=np.float32))
        assert out.shape == (3, 4, 3)

    def test_zero_input_zero_head_bias_gives_constant_output(self):
        cfg = tiny_cfg()
        m = init_model(cfg, seed=3)
        # kill everything that could inject variation across positions
        m.params["pos_spatial"].data[:] = 0.0
        m.params["pos_temporal"].data[:] = 0.0
        m.params["head.bias"].data[:] = [0.25, -0.5, 1.0]
        out = forward(m, np.zeros((4, 4, 2), dtype=np.float32))
        first = out.data[0, 0]
        np.testing.assert_allclose(out.data, np.broadcast_to(first, out.shape),
                                   rtol=1e-5, atol=1e-6)

    def test_joint_mismatch(self):
        m = init_model(tiny_cfg(), seed=0)
        with pytest.raises(DimensionError):
            forward(m, np.zeros((4, 5, 2)))

    def test_too_many_frames(self):
        m = init_model(tiny_cfg(), seed=0)
        with pytest.raises(DimensionError):
            forward(m, np.zeros((7, 4, 2)))

    def test_non_finite_input(self):
        m = init_model(tiny_cfg(), seed=0)
        bad = np.zeros((4, 4, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            forward(m, bad)

    def test_deterministic_and_pure(self):
        m = init_model(tiny_cfg(), seed=0)
        x = np.random.default_rng(1).normal(size=(6, 4, 2)).astype(np.float32)
        blob = {n: t.data.copy() for n, t in m.named_params()}
        a = forward(m, x).data
        b = forward(m, x).data
        assert np.array_equal(a, b)
        for n, t in m.named_params():
            assert np.array_equal(t.data, blob[n])

    def test_tiny_model_equals_manual_composition(self):
        cfg = tiny_cfg(T=3)
        m = init_model(cfg, seed=5)
        x = np.random.default_rng(2).normal(size=(3, 4, 2)).astype(np.float32)
        got = forward(m, x).data

        h = add(linear(Tensor(x), m.embed), m.pos_spatial)
        bp = m.blocks[0]
        sas_in = layer_norm(h, bp.norm1)
        sas_out = four_stream_scan(
            stride_scan(sa_conv(sas_in, bp.sas.sa), bp.sas.strides),
            bp.sas.streams, bp.sas.scan)
        h = add(h, sas_out)
        h = add(h, linear(gelu(linear(layer_norm(h, bp.norm2), bp.mlp1)), bp.mlp2))
        h = add(h, m.pos_temporal)
        expect = linear(h, m.head).data
        np.testing.assert_array_equal(got, expect)

    def test_residual_identity_when_output_stages_zeroed(self):
        cfg = tiny_cfg(T=4)
        m = init_model(cfg, seed=6)
        for name, t in m.named_params():
            if (name.endswith("c_weight") or name.endswith("c_bias")
                    or name.endswith(".skip") or name.startswith("blocks.0.mlp2")):
                t.data[:] = 0.0
        x = Tensor(np.random.default_rng(3).normal(size=(4, 4, 8)).astype(np.float32))
        out = block_forward(x, m.blocks[0])
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)


class TestCountParams:
    def test_toy_config_hand_summed(self):
        cfg = ModelConfig(L=1, D=4, N=2, K=1, V=2, T=2, mlp_ratio=1)
        # enumerate every tensor by hand: rho = 2, r = 1
        expected = sum([
            4 * 2, 4,            # embed
            2 * 4, 2 * 4,        # pos fields
            4, 4,                # norm1
            2 * 4 * 9, 2,        # offset conv
            4 * 9, 4,            # local depthwise conv
            4, 2 * 4, 4 * 2,     # one tap: diag, down, up
            4 * ((4 * 2) + (2 * 4 + 2) + (2 * 4 + 2) + (1 * 4) + (4 * 1) + 4 + 4),
            4, 4,                # norm2
            4 * 4, 4,            # mlp1
            4 * 4, 4,            # mlp2
            3 * 4, 3,            # head
        ])
        total, breakdown = count_params(cfg)
        assert total == expected == 409

    def test_count_matches_materialized_model(self):
        for cfg in (tiny_cfg(), tiny_cfg(K=3, gated_streams=True),
                    tiny_cfg(streams=("spatial_forward",))):
            total, breakdown = count_params(cfg)
            m = init_model(cfg, seed=0)
            assert total == sum(t.size for _, t in m.named_params())
            # each parameter holds exactly the manifest entries keyed to it
            held = {}
            for (name, count), (_, shape, _, key, index) in zip(breakdown, param_entries(cfg)):
                held[key] = held.get(key, 0) + count
                part = m.params[key].data if index is None else m.params[key].data[index]
                assert part.shape == shape, name
            assert held == {key: t.size for key, t in m.named_params()}

    def test_default_total_near_published_budget(self):
        total, _ = count_params(ModelConfig())
        assert abs(total - 624_000) / 624_000 < 0.20

    def test_kernel_sweep_monotone(self):
        counts = [count_params(ModelConfig(K=k))[0] for k in (1, 3, 5, 7)]
        assert counts == sorted(counts) and len(set(counts)) == 4

    def test_group_table_sums_to_total(self):
        total, breakdown = count_params(ModelConfig())
        groups = group_counts(breakdown)
        assert sum(groups.values()) == total


class TestCountMacs:
    def test_budget_and_linearity(self):
        cfg = ModelConfig()
        total, breakdown = count_macs(cfg, frames=243)
        assert 0.5e9 <= total <= 3.0e9
        assert sum(breakdown.values()) == total
        ratio = count_macs(cfg, frames=486)[0] / total
        assert 1.9 <= ratio <= 2.1

    def test_large_config_ratio(self):
        small = count_macs(ModelConfig(), 243)[0]
        large = count_macs(ModelConfig(L=20, D=128), 243)[0]
        assert large / small > 4.0

    def test_frames_domain(self):
        with pytest.raises(ConfigError):
            count_macs(ModelConfig(), 0)

    def test_sampling_and_tap_mixing_follow_the_op(self):
        # 5 frames of 4 joints at D=8 K=3, so rho = 18: one four-corner
        # sample per position, 20 * 4 * 8; the nine taps' diagonal and up
        # maps over the 7 x 6 extended grid and their down maps over the 20
        # positions, 9 * (42 * (8 + 18 * 8) + 20 * 18 * 8)
        cfg = ModelConfig(L=2, D=8, T=9, V=4, K=3, N=2, strides=(1, 3))
        _, breakdown = count_macs(cfg, frames=5)
        assert breakdown["bilinear_sampling"] == 2 * 640
        assert breakdown["tap_mixing"] == 2 * 83_376


class TestGatedStreams:
    def test_gated_forward_shape_and_params(self):
        cfg = tiny_cfg(gated_streams=True)
        total, _ = count_params(cfg)
        base, _ = count_params(tiny_cfg())
        d = cfg.D
        per_gate = d * d + d
        assert total == base + cfg.L * len(cfg.streams) * per_gate
        m = init_model(cfg, seed=2)
        out = forward(m, np.random.default_rng(0).normal(size=(6, 4, 2)))
        assert out.shape == (6, 4, 3)
        assert np.all(np.isfinite(out.data))

    def test_gated_gradcheck(self):
        cfg = ModelConfig(L=1, D=8, T=3, V=4, K=1, N=2, gated_streams=True,
                          streams=("temporal_forward", "spatial_backward"))
        m = astype_model(init_model(cfg, seed=3), np.float64)
        m.mark_trainable()
        rng = np.random.default_rng(6)
        x = tensor(rng.normal(size=(3, 4, 2)), requires_grad=True, dtype=np.float64)
        leaves = [x] + [t for _, t in m.named_params()]
        err = finite_diff_check_leaves(lambda: forward(m, x), leaves,
                                       sample=2, rng=rng)
        assert err < 1e-4

    def test_gated_forward_is_one_gate_linear_per_block(self, monkeypatch):
        # all S gates of a block are one stacked linear, one silu, one
        # reshape and one product in row order: 46 taped ops at the small
        # overfit shape
        calls = []
        for mod in (tz, sasmamba.sas, sasmamba.ssm):
            def counted(*args, _make=mod.make_op):
                calls.append(1)
                return _make(*args)
            monkeypatch.setattr(mod, "make_op", counted)
        cfg = ModelConfig(L=2, D=32, T=27, gated_streams=True)
        m = init_model(cfg, seed=0)
        m.mark_trainable()
        forward(m, np.random.default_rng(1).normal(size=(27, 17, 2)))
        assert len(calls) <= 46


class TestModelGradient:
    def test_end_to_end_tiny_gradcheck(self):
        cfg = ModelConfig(L=1, D=8, T=3, V=4, K=3, N=2)
        m = astype_model(init_model(cfg, seed=11), np.float64)
        m.mark_trainable()
        rng = np.random.default_rng(4)
        x = tensor(rng.normal(size=(3, 4, 2)), requires_grad=True, dtype=np.float64)
        leaves = [x] + [t for _, t in m.named_params()]
        err = finite_diff_check_leaves(lambda: forward(m, x), leaves,
                                       sample=2, rng=rng)
        assert err < 1e-4

    def test_default_width_gradcheck_subsample(self):
        # full default architecture at reduced depth/frames; random parameter
        # elements probed against central differences
        cfg = ModelConfig(L=2, T=9)
        m = astype_model(init_model(cfg, seed=12), np.float64)
        m.mark_trainable()
        rng = np.random.default_rng(5)
        x = tensor(rng.normal(size=(9, 17, 2)), requires_grad=True, dtype=np.float64)
        names = [n for n, _ in m.named_params()]
        chosen = rng.choice(len(names), size=6, replace=False)
        leaves = [x] + [m.params[names[i]] for i in chosen]
        err = finite_diff_check_leaves(lambda: forward(m, x), leaves,
                                       sample=1, rng=rng)
        assert err < 1e-3

    def test_float64_step_matches_its_golden_file(self):
        # the finite-difference checks above hold adjoints to 1e-4; this holds
        # every gradient of one step to 1e-12 of the arrays that
        # tests/make_golden_step.py wrote, so an adjoint rewrite may move
        # them only by rounding
        arrays = golden_step()
        with np.load(Path(__file__).resolve().parent / "data" / "golden_float64_step.npz") as f:
            golden = {name: f[name] for name in f.files}
        assert sorted(golden) == sorted(arrays)
        for name, ref in golden.items():
            assert arrays[name].shape == ref.shape, name
            diff = np.abs(arrays[name] - ref).max() / np.abs(ref).max()
            assert diff <= 1e-12, (name, diff)


class TestTapeConsumption:
    def _step(self, cfg, seed=0):
        model = init_model(cfg, seed=seed)
        model.mark_trainable()
        kp2d, pose3d = gen_synthetic(seed + 1, 1, cfg.T, cfg.V).pairs[0]
        pred = forward(model, kp2d)
        return model, pred, total_loss(pred, pose3d)

    def test_backward_keeps_only_leaf_gradients(self):
        model, pred, loss = self._step(ModelConfig(L=1, D=8, T=6, V=4, K=3, N=2))
        loss.backward()
        assert pred.grad is None and pred._node.parents == ()
        assert loss.grad is not None
        for name, t in model.named_params():
            assert t.grad is not None and t.grad.shape == t.shape, name

    def test_backward_frees_the_tape_as_it_goes(self, monkeypatch):
        # the tape shrinks while gradients grow, so the peak stays near the
        # memory held after the forward (1.280x; 1.263x at PR 29; 1.265x
        # once the tape kept neither the scan's projections nor norm2's
        # output and nodes adopted the gradients their adjoints made;
        # 1.274x once norm2 -> mlp2 became one op keeping GELU's CDF alone
        # and the scan's adjoint wrote x's terms over its upstream
        # gradient, as the forward keeping less raises it); a pass that
        # keeps every node and intermediate gradient until it returns peaks
        # at 2.578x. One untraced step first: the first call of an op may
        # import a module (GELU imports scipy.special), which would inflate
        # the memory held after the forward when this test runs alone. On
        # failure the message names the adjoint that ran at the peak
        cfg = ModelConfig(L=2, D=32, T=27)
        self._step(cfg)[2].backward()
        held, peak, op = backward_peak(lambda: self._step(cfg)[2], monkeypatch)
        assert peak <= 1.3 * held, (f"{peak / held:.4f}x", op, f"{peak:,} bytes at the peak")

    def test_backward_transient_stays_at_its_measured_bound(self, monkeypatch):
        # the ratio test's setup, bounded in bytes: a bound on the ratio
        # alone lets an adjoint's transient grow whenever the tape does. The
        # backward's peak above the memory held after the forward measured
        # 704,076-704,204 bytes while the tape kept the (K*K, T*V, C)
        # samples, 604,438 once the sampling and mixing op rebuilt them one
        # tap at a time and the scan's adjoint took four workspace slots,
        # 548,405-548,437 once the scan's adjoint built its inputs one chunk
        # at a time, as its forward does, 484,974-485,006 once a node
        # adopted a gradient its adjoint made, and 372,094-372,342, through
        # backward_peak, since norm2 -> mlp2 became one op and the scan's
        # adjoint writes x's terms over its upstream gradient and its
        # projections' gradients over the projections, frees its workspace
        # and each chunk's temporaries before its tail and broadcasts one
        # operand per product. Its peak is the scan's adjoint
        cfg = ModelConfig(L=2, D=32, T=27)
        self._step(cfg)[2].backward()
        held, peak, op = backward_peak(lambda: self._step(cfg)[2], monkeypatch)
        assert peak - held <= 372_600, (f"{peak - held:,} bytes above the forward's", op)

    def test_tape_keeps_only_what_adjoints_cannot_rebuild(self):
        # norm2 -> mlp1 -> GELU -> mlp2 is one op that keeps x̂, the (T, V, 1)
        # inverse deviations and GELU's CDF at the hidden pre-activation,
        # and rebuilds norm2's output, the pre-activation, GELU's slope and
        # its output; no (T, V, 4D) array is kept by a gelu or linear node.
        # Sampling and mixing is one op that
        # keeps x and the (T*V, 2) positions of offsets plus grid: its
        # adjoint rebuilds the convolved grid, its row table and low-rank
        # products, and the sampler's corners and weights, so neither a
        # per-tap array, the convolved grid nor an index table is kept.
        # The scan keeps its (T*V, D) input once and gathers it into the S
        # streams' orders again, and rebuilds its (R, S, 2N+r) projections
        # and from them its (L, S, D) step sizes and (L, S, N) input and
        # output vectors. The 3x3
        # convolutions rebuild their index tables from the grid shape
        cfg = ModelConfig(L=2, D=32, T=27)
        model, _, loss = self._step(cfg)
        params = {id(t.data) for _, t in model.named_params()}
        kept = {}
        for op, bases in tape_captures(loss):
            kept.setdefault(op, []).append(bases)
        positions = cfg.T * cfg.V
        hidden = (cfg.T, cfg.V, cfg.mlp_ratio * cfg.D)
        for op in ("gelu", "linear"):
            for bases in kept.get(op, []):
                assert [b.shape for b in bases if b.shape == hidden] == [], op
        assert len(kept["layer_norm_mlp"]) == cfg.L
        for bases in kept["layer_norm_mlp"]:
            maps = sorted(b.shape for b in bases if id(b) not in params)
            assert maps == [(cfg.T, cfg.V, 1), (cfg.T, cfg.V, cfg.D), hidden], maps
        assert "bilinear_gather" not in kept
        assert len(kept["NeighborMixParams.apply"]) == cfg.L
        taps = cfg.K ** 2
        for bases in kept["NeighborMixParams.apply"]:
            # x, unless an op met earlier in the walk keeps it, and the
            # positions
            assert {b.shape for b in bases if id(b) not in params} <= {
                (cfg.T, cfg.V, cfg.D), (positions, 2)}
            assert [b.shape for b in bases if b.size == taps * positions * 2] == []
            assert [b.shape for b in bases if b.size == taps * positions * cfg.D] == []
            assert [b.dtype for b in bases if b.dtype.kind in "iu"] == []
            assert [b.dtype for b in bases if b.dtype == np.float64] == []
        assert len(kept["selective_scan"]) == cfg.L
        s_n = len(cfg.streams)
        for bases in kept["selective_scan"]:
            assert [b.shape for b in bases
                    if b.dtype.kind == "f" and b.size == positions * s_n * cfg.D] == []
        for bases in kept["selective_scan"]:
            assert [b.shape for b in bases if b.shape == (positions, s_n, cfg.N)] == []
            assert [b.shape for b in bases
                    if b.shape == (positions, s_n, 2 * cfg.N + cfg.dt_rank)] == []
        for op in ("grid_conv3x3", "depthwise_conv3x3"):
            assert len(kept[op]) == cfg.L
            for bases in kept[op]:
                assert [b.dtype for b in bases if b.dtype.kind in "iu"] == [], op

    def test_tape_budget(self):
        # what the adjoints keep after an L=2 D=32 T=27 forward and
        # total_loss, by the tape_captures walk: 4,357,536 bytes when the
        # scan kept its gathered (L, S, D) input and its (L, S, N) vectors,
        # sampling its CSR pattern and weights and the 3x3 convolutions their
        # neighbour rows; 3,160,000 once the adjoints rebuilt them; 2,102,464
        # once sampling and mixing kept x and the positions, not the samples;
        # 2,043,856 once it kept the (T*V, 2) base of offsets plus grid, not
        # the (K*K, T, V, 2) positions; 2,039,824 once the scan kept only the
        # states entering its chunks, not the final one (2,039,680 by this
        # walk); 1,775,552 once the scan made its projections again and
        # norm2 -> mlp1 rebuilt norm2's output; 1,306,560 once norm2 -> mlp2
        # became one op that keeps GELU's CDF and neither its slope nor its
        # output. On failure the message lists the bytes each op keeps, so a
        # change names the op that grew
        cfg = ModelConfig(L=2, D=32, T=27)
        by_op = {}
        for op, bases in tape_captures(self._step(cfg)[2]):
            by_op[op] = by_op.get(op, 0) + sum(b.nbytes for b in bases)
        kept = sum(by_op.values())
        assert kept <= 1_306_560, (kept, sorted(by_op.items(), key=lambda kv: -kv[1]))

