"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import time

import numpy as np

from conftest import (conv_apply, discretize, frozen_params, identity_order, identity_tap,
                      random_stream, ssm_kernel, stack_taps, zero_local, zero_offset_net)
from sasmamba.checks import check_registered_ops, check_tiny_model
from sasmamba.cli import main
from sasmamba.fileio import load_ckpt, save_ckpt
from sasmamba.metrics import mpjpe_p2, procrustes_align
from sasmamba.model import ModelConfig, count_macs, count_params, forward, init_model
from sasmamba.sas import (STREAM_ORDER, SaConvParams, four_stream_scan, sa_conv,
                          stride_scan)
from sasmamba.ssm import selective_scan, softplus
from sasmamba.tensor import Tensor, tensor
from sasmamba.training import LossWeights, OptimState, gen_synthetic, train, wmpjpe


class _Criterion:
    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number:>2} ({self.label}): "
              f"{status} in {elapsed:.2f}s (limit {self.limit_s}s)", flush=True)
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit_s}s")
        return False


def test_criterion_01_parameter_count(capsys):
    with _Criterion(1, "parameter count", 1.0):
        total, _ = count_params(ModelConfig())
        assert abs(total - 624_000) / 624_000 <= 0.20
        rc = main(["count", "--frames", "243"])
        out = capsys.readouterr().out
        assert rc == 0
        reported = int(next(l.split()[1] for l in out.splitlines()
                            if l.startswith("total_params")))
        assert reported == total


def test_criterion_02_kernel_size_scaling():
    with _Criterion(2, "kernel-size scaling", 1.0):
        published = {1: 417_000, 3: 624_000, 5: 2_010_000, 7: 6_560_000}
        counts = {}
        for k, target in published.items():
            counts[k] = count_params(ModelConfig(K=k))[0]
            assert abs(counts[k] - target) / target <= 0.25, (k, counts[k])
        ordered = [counts[k] for k in (1, 3, 5, 7)]
        assert ordered == sorted(ordered) and len(set(ordered)) == 4


def test_criterion_03_mac_budget():
    with _Criterion(3, "MAC budget", 1.0):
        cfg = ModelConfig()
        macs, _ = count_macs(cfg, frames=243)
        assert 0.5e9 <= macs <= 3.0e9
        ratio = count_macs(cfg, frames=486)[0] / macs
        assert 1.9 <= ratio <= 2.1


def test_criterion_04_scan_equivalence_oracle():
    with _Criterion(4, "scan equivalence oracle", 10.0):
        rng = np.random.default_rng(40)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 5))
            length = int(rng.integers(2, 65))
            p = frozen_params(
                d, n,
                delta=np.full(d, rng.uniform(0.05, 0.8)),
                b_const=rng.normal(size=n), c_const=rng.normal(size=n),
                a=-rng.uniform(0.2, 3.0, size=(d, n)), skip=rng.normal(size=d))
            u = rng.normal(size=(length, d))
            via_scan = selective_scan(tensor(u, dtype=np.float64), p,
                                      identity_order(length)).data[:, 0]
            delta = softplus(p.dt_bias.data[0])
            a_bar, b_bar = discretize(np.broadcast_to(delta, (length, d)),
                                      -np.exp(p.a_log.data[0]),
                                      np.broadcast_to(p.b_bias.data[0], (length, n)))
            kernel = ssm_kernel(a_bar[0], b_bar[0], p.c_bias.data[0], length)
            via_conv = conv_apply(u, kernel, p.skip.data[0])
            rel = np.max(np.abs(via_scan - via_conv) / np.maximum(np.abs(via_conv), 1.0))
            assert rel < 1e-5


def test_criterion_05_gradient_suite():
    with _Criterion(5, "gradient suite", 120.0):
        worst_op = 0.0
        worst_model = 0.0
        for seed in range(100):
            errs = check_registered_ops(seed)
            worst_op = max(worst_op, max(errs.values()))
            worst_model = max(worst_model, check_tiny_model(seed))
        assert worst_op < 1e-4, worst_op
        assert worst_model < 1e-4, worst_model


def test_criterion_06_stride_scan_invariants():
    with _Criterion(6, "stride-scan invariants", 5.0):
        rng = np.random.default_rng(60)
        for _ in range(1000):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)),
                     int(rng.integers(1, 7)))
            x = rng.normal(size=shape)
            assert np.array_equal(stride_scan(Tensor(x), (1,)).data, x)
        for s, v in ((2, 5), (3, 7), (2, 17), (3, 17)):
            x = np.broadcast_to(np.arange(float(v))[None, :, None], (2, v, 1)).copy()
            got = stride_scan(Tensor(x), (s,)).data[0, :, 0]
            expect = [float(j if j % s == 0 else (j // s) * s) for j in range(v)]
            assert got.tolist() == expect
        x = Tensor(rng.normal(size=(3, 17, 16)))
        out = stride_scan(x, (1, 2, 3))
        assert np.array_equal(out.data[..., :8], x.data[..., :8])


def test_criterion_07_sa_conv_degeneracy():
    with _Criterion(7, "SA-Conv degeneracy", 5.0):
        rng = np.random.default_rng(70)
        c = 6
        ident = SaConvParams(zero_offset_net(c), stack_taps([identity_tap(c, 1)]), zero_local(c))
        x = rng.normal(size=(7, 5, c))
        out = sa_conv(Tensor(x.astype(np.float64)), ident)
        assert np.array_equal(out.data, x)
        shift = SaConvParams(zero_offset_net(c, bias=(1.0, 0.0)),
                             stack_taps([identity_tap(c, 1)]), zero_local(c))
        out = sa_conv(Tensor(x.astype(np.float64)), shift).data
        assert np.max(np.abs(out[:-1] - x[1:])) < 1e-6
        shift_v = SaConvParams(zero_offset_net(c, bias=(0.0, 2.0)),
                               stack_taps([identity_tap(c, 1)]), zero_local(c))
        out = sa_conv(Tensor(x.astype(np.float64)), shift_v).data
        assert np.max(np.abs(out[:, :-2] - x[:, 2:])) < 1e-6


def test_criterion_08_procrustes_recovery():
    with _Criterion(8, "Procrustes recovery", 5.0):
        rng = np.random.default_rng(80)
        for _ in range(100):
            gt = rng.normal(size=(17, 3))
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            s = rng.uniform(0.5, 2.0)
            t = rng.normal(size=3)
            pred = (gt - t) @ q / s
            transform, _ = procrustes_align(pred, gt)
            assert mpjpe_p2(pred[None], gt[None]) < 1e-6
            assert abs(transform.scale - s) < 1e-6
            assert np.max(np.abs(transform.rotation - q)) < 1e-6
            assert np.max(np.abs(transform.translation - t)) < 1e-6
        for _ in range(100):
            pred = rng.normal(size=(11, 3))
            gt = rng.normal(size=(11, 3))
            _, aligned = procrustes_align(pred, gt)
            ssr_sim = ((aligned - gt) ** 2).sum()
            rooted = pred - pred[0] + gt[0]
            ssr_root = ((rooted - gt) ** 2).sum()
            assert ssr_sim <= ssr_root + 1e-9


def test_criterion_09_overfit_sanity():
    with _Criterion(9, "overfit sanity", 600.0):
        cfg = ModelConfig(L=2, D=32, T=27, V=17, K=3, N=4)
        model = init_model(cfg, seed=0)
        dataset = gen_synthetic(seed=1, n_seqs=4, frames=27, joints=17,
                                noise_sigma=0.0)

        def mean_wmpjpe():
            return float(np.mean([
                float(wmpjpe(forward(model, kp), gt).data)
                for kp, gt in dataset.pairs]))

        initial = mean_wmpjpe()
        train(model, dataset, epochs=200, batch=4,
              weights=LossWeights(lambda_t=0.5, lambda_m=20.0),
              optim=OptimState(lr=1e-2, decay_factor=0.99), shuffle_seed=0)
        final = mean_wmpjpe()
        assert final < 0.10 * initial, (initial, final)


def test_criterion_10_determinism_and_serialization(tmp_path):
    with _Criterion(10, "determinism & serialization", 60.0):
        cfg = ModelConfig(L=1, D=8, T=6, V=4, K=1, N=2)
        m1 = init_model(cfg, seed=9)
        m2 = init_model(cfg, seed=9)
        for (n1, t1), (_, t2) in zip(m1.named_params(), m2.named_params()):
            assert t1.data.tobytes() == t2.data.tobytes(), n1

        ds = gen_synthetic(seed=3, n_seqs=3, frames=6, joints=4)
        tr1 = train(m1, ds, epochs=3, batch=2, shuffle_seed=1)
        tr2 = train(m2, ds, epochs=3, batch=2, shuffle_seed=1)
        assert tr1 == tr2
        for (n1, t1), (_, t2) in zip(m1.named_params(), m2.named_params()):
            assert t1.data.tobytes() == t2.data.tobytes(), n1

        x = np.random.default_rng(4).normal(size=(6, 4, 2)).astype(np.float32)
        y1 = forward(m1, x).data
        y2 = forward(m2, x).data
        assert y1.tobytes() == y2.tobytes()

        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_ckpt(m1, p1)
        reloaded = load_ckpt(p1)
        save_ckpt(reloaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert forward(reloaded, x).data.tobytes() == y1.tobytes()


def test_criterion_11_scan_direction_ablation():
    with _Criterion(11, "scan-direction ablation plumbing", 10.0):
        variants = {
            "S-f": ("spatial_forward",),
            "S-b": ("spatial_backward",),
            "S-fb": ("spatial_forward", "spatial_backward"),
            "T-f": ("temporal_forward",),
            "T-b": ("temporal_backward",),
            "T-fb": ("temporal_forward", "temporal_backward"),
            "ST-fb": STREAM_ORDER,
        }
        rng = np.random.default_rng(110)
        x = rng.normal(size=(5, 17, 8)).astype(np.float32)
        for name, streams in variants.items():
            cfg = ModelConfig(L=1, D=8, T=5, V=17, K=1, N=2, streams=streams)
            model = init_model(cfg, seed=11)
            out = forward(model, x[..., :2]).data
            assert out.shape == (5, 17, 3), name
            assert np.all(np.isfinite(out)), name
        p = random_stream(rng, 8)
        seq = Tensor(rng.normal(size=(5, 17, 8)))
        rev = Tensor(np.flip(seq.data, (0, 1)).copy())
        fwd_on_rev = four_stream_scan(rev, ("temporal_forward",), p).data
        bwd = four_stream_scan(seq, ("temporal_backward",), p).data
        rel = np.max(np.abs(fwd_on_rev - np.flip(bwd, (0, 1)))
                     / np.maximum(np.abs(bwd).max(), 1.0))
        assert rel < 1e-5
