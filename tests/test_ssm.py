"""Selective scan: discretization, recurrence semantics, and the kernel oracle."""

import numpy as np
import pytest

from sasmamba.errors import DimensionError, DomainError
from sasmamba.ssm import (conv_apply, discretize, frozen_params,
                          selective_scan, softplus, softplus_inverse,
                          ssm_kernel)
from sasmamba.tensor import finite_diff_check, tensor


def random_frozen(rng, d, n, dtype=np.float64):
    delta = rng.uniform(0.05, 0.8)
    return frozen_params(
        d, n,
        delta=np.full(d, delta),
        b_const=rng.normal(size=n),
        c_const=rng.normal(size=n),
        a=-rng.uniform(0.2, 3.0, size=(d, n)),
        skip=rng.normal(size=d),
        dtype=dtype,
    )


def scan_np(u, p):
    return selective_scan(tensor(u, dtype=np.float64), p).data


class TestDiscretize:
    def test_zero_step_limit(self):
        a = np.array([[-1.0]])
        a_bar, b_bar = discretize(np.array([[1e-9]]), a, np.array([[1.0]]))
        np.testing.assert_allclose(a_bar, 1.0, atol=1e-8)
        np.testing.assert_allclose(b_bar, 1e-9, atol=1e-12)

    def test_scalar_closed_form(self):
        # a=-1, delta=ln2, b=1: a_bar=0.5, b_bar=(0.5-1)/(-1)=0.5
        a_bar, b_bar = discretize(np.array([[np.log(2.0)]]),
                                  np.array([[-1.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(a_bar, 0.5, rtol=1e-12)
        np.testing.assert_allclose(b_bar, 0.5, rtol=1e-12)

    def test_vanishing_state_matrix_series_limit(self):
        # (e^x - 1)/x -> 1, so b_bar -> delta * b
        a = np.array([[-1e-9]])
        a_bar, b_bar = discretize(np.array([[0.1]]), a, np.array([[2.0]]))
        np.testing.assert_allclose(a_bar, 1.0, atol=1e-9)
        np.testing.assert_allclose(b_bar, 0.2, rtol=1e-7)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(DomainError):
            discretize(np.array([[0.0]]), np.array([[-1.0]]), np.array([[1.0]]))

    def test_closed_form_over_grid(self):
        # step sizes from 1e-10 to 3 against state entries from 0.01 to 5
        # put some |delta * a| under the series cutoff and some above it
        rng = np.random.default_rng(12)
        delta = np.exp(rng.uniform(np.log(1e-10), np.log(3.0), size=(40, 6)))
        a = -np.exp(rng.uniform(np.log(0.01), np.log(5.0), size=(6, 3)))
        b = rng.normal(size=(40, 3))
        da = delta[:, :, None] * a[None, :, :]
        assert (np.abs(da) < 1e-6).any() and (np.abs(da) >= 1e-6).any()
        a_bar, b_bar = discretize(delta, a, b)
        np.testing.assert_allclose(a_bar, np.exp(da), rtol=1e-15)
        # the series branch errs by |delta * a| / 2 < 5e-7 relative
        np.testing.assert_allclose(b_bar, np.expm1(da) / a * b[:, None, :], rtol=1e-6)


class TestSoftplus:
    def test_inverse_roundtrip(self):
        y = np.array([1e-3, 0.05, 0.1, 2.0])
        np.testing.assert_allclose(softplus(softplus_inverse(y)), y, rtol=1e-10)

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            softplus_inverse(np.array([0.0]))


class TestSelectiveScan:
    def test_forgetful_state_is_memoryless(self):
        rng = np.random.default_rng(0)
        d, n, length = 3, 2, 6
        p = random_frozen(rng, d, n)
        p.a_log.data[:] = np.log(60.0)  # A = -60, a_bar ~ 0 at delta ~ 0.1
        p.dt_bias.data[:] = softplus_inverse(np.full(d, 0.5))
        u = rng.normal(size=(length, d))
        y = scan_np(u, p)
        a = -np.exp(p.a_log.data)
        a_bar, b_bar = discretize(np.full((length, d), 0.5), a,
                                  np.broadcast_to(p.b_bias.data, (length, n)))
        direct = (b_bar * p.c_bias.data).sum(axis=2) * u + p.skip.data * u
        np.testing.assert_allclose(y, direct, atol=1e-8)

    def test_zero_output_projection_leaves_feedthrough(self):
        rng = np.random.default_rng(1)
        p = random_frozen(rng, 4, 3)
        p.c_bias.data[:] = 0.0
        u = rng.normal(size=(5, 4))
        np.testing.assert_allclose(scan_np(u, p), p.skip.data * u, atol=1e-12)

    def test_three_step_hand_unroll(self):
        # independent oracle: unroll h_t = ab*h + bb*u, y = c*h + skip*u by hand
        delta, a, b, c, skip = 0.3, -0.7, 1.1, 0.9, 0.2
        p = frozen_params(1, 1, delta=np.array([delta]), b_const=np.array([b]),
                          c_const=np.array([c]), a=np.array([[a]]),
                          skip=np.array([skip]))
        u = np.array([[1.0], [-2.0], [0.5]])
        ab = np.exp(delta * a)
        bb = (ab - 1.0) / a * b
        h, expect = 0.0, []
        for t in range(3):
            h = ab * h + bb * u[t, 0]
            expect.append(c * h + skip * u[t, 0])
        np.testing.assert_allclose(scan_np(u, p)[:, 0], expect, rtol=1e-12)

    def test_shape_contract(self):
        rng = np.random.default_rng(2)
        p = random_frozen(rng, 4, 2)
        with pytest.raises(DimensionError):
            scan_np(rng.normal(size=(5, 3)), p)

    def test_causality(self):
        rng = np.random.default_rng(3)
        p = random_frozen(rng, 2, 2)
        u = rng.normal(size=(10, 2))
        base = scan_np(u, p)
        for t in (3, 7):
            u2 = u.copy()
            u2[t] += rng.normal(size=2)
            out = scan_np(u2, p)
            np.testing.assert_array_equal(out[:t], base[:t])

    def test_stability_long_sequence(self):
        rng = np.random.default_rng(4)
        p = random_frozen(rng, 2, 2)
        steps = np.arange(10_000)
        u = np.stack([np.sin(steps * 0.01), np.cos(steps * 0.03)], axis=1)
        y = scan_np(u, p)
        assert np.all(np.isfinite(y))
        assert np.abs(y).max() < 1e3

    def test_linearity_when_frozen(self):
        rng = np.random.default_rng(5)
        p = random_frozen(rng, 3, 2)
        u1 = rng.normal(size=(8, 3))
        u2 = rng.normal(size=(8, 3))
        alpha, beta = 0.7, -1.3
        lhs = scan_np(alpha * u1 + beta * u2, p)
        rhs = alpha * scan_np(u1, p) + beta * scan_np(u2, p)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-9)


class TestKernelOracle:
    def test_memoryless_kernel(self):
        k = ssm_kernel(np.zeros((1, 1)), np.array([[2.0]]), np.array([3.0]), 4)
        np.testing.assert_allclose(k[:, 0], [6.0, 0.0, 0.0, 0.0])

    def test_geometric_powers(self):
        k = ssm_kernel(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]), 3)
        np.testing.assert_allclose(k[:, 0], [1.0, 0.5, 0.25])

    def test_zero_output_matrix(self):
        k = ssm_kernel(np.full((2, 3), 0.9), np.ones((2, 3)), np.zeros(3), 5)
        np.testing.assert_array_equal(k, np.zeros((5, 2)))

    def test_length_domain(self):
        with pytest.raises(DomainError):
            ssm_kernel(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), 0)

    def test_conv_delta_kernel_is_identity(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=(6, 2))
        kernel = np.zeros((6, 2))
        kernel[0] = 1.0
        np.testing.assert_allclose(conv_apply(u, kernel, np.zeros(2)), u)

    def test_conv_impulse_recovers_kernel(self):
        rng = np.random.default_rng(7)
        kernel = rng.normal(size=(5, 3))
        u = np.zeros((5, 3))
        u[0] = 1.0
        np.testing.assert_allclose(conv_apply(u, kernel, np.zeros(3)), kernel)

    def test_conv_length_mismatch(self):
        with pytest.raises(DimensionError):
            conv_apply(np.zeros((4, 1)), np.zeros((3, 1)), np.zeros(1))

    @pytest.mark.parametrize("seed", range(10))
    def test_recurrence_equals_convolution(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        length = int(rng.integers(2, 65))
        p = random_frozen(rng, d, n)
        u = rng.normal(size=(length, d))
        via_scan = scan_np(u, p)
        delta = softplus(p.dt_bias.data)
        a_bar, b_bar = discretize(np.broadcast_to(delta, (length, d)),
                                  -np.exp(p.a_log.data),
                                  np.broadcast_to(p.b_bias.data, (length, n)))
        kernel = ssm_kernel(a_bar[0], b_bar[0], p.c_bias.data, length)
        via_conv = conv_apply(u, kernel, p.skip.data)
        denom = np.maximum(np.abs(via_conv), 1.0)
        assert np.max(np.abs(via_scan - via_conv) / denom) < 1e-5


class TestScanGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_recurrence_gradcheck(self, seed):
        rng = np.random.default_rng(200 + seed)
        d, n, r, length = 3, 2, 2, 5
        inputs = [
            tensor(rng.normal(size=(length, d)), dtype=np.float64),       # u
            tensor(rng.normal(size=(d, n)) * 0.3, dtype=np.float64),      # a_log
            tensor(rng.normal(size=(n, d)) * 0.5, dtype=np.float64),      # b_weight
            tensor(rng.normal(size=n) * 0.5, dtype=np.float64),           # b_bias
            tensor(rng.normal(size=(n, d)) * 0.5, dtype=np.float64),      # c_weight
            tensor(rng.normal(size=n) * 0.5, dtype=np.float64),           # c_bias
            tensor(rng.normal(size=(r, d)) * 0.5, dtype=np.float64),      # dt_down
            tensor(rng.normal(size=(d, r)) * 0.5, dtype=np.float64),      # dt_up
            tensor(rng.normal(size=d) - 1.5, dtype=np.float64),           # dt_bias
            tensor(rng.normal(size=d), dtype=np.float64),                 # skip
        ]
        assert finite_diff_check("selective_scan", inputs, eps=1e-5) < 1e-4

    def test_series_branch_gradcheck(self):
        # state entries near zero put |delta * a| under the series cutoff
        # for one state column, so both zero-order-hold branches are checked
        rng = np.random.default_rng(205)
        d, n, r, length = 3, 2, 2, 5
        a_log = rng.normal(size=(d, n)) * 0.3
        a_log[:, 0] = -25.0
        inputs = [tensor(rng.normal(size=shape) * scl, dtype=np.float64) for shape, scl in
                  (((length, d), 1.0), ((n, d), 0.5), ((n,), 0.5), ((n, d), 0.5),
                   ((n,), 0.5), ((r, d), 0.5), ((d, r), 0.5))]
        inputs.insert(1, tensor(a_log, dtype=np.float64))
        inputs += [tensor(rng.normal(size=d) - 1.5, dtype=np.float64),
                   tensor(rng.normal(size=d), dtype=np.float64)]
        assert finite_diff_check("selective_scan", inputs, eps=1e-5) < 1e-4
