"""Selective scan: discretization, recurrence semantics, and the kernel oracle."""

import tracemalloc

import numpy as np
import pytest

from conftest import (conv_apply, discretize, frozen_params, identity_order,
                      random_stream, scan_by_unroll, ssm_kernel, stack_streams,
                      traced_peak)
from sasmamba import ssm
from sasmamba.errors import DimensionError, DomainError
from sasmamba.sas import STREAM_ORDER, _scan_rows
from sasmamba.ssm import (SCAN_CHUNK, SelectiveSsmParams, selective_scan, softplus,
                          softplus_inverse)
from sasmamba.tensor import finite_diff_check_leaves, tensor


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
    """One stream's (L, D) output over the rows of u read in order."""
    return selective_scan(tensor(u, dtype=np.float64), p, identity_order(len(u))).data[:, 0]


def one_stream(u, *fields):
    """The scan of one stream (fields with S = 1) over the rows of u in order."""
    return selective_scan(u, SelectiveSsmParams(*fields), identity_order(u.shape[0]))


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
        # put |delta * a| both far under 1e-6, where exp(.) - 1 cancels, and
        # far above it
        rng = np.random.default_rng(12)
        delta = np.exp(rng.uniform(np.log(1e-10), np.log(3.0), size=(40, 6)))
        a = -np.exp(rng.uniform(np.log(0.01), np.log(5.0), size=(6, 3)))
        b = rng.normal(size=(40, 3))
        da = delta[:, :, None] * a[None, :, :]
        assert (np.abs(da) < 1e-6).any() and (np.abs(da) >= 1e-6).any()
        a_bar, b_bar = discretize(delta, a, b)
        np.testing.assert_allclose(a_bar, np.exp(da), rtol=1e-15)
        np.testing.assert_allclose(b_bar, np.expm1(da) / a * b[:, None, :], rtol=1e-14)

    @pytest.mark.parametrize("da", [2e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_float32_hold_accuracy(self, da):
        # exp(x) - 1 in float32 cancels to a relative error of about
        # 6e-8 / |x|, 1.3e-2 at |x| = 2e-6; the reference is the exact hold
        # in float64 of the same float32 inputs
        rng = np.random.default_rng(13)
        # |delta * a| lies within a factor of two of da
        a = (-rng.uniform(1.0, 2.0, size=(8, 4))).astype(np.float32)
        delta = (da * rng.uniform(0.5, 1.0, size=(16, 8))).astype(np.float32)
        b = rng.normal(size=(16, 4)).astype(np.float32)
        a_bar, b_bar = discretize(delta, a, b)
        assert a_bar.dtype == b_bar.dtype == np.float32
        d64, a64 = delta.astype(np.float64)[:, :, None], a.astype(np.float64)
        expect = np.expm1(d64 * a64) / a64 * b.astype(np.float64)[:, None, :]
        np.testing.assert_allclose(b_bar, expect, rtol=1e-6)


class TestSoftplus:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_form_keeps_the_two_expression_bits(self, dtype):
        # the buffer-reusing softplus against max(z, 0) + log1p(exp(-|z|))
        # written out, over |z| well past 88, where e^z overflows float32;
        # the input is left as it was
        z = np.concatenate([np.linspace(-300.0, 300.0, 60001),
                            np.random.default_rng(5).normal(size=5000) * 20.0,
                            [0.0, -0.0, 88.7, -88.7, 89.0, -104.0, 710.0, -745.0]]).astype(dtype)
        before = z.copy()
        expect = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        got = softplus(z)
        assert got.dtype == dtype and got.tobytes() == expect.tobytes()
        assert z.tobytes() == before.tobytes()

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
        a = -np.exp(p.a_log.data[0])
        a_bar, b_bar = discretize(np.full((length, d), 0.5), a,
                                  np.broadcast_to(p.b_bias.data[0], (length, n)))
        direct = (b_bar * p.c_bias.data[0]).sum(axis=2) * u + p.skip.data[0] * u
        np.testing.assert_allclose(y, direct, atol=1e-8)

    def test_zero_output_projection_leaves_feedthrough(self):
        rng = np.random.default_rng(1)
        p = random_frozen(rng, 4, 3)
        p.c_bias.data[:] = 0.0
        u = rng.normal(size=(5, 4))
        np.testing.assert_allclose(scan_np(u, p), p.skip.data[0] * u, atol=1e-12)

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
        # the order must read every one of the 5 rows, with one column per stream
        x = tensor(rng.normal(size=(5, 4)))
        for order in (identity_order(4), identity_order(5, streams=2), np.arange(5)):
            with pytest.raises(DimensionError):
                selective_scan(x, p, order)

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
        delta = softplus(p.dt_bias.data[0])
        a_bar, b_bar = discretize(np.broadcast_to(delta, (length, d)),
                                  -np.exp(p.a_log.data[0]),
                                  np.broadcast_to(p.b_bias.data[0], (length, n)))
        kernel = ssm_kernel(a_bar[0], b_bar[0], p.c_bias.data[0], length)
        via_conv = conv_apply(u, kernel, p.skip.data[0])
        denom = np.maximum(np.abs(via_conv), 1.0)
        assert np.max(np.abs(via_scan - via_conv) / denom) < 1e-5


class TestScanGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_recurrence_gradcheck(self, seed):
        rng = np.random.default_rng(200 + seed)
        d, n, r, length = 3, 2, 2, 5
        # one stream: u is (L, D) and every field has S = 1
        inputs = [
            tensor(rng.normal(size=(length, d)), dtype=np.float64),       # u
            tensor(rng.normal(size=(1, d, n)) * 0.3, dtype=np.float64),   # a_log
            tensor(rng.normal(size=(1, n, d)) * 0.5, dtype=np.float64),   # b_weight
            tensor(rng.normal(size=(1, n)) * 0.5, dtype=np.float64),      # b_bias
            tensor(rng.normal(size=(1, n, d)) * 0.5, dtype=np.float64),   # c_weight
            tensor(rng.normal(size=(1, n)) * 0.5, dtype=np.float64),      # c_bias
            tensor(rng.normal(size=(1, r, d)) * 0.5, dtype=np.float64),   # dt_down
            tensor(rng.normal(size=(1, d, r)) * 0.5, dtype=np.float64),   # dt_up
            tensor(rng.normal(size=(1, d)) - 1.5, dtype=np.float64),      # dt_bias
            tensor(rng.normal(size=(1, d)), dtype=np.float64),            # skip
        ]
        for x in inputs:
            x.requires_grad = True
        assert finite_diff_check_leaves(lambda: one_stream(*inputs), inputs, eps=1e-5) < 1e-4

    def test_series_branch_gradcheck(self):
        # state entries near zero put |delta * a| far under 1e-6 for one
        # state column, where the hold is close to its first-order series
        # delta * b, next to columns where it is not
        rng = np.random.default_rng(205)
        d, n, r, length = 3, 2, 2, 5
        a_log = rng.normal(size=(1, d, n)) * 0.3
        a_log[..., 0] = -25.0
        inputs = [tensor(rng.normal(size=shape) * scl, dtype=np.float64) for shape, scl in
                  (((length, d), 1.0), ((1, n, d), 0.5), ((1, n), 0.5), ((1, n, d), 0.5),
                   ((1, n), 0.5), ((1, r, d), 0.5), ((1, d, r), 0.5))]
        inputs.insert(1, tensor(a_log, dtype=np.float64))
        inputs += [tensor(rng.normal(size=(1, d)) - 1.5, dtype=np.float64),
                   tensor(rng.normal(size=(1, d)), dtype=np.float64)]
        for x in inputs:
            x.requires_grad = True
        assert finite_diff_check_leaves(lambda: one_stream(*inputs), inputs, eps=1e-5) < 1e-4


def _carrying_streams(rng, d, n=2, s_n=2):
    """Scan parameters of s_n streams whose state entries near -0.02 keep
    a_bar near 1, so the state carried across a chunk boundary still moves
    the outputs."""
    streams = [random_stream(rng, d, n) for _ in range(s_n)]
    for p in streams:
        p.a_log.data[:] = np.log(0.02) + rng.normal(size=p.a_log.shape) * 0.3
    return stack_streams(streams)


class TestChunkedScan:
    """Two streams over L = 2 * SCAN_CHUNK + 3 steps: three chunks, the last
    one partial."""

    def _problem(self):
        rng = np.random.default_rng(31)
        streams = _carrying_streams(rng, d=3)
        u = tensor(rng.normal(size=(2 * SCAN_CHUNK + 3, 3)), dtype=np.float64)
        return u, streams, identity_order(len(u.data), streams=2)

    def test_forward_matches_unroll(self):
        u, streams, order = self._problem()
        out = selective_scan(u, streams, order).data
        for s in range(2):
            np.testing.assert_allclose(out[:, s], scan_by_unroll(u.data, streams, s),
                                       rtol=1e-10, atol=1e-12)

    def test_gradients_against_finite_differences(self):
        u, streams, order = self._problem()
        leaves = [u] + list(streams.tensors())
        for leaf in leaves:
            leaf.requires_grad = True
        err = finite_diff_check_leaves(lambda: selective_scan(u, streams, order), leaves,
                                       sample=6)
        assert err < 1e-6


class TestScanOrder:
    def test_order_reads_the_gathered_sequence(self):
        # stream s over (x, order) is stream s alone over the sequence
        # x[order[:, s]] read in order, and x's gradient is the sum of the
        # streams' sequence gradients taken back through order; three chunks,
        # one stream in order, one reversed, one shuffled
        rng = np.random.default_rng(41)
        length, d, s_n = 2 * SCAN_CHUNK + 3, 3, 3
        streams = _carrying_streams(rng, d, s_n=s_n)
        order = np.stack([np.arange(length), np.arange(length)[::-1],
                          rng.permutation(length)], axis=1)
        x = tensor(rng.normal(size=(length, d)), requires_grad=True, dtype=np.float64)
        for t in streams.tensors():
            t.requires_grad = True
        out = selective_scan(x, streams, order)
        assert out.shape == (length, s_n, d)
        cot = rng.normal(size=out.shape)
        out.backward(cot)
        dx = np.zeros_like(x.data)
        for s in range(s_n):
            alone = SelectiveSsmParams(*(tensor(t.data[s:s + 1], requires_grad=True)
                                         for t in streams.tensors()))
            seq = tensor(x.data[order[:, s]], requires_grad=True)
            y = selective_scan(seq, alone, identity_order(length))
            # the output is in row layout: stream s's step l at row order[l, s]
            np.testing.assert_allclose(out.data[order[:, s], s], y.data[:, 0],
                                       rtol=1e-12, atol=1e-14)
            y.backward(cot[order[:, s], s:s + 1])
            dx[order[:, s]] += seq.grad
            for got, want in zip(streams.tensors(), alone.tensors()):
                np.testing.assert_allclose(got.grad[s], want.grad[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(x.grad, dx, rtol=1e-12, atol=1e-14)


class TestChunkBoundaries:
    """The chunk size only groups the steps: any SCAN_CHUNK gives the output
    of one chunk to the bit, and the gradients up to the order in which the
    chunks' ``a_log`` terms are summed."""

    def _run(self, monkeypatch, chunk, u_data, streams):
        monkeypatch.setattr(ssm, "SCAN_CHUNK", chunk)
        u = tensor(u_data, requires_grad=True, dtype=np.float64)
        for t in streams.tensors():
            t.requires_grad, t.grad = True, None
        out = selective_scan(u, streams, identity_order(len(u_data), streams=2))
        # a fixed random cotangent reaches every output
        out.backward(np.random.default_rng(7).normal(size=out.shape))
        return out.data, [u.grad] + [t.grad for t in streams.tensors()]

    @pytest.mark.parametrize("length", [2, 3, 4, 31, 32, 33, 63, 64, 65, 131])
    def test_any_chunk_size_gives_one_chunks_result(self, monkeypatch, length):
        # chunk sizes 1, 3, 32 (the default), 64 and 128 (earlier defaults)
        # against one chunk: lengths below, at, one past and no multiple of each
        rng = np.random.default_rng(length)
        streams = _carrying_streams(rng, d=3)
        u_data = rng.normal(size=(length, 3))
        whole, whole_grads = self._run(monkeypatch, length + 5, u_data, streams)
        for chunk in (1, 3, 32, 64, 128):
            out, grads = self._run(monkeypatch, chunk, u_data, streams)
            assert out.tobytes() == whole.tobytes(), chunk
            assert len(grads) == 10
            for got, want in zip(grads, whole_grads):
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-12, (chunk, err)


class TestScanTape:
    def test_forward_keeps_no_state_per_step(self):
        # with gradients on, what a four-chunk forward leaves allocated stays
        # below one (L, S, N, D) array: the adjoint keeps one state per chunk
        # (about 0.37 of that array here, two thirds of it the projections)
        rng = np.random.default_rng(3)
        s_n, n, d = 2, 32, 8
        length = 3 * SCAN_CHUNK + 5
        streams = _carrying_streams(rng, d, n, s_n)
        for t in streams.tensors():
            t.requires_grad = True
        u = tensor(rng.normal(size=(length, d)), requires_grad=True, dtype=np.float64)
        order = identity_order(length, s_n)
        tracemalloc.start()
        try:
            out = selective_scan(u, streams, order)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held < length * s_n * n * d * 8, held


def _model_scan(t_n, d, dtype, seed=0):
    """The four streams' scan of a (T, 17, D) map at the model's N = 4 and
    dt rank D // 16: its input, parameters and order."""
    rng = np.random.default_rng(seed)
    p = stack_streams([random_stream(rng, d, 4, d // 16, dtype) for _ in STREAM_ORDER])
    x = tensor(rng.normal(size=(t_n, 17, d)), dtype=dtype)
    return x, p, _scan_rows(t_n, 17, STREAM_ORDER)


class TestScanWorkingSet:
    @pytest.mark.parametrize("t_n, d", [(27, 32), (243, 64)])
    def test_forward_builds_no_sequence_array_besides_its_output(self, t_n, d):
        # the forward gathers each chunk's input, forms its step sizes and
        # vectors and writes its output rows one chunk at a time, so beyond
        # the (L, S, D) output it holds the (L, S, 2N + r) projections, the
        # states entering each chunk, the three-slot workspace and a few
        # chunk-sized temporaries. Measured at 6,158,140 bytes at T=243
        # D=64, where the forward that built its (L, S, D) input, step
        # sizes and readouts whole peaked at 19,276,652
        x, p, order = _model_scan(t_n, d, np.float32)
        selective_scan(x, p, order)   # imports and first-call caches outside the count
        peak = traced_peak(lambda: selective_scan(x, p, order))
        rows, s_n, n, r, item = t_n * 17, len(STREAM_ORDER), 4, d // 16, 4
        output = rows * s_n * d * item
        projections = rows * s_n * (2 * n + r) * item
        states = (-(-rows // SCAN_CHUNK) + 1 + 3 * SCAN_CHUNK) * s_n * n * d * item
        chunk = SCAN_CHUNK * s_n * d * item
        bound = output + projections + states + 12 * chunk
        assert peak <= bound, (peak, bound)
        # one more (L, S, D) array would not fit under the bound
        assert peak + output > bound, (peak, bound)

    @pytest.mark.parametrize("t_n, d", [(27, 32), (243, 64)])
    def test_adjoint_builds_no_sequence_array_besides_xs_terms(self, t_n, d):
        # the adjoint makes the (L, S, 2N + r) projections again, builds
        # each chunk's inputs again and writes x's per-stream gradient terms
        # and the projections' gradients to their rows one chunk at a time,
        # so it holds one (R, S, D) array, x's terms, which it sums into x's
        # (R, D) gradient, the projections and their gradients, the
        # four-slot workspace and a few chunk-sized temporaries; the root
        # reads the seed in place. Measured at 959,986 bytes at T=27 D=32
        # and 11,007,852 at T=243 D=64 while the root copied the seed and
        # the tape kept the projections, and at 1,211,670 and 19,129,800
        # when the adjoint also rebuilt its step sizes and vectors whole and
        # gathered x and g into scan order; 798,491 and 7,570,933 once the
        # root read its seed in place and the tape dropped the projections
        x, p, order = _model_scan(t_n, d, np.float32)
        for t in (x,) + p.tensors():
            t.requires_grad = True
        seed = np.ones((t_n, 17, len(STREAM_ORDER), d), dtype=np.float32)
        selective_scan(x, p, order).backward(seed)   # first-call caches outside the count
        for t in (x,) + p.tensors():
            t.grad = None
        out = selective_scan(x, p, order)
        peak = traced_peak(lambda: out.backward(seed))
        rows, s_n, n, r, item = t_n * 17, len(STREAM_ORDER), 4, d // 16, 4
        output = rows * s_n * d * item
        projections = rows * s_n * (2 * n + r) * item
        workspace = 4 * SCAN_CHUNK * s_n * n * d * item
        chunk = SCAN_CHUNK * s_n * d * item
        bound = output + rows * d * item + 2 * projections + workspace + 12 * chunk
        assert peak <= bound, (peak, bound)
        # one more (L, S, D) array would not fit under the bound
        assert peak + output > bound, (peak, bound)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t_n", [243, 27, 9, 7, 5])
    def test_adjoint_rebuilds_the_forwards_step_sizes(self, monkeypatch, t_n, dtype):
        # both passes form a chunk's step sizes through one builder, the
        # adjoint walking the chunks in reverse; the states it recomputes are
        # the forward's only if each chunk's step sizes keep their bits.
        # Copies are recorded, so a pass may reuse the step sizes' buffer
        made = []

        def recorded(*args, real=ssm._step_sizes):
            delta = real(*args)
            made.append(delta.copy())
            return delta

        monkeypatch.setattr(ssm, "_step_sizes", recorded)
        x, p, order = _model_scan(t_n, 64, dtype, seed=t_n)
        for t in p.tensors():
            t.requires_grad = True
        out = selective_scan(x, p, order)
        forward = made[:]
        assert len(forward) == -(-len(order) // SCAN_CHUNK)
        made.clear()
        out.backward(np.ones_like(out.data))
        assert len(made) == len(forward)
        for got, want in zip(made, reversed(forward)):
            assert got.tobytes() == want.tobytes()
