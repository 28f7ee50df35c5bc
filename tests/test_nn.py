import math
import tracemalloc

import numpy as np
import pytest

from psimlab.nn import (AdamState, Conv2d, ConvTranspose2d, InstanceNorm,
                        LeakyReLU, NumericError, ReLU, Sequential, Sigmoid,
                        Tanh, adam_step, grad_check, l2_loss, ops)


def l1_loss(target):
    """The summed L1 loss for ``grad_check``: (loss, gradient in y)."""
    def fn(y):
        diff = y - target
        return float(np.sum(np.abs(diff))), np.sign(diff)
    return fn


def brute_conv2d(x, w, b, stride, pad):
    n, c, h, width = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (width + 2 * pad - kw) // stride + 1
    y = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = b[oi]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[oi, ci, u, v] * \
                                    xp[ni, ci, i * stride + u, j * stride + v]
                    y[ni, oi, i, j] = acc
    return y


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 3, 6, 6))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y = ops.conv2d_forward(x, w, np.zeros(3))
        assert np.array_equal(y, x)

    def test_zero_weights(self):
        x = np.random.default_rng(1).normal(size=(2, 2, 5, 5))
        y = ops.conv2d_forward(x, np.zeros((4, 2, 3, 3)), np.zeros(4),
                               padding=1)
        assert np.all(y == 0.0)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0), (2, 0)])
    def test_matches_brute_force(self, stride, pad):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        y = ops.conv2d_forward(x, w, b, stride, pad)
        assert np.max(np.abs(y - brute_conv2d(x, w, b, stride, pad))) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        zero_b = np.zeros(3)
        y1 = ops.conv2d_forward(2.5 * x, w, zero_b, 1, 1)
        y2 = 2.5 * ops.conv2d_forward(x, w, zero_b, 1, 1)
        assert np.max(np.abs(y1 - y2)) < 1e-12 * np.max(np.abs(y2))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            ops.conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)),
                               np.zeros(1))

    def test_output_size_formula(self):
        y = ops.conv2d_forward(np.zeros((1, 1, 10, 10)),
                               np.zeros((1, 1, 4, 4)), np.zeros(1),
                               stride=2, padding=1)
        assert y.shape == (1, 1, 5, 5)


class TestConvTranspose2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 6, 6))
        w = np.zeros((2, 2, 1, 1))
        for c in range(2):
            w[c, c, 0, 0] = 1.0
        y = ops.conv_transpose2d_forward(x, w, np.zeros(2))
        assert np.array_equal(y, x)

    def test_adjoint_of_conv(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 2, 4, 4))
        x = rng.normal(size=(1, 2, 8, 8))
        y = rng.normal(size=(1, 3, 4, 4))
        cx = ops.conv2d_forward(x, w, np.zeros(3), stride=2, padding=1)
        cty = ops.conv_transpose2d_forward(y, w, np.zeros(2), stride=2,
                                           padding=1)
        lhs = float(np.sum(cx * y))
        rhs = float(np.sum(x * cty))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_stride2_delta_stamps_kernel(self):
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 1.0
        w = np.random.default_rng(5).normal(size=(1, 1, 3, 3))
        y = ops.conv_transpose2d_forward(x, w, np.zeros(1), stride=2)
        # delta at (1,1) maps to block starting at (2,2)
        assert np.array_equal(y[0, 0, 2:5, 2:5], w[0, 0])
        y[0, 0, 2:5, 2:5] = 0.0
        assert np.all(y == 0.0)

    def test_output_size_formula(self):
        y = ops.conv_transpose2d_forward(np.zeros((1, 1, 5, 5)),
                                         np.zeros((1, 1, 4, 4)), np.zeros(1),
                                         stride=2, padding=1)
        assert y.shape == (1, 1, 10, 10)


class TestPartialBackward:
    """``params=False`` and ``inputs=False`` leave out gradients without
    changing the ones a conv still forms, bitwise; a backward overwrites
    the parameter gradients it forms and leaves the others as they were."""

    @staticmethod
    def backward(layer, x, gy, **flags):
        layer.forward(x)
        gx = layer.backward(gy, **flags)
        return gx, [g.copy() for _, g in layer.gradients()]

    @pytest.mark.parametrize("in_ch,out_ch,k,stride", [(3, 4, 4, 2),
                                                       (5, 1, 3, 1)],
                             ids=["stride2", "thin"])
    def test_conv2d_partial_equals_full(self, in_ch, out_ch, k, stride):
        rng = np.random.default_rng(11)
        layer = Conv2d(in_ch, out_ch, k, stride=stride, padding=1, rng=rng)
        x = rng.normal(size=(2, in_ch, 8, 8))
        gy = rng.normal(size=layer.forward(x).shape)
        gx, grads = self.backward(layer, x, gy)
        _, doubled = self.backward(layer, x, 2.0 * gy)
        gx_only, untouched = self.backward(layer, x, gy, params=False)
        none, grads_only = self.backward(layer, x, gy, inputs=False)
        assert gx_only.tobytes() == gx.tobytes()
        # as the previous backward, on 2 * gy, set them
        assert [g.tobytes() for g in untouched] == \
            [g.tobytes() for g in doubled]
        assert [g.tobytes() for g in doubled] != \
            [g.tobytes() for g in grads]
        assert none is None
        assert [g.tobytes() for g in grads_only] == \
            [g.tobytes() for g in grads]

    def test_sequential_skips_only_its_input_gradient(self):
        rng = np.random.default_rng(12)
        seq = Sequential(Conv2d(3, 4, 3, padding=1, rng=rng), InstanceNorm(4),
                         LeakyReLU(0.2), Conv2d(4, 2, 3, padding=1, rng=rng))
        x = rng.normal(size=(2, 3, 6, 6))
        gy = rng.normal(size=(2, 2, 6, 6))
        _, grads = self.backward(seq, x, gy)
        none, grads_only = self.backward(seq, x, gy, inputs=False)
        assert none is None
        assert [g.tobytes() for g in grads_only] == \
            [g.tobytes() for g in grads]

    @pytest.mark.parametrize("flags", [{"params": False}, {"inputs": False}])
    def test_transposed_conv_has_only_the_full_backward(self, flags):
        rng = np.random.default_rng(13)
        layer = ConvTranspose2d(4, 3, 4, stride=2, padding=1, rng=rng)
        y = layer.forward(rng.normal(size=(1, 4, 3, 3)))
        with pytest.raises(ValueError):
            layer.backward(np.ones_like(y), **flags)


def inner(a, b):
    """<a, b> and the sum of |a * b|, the scale its rounding error has."""
    return float(np.sum(a * b)), float(np.sum(np.abs(a * b)))


def assert_adjoint(lhs, rhs):
    (left, scale_l), (right, scale_r) = lhs, rhs
    assert abs(left - right) <= 1e-12 * max(scale_l, scale_r)


# (batch, in, out, kernel, stride, padding, input hw): stride 1 and 2,
# padding 0-2, out < in (the thin-output route at stride 1), out > in,
# out == 1, batches that are not a multiple of the GEMM chunk, non-square
CORE_CASES = [
    (1, 3, 5, 3, 1, 1, (6, 9)),
    (3, 5, 2, 3, 1, 1, (7, 5)),
    (3, 4, 1, 3, 1, 2, (5, 8)),
    (1, 6, 1, 3, 1, 0, (6, 6)),
    (3, 2, 4, 4, 2, 1, (8, 6)),
    (1, 5, 3, 4, 2, 1, (9, 7)),
    (3, 4, 1, 3, 2, 0, (7, 8)),
    (3, 2, 2, 2, 2, 2, (5, 4)),
    (1, 2, 3, 1, 1, 0, (4, 3)),
]


class TestConvCoreOracle:
    """All four conv ops against ``brute_conv2d``: the forward directly, the
    backward outputs through <A x, y> = <x, A^T y> for the linear maps
    x -> conv(x, w) and w -> conv(x, w)."""

    @pytest.mark.parametrize("n,c,o,k,stride,pad,hw", CORE_CASES)
    def test_conv2d(self, n, c, o, k, stride, pad, hw):
        rng = np.random.default_rng(c * 100 + o * 10 + k)
        x = rng.normal(size=(n, c, *hw))
        w = rng.normal(size=(o, c, k, k))
        b = rng.normal(size=o)
        y = ops.conv2d_forward(x, w, b, stride, pad)
        ref = brute_conv2d(x, w, b, stride, pad)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

        gy = rng.normal(size=y.shape)
        gx, gw, gb = ops.conv2d_backward(x, w, gy, stride, pad)
        assert gx.shape == x.shape and gw.shape == w.shape
        x2, w2, zero = rng.normal(size=x.shape), rng.normal(size=w.shape), \
            np.zeros(o)
        assert_adjoint(inner(gx, x2),
                       inner(brute_conv2d(x2, w, zero, stride, pad), gy))
        assert_adjoint(inner(gw, w2),
                       inner(brute_conv2d(x, w2, zero, stride, pad), gy))
        assert np.max(np.abs(gb - gy.sum(axis=(0, 2, 3)))) < 1e-12 * gy.size

    @pytest.mark.parametrize("n,c,o,k,stride,pad,hw", CORE_CASES)
    def test_conv_transpose2d(self, n, c, o, k, stride, pad, hw):
        # the transposed conv with kernel w (in=o, out=c) is the adjoint of
        # conv2d with the same w, so brute_conv2d is its oracle too
        rng = np.random.default_rng(c * 100 + o * 10 + k + 1)
        w = rng.normal(size=(o, c, k, k))
        b = rng.normal(size=c)
        x = rng.normal(size=(n, o, *hw))
        y = ops.conv_transpose2d_forward(x, w, b, stride, pad)
        y2, zero = rng.normal(size=y.shape), np.zeros(o)
        assert_adjoint(inner(y - b[None, :, None, None], y2),
                       inner(x, brute_conv2d(y2, w, zero, stride, pad)))

        gy = rng.normal(size=y.shape)
        gx, gw, gb = ops.conv_transpose2d_backward(x, w, gy, stride, pad)
        ref = brute_conv2d(gy, w, zero, stride, pad)
        assert gx.shape == x.shape
        assert np.max(np.abs(gx - ref)) <= 1e-12 * np.max(np.abs(ref))
        w2 = rng.normal(size=w.shape)
        assert_adjoint(inner(gw, w2),
                       inner(x, brute_conv2d(gy, w2, zero, stride, pad)))
        assert np.max(np.abs(gb - gy.sum(axis=(0, 2, 3)))) < 1e-12 * gy.size

    def test_thin_head_memory_is_bounded(self):
        # the generator head at batch 8: an im2col of the whole batch
        # would copy 8*17*9 values per pixel (40 MB) for a 1-channel output
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 17, 64, 64))
        w = rng.normal(size=(1, 17, 3, 3))
        b = np.zeros(1)
        gy = rng.normal(size=(8, 1, 64, 64))
        tracemalloc.start()
        try:
            ops.conv2d_forward(x, w, b, 1, 1)
            ops.conv2d_backward(x, w, gy, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def brute_weight_grad(x, gy, k, stride, pad):
    """d<conv(x, w), gy>/dw, one kernel entry at a time through
    ``brute_conv2d`` (the conv is linear in w)."""
    grad = np.zeros((gy.shape[1], x.shape[1], k, k))
    for ci in range(x.shape[1]):
        for u, v in np.ndindex(k, k):
            e = np.zeros((1, 1, k, k))
            e[0, 0, u, v] = 1.0
            y = brute_conv2d(x[:, ci:ci + 1], e, np.zeros(1), stride, pad)
            grad[:, ci, u, v] = np.sum(y * gy, axis=(0, 2, 3))
    return grad


# (batch, in, out, kernel, stride, padding, input hw): a batch of 5 leaves
# a partial last chunk of 1 when the budget holds 2 samples
WGRAD_CASES = [
    (5, 2, 3, 3, 1, 1, (5, 6)),
    (5, 3, 2, 4, 2, 1, (8, 6)),
    (5, 4, 1, 3, 1, 1, (5, 5)),  # thin: runs as its flipped twin
]


class TestWeightGradChunks:
    """Weight gradients against ``brute_weight_grad`` with the value budget
    set to hold 1, 2 and all 5 samples per GEMM."""

    @staticmethod
    def values_per_sample(c, o, k, stride, pad, hw):
        if stride == 1 and o < c:  # the twin gathers o channels
            return o * k * k * (hw[0] + 2 * pad) * (hw[1] + 2 * pad)
        out_hw = [(s + 2 * pad - k) // stride + 1 for s in hw]
        return c * k * k * out_hw[0] * out_hw[1]

    @pytest.mark.parametrize("samples", [1, 2, 5])
    @pytest.mark.parametrize("n,c,o,k,stride,pad,hw", WGRAD_CASES)
    def test_conv2d(self, monkeypatch, samples, n, c, o, k, stride, pad,
                    hw):
        monkeypatch.setattr(ops, "BUDGET", samples * self.values_per_sample(
            c, o, k, stride, pad, hw))
        rng = np.random.default_rng(c * 10 + o)
        x = rng.normal(size=(n, c, *hw))
        w = rng.normal(size=(o, c, k, k))
        gy = rng.normal(size=ops.conv2d_forward(x, w, np.zeros(o), stride,
                                                pad).shape)
        _, gw, _ = ops.conv2d_backward(x, w, gy, stride, pad)
        ref = brute_weight_grad(x, gy, k, stride, pad)
        assert np.max(np.abs(gw - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("samples", [1, 2, 5])
    @pytest.mark.parametrize("n,c,o,k,stride,pad,hw", WGRAD_CASES)
    def test_conv_transpose2d(self, monkeypatch, samples, n, c, o, k, stride,
                              pad, hw):
        # the transposed conv with kernel w (in=o, out=c) maps (n, o, out_hw)
        # to (n, c, hw); its weight gradient is conv2d's with x and gy swapped
        monkeypatch.setattr(ops, "BUDGET", samples * self.values_per_sample(
            c, o, k, stride, pad, hw))
        rng = np.random.default_rng(c * 10 + o + 1)
        w = rng.normal(size=(o, c, k, k))
        gy = rng.normal(size=(n, c, *hw))
        x = rng.normal(size=ops.conv2d_forward(gy, w, np.zeros(o), stride,
                                               pad).shape)
        y = ops.conv_transpose2d_forward(x, w, np.zeros(c), stride, pad)
        assert y.shape == gy.shape
        _, gw, _ = ops.conv_transpose2d_backward(x, w, gy, stride, pad)
        ref = brute_weight_grad(gy, x, k, stride, pad)
        assert np.max(np.abs(gw - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSinglePassKernels:
    """Bitwise equal to the formulas they replaced, written out here."""

    @staticmethod
    def probe(shape, seed=0):
        x = np.random.default_rng(seed).normal(size=shape)
        x.flat[:6] = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)
        return x

    @pytest.mark.parametrize("ph,pw", [(1, 1), (2, 2), (2, 3), (0, 1),
                                       (0, 0)])
    def test_pad(self, ph, pw):
        x = self.probe((3, 4, 5, 7))
        ref = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        assert ops._pad(x, ph, pw).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("alpha", [0.2, 0.01, 0.5])
    def test_leaky_relu_forward(self, alpha):
        x = self.probe((2, 3, 8, 8))
        ref = np.where(x >= 0, x, alpha * x)
        y = ops.leaky_relu_forward(x, alpha)
        assert y.tobytes() == ref.tobytes()
        assert np.signbit(y.flat[1])  # -0.0 stays -0.0

    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 5, 7, 9),
                                       (8, 64, 8, 8)])
    def test_instance_norm_forward(self, shape):
        rng = np.random.default_rng(2)
        x = rng.normal(1.5, 3.0, size=shape)
        x.flat[:2] = (0.0, -0.0)
        gamma, beta = rng.normal(size=shape[1]), rng.normal(size=shape[1])
        eps = 1e-5
        mu = x.mean(axis=(2, 3), keepdims=True)
        var = x.var(axis=(2, 3), keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv_std
        ref = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
        y, (xhat_c, inv_std_c, gamma_c) = ops.instance_norm_forward(
            x, gamma, beta)
        assert y.tobytes() == ref.tobytes()
        assert xhat_c.tobytes() == xhat.tobytes()
        assert inv_std_c.tobytes() == inv_std.tobytes()
        assert gamma_c is gamma


def strided_scatter(g, w, src_hw, stride):
    """The scatter by its definition: one GEMM for all taps, then each
    tap's slice added into its strided window of a zeroed output."""
    o, c, kh, kw = w.shape
    gh, gw = g.shape[2:]
    out = np.zeros((len(g), c, *src_hw))
    w_taps = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, o)
    t = (w_taps @ g.reshape(len(g), o, -1)).reshape(len(g), kh, kw, c, gh,
                                                    gw)
    for u, v in np.ndindex(kh, kw):
        out[..., u:u + (gh - 1) * stride + 1:stride,
            v:v + (gw - 1) * stride + 1:stride] += t[:, u, v]
    return out


# (in, out, g side, scatter side) of every stride-2 4x4 scatter in the
# paper's U-Net and PatchGAN: the transposed-conv forwards and the conv
# input gradients
NET_SCATTERS = {
    "up0": (32, 16, 32, 66), "up1": (64, 32, 16, 34), "up2": (128, 64, 8, 18),
    "up3_down3": (128, 64, 4, 10), "down0": (16, 1, 32, 66),
    "down1_d1": (32, 16, 16, 34), "down2_d2": (64, 32, 8, 18),
    "d0": (16, 2, 32, 66),
}


def _past_footprint(n, c, o, k, stride, pad, hw):
    out_hw = [(s + 2 * pad - k) // stride + 1 for s in hw]
    return not ops._thin(o, c, stride) and any(
        (m - 1) * stride + k < s + 2 * pad for m, s in zip(out_hw, hw))


class TestScatterOracle:
    """The parity-plane scatter is bitwise equal to ``strided_scatter``,
    signed zeros included."""

    @staticmethod
    def probe(shape, seed=0):
        g = np.random.default_rng(seed).normal(size=shape)
        g.flat[:4] = (0.0, -0.0, 5e-324, -5e-324)
        return g

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("name", list(NET_SCATTERS))
    def test_net_shapes(self, name, n):
        o, c, side, full = NET_SCATTERS[name]
        g = self.probe((n, o, side, side))
        w = self.probe((o, c, 4, 4), 1)
        ref = strided_scatter(g, w, (full, full), 2)
        assert ops._correlate_adjoint(g, w, (full, full), 2).tobytes() == \
            ref.tobytes()

    @pytest.mark.parametrize("c,side", [(17, 64), (64, 8)],
                             ids=["g_head", "d_head"])
    def test_head_twins(self, c, side):
        # a thin head's forward is the stride-1 scatter of the flipped
        # kernel, cropped by k - 1
        src = ops._pad(self.probe((8, c, side, side)), 1, 1)
        w = self.probe((1, c, 3, 3), 1)
        ref = strided_scatter(src, ops._flip_t(w), (side + 4, side + 4), 1)
        y = ops._correlate(src, w, (side, side), 1)
        assert y.tobytes() == ref[..., 2:2 + side, 2:2 + side].tobytes()

    @pytest.mark.parametrize(
        "n,c,o,k,stride,pad,hw",
        [case for case in CORE_CASES if _past_footprint(*case)])
    def test_past_the_footprint(self, n, c, o, k, stride, pad, hw):
        # the conv input gradient onto a padded input wider than the
        # windows reach: the rows and columns no tap touches stay 0.0
        out_hw = [(s + 2 * pad - k) // stride + 1 for s in hw]
        g = self.probe((n, o, *out_hw))
        w = self.probe((o, c, k, k), 1)
        src_hw = [s + 2 * pad for s in hw]
        ref = strided_scatter(g, w, src_hw, stride)
        assert ops._correlate_adjoint(g, w, src_hw, stride).tobytes() == \
            ref.tobytes()

    @pytest.mark.parametrize("stride,k", [(1, 4), (2, 4), (2, 1)])
    def test_partial_chunk(self, monkeypatch, stride, k):
        # a budget of two samples runs a batch of 5 as 2 + 2 + 1; a 1x1
        # kernel at stride 2 leaves three parities without a tap
        o, c, side = 8, 4, 6
        full = (side - 1) * stride + k
        plane = -(-full // stride)
        monkeypatch.setattr(ops, "BUDGET", 2 * k * k * c * plane * plane)
        g = self.probe((5, o, side, side))
        w = self.probe((o, c, k, k), 1)
        ref = strided_scatter(g, w, (full, full), stride)
        assert ops._correlate_adjoint(g, w, (full, full), stride).tobytes() \
            == ref.tobytes()


def _layers_under_test():
    rng = np.random.default_rng(9)
    cases = [
        (Conv2d(3, 4, 4, stride=2, padding=1, rng=rng), (2, 3, 8, 8)),
        (Conv2d(5, 1, 3, stride=1, padding=1, rng=rng), (2, 5, 6, 6)),
        (ConvTranspose2d(4, 3, 4, stride=2, padding=1, rng=rng),
         (2, 4, 4, 4)),
        (ConvTranspose2d(2, 5, 3, stride=1, padding=1, rng=rng),
         (2, 2, 5, 5)),
        # padding 0: the convs read their input itself, not a padded copy
        (Conv2d(3, 4, 1, rng=rng), (2, 3, 5, 5)),
        (Conv2d(5, 2, 3, rng=rng), (2, 5, 6, 6)),
        (ConvTranspose2d(4, 3, 2, stride=2, rng=rng), (2, 4, 3, 3)),
        (InstanceNorm(3), (2, 3, 5, 5)),
        (LeakyReLU(0.2), (2, 3, 5, 5)),
        (ReLU(), (2, 3, 5, 5)),
        (Tanh(), (2, 3, 5, 5)),
        (Sigmoid(), (2, 3, 5, 5)),
        (Sequential(Conv2d(3, 4, 3, padding=1, rng=rng), InstanceNorm(4),
                    LeakyReLU(0.2)), (2, 3, 6, 6)),
    ]
    return [pytest.param(layer, shape, id=f"{type(layer).__name__}-{i}")
            for i, (layer, shape) in enumerate(cases)]


@pytest.mark.parametrize("layer,shape", _layers_under_test())
def test_layer_leaves_its_inputs_unchanged(layer, shape):
    rng = np.random.default_rng(10)
    x = rng.normal(size=shape)
    x_before = x.copy()
    y = layer.forward(x)
    gy = rng.normal(size=y.shape)
    gy_before = gy.copy()
    layer.backward(gy)
    assert x.tobytes() == x_before.tobytes()
    assert gy.tobytes() == gy_before.tobytes()


class TestActivations:
    def test_fixed_points(self):
        z = np.zeros((1, 1, 2, 2))
        assert np.all(ops.leaky_relu_forward(z) == 0.0)
        assert np.all(ops.tanh_forward(z) == 0.0)
        assert np.all(ops.sigmoid_forward(z) == 0.5)
        assert np.all(ops.relu_forward(z) == 0.0)

    def test_leaky_relu_negative_slope(self):
        x = np.array([[[[-1.0]]]])
        assert ops.leaky_relu_forward(x, 0.2) == pytest.approx(-0.2)

    @pytest.mark.parametrize("layer", [LeakyReLU(0.2), ReLU(), Tanh(),
                                       Sigmoid()])
    def test_backward_matches_finite_differences(self, layer):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 4, 4))
        x[np.abs(x) < 1e-3] = 0.1  # stay clear of relu kinks
        y = layer.forward(x)
        grad_out = rng.normal(size=y.shape)
        analytic = layer.backward(grad_out)
        h = 1e-6
        numeric = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xp[idx] += h
            xm = x.copy()
            xm[idx] -= h
            lp = float(np.sum(layer.forward(xp) * grad_out))
            lm = float(np.sum(layer.forward(xm) * grad_out))
            numeric[idx] = (lp - lm) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert rel.max() < 1e-6


class TestMaskBackwards:
    """The activation backwards read a bool mask and are bitwise the
    ``np.where`` they replaced, special values included."""

    SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0,
               1e308, -1e308, np.inf, -np.inf, np.nan)

    def probe(self):
        # every (x, grad_y) pair of special values, then random pairs
        s = np.array(self.SPECIAL)
        x, g = (a.ravel() for a in np.meshgrid(s, s))
        rng = np.random.default_rng(4)
        x = np.concatenate([x, rng.normal(size=231)]).reshape(2, 4, 5, 10)
        g = np.concatenate([g, rng.normal(size=231)]).reshape(2, 4, 5, 10)
        return x, g

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.2, 0.5, 0.99])
    def test_leaky_relu_backward(self, alpha):
        x, g = self.probe()
        with np.errstate(invalid="ignore"):  # 0 * inf at alpha = 0
            ref = np.where(x >= 0, g, alpha * g)
            out = ops.leaky_relu_backward(x >= 0, g, alpha)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("split", [False, True], ids=["whole", "view"])
    def test_relu_backward(self, split):
        x, g = self.probe()
        if split:  # a skip split's strided channel view
            x, g = x[:, 1:], g[:, 1:]
        ref = np.where(x > 0, g, 0.0)
        assert ops.relu_backward(x > 0, g).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("layer", [LeakyReLU(0.2), ReLU()])
    def test_layer_caches_only_a_bool_mask(self, layer):
        x = np.random.default_rng(5).normal(size=(2, 3, 4, 4))
        layer.forward(x)
        cached = [v for v in vars(layer).values()
                  if isinstance(v, np.ndarray)]
        assert [a.dtype for a in cached] == [np.bool_]


class TestConvLayerPadsOnce:
    """``Conv2d`` pads its input once and runs the ops at padding 0; every
    result is bitwise the ops' own with ``padding`` on the unpadded input."""

    @pytest.mark.parametrize("in_ch,out_ch,k,stride", [(3, 4, 4, 2),
                                                       (17, 1, 3, 1)],
                             ids=["stride2", "thin_head"])
    def test_matches_the_padding_ops(self, in_ch, out_ch, k, stride):
        rng = np.random.default_rng(14)
        layer = Conv2d(in_ch, out_ch, k, stride=stride, padding=1, rng=rng)
        layer.b[:] = rng.normal(size=out_ch)
        w, b = layer.w, layer.b
        x = rng.normal(size=(3, in_ch, 8, 8))
        for flags in ({}, {"params": False}, {"inputs": False}):
            # each backward drops its forward's cache, so each has a
            # forward of its own
            y = layer.forward(x)
            assert y.tobytes() == \
                ops.conv2d_forward(x, w, b, stride, 1).tobytes()
            # a new gy each time, so gradients a backward should leave
            # alone would change if it wrote them
            gy = rng.normal(size=y.shape)
            ref = ops.conv_grads(x, w, gy, stride, 1, **flags)
            if not flags:
                full = ops.conv2d_backward(x, w, gy, stride, 1)
                assert [a.tobytes() for a in full] == \
                    [a.tobytes() for a in ref]
            gx = layer.backward(gy, **flags)
            if ref[0] is None:
                assert gx is None
            else:
                assert gx.shape == x.shape
                assert gx.tobytes() == ref[0].tobytes()
            if ref[1] is None:  # as the previous backward set them
                assert layer.gw.tobytes() == grads[0].tobytes()
                assert layer.gb.tobytes() == grads[1].tobytes()
            else:
                assert layer.gw.tobytes() == ref[1].tobytes()
                assert layer.gb.tobytes() == ref[2].tobytes()
            grads = layer.gw.copy(), layer.gb.copy()


def _held_arrays(layer):
    """ids of the arrays the layer's attributes hold, in tuples too."""
    held = set()
    for v in vars(layer).values():
        for a in v if isinstance(v, tuple) else (v,):
            if isinstance(a, np.ndarray):
                held.add(id(a))
    return held


class TestBackwardReleasesItsCache:
    """A cache lives from a forward until its backward: afterwards a layer
    holds its parameters and their gradients and no other array, and
    another backward needs a forward of its own."""

    @pytest.mark.parametrize("layer,shape", [
        (Conv2d(3, 4, 4, stride=2, padding=1, rng=np.random.default_rng(0),
                bias=False), (2, 3, 8, 8)),
        (Conv2d(17, 1, 3, stride=1, padding=1, rng=np.random.default_rng(0)),
         (2, 17, 6, 6)),
        (ConvTranspose2d(4, 3, 4, stride=2, padding=1,
                         rng=np.random.default_rng(0), bias=False),
         (2, 4, 4, 4)),
        (InstanceNorm(3), (2, 3, 5, 5)),
        (LeakyReLU(0.2), (2, 3, 5, 5)),
        (ReLU(), (2, 3, 5, 5)),
        (Tanh(), (2, 3, 5, 5)),
        (Sigmoid(), (2, 3, 5, 5)),
    ], ids=["conv_stride2", "conv_thin_head", "conv_transpose",
            "instance_norm", "leaky_relu", "relu", "tanh", "sigmoid"])
    def test_no_cache_outlives_the_backward(self, layer, shape):
        rng = np.random.default_rng(15)
        own = {id(a) for _, a in layer.parameters() + layer.gradients()}
        y = layer.forward(rng.normal(size=shape))
        assert _held_arrays(layer) - own  # the forward's cache
        layer.backward(rng.normal(size=y.shape))
        assert _held_arrays(layer) == own
        with pytest.raises(RuntimeError, match="backward without a forward"):
            layer.backward(rng.normal(size=y.shape))


class TestBiasFreeConvs:
    """A conv without a bias adds none and forms no bias gradient; every
    other result is bitwise the zero-bias conv's."""

    CASES = [(3, 4, 4, 2, 1), (5, 1, 3, 1, 1), (4, 3, 3, 1, 0)]

    @pytest.mark.parametrize("c,o,k,stride,pad", CASES)
    def test_forward_is_the_zero_bias_forward(self, c, o, k, stride, pad):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, c, 8, 8))
        w = rng.normal(size=(o, c, k, k))
        for op, kernel in ((ops.conv2d_forward, w),
                           (ops.conv_transpose2d_forward,
                            w.transpose(1, 0, 2, 3))):
            assert op(x, kernel, None, stride, pad).tobytes() == \
                op(x, kernel, np.zeros(o), stride, pad).tobytes()

    @pytest.mark.parametrize("c,o,k,stride,pad", CASES)
    def test_backward_ops_form_no_bias_gradient(self, c, o, k, stride, pad):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, c, 8, 8))
        w = rng.normal(size=(o, c, k, k))
        w_t = w.transpose(1, 0, 2, 3)
        gy, gy_t = (rng.normal(size=op(x, kernel, None, stride, pad).shape)
                    for op, kernel in ((ops.conv2d_forward, w),
                                       (ops.conv_transpose2d_forward, w_t)))
        runs = [(ops.conv2d_backward, (x, w, gy, stride, pad), {}),
                (ops.conv_transpose2d_backward, (x, w_t, gy_t, stride, pad),
                 {})]
        runs += [(ops.conv_grads, (x, w, gy, stride, pad), flags)
                 for flags in ({"params": False}, {"inputs": False})]
        for op, args, flags in runs:
            *free, gb = op(*args, **flags, bias=False)
            *biased, _ = op(*args, **flags)
            assert gb is None
            assert [a if a is None else a.tobytes() for a in free] == \
                [a if a is None else a.tobytes() for a in biased]

    @pytest.mark.parametrize("layer,shape", [
        (Conv2d(3, 4, 4, stride=2, padding=1, rng=np.random.default_rng(0),
                bias=False), (2, 3, 8, 8)),
        (ConvTranspose2d(4, 3, 4, stride=2, padding=1,
                         rng=np.random.default_rng(0), bias=False),
         (2, 4, 4, 4)),
    ], ids=["conv", "conv_transpose"])
    def test_layer_backward_forms_no_bias_gradient(self, monkeypatch, layer,
                                                   shape):
        bias_grads = []

        def recording(op):
            def recorded(*args, **kwargs):
                result = op(*args, **kwargs)
                bias_grads.append(result[2])
                return result
            return recorded

        for name in ("conv2d_backward", "conv_grads",
                     "conv_transpose2d_backward"):
            monkeypatch.setattr(ops, name, recording(getattr(ops, name)))
        rng = np.random.default_rng(18)
        x = rng.normal(size=shape)
        runs = [{}]
        if isinstance(layer, Conv2d):  # the transposed conv has no partial
            runs += [{"params": False}, {"inputs": False}]
        for flags in runs:
            y = layer.forward(x)
            layer.backward(rng.normal(size=y.shape), **flags)
        assert bias_grads and all(gb is None for gb in bias_grads)
        assert layer.b is None and layer.gb is None
        assert [n for n, _ in layer.gradients()] == [f"{layer.name}.w"]


class TestInstanceNorm:
    def test_constant_input_returns_shift(self):
        layer = InstanceNorm(2)
        layer.beta[:] = (0.3, -0.7)
        x = np.ones((1, 2, 4, 4)) * 5.0
        y = layer.forward(x)
        assert y[0, 0] == pytest.approx(0.3, abs=1e-6)
        assert y[0, 1] == pytest.approx(-0.7, abs=1e-6)

    def test_standardizes_per_channel(self):
        rng = np.random.default_rng(7)
        x = rng.normal(3.0, 2.0, size=(2, 3, 8, 8))
        y, _ = ops.instance_norm_forward(x, np.ones(3), np.zeros(3))
        assert np.abs(y.mean(axis=(2, 3))).max() < 1e-10
        assert np.abs(y.var(axis=(2, 3)) - 1.0).max() < 1e-4

    def test_rejects_single_pixel(self):
        with pytest.raises(ValueError):
            ops.instance_norm_forward(np.zeros((1, 1, 1, 1)), np.ones(1),
                                      np.zeros(1))

    def test_gradient(self):
        rng = np.random.default_rng(8)
        net = Sequential(InstanceNorm(2))
        x = rng.normal(size=(1, 2, 5, 5))
        t = rng.normal(size=(1, 2, 5, 5))
        assert grad_check(net, x, l2_loss(t)) < 1e-5


class TestAdam:
    def test_zero_lr_leaves_params(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        state = AdamState(lr=0.0, beta1=0.5, beta2=0.999)
        adam_step([("p", p)], [("p", g)], state)
        assert np.array_equal(p, [1.0, 2.0])
        assert state.t == 1
        assert np.all(state.m["p"] != 0.0)

    def test_first_step_scalar_recurrence(self):
        # m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
        p = np.array([0.0])
        state = AdamState(lr=0.1, beta1=0.9, beta2=0.999)
        adam_step([("p", p)], [("p", np.array([1.0]))], state)
        assert p[0] == pytest.approx(-0.1, abs=1e-8)

    def test_matches_scalar_oracle_over_steps(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grads = np.random.default_rng(9).normal(size=10)
        p = np.array([1.0])
        state = AdamState(lr=lr, beta1=b1, beta2=b2)
        # independent scalar recurrence
        po, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            adam_step([("p", p)], [("p", np.array([g]))], state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            po -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        assert p[0] == pytest.approx(po, abs=1e-12)

    def test_deterministic(self):
        def run():
            p = np.array([1.0, -1.0])
            state = AdamState(lr=0.01, beta1=0.5, beta2=0.999)
            for i in range(20):
                adam_step([("p", p)], [("p", np.array([0.1 * i, -0.2]))],
                          state)
            return p
        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step([("p", np.zeros(2))], [("p", np.zeros(3))],
                      AdamState(lr=2e-4, beta1=0.5, beta2=0.999))


def textbook_adam(params, grads, state):
    """``adam_step`` as written before its in-place form."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for (name, p), (_, g) in zip(params, grads):
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        if state.lr != 0.0:
            p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


@pytest.mark.parametrize("lr", [0.0, 2e-4, 0.05])
def test_adam_step_is_bitwise_the_textbook_formula(lr):
    # the largest parameter is not first, so the scratch buffer is sliced
    shapes = {"a.w": (3, 2, 4, 4), "a.b": (3,), "b.w": (5, 3, 4, 4)}
    rng = np.random.default_rng(15)
    grads = []
    for k in range(5):
        g = {n: rng.normal(scale=10.0 ** (k - 2), size=s)
             for n, s in shapes.items()}
        g["a.b"][:] = (-0.0, 0.0, -1e-300)
        g["b.w"].flat[:3] = (-0.0, -5e-324, 1e150)
        grads.append(list(g.items()))
    runs = []
    for step in (adam_step, textbook_adam):
        params = {n: np.random.default_rng(16).normal(size=s)
                  for n, s in shapes.items()}
        state = AdamState(lr=lr, beta1=0.5, beta2=0.999)
        for g in grads:
            step(list(params.items()), g, state)
        runs.append([a.tobytes() for d in (params, state.m, state.v)
                     for a in d.values()])
    assert runs[0] == runs[1]


class TestGradCheck:
    def test_linear_layer_l2(self):
        rng = np.random.default_rng(10)
        net = Sequential(Conv2d(1, 2, 1, rng=rng))
        x = rng.normal(size=(1, 1, 4, 4))
        t = rng.normal(size=(1, 2, 4, 4))
        assert grad_check(net, x, l2_loss(t)) < 1e-8

    def test_two_layer_conv_leaky_l1(self):
        rng = np.random.default_rng(11)
        net = Sequential(Conv2d(1, 3, 3, padding=1, rng=rng), LeakyReLU(0.2),
                         Conv2d(3, 1, 3, padding=1, rng=rng))
        x = rng.normal(size=(1, 1, 5, 5))
        # keep |y - t| away from the L1 kink under the FD perturbation
        t = net.forward(x) + 0.5
        assert grad_check(net, x, l1_loss(t)) < 1e-4

    def test_degenerate_zero_network(self):
        net = Sequential(Conv2d(1, 1, 3, padding=1,
                                rng=np.random.default_rng(0)))
        net.layers[0].w[...] = 0.0
        x = np.zeros((1, 1, 4, 4))
        t = np.zeros((1, 1, 4, 4))
        err = grad_check(net, x, l2_loss(t))
        assert np.isfinite(err) and err < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_every_layer_kind(self, seed):
        rng = np.random.default_rng(seed)
        nets = [
            Sequential(Conv2d(2, 3, 3, stride=2, padding=1, rng=rng), Tanh()),
            Sequential(ConvTranspose2d(2, 2, 4, stride=2, padding=1, rng=rng),
                       Sigmoid()),
            # bias omitted ahead of the norm: its true gradient would be
            # exactly zero and finite differences only see rounding noise
            Sequential(Conv2d(2, 2, 3, padding=1, rng=rng, bias=False),
                       InstanceNorm(2), LeakyReLU(0.2)),
            Sequential(Conv2d(2, 2, 3, padding=1, rng=rng), ReLU()),
        ]
        x = rng.normal(size=(1, 2, 6, 6))
        for net in nets:
            y = net.forward(x)
            t = y + rng.uniform(0.2, 1.0, y.shape)
            assert grad_check(net, x, l2_loss(t)) < 1e-4


class TestShapeAlgebraAndSafety:
    def test_encoder_decoder_restores_shape(self):
        rng = np.random.default_rng(12)
        for k in (1, 2, 3):
            enc = [Conv2d(1 if i == 0 else 2, 2, 4, stride=2, padding=1,
                          rng=rng) for i in range(k)]
            dec = [ConvTranspose2d(2, 2 if i < k - 1 else 1, 4, stride=2,
                                   padding=1, rng=rng) for i in range(k)]
            x = rng.normal(size=(1, 1, 32, 32))
            net = Sequential(*(enc + dec))
            assert net.forward(x).shape == x.shape

    def test_nan_poisoning_raises_with_layer_name(self):
        layer = Conv2d(1, 1, 1, rng=np.random.default_rng(0))
        layer.w[0, 0, 0, 0] = np.inf
        x = np.ones((1, 1, 2, 2))
        with pytest.raises(NumericError, match="conv1x1"):
            layer.forward(x)
