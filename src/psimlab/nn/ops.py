"""Dense numeric ops with hand-written backward passes.

All tensors are float64 numpy arrays laid out (batch, channels, height,
width).  Convolutions are cross-correlations with zero padding; weight
layouts follow (out, in, kh, kw) for conv and (in, out, kh, kw) for
transposed conv.

All four conv ops are built from one correlation core: a gather, its
adjoint in the input (a scatter) and its gradient in the weights.  Each
runs BLAS products over chunks of samples, never a loop of per-tap
einsums.  A chunk takes as many samples as keep its largest temporary
within ``BUDGET`` values, so a deep layer with few pixels runs its whole
batch at once while a large layer on a large batch keeps peak memory
bounded.  The gather copies the ``sliding_window_view`` windows of its
input into columns (im2col; Chellapilla, Puri & Simard, 2006) and
multiplies each sample's columns by the kernel; the weight gradient is one
GEMM per sample against the same columns, ``g_i @ cols_i.T``; the scatter
multiplies by the kernel first and then sums the taps per output parity
(Dumoulin & Visin, 2016): the taps u = a, v = b (mod stride) land only on
the outputs of parity (a, b), and on a plane of ceil(hw / stride) per
channel, with ``g`` zero-padded to it, each is one contiguous slice shifted
by (u // stride) * width + v // stride.  Each plane is written once into
its strided view of the output; every output gets the same additions in
the same order as per-tap adds into strided windows, at a fraction of
their cost.  The backward of transposed conv needs the gather of the
padded ``grad_y`` and its weight gradient against ``x``, so one set of
columns per chunk feeds both products.  At stride 1 a gather with kernel
``w`` is the scatter with the flipped, transposed kernel ``_flip_t(w)``
onto the full output, cropped by k - 1, and the reverse also holds.  So a
thin layer (stride 1, fewer output than input channels, such as the
generator head), where an im2col would copy c*k^2 values per pixel to
produce o of them, runs each primitive as its twin, which is not thin and
keeps temporaries at o*k^2 values per pixel.  ``conv_grads`` forms only
the gradients a caller asks for, such as the input gradients alone of a
frozen network.  A conv without a bias passes ``b=None`` to a forward,
which then adds nothing (the transposed conv returns its cropped view; an
exact zero keeps the sign that adding 0.0 would make +0.0), and
``bias=False`` to a backward, which returns None for the bias gradient in
the third place of its three results.

Padding, LeakyReLU and the instance-norm forward make fewer full-array
passes and temporaries than their textbook formulas, with bitwise the same
values.  The LeakyReLU and ReLU backwards take the 1-byte mask of where the
forward's input is positive, in place of the input, and apply it without a
data-dependent branch.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class NumericError(RuntimeError):
    """Raised when an op produces NaN/Inf (poisoning is never silent)."""


def check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by {context}")
    return arr


# Values per chunk temporary (im2col columns, scatter taps): each GEMM
# takes as many samples as fit, so a deep layer runs its whole batch in one
# call while a large layer on a large batch cannot blow up peak memory.
BUDGET = 2 ** 18


def _chunks(n, per_sample):
    step = max(1, BUDGET // per_sample)
    return (slice(i, i + step) for i in range(0, n, step))


def _windows(src, kernel, out_hw, stride):
    """View (n, c, oh, ow, kh, kw): the patch of ``src`` each output reads."""
    win = sliding_window_view(src, kernel, axis=(2, 3))
    return win[:, :, :(out_hw[0] - 1) * stride + 1:stride,
               :(out_hw[1] - 1) * stride + 1:stride]


def _im2col(src, kernel, out_hw, stride):
    """(slice, columns) per chunk of samples, columns (len, c*kh*kw, oh*ow):
    the reshape copies the c*k^2 window each output pixel reads into one
    column, so a gather or its weight gradient is one GEMM per sample."""
    rows = src.shape[1] * kernel[0] * kernel[1]
    pixels = out_hw[0] * out_hw[1]
    win = _windows(src, kernel, out_hw, stride).transpose(0, 1, 4, 5, 2, 3)
    for s in _chunks(len(src), rows * pixels):
        yield s, win[s].reshape(-1, rows, pixels)


def _pad(x, ph, pw):
    """``x`` (not a copy when both are 0) framed by ph zero rows above and
    below and pw zero columns on each side."""
    if not ph and not pw:
        return x
    h, w = x.shape[2:]
    out = np.zeros((*x.shape[:2], h + 2 * ph, w + 2 * pw))
    out[..., ph:ph + h, pw:pw + w] = x
    return out


def _flip_t(w):
    """Kernel whose stride-1 gather is the adjoint of ``w``'s gather."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _thin(o, c, stride):
    """True where a primitive runs as its twin with ``_flip_t(w)``."""
    return stride == 1 and o < c


def _correlate(src, w, out_hw, stride):
    """Gather: ``out[n,o] = sum_{c,u,v} src[n,c,win(u,v)] w[o,c,u,v]``."""
    o, c, kh, kw = w.shape
    if _thin(o, c, stride):
        # the scatter of _flip_t(w) onto the full output, cropped by k - 1;
        # laid out on src's own grid, only the cropped border reads a tap
        # across a row end, so src needs no zero frame
        full = _correlate_adjoint(src, _flip_t(w), src.shape[2:], 1)
        return full[..., kh - 1:kh - 1 + out_hw[0], kw - 1:kw - 1 + out_hw[1]]
    out = np.empty((len(src), o, *out_hw))
    out_flat = out.reshape(len(src), o, -1)
    w_mat = w.reshape(o, -1)
    for s, cols in _im2col(src, (kh, kw), out_hw, stride):
        np.matmul(w_mat, cols, out=out_flat[s])
    return out


def _parity_sum(t, parity, stride, wp, dst):
    """``dst`` (len, size): the sum, in row-major (u, v) order, of the taps
    ``t[:, u, v]`` of one output parity, each shifted by (u // stride) * wp
    + v // stride and added to 0.0 as the strided adds into a zeroed output
    do.  A parity no tap reaches (kernel smaller than stride) is 0.0."""
    a, b = parity
    taps = [(u, v) for u in range(a, t.shape[1], stride)
            for v in range(b, t.shape[2], stride)]
    if not taps:
        dst[...] = 0.0
        return
    np.add(t[:, a, b], 0.0, out=dst)  # the first tap's shift is 0
    size = dst.shape[1]
    for u, v in taps[1:]:
        d = u // stride * wp + v // stride
        dst[:, d:] += t[:, u, v, :size - d]


def _correlate_adjoint(g, w, src_hw, stride):
    """Scatter: adjoint of ``_correlate`` in ``src``, onto ``src_hw``.

    Onto a ``src_hw`` that only fits the taps' common window (the thin
    gather's, at stride 1) the outputs within k - 1 of its top or left edge
    are not the scatter's: there a tap's read wraps across a row end."""
    o, c, kh, kw = w.shape
    if _thin(o, c, stride):
        return _correlate(_pad(g, kh - 1, kw - 1), _flip_t(w), src_hw, 1)
    s = stride
    hp, wp = (-(-n // s) for n in src_hw)
    if g.shape[2:] != (hp, wp):  # zero rows and columns for wrapped reads
        gp = np.zeros((*g.shape[:2], hp, wp))
        gp[..., :g.shape[2], :g.shape[3]] = g
        g = gp
    out = np.empty((len(g), c, *src_hw))
    size = c * hp * wp
    w_taps = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, o)
    g_flat = g.reshape(len(g), o, -1)
    # one buffer, sized by the first and largest chunk, serves them all
    chunks = list(_chunks(len(g), kh * kw * size))
    taps = np.empty((len(out[chunks[0]]), kh * kw * c, hp * wp))
    planes = np.empty((len(taps), size)) if s > 1 else None
    for sl in chunks:
        m = len(out[sl])
        t = np.matmul(w_taps, g_flat[sl], out=taps[:m])
        t = t.reshape(m, kh, kw, size)
        if s == 1:  # one parity, whose plane is the output itself
            _parity_sum(t, (0, 0), 1, wp, out[sl].reshape(m, size))
            continue
        plane = planes[:m]
        for a, b in np.ndindex(s, s):
            _parity_sum(t, (a, b), s, wp, plane)
            dst = out[sl, :, a::s, b::s]
            dst[...] = plane.reshape(m, c, hp, wp)[..., :dst.shape[2],
                                                   :dst.shape[3]]
    return out


def _correlate_weight_grad(src, g, kernel, stride):
    """Adjoint of ``_correlate`` in ``w``, laid out like ``w``."""
    o, c = g.shape[1], src.shape[1]
    if _thin(o, c, stride):
        full = _pad(g, kernel[0] - 1, kernel[1] - 1)
        return _flip_t(_correlate_weight_grad(full, src, kernel, 1))
    grad_w = np.zeros((o, c * kernel[0] * kernel[1]))
    g_flat = g.reshape(len(g), o, -1)
    for s, cols in _im2col(src, kernel, g.shape[2:], stride):
        for g_i, cols_i in zip(g_flat[s], cols):
            grad_w += g_i @ cols_i.T
    return grad_w.reshape(o, c, *kernel)


def _crop(x, p):
    return x[..., p:x.shape[2] - p, p:x.shape[3] - p]


def conv2d_forward(x, w, b, stride=1, padding=0):
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"input has {x.shape[1]} channels, "
                         f"kernel expects {w.shape[1]}")
    out_hw = [(s + 2 * padding - k) // stride + 1
              for s, k in zip(x.shape[2:], w.shape[2:])]
    if min(out_hw) < 1:
        raise ValueError("kernel larger than padded input")
    y = _correlate(_pad(x, padding, padding), w, out_hw, stride)
    if b is not None:
        y += b[None, :, None, None]
    return y


def conv2d_backward(x, w, grad_y, stride=1, padding=0, bias=True):
    return conv_grads(x, w, grad_y, stride, padding, bias=bias)


def conv_transpose2d_forward(x, w, b, stride=1, padding=0):
    """Adjoint of ``conv2d`` in its input, cropped by ``padding``."""
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"input has {x.shape[1]} channels, "
                         f"kernel expects {w.shape[0]}")
    full_hw = [(s - 1) * stride + k for s, k in zip(x.shape[2:], w.shape[2:])]
    y = _crop(_correlate_adjoint(x, w, full_hw, stride), padding)
    return y if b is None else y + b[None, :, None, None]


def conv_transpose2d_backward(x, w, grad_y, stride=1, padding=0, bias=True):
    """``grad_x`` is the gather of the padded ``grad_y`` with ``w`` and
    ``grad_w`` contracts the same windows with ``x``, so one im2col per
    chunk feeds both GEMMs."""
    grad_yf = _pad(grad_y, padding, padding)
    c = w.shape[0]
    grad_x = np.empty(x.shape)
    gx_flat = grad_x.reshape(len(x), c, -1)
    x_flat = x.reshape(len(x), c, -1)
    w_mat = w.reshape(c, -1)
    grad_w = np.zeros(w_mat.shape)
    for s, cols in _im2col(grad_yf, w.shape[2:], x.shape[2:], stride):
        np.matmul(w_mat, cols, out=gx_flat[s])
        for x_i, cols_i in zip(x_flat[s], cols):
            grad_w += x_i @ cols_i.T
    grad_b = grad_y.sum(axis=(0, 2, 3)) if bias else None
    return grad_x, grad_w.reshape(w.shape), grad_b


def conv_grads(x, w, grad_y, stride=1, padding=0, params=True, inputs=True,
               bias=True):
    """``(grad_x, grad_w, grad_b)`` of ``conv2d``, with None in place of
    ``grad_x`` unless ``inputs``, of the other two unless ``params`` and of
    ``grad_b`` unless ``bias``.  ``conv2d_backward`` is its full case."""
    grad_x = grad_w = grad_b = None
    if inputs:
        xp_hw = [s + 2 * padding for s in x.shape[2:]]
        grad_x = _crop(_correlate_adjoint(grad_y, w, xp_hw, stride), padding)
    if params:
        grad_w = _correlate_weight_grad(_pad(x, padding, padding), grad_y,
                                        w.shape[2:], stride)
        if bias:
            grad_b = grad_y.sum(axis=(0, 2, 3))
    return grad_x, grad_w, grad_b


def leaky_relu_forward(x, alpha=0.2):
    # for 0 < alpha < 1 the larger of x and alpha*x is x where x >= 0
    # (-0.0 included) and alpha*x below, in one pass after the product
    return np.maximum(x, alpha * x)


def leaky_relu_backward(positive, grad_y, alpha=0.2):
    """``np.where(positive, grad_y, alpha * grad_y)`` from the bool mask
    ``positive`` (x >= 0), as ``grad_y`` times the multiplier 1.0 or alpha:
    for 0 <= alpha <= 1, (1 - alpha) + alpha rounds to exactly 1.0, so the
    product is bitwise ``grad_y`` or ``alpha * grad_y`` without a branch."""
    m = positive.astype(np.float64)
    m *= 1.0 - alpha
    m += alpha
    m *= grad_y
    return m


def relu_forward(x):
    return np.maximum(x, 0.0)


def relu_backward(positive, grad_y):
    """``np.where(positive, grad_y, 0.0)`` from the bool mask ``positive``
    (x > 0): the bits of ``grad_y`` AND all ones or all zeros."""
    bits = -positive.astype(np.uint64)
    bits &= grad_y.view(np.uint64)
    return bits.view(np.float64)


def tanh_forward(x):
    return np.tanh(x)


def tanh_backward(y, grad_y):
    return grad_y * (1.0 - y * y)


def sigmoid_forward(x):
    # branch on sign for stability at large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y, grad_y):
    return grad_y * y * (1.0 - y)


# added to each (sample, channel) variance, so a constant one divides by no 0
INSTANCE_NORM_EPS = 1e-5


def instance_norm_forward(x, gamma, beta):
    """Per-(sample, channel) standardization followed by affine scale/shift."""
    n, c, h, w = x.shape
    if h * w < 2:
        raise ValueError("instance norm needs spatial size >= 2")
    # x - mu is formed once; the variance is the sum of its squares over
    # h*w, the operations np.var runs, so xhat and y match the textbook
    # (x - mu) / sqrt(var + INSTANCE_NORM_EPS) bit for bit
    xhat = x - x.mean(axis=(2, 3), keepdims=True)
    y = np.square(xhat)
    inv_std = 1.0 / np.sqrt(y.sum(axis=(2, 3), keepdims=True) / (h * w)
                           + INSTANCE_NORM_EPS)
    xhat *= inv_std
    np.multiply(gamma[None, :, None, None], xhat, out=y)
    y += beta[None, :, None, None]
    cache = (xhat, inv_std, gamma)
    return y, cache


def instance_norm_backward(grad_y, cache):
    xhat, inv_std, gamma = cache
    m = xhat.shape[2] * xhat.shape[3]
    sum_gy = grad_y.sum(axis=(2, 3), keepdims=True)
    sum_gy_xhat = (grad_y * xhat).sum(axis=(2, 3), keepdims=True)
    # gamma * inv_std * (grad_y - mean(grad_y) - xhat * mean(grad_y * xhat)),
    # built in place so at most two full-size temporaries live at once
    grad_x = xhat * (sum_gy_xhat / m)
    grad_x += sum_gy / m
    np.subtract(grad_y, grad_x, out=grad_x)
    grad_x *= gamma[None, :, None, None] * inv_std
    return grad_x, sum_gy_xhat.sum(axis=(0, 2, 3)), sum_gy.sum(axis=(0, 2, 3))
