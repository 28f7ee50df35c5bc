"""Dense numeric ops with hand-written backward passes.

All tensors are float64 numpy arrays laid out (batch, channels, height,
width).  Convolutions are cross-correlations with zero padding; weight
layouts follow (out, in, kh, kw) for conv and (in, out, kh, kw) for
transposed conv.

All four conv ops are built from one correlation core: a gather, its
adjoint in the input (a scatter) and its gradient in the weights.  Each
does one BLAS contraction per chunk of at most ``CHUNK`` samples over a
``sliding_window_view`` of its input (im2col; Chellapilla, Puri & Simard,
2006), never a loop of per-tap einsums.  At stride 1 a gather with kernel
``w`` is the scatter with the flipped, transposed kernel ``_flip_t(w)``
onto the full output, cropped by k - 1, and the reverse also holds.  So a
thin layer (stride 1, fewer output than input channels, such as the
generator head), where an im2col would copy c*k^2 values per pixel to
produce o of them, runs each primitive as its twin, which is not thin and
keeps temporaries at o*k^2 values per pixel.
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


def _taps(kernel, hw, stride):
    """(u, v, window): where tap (u, v) lands as the kernel visits ``hw``."""
    for u, v in np.ndindex(*kernel):
        yield u, v, (..., slice(u, u + (hw[0] - 1) * stride + 1, stride),
                     slice(v, v + (hw[1] - 1) * stride + 1, stride))


# Samples per GEMM: every temporary holds at most CHUNK samples, so a thin
# layer on a large batch cannot blow up peak memory.
CHUNK = 2


def _chunks(n):
    return (slice(i, i + CHUNK) for i in range(0, n, CHUNK))


def _windows(src, kernel, out_hw, stride):
    """View (n, c, oh, ow, kh, kw): the patch of ``src`` each output reads."""
    win = sliding_window_view(src, kernel, axis=(2, 3))
    return win[:, :, :(out_hw[0] - 1) * stride + 1:stride,
               :(out_hw[1] - 1) * stride + 1:stride]


def _full_pad(g, kernel):
    return np.pad(g, ((0, 0), (0, 0), (kernel[0] - 1,) * 2,
                      (kernel[1] - 1,) * 2))


def _flip_t(w):
    """Kernel whose stride-1 gather is the adjoint of ``w``'s gather."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _per_pixel(w_mat, x):
    """``w_mat @ x[i]`` for each sample, pixels flattened: (n, rows, h*w)."""
    return w_mat @ x.reshape(len(x), w_mat.shape[1], -1)


def _thin(o, c, stride):
    """True where a primitive runs as its twin with ``_flip_t(w)``."""
    return stride == 1 and o < c


def _correlate(src, w, out_hw, stride):
    """Gather: ``out[n,o] = sum_{c,u,v} src[n,c,win(u,v)] w[o,c,u,v]``."""
    o, c, kh, kw = w.shape
    if _thin(o, c, stride):
        full_hw = [s + k - 1 for s, k in zip(src.shape[2:], (kh, kw))]
        full = _correlate_adjoint(src, _flip_t(w), full_hw, 1)
        return full[..., kh - 1:kh - 1 + out_hw[0], kw - 1:kw - 1 + out_hw[1]]
    # im2col: the reshape in _per_pixel copies the c*k^2 window of every
    # output pixel into one column, then one GEMM per sample
    out = np.zeros((len(src), o, *out_hw))
    cols = _windows(src, (kh, kw), out_hw, stride).transpose(0, 1, 4, 5, 2, 3)
    w_mat = w.reshape(o, c * kh * kw)
    for s in _chunks(len(src)):
        out[s] = _per_pixel(w_mat, cols[s]).reshape(out[s].shape)
    return out


def _correlate_adjoint(g, w, src_hw, stride):
    """Scatter: adjoint of ``_correlate`` in ``src``, onto ``src_hw``."""
    o, c, kh, kw = w.shape
    if _thin(o, c, stride):
        return _correlate(_full_pad(g, w.shape[2:]), _flip_t(w), src_hw, 1)
    out = np.zeros((len(g), c, *src_hw))
    w_taps = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, o)
    for s in _chunks(len(g)):
        dst = out[s]
        t = _per_pixel(w_taps, g[s]).reshape(len(dst), kh, kw, c,
                                             *g.shape[2:])
        for u, v, win in _taps((kh, kw), g.shape[2:], stride):
            dst[win] += t[:, u, v]
        del t  # freed before the next chunk's is built
    return out


def _correlate_weight_grad(src, g, kernel, stride):
    """Adjoint of ``_correlate`` in ``w``, laid out like ``w``."""
    if _thin(g.shape[1], src.shape[1], stride):
        return _flip_t(_correlate_weight_grad(_full_pad(g, kernel), src,
                                              kernel, 1))
    grad_w = np.zeros((g.shape[1], src.shape[1], *kernel))
    win = _windows(src, kernel, g.shape[2:], stride)
    for s in _chunks(len(g)):
        grad_w += np.tensordot(g[s], win[s], axes=([0, 2, 3], [0, 2, 3]))
    return grad_w


def _pad(x, p):
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


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
    y = _correlate(_pad(x, padding), w, out_hw, stride)
    return y + b[None, :, None, None]


def conv2d_backward(x, w, grad_y, stride=1, padding=0):
    xp = _pad(x, padding)
    grad_xp = _correlate_adjoint(grad_y, w, xp.shape[2:], stride)
    grad_w = _correlate_weight_grad(xp, grad_y, w.shape[2:], stride)
    return _crop(grad_xp, padding), grad_w, grad_y.sum(axis=(0, 2, 3))


def conv_transpose2d_forward(x, w, b, stride=1, padding=0):
    """Adjoint of ``conv2d`` in its input, cropped by ``padding``."""
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"input has {x.shape[1]} channels, "
                         f"kernel expects {w.shape[0]}")
    full_hw = [(s - 1) * stride + k for s, k in zip(x.shape[2:], w.shape[2:])]
    y = _crop(_correlate_adjoint(x, w, full_hw, stride), padding)
    return y + b[None, :, None, None]


def conv_transpose2d_backward(x, w, grad_y, stride=1, padding=0):
    grad_yf = _pad(grad_y, padding)
    grad_x = _correlate(grad_yf, w, x.shape[2:], stride)
    grad_w = _correlate_weight_grad(grad_yf, x, w.shape[2:], stride)
    return grad_x, grad_w, grad_y.sum(axis=(0, 2, 3))


def leaky_relu_forward(x, alpha=0.2):
    return np.where(x >= 0, x, alpha * x)


def leaky_relu_backward(x, grad_y, alpha=0.2):
    return np.where(x >= 0, grad_y, alpha * grad_y)


def relu_forward(x):
    return np.maximum(x, 0.0)


def relu_backward(x, grad_y):
    return np.where(x > 0, grad_y, 0.0)


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


def instance_norm_forward(x, gamma, beta, eps=1e-5):
    """Per-(sample, channel) standardization followed by affine scale/shift."""
    n, c, h, w = x.shape
    if h * w < 2:
        raise ValueError("instance norm needs spatial size >= 2")
    mu = x.mean(axis=(2, 3), keepdims=True)
    var = x.var(axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    y = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
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
