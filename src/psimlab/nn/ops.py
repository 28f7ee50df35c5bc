"""Dense numeric ops with hand-written backward passes.

All tensors are float64 numpy arrays laid out (batch, channels, height,
width).  Convolutions are cross-correlations with zero padding; weight
layouts follow (out, in, kh, kw) for conv and (in, out, kh, kw) for
transposed conv.
"""

from __future__ import annotations

import numpy as np


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


def _correlate(src, w, out_hw, stride):
    """Gather: ``out[n,o] = sum_{c,u,v} src[n,c,win(u,v)] w[o,c,u,v]``."""
    out = np.zeros((len(src), len(w), *out_hw))
    for u, v, win in _taps(w.shape[2:], out_hw, stride):
        out += np.einsum('nchw,oc->nohw', src[win], w[:, :, u, v],
                         optimize=True)
    return out


def _correlate_adjoint(g, w, src_hw, stride):
    """Scatter: adjoint of ``_correlate`` in ``src``, onto ``src_hw``."""
    out = np.zeros((len(g), w.shape[1], *src_hw))
    for u, v, win in _taps(w.shape[2:], g.shape[2:], stride):
        out[win] += np.einsum('nohw,oc->nchw', g, w[:, :, u, v],
                              optimize=True)
    return out


def _correlate_weight_grad(src, g, kernel, stride):
    """Adjoint of ``_correlate`` in ``w``, laid out like ``w``."""
    grad_w = np.zeros((g.shape[1], src.shape[1], *kernel))
    for u, v, win in _taps(kernel, g.shape[2:], stride):
        grad_w[:, :, u, v] = np.einsum('nohw,nchw->oc', g, src[win],
                                       optimize=True)
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
    n, c, h, w = grad_y.shape
    m = h * w
    grad_gamma = np.einsum('nchw,nchw->c', grad_y, xhat, optimize=True)
    grad_beta = grad_y.sum(axis=(0, 2, 3))
    g = grad_y * gamma[None, :, None, None]
    g_mean = g.mean(axis=(2, 3), keepdims=True)
    gx_mean = (g * xhat).mean(axis=(2, 3), keepdims=True)
    grad_x = inv_std * (g - g_mean - xhat * gx_mean)
    return grad_x, grad_gamma, grad_beta
