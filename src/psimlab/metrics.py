"""Comparison metrics: windowed SSIM, RMS error, offset alignment, profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .config import Range, check_fields
from .image import PhaseMap
from .simulate import InterferogramStack


# SSIM's window and stabilizing constants (Wang et al., IEEE TIP 13(4),
# 2004): an 11-tap Gaussian of sigma 1.5, K1 = 0.01 and K2 = 0.03
WINDOW_SIZE = 11
SIGMA = 1.5
K1 = 0.01
K2 = 0.03
_X = np.arange(WINDOW_SIZE, dtype=np.float64) - (WINDOW_SIZE - 1) / 2.0
_TAPS = np.exp(-(_X ** 2) / (2.0 * SIGMA ** 2))
_TAPS /= _TAPS.sum()

FOREGROUND_FRACTION = 0.05


def _correlate_valid(x, taps, count, axis):
    """``scipy.ndimage.correlate1d(x, taps, axis)`` at the ``count`` window
    positions that lie wholly inside ``x``, for an odd, symmetric window,
    bitwise: the taps are applied in correlate1d's own loop order, so every
    sum rounds the same way.  ``_TAPS`` are spaced evenly about the center,
    so they are exactly symmetric, which sends correlate1d down its
    symmetric branch: it adds the two samples a tap weighs before
    multiplying."""
    def at(k):  # the sample k places into each window
        return x[k:k + count] if axis == 0 else x[:, k:k + count]

    n = len(taps)
    h = n // 2
    out = at(h) * taps[h]
    tmp = np.empty_like(out)
    for k in range(h):
        np.add(at(k), at(n - 1 - k), out=tmp)
        tmp *= taps[k]
        out += tmp
    return out


@dataclass
class SsimParams:
    dynamic_range: Annotated[float, Range(gt=0)] = 1.0

    __post_init__ = check_fields


@dataclass
class Profile:
    """A stitched line profile with frame-boundary markers."""

    values: np.ndarray
    boundaries: tuple = field(default_factory=tuple)


def ssim(a, b, params: SsimParams):
    """Classic windowed SSIM; returns (mean score, per-window SSIM map).

    Statistics are Gaussian-weighted within each fully-valid window; the mean
    runs over valid windows only (no padding), and the map has shape
    (H - n + 1, W - n + 1) for the n x n window, n = ``WINDOW_SIZE``.  The
    Gaussian window is the outer product of its 1D taps, so each local mean
    is two n-tap passes, one per axis.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    n = WINDOW_SIZE
    if a.shape[0] < n or a.shape[1] < n:
        raise ValueError(f"images must be at least {n}x{n}")
    rows = a.shape[0] - n + 1
    cols = a.shape[1] - n + 1

    def local_mean(x):
        # the axis-1 pass slices columns rather than transposing, so the
        # map is C-contiguous and its mean sums in row-major order
        return _correlate_valid(_correlate_valid(x, _TAPS, rows, 0),
                                _TAPS, cols, 1)

    mu_a = local_mean(a)
    mu_b = local_mean(b)
    var_a = local_mean(a * a) - mu_a ** 2
    var_b = local_mean(b * b) - mu_b ** 2
    cov = local_mean(a * b) - mu_a * mu_b

    c1 = (K1 * params.dynamic_range) ** 2
    c2 = (K2 * params.dynamic_range) ** 2
    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / \
        ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    return float(ssim_map.mean()), ssim_map


def rms_error(a, b) -> float:
    """Root-mean-square difference."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def align_global_offset(pred: PhaseMap, truth: PhaseMap) -> PhaseMap:
    """Remove the global 2-pi branch: subtract round(median(pred - truth) / 2pi) * 2pi."""
    if pred.shape != truth.shape:
        raise ValueError("phase maps must share dimensions")
    if pred.wrapped or truth.wrapped:
        raise ValueError("alignment applies to unwrapped phase maps")
    two_pi = 2.0 * math.pi
    offset = two_pi * np.round(np.median(pred.data - truth.data) / two_pi)
    return PhaseMap(pred.data - offset, wrapped=False)


def stitched_line_profile(stack: InterferogramStack, row: int) -> Profile:
    """Concatenate one row from each of the five frames, in frame order."""
    height, width = stack.shape
    if not 0 <= row < height:
        raise ValueError(f"row {row} out of range for height {height}")
    values = np.concatenate([f.data[row] for f in stack.frames])
    boundaries = tuple(width * k for k in range(1, 5))
    return Profile(values, boundaries)


def foreground_mask(truth: PhaseMap) -> np.ndarray:
    """Pixels above the minimum by over FOREGROUND_FRACTION of the range."""
    t = truth.data
    lo = t.min()
    span = t.max() - lo
    if span == 0:
        return np.ones_like(t, dtype=bool)
    return (t - lo) > FOREGROUND_FRACTION * span


def masked_mean_ssim(ssim_map: np.ndarray, mask: np.ndarray) -> float:
    """Mean of ``ssim_map``, the map ``ssim`` returns, over the windows
    whose center pixel is in the mask; over every window when no center
    is."""
    half = WINDOW_SIZE // 2
    centers = mask[half:half + ssim_map.shape[0], half:half + ssim_map.shape[1]]
    if not centers.any():
        return float(ssim_map.mean())
    return float(ssim_map[centers].mean())
