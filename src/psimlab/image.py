"""Core raster types: intensity images and phase maps.

All grids are 2D float64 numpy arrays in row-major (row, col) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


def _as_grid(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D grid, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"degenerate grid shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("grid contains NaN/Inf")
    return arr


@dataclass
class Image:
    """A 2D scalar field (detector intensity, arbitrary units)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = _as_grid(self.data)

    @property
    def shape(self):
        return self.data.shape


@dataclass
class PhaseMap:
    """A 2D phase field in radians.

    ``wrapped=True`` asserts every value lies in (-pi, pi].  ``meta`` carries
    bookkeeping such as the unwrapping seed pixel and its 2-pi branch.
    """

    data: np.ndarray
    wrapped: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = _as_grid(self.data)
        if self.wrapped:
            if np.any(self.data <= -np.pi) or np.any(self.data > np.pi):
                raise ValueError("wrapped phase must lie in (-pi, pi]")

    @property
    def shape(self):
        return self.data.shape


def wrap_to_pi(x):
    """Wrap angles to the interval (-pi, pi]."""
    x = np.asarray(x, dtype=np.float64)
    wrapped = x - TWO_PI * np.round(x / TWO_PI)
    # round() sends exactly-pi values to -pi; fold them back
    return np.where(wrapped <= -np.pi, wrapped + TWO_PI, wrapped)
