"""Core raster types: one finite 2D grid base and the phase map on it.

All grids are 2D float64 numpy arrays in row-major (row, col) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Image:
    """A finite 2D float64 grid: detector intensity, or the base of every
    other raster type.

    Construction rejects non-2D, empty and NaN/Inf data.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2D grid, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"degenerate grid shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid contains NaN/Inf")
        self.data = arr

    @property
    def shape(self):
        return self.data.shape


@dataclass
class PhaseMap(Image):
    """A 2D phase field in radians.

    ``wrapped=True`` asserts every value lies in (-pi, pi].  ``meta`` carries
    bookkeeping such as the unwrapping seed pixel.
    """

    wrapped: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.wrapped:
            if np.any(self.data <= -np.pi) or np.any(self.data > np.pi):
                raise ValueError("wrapped phase must lie in (-pi, pi]")

