"""Classical five-step phase reconstruction and quality-guided unwrapping."""

from __future__ import annotations

import heapq
import math
import warnings

import numpy as np

from .image import Image, PhaseMap
from .simulate import InterferogramStack


class QualityMap(Image):
    """Per-pixel fringe modulation amplitude, used as unwrapping quality."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.data < 0):
            raise ValueError("quality map must be >= 0")


class HeightMap(Image):
    """Surface height in nm."""


def five_step_wrapped_phase(stack: InterferogramStack) -> PhaseMap:
    """Wrapped phase estimate phi = atan2(2(I2 - I4), 2 I3 - I1 - I5).

    The tangent of the result equals 2(I4 - I2) / (I1 - 2 I3 + I5) wherever
    the denominator is nonzero; atan2 fixes the quadrant so the estimate
    round-trips the simulator's ground truth under the default
    (-pi, -pi/2, 0, pi/2, pi) schedule.  Pixels with zero modulation
    (numerator = denominator = 0) get phi = 0.
    """
    i1, i2, i3, i4, i5 = (f.data for f in stack.frames)
    num = 2.0 * (i2 - i4)
    den = 2.0 * i3 - i1 - i5
    phi = np.arctan2(num, den)
    phi[(num == 0.0) & (den == 0.0)] = 0.0
    # atan2 returns [-pi, pi]; fold -pi onto +pi to keep the (-pi, pi] contract
    phi[phi == -np.pi] = np.pi
    return PhaseMap(phi, wrapped=True)


def modulation_amplitude(stack: InterferogramStack) -> QualityMap:
    """Fringe modulation B = sqrt((2(I2 - I4))^2 + (2 I3 - I1 - I5)^2) / 4."""
    i1, i2, i3, i4, i5 = (f.data for f in stack.frames)
    num = 2.0 * (i2 - i4)
    den = 2.0 * i3 - i1 - i5
    return QualityMap(0.25 * np.hypot(num, den))


def unwrap_phase(wrapped: PhaseMap, quality: QualityMap) -> PhaseMap:
    """Quality-guided flood-fill unwrapping (Ghiglia & Pritt, 1998).

    Seeds at the highest-quality pixel (row-major tie-break), then grows the
    solved region by repeatedly popping the highest-quality frontier pixel and
    assigning the value of its highest-quality solved neighbor (up, down,
    left, right on ties) plus the wrapped difference.  The seed keeps its
    wrapped value, so output - input is a multiple of 2 pi everywhere.

    Every pixel is ranked once by (-quality, row-major index), so the
    frontier heap holds plain int ranks and each pixel is pushed once.  The
    loop runs over Python lists on a grid padded with a one-pixel blocked
    border, so neighbor offsets need no bounds tests.
    """
    if not wrapped.wrapped:
        raise ValueError("input phase must be wrapped")
    if wrapped.shape != quality.shape:
        raise ValueError("quality map dimensions must match the phase map")
    q = quality.data
    w = wrapped.data
    rows, cols = w.shape

    if np.all(q == 0.0):
        # every rank ties, so the fill runs row-major from (0, 0)
        warnings.warn("all-zero quality map; unwrapping in raster order",
                      stacklevel=2)

    # rank 0 is the argmax, ties broken row-major: the stable sort keeps the
    # row-major order among equal qualities
    order = np.argsort(-q.ravel(), kind="stable")
    sr, sc = divmod(int(order[0]), cols)

    # padded grid: pixel (r, c) sits in cell (r + 1) * stride + c + 1
    stride = cols + 2
    size = (rows + 2) * stride
    r, c = np.divmod(order, cols)
    cell = (r + 1) * stride + c + 1  # rank -> cell
    rank = np.zeros(size, dtype=np.int64)
    rank[cell] = np.arange(cell.size)
    cell = cell.tolist()
    rank = rank.tolist()
    qual = np.pad(q, 1).ravel().tolist()
    phase = np.pad(w, 1).ravel().tolist()
    # state per cell: 0 free, 1 queued, 2 solved, 3 border
    state = bytearray(np.pad(np.zeros(q.shape, np.uint8), 1,
                             constant_values=3).tobytes())
    out = [0.0] * size

    heappush = heapq.heappush
    heappop = heapq.heappop
    offsets = (-stride, stride, -1, 1)  # up, down, left, right
    seed = cell[0]
    out[seed] = phase[seed]
    state[seed] = 2
    frontier = []
    for o in offsets:
        if state[seed + o] == 0:
            state[seed + o] = 1
            heappush(frontier, rank[seed + o])

    two_pi = 2.0 * math.pi
    while frontier:
        p = cell[heappop(frontier)]
        # the first solved neighbor wins unless a later one has higher
        # quality; free neighbors join the frontier
        best = -1.0
        ref = -1
        for o in offsets:
            n = p + o
            s = state[n]
            if s == 2:
                if qual[n] > best:
                    best = qual[n]
                    ref = n
            elif s == 0:
                state[n] = 1
                heappush(frontier, rank[n])
        # d - 2 pi * np.round(d / 2 pi) without the call: d lies in
        # (-2 pi, 2 pi), so the multiple is -1, 0 or 1, and 0 at exactly
        # +-0.5 (half to even)
        d = phase[p] - phase[ref]
        x = d / two_pi
        if x > 0.5:
            d -= two_pi
        elif x < -0.5:
            d += two_pi
        out[p] = out[ref] + d
        state[p] = 2

    out = np.array(out).reshape(rows + 2, stride)[1:-1, 1:-1]
    return PhaseMap(out, wrapped=False, meta={"seed_pixel": (sr, sc)})


def phase_to_height(phase: PhaseMap, lambda0: float) -> HeightMap:
    """Reflection-mode conversion h = lambda0 * phi / (4 pi), nm."""
    if phase.wrapped:
        raise ValueError("phase must be unwrapped before height conversion")
    return HeightMap(lambda0 * phase.data / (4.0 * math.pi))


def reconstruct_stack(stack: InterferogramStack, lambda0: float = None):
    """Full classical pipeline: wrapped phase, quality, unwrapped phase, height."""
    wrapped = five_step_wrapped_phase(stack)
    quality = modulation_amplitude(stack)
    unwrapped = unwrap_phase(wrapped, quality)
    height = None
    if lambda0 is not None:
        height = phase_to_height(unwrapped, lambda0)
    return wrapped, quality, unwrapped, height
