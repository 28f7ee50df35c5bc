"""Classical five-step phase reconstruction and quality-guided unwrapping."""

from __future__ import annotations

import heapq
import math
import warnings
from array import array

import numpy as np

from .image import Image, PhaseMap
from .simulate import InterferogramStack

# unwrap_phase scans (pass 2) and converts to Python floats (pass 3) this
# many pops at a time
_SLICE = 1 << 16
# _pop_order parks queued ranks in blocks of this many consecutive ranks
_BLOCK = 256


class QualityMap(Image):
    """Per-pixel fringe modulation amplitude, used as unwrapping quality."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.data < 0):
            raise ValueError("quality map must be >= 0")


def _quadrature(stack: InterferogramStack):
    """The five-step quadrature pair (2(I2 - I4), 2 I3 - I1 - I5), which
    the wrapped phase and the modulation both read, in two new arrays that
    the caller may overwrite.  It is formed in place, by the same IEEE
    operations in the same order as the expressions."""
    i1, i2, i3, i4, i5 = (f.data for f in stack.frames)
    num = np.subtract(i2, i4)
    num *= 2.0
    den = np.multiply(i3, 2.0)
    den -= i1
    den -= i5
    return num, den


def five_step_wrapped_phase(stack: InterferogramStack) -> PhaseMap:
    """Wrapped phase estimate phi = atan2(2(I2 - I4), 2 I3 - I1 - I5).

    The tangent of the result equals 2(I4 - I2) / (I1 - 2 I3 + I5) wherever
    the denominator is nonzero; atan2 fixes the quadrant so the estimate
    round-trips the simulator's ground truth under the default
    (-pi, -pi/2, 0, pi/2, pi) schedule.  Pixels with zero modulation
    (numerator = denominator = 0) get phi = 0.
    """
    num, den = _quadrature(stack)
    unmodulated = (num == 0.0) & (den == 0.0)
    phi = np.arctan2(num, den, out=num)
    phi[unmodulated] = 0.0
    # atan2 returns [-pi, pi]; fold -pi onto +pi to keep the (-pi, pi] contract
    phi[phi == -np.pi] = np.pi
    return PhaseMap(phi, wrapped=True)


def modulation_amplitude(stack: InterferogramStack) -> QualityMap:
    """Fringe modulation B = sqrt((2(I2 - I4))^2 + (2 I3 - I1 - I5)^2) / 4."""
    num, den = _quadrature(stack)
    b = np.hypot(num, den, out=num)
    b *= 0.25
    return QualityMap(b)


def unwrap_phase(wrapped: PhaseMap, quality: QualityMap) -> PhaseMap:
    """Quality-guided flood-fill unwrapping (Ghiglia & Pritt, 1998).

    Seeds at the highest-quality pixel (row-major tie-break), then grows the
    solved region by repeatedly popping the highest-quality frontier pixel and
    assigning the value of its highest-quality solved neighbor (up, down,
    left, right on ties) plus the wrapped difference.  The seed keeps its
    wrapped value, so output - input is a multiple of 2 pi everywhere.

    Every pixel is ranked once by (-quality, row-major index), on a grid
    padded with a one-pixel blocked border.  The fill runs in three passes
    with the same result, bit for bit, as one loop that does it all:

    1. A loop over ranks finds the pop order only.  Its queue is a small
       heap of the lowest ranks queued, in front of blocks that hold
       the higher ones unsorted until the heap runs dry.  It maps ranks and
       cells through two ``array("i")`` tables, 4 bytes a cell.
    2. numpy gives each pixel its reference, the neighbor popped before it
       that the one loop would have chosen, as an int32 pop time, scanning
       ``_SLICE`` pops at a time.  Then each wrapped step, by the same IEEE
       operations.
    3. One loop adds the steps in pop order, in which every reference comes
       before the pixels that use it, into an ``array("d")``.

    ``meta`` holds the seed as ``seed_pixel`` and whether every quality
    was zero as ``quality_all_zero``.
    """
    if not wrapped.wrapped:
        raise ValueError("input phase must be wrapped")
    if wrapped.shape != quality.shape:
        raise ValueError("quality map dimensions must match the phase map")
    q = quality.data
    rows, cols = q.shape

    all_zero = not q.any()
    if all_zero:
        # every rank ties, so the fill runs row-major from (0, 0)
        warnings.warn("all-zero quality map; unwrapping in raster order",
                      stacklevel=2)

    # padded grid: pixel (r, c) sits in cell (r + 1) * stride + c + 1
    stride = cols + 2
    popped = _pop_order(q, stride)
    sr, sc = divmod(int(popped[0]) - stride - 1, stride)
    t_ref = _references(popped, q, stride)

    # d - 2 pi * np.round(d / 2 pi) without the call: d lies in
    # (-2 pi, 2 pi), so the multiple is -1, 0 or 1, and 0 at exactly
    # +-0.5 (half to even)
    phase = np.pad(wrapped.data, 1).ravel()
    two_pi = 2.0 * math.pi
    d = phase[popped] - phase[popped[t_ref]]
    x = d / two_pi
    d[x > 0.5] -= two_pi
    d[x < -0.5] += two_pi

    # pass 3, in slices so that only one slice is Python objects at a time
    vals = array("d", [phase[popped[0]]])
    del phase, x
    grow = vals.append
    for lo in range(1, popped.size, _SLICE):
        hi = lo + _SLICE
        for k, step in zip(t_ref[lo:hi].tolist(), d[lo:hi].tolist()):
            grow(vals[k] + step)
    out = np.empty((rows + 2) * stride)
    out[popped] = np.frombuffer(vals)
    out = out.reshape(rows + 2, stride)[1:-1, 1:-1]
    return PhaseMap(out, wrapped=False,
                    meta={"seed_pixel": (sr, sc), "quality_all_zero": all_zero})


def _pop_order(q, stride):
    """Pass 1 of ``unwrap_phase``: the padded cells in the order the fill
    solves them, the seed first, as an int64 array.  Only the lowest rank is
    popped, so the loop does nothing else but queue free neighbors.

    The queue is a heap in front of blocks of ``_BLOCK`` consecutive ranks
    (Dial, 1969).  A rank below ``tau``, the end of the highest block opened
    so far, goes on the heap; a higher one is parked unsorted in its block.
    When the heap runs dry the lowest nonempty block is heapified and ``tau``
    moves past it.  Every parked rank is above every heap rank, so each pop
    is still the lowest rank queued, and the heap holds only the ranks
    queued below ``tau`` in place of the whole frontier."""
    rows, cols = q.shape
    # rank 0 is the argmax, ties broken row-major.  Without ties any sort
    # gives that order; with one (-0.0 and 0.0 tie too) only the stable sort
    # keeps the row-major order among equal qualities.  Image data is finite.
    neg = -q.ravel()
    order = np.argsort(neg)
    sq = neg[order]
    if (sq[1:] == sq[:-1]).any():
        order = np.argsort(neg, kind="stable")
    del neg, sq
    r, c = np.divmod(order, cols)
    del order
    # rank -> cell and cell -> rank as C ints: the padded grid has fewer
    # than 2**31 cells, and 4 bytes a cell in place of a Python int
    cell = ((r + 1) * stride + c + 1).astype(np.intc)
    del r, c
    rank = np.zeros((rows + 2) * stride, dtype=np.intc)
    rank[cell] = np.arange(cell.size, dtype=np.intc)
    seed = int(cell[0])
    nblocks = -(-cell.size // _BLOCK)
    cell = array("i", cell.tobytes())
    rank = array("i", rank.tobytes())
    # free[n] is 1 until n is queued; border cells and the seed start at 0
    free = bytearray(np.pad(np.ones(q.shape, np.uint8), 1).tobytes())
    free[seed] = 0
    popped = array("q")
    record = popped.append
    heap = [0]  # the seed's rank
    blocks = [[] for _ in range(nblocks)]
    block = _BLOCK
    tau = block
    opened = 1  # blocks below this one hold no parked rank
    heappush = heapq.heappush
    heappop = heapq.heappop
    while True:
        while heap:
            p = cell[heappop(heap)]
            record(p)
            n = p - stride
            if free[n]:
                free[n] = 0
                k = rank[n]
                if k < tau:
                    heappush(heap, k)
                else:
                    blocks[k // block].append(k)
            n = p + stride
            if free[n]:
                free[n] = 0
                k = rank[n]
                if k < tau:
                    heappush(heap, k)
                else:
                    blocks[k // block].append(k)
            n = p - 1
            if free[n]:
                free[n] = 0
                k = rank[n]
                if k < tau:
                    heappush(heap, k)
                else:
                    blocks[k // block].append(k)
            n = p + 1
            if free[n]:
                free[n] = 0
                k = rank[n]
                if k < tau:
                    heappush(heap, k)
                else:
                    blocks[k // block].append(k)
        while opened < nblocks and not blocks[opened]:
            opened += 1
        if opened == nblocks:
            return np.frombuffer(popped, dtype=np.int64)
        heap = blocks[opened]
        heapq.heapify(heap)
        opened += 1
        tau = opened * block


def _references(popped, q, stride):
    """Pass 2 of ``unwrap_phase``: for the pixel popped k-th, the pop time of
    its reference, as int32.  As the one loop did, scan up, down, left,
    right, and let a neighbor popped earlier replace the reference only on
    strictly higher quality.  The pops go ``_SLICE`` at a time, so the scan's
    temporaries are the size of a slice.  The seed's entry is 0 and unused."""
    npix = popped.size
    # border cells never pop
    t = np.full((q.shape[0] + 2) * stride, npix, dtype=np.int32)
    t[popped] = np.arange(npix, dtype=np.int32)
    qual = np.pad(q, 1).ravel()
    t_ref = np.zeros(npix, dtype=np.int32)
    for lo in range(0, npix, _SLICE):
        hi = min(lo + _SLICE, npix)
        cells = popped[lo:hi]
        now = np.arange(lo, hi, dtype=np.int32)
        best = np.full(hi - lo, -1.0)
        ref = t_ref[lo:hi]
        for o in (-stride, stride, -1, 1):
            nb = cells + o
            tn = t[nb]
            qn = qual[nb]
            take = (tn < now) & (qn > best)
            best[take] = qn[take]
            ref[take] = tn[take]
    return t_ref


def phase_to_height(phase: PhaseMap, lambda0: float) -> Image:
    """Reflection-mode conversion h = lambda0 * phi / (4 pi), nm."""
    if phase.wrapped:
        raise ValueError("phase must be unwrapped before height conversion")
    return Image(lambda0 * phase.data / (4.0 * math.pi))


def reconstruct_stack(wrapped: PhaseMap, quality: QualityMap,
                      lambda0: float | None):
    """The classical pipeline after the frames: the unwrapped phase, and the
    height unless ``lambda0`` is None, from the wrapped phase and quality
    that ``five_step_wrapped_phase`` and ``modulation_amplitude`` form.
    Taking the two maps and not the stack lets a caller free the five
    frames before the unwrap."""
    unwrapped = unwrap_phase(wrapped, quality)
    height = None
    if lambda0 is not None:
        height = phase_to_height(unwrapped, lambda0)
    return unwrapped, height
