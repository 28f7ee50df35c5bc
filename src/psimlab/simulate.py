"""Synthetic phase objects and low-coherence phase-shifted interferogram stacks.

The forward model is two-beam interference under a Gaussian coherence
envelope:

    I(x, y) = I_o + I_r + 2 sqrt(I_o I_r) * gamma(dz) * cos(phi + shift) + n

with gamma(dz) = exp(-(dz / L_c)^2) and per-pixel OPD dz = 2 h(x, y)
(reflection doubles the path) minus a configurable reference OPD.

Randomness: all draws come from ``numpy.random.Generator(PCG64)`` seeded via
``numpy.random.default_rng(seed)``.  Per stack the draw order is fixed: five
shift-jitter normals first, then one noise field per frame in frame order.
Per-sample seeds for datasets come from ``SeedSequence(master).spawn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Literal, Optional, Sequence, Tuple

import numpy as np

from .config import Range, check_fields
from .image import Image, PhaseMap

DEFAULT_SHIFTS = (-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0, math.pi)


@dataclass
class SourceSpec:
    """Filtered broadband source: center wavelength and full spectral width, nm."""

    lambda0: Annotated[float, Range(gt=0)] = 520.0
    delta_lambda: Annotated[float, Range(gt=0)] = 72.0

    __post_init__ = check_fields

    @property
    def coherence_length(self) -> float:
        """L_c = (2 ln 2 / pi) * lambda0^2 / delta_lambda, nm."""
        return (2.0 * math.log(2.0) / math.pi) * self.lambda0 ** 2 / self.delta_lambda


@dataclass
class PhaseObjectSpec:
    """Geometry of a synthetic sample; index contrast is folded into height.

    kinds:
      - ``flat``: zero height everywhere.
      - ``waveguide_ridge``: vertical ridge of ``ridge_width`` px centered at
        column ``ridge_center``, plateau ``ridge_height`` nm, raised-cosine
        edges of ``edge_width`` px.
      - ``cell_blobs``: Gaussian bumps; ``blobs`` is a list of
        (row, col, radius_px, peak_height_nm), sigma = radius.
    """

    kind: Literal["flat", "waveguide_ridge", "cell_blobs"] = "flat"
    ridge_center: float = 0.0
    ridge_width: Annotated[float, Range(ge=1)] = 1.0
    ridge_height: Annotated[float, Range(ge=0)] = 0.0
    edge_width: float = 4.0
    blobs: Sequence[Tuple[float, float, Annotated[float, Range(ge=1)],
                          Annotated[float, Range(ge=0)]]] = ()

    __post_init__ = check_fields


@dataclass
class ForwardModelSpec:
    """Interference model parameters for one acquisition."""

    source: SourceSpec = field(default_factory=SourceSpec)
    i_object: Annotated[float, Range(gt=0)] = 1.0
    i_reference: Annotated[float, Range(gt=0)] = 1.0
    shift_schedule: Tuple[float, float, float, float, float] = DEFAULT_SHIFTS
    jitter_sigma: Annotated[float, Range(ge=0)] = 0.0
    noise_sigma: Annotated[float, Range(ge=0)] = 0.0
    envelope_reference_opd: float = 0.0

    def __post_init__(self):
        check_fields(self)
        self.shift_schedule = tuple(float(s) for s in self.shift_schedule)


@dataclass
class InterferogramStack:
    """Five phase-shifted frames plus the shifts actually applied."""

    frames: list
    realized_shifts: tuple
    model: ForwardModelSpec
    seed: Optional[int] = None

    def __post_init__(self):
        if len(self.frames) != 5:
            raise ValueError("a stack holds exactly five frames")
        shape = self.frames[0].shape
        for f in self.frames[1:]:
            if f.shape != shape:
                raise ValueError("all five frames must share dimensions")
        self.realized_shifts = tuple(float(s) for s in self.realized_shifts)
        if len(self.realized_shifts) != 5:
            raise ValueError("need five realized shifts")

    @property
    def shape(self):
        return self.frames[0].shape


def height_to_phase(height_nm: np.ndarray, lambda0: float) -> np.ndarray:
    """Reflection-mode conversion: phi = 4 pi h / lambda0."""
    return 4.0 * math.pi * np.asarray(height_nm, dtype=np.float64) / lambda0


def phase_to_opd(phase: np.ndarray, lambda0: float) -> np.ndarray:
    """Per-pixel OPD implied by phase under reflection: dz = 2h = lambda0 phi / (2 pi)."""
    return lambda0 * np.asarray(phase, dtype=np.float64) / (2.0 * math.pi)


def make_phase_object(spec: PhaseObjectSpec, width: int, height: int,
                      lambda0: float = 520.0) -> PhaseMap:
    """Render the ground-truth unwrapped phase of a synthetic object."""
    if width < 8 or height < 8:
        raise ValueError("image must be at least 8x8")
    h_nm = np.zeros((height, width), dtype=np.float64)

    if spec.kind == "flat":
        pass
    elif spec.kind == "waveguide_ridge":
        half = spec.ridge_width / 2.0
        lo = spec.ridge_center - half - spec.edge_width
        hi = spec.ridge_center + half + spec.edge_width
        if lo < -0.5 or hi > width - 0.5:
            raise ValueError(
                f"ridge [{lo:.1f}, {hi:.1f}] px exceeds image width {width}")
        cols = np.arange(width, dtype=np.float64)
        dist = np.abs(cols - spec.ridge_center) - half
        profile = np.ones(width)
        if spec.edge_width > 0:
            edge = dist > 0
            profile[edge] = 0.5 * (1.0 + np.cos(
                math.pi * np.minimum(dist[edge] / spec.edge_width, 1.0)))
        else:
            profile[dist > 0] = 0.0
        h_nm[:] = spec.ridge_height * profile[None, :]
    else:  # cell_blobs
        rows = np.arange(height, dtype=np.float64)[:, None]
        cols = np.arange(width, dtype=np.float64)[None, :]
        for (r0, c0, radius, peak) in spec.blobs:
            if not (0 <= r0 < height and 0 <= c0 < width):
                raise ValueError(
                    f"blob center ({r0}, {c0}) outside {height}x{width} image")
            r2 = (rows - r0) ** 2 + (cols - c0) ** 2
            h_nm += peak * np.exp(-r2 / (2.0 * radius ** 2))

    return PhaseMap(height_to_phase(h_nm, lambda0), wrapped=False)


def coherence_envelope(opd_nm, source: SourceSpec):
    """Gaussian fringe-visibility envelope gamma(dz) = exp(-(dz / L_c)^2)."""
    lc = source.coherence_length
    return np.exp(-(np.asarray(opd_nm, dtype=np.float64) / lc) ** 2)


def simulate_frame(phase: PhaseMap, shift: float, model: ForwardModelSpec,
                   noise_field: Optional[Image] = None) -> Image:
    """Evaluate one interferogram frame at the given realized phase shift."""
    if phase.wrapped:
        raise ValueError("simulate_frame expects the unwrapped ground truth")
    phi = phase.data
    opd = phase_to_opd(phi, model.source.lambda0) - model.envelope_reference_opd
    gamma = coherence_envelope(opd, model.source)
    amp = 2.0 * math.sqrt(model.i_object * model.i_reference)
    intensity = (model.i_object + model.i_reference
                 + amp * gamma * np.cos(phi + shift))
    if noise_field is not None:
        if noise_field.shape != phase.shape:
            raise ValueError(
                f"noise field shape {noise_field.shape} != phase {phase.shape}")
        intensity = intensity + noise_field.data
    return Image(intensity)


def simulate_stack(phase: PhaseMap, model: ForwardModelSpec,
                   seed: int = 0) -> InterferogramStack:
    """Simulate the five-frame acquisition with per-frame jitter and noise."""
    rng = np.random.default_rng(seed)
    jitter = rng.normal(0.0, model.jitter_sigma, 5) if model.jitter_sigma > 0 \
        else np.zeros(5)
    realized = tuple(s + e for s, e in zip(model.shift_schedule, jitter))
    frames = []
    for shift in realized:
        noise = None
        if model.noise_sigma > 0:
            noise = Image(rng.normal(0.0, model.noise_sigma, phase.shape))
        frames.append(simulate_frame(phase, shift, model, noise))
    return InterferogramStack(frames, realized, model, seed)


def _random_object(kind: str, width: int, height: int,
                   rng: np.random.Generator) -> PhaseObjectSpec:
    if kind == "flat":
        return PhaseObjectSpec(kind="flat")
    if kind == "waveguide_ridge":
        # at small widths the ridge is widened to 1 px and its edges are
        # narrowed to fit, with the same draws, so an object that fitted
        # unclamped is unchanged; ``max`` absorbs rounding at zero room
        w = max(rng.uniform(0.12, 0.3) * width, 1.0)
        edge = min(rng.uniform(3.0, 6.0), (width - w - 3) / 2)
        low = w / 2 + edge + 1
        center = rng.uniform(low, max(low, width - w / 2 - edge - 2))
        h = rng.uniform(40.0, 120.0)
        return PhaseObjectSpec(kind="waveguide_ridge", ridge_center=center,
                               ridge_width=w, ridge_height=h, edge_width=edge)
    if kind == "cell_blobs":
        n = int(rng.integers(1, 4))
        blobs = []
        for _ in range(n):
            r0 = rng.uniform(0.2, 0.8) * height
            c0 = rng.uniform(0.2, 0.8) * width
            radius = max(rng.uniform(0.08, 0.2) * min(width, height), 1.0)
            peak = rng.uniform(30.0, 110.0)
            blobs.append((r0, c0, radius, peak))
        return PhaseObjectSpec(kind="cell_blobs", blobs=blobs)
    raise ValueError(f"unknown object family {kind!r}")


def synth_dataset(count: int, width: int, height: int, object_family: str,
                  model: ForwardModelSpec, seed: int = 0):
    """Generate ``count`` (stack, ground-truth phase) pairs.

    Per-sample seeds derive from ``SeedSequence(seed).spawn(count)`` so each
    sample is independent of the others and reproducible in isolation.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    children = np.random.SeedSequence(seed).spawn(count)
    samples = []
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        spec = _random_object(object_family, width, height, rng)
        truth = make_phase_object(spec, width, height, model.source.lambda0)
        stack_seed = int(rng.integers(0, 2 ** 63 - 1))
        samples.append((simulate_stack(truth, model, stack_seed), truth))
    return samples
