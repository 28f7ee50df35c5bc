"""psimlab: simulated phase-shifting interference microscopy with classical
five-step reconstruction and a toy single-shot conditional GAN."""

__version__ = "0.1.0"

from .image import Image, PhaseMap
from .simulate import (DEFAULT_SHIFTS, ForwardModelSpec, InterferogramStack,
                       PhaseObjectSpec, SourceSpec, coherence_envelope,
                       make_phase_object, simulate_frame, simulate_stack,
                       synth_dataset)
from .reconstruct import (QualityMap, five_step_wrapped_phase,
                          modulation_amplitude, phase_to_height,
                          reconstruct_stack, unwrap_phase)
from .metrics import (Profile, SsimParams, align_global_offset,
                      foreground_mask, masked_mean_ssim, rms_error, ssim,
                      stitched_line_profile)

__all__ = [
    "Image", "PhaseMap", "DEFAULT_SHIFTS", "ForwardModelSpec",
    "InterferogramStack", "PhaseObjectSpec", "SourceSpec",
    "coherence_envelope", "make_phase_object", "simulate_frame",
    "simulate_stack", "synth_dataset", "QualityMap",
    "five_step_wrapped_phase", "modulation_amplitude", "phase_to_height",
    "reconstruct_stack", "unwrap_phase", "Profile", "SsimParams",
    "align_global_offset", "foreground_mask", "masked_mean_ssim",
    "rms_error", "ssim", "stitched_line_profile",
]
