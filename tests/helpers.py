"""Helpers that several test modules share and the package does not run."""

import tracemalloc

import numpy as np

from psimlab.metrics import Profile
from psimlab.reconstruct import (five_step_wrapped_phase,
                                 modulation_amplitude, unwrap_phase)
from psimlab.simulate import (DEFAULT_SHIFTS, ForwardModelSpec,
                              InterferogramStack)

TWO_PI = 2.0 * np.pi


def wrap_to_pi(x):
    """Wrap angles to the interval (-pi, pi]."""
    x = np.asarray(x, dtype=np.float64)
    wrapped = x - TWO_PI * np.round(x / TWO_PI)
    # round() sends exactly-pi values to -pi; fold them back
    return np.where(wrapped <= -np.pi, wrapped + TWO_PI, wrapped)


def read_profile_csv(path) -> Profile:
    """Read back the CSV that ``psimlab.io.write_profile_csv`` writes."""
    values = []
    boundaries = []
    with open(path) as fh:
        next(fh)  # header
        for line in fh:
            if line.startswith("# segment="):
                boundaries.append(len(values))
                continue
            _, v = line.rstrip("\n").split(",")
            values.append(float(v))
    return Profile(np.array(values), tuple(boundaries))


def chained_stack(i1, frames):
    """The stack of ``i1`` and the four frames ``chain_infer_frames``
    predicts from it, at the default shifts."""
    return InterferogramStack([i1, *frames], DEFAULT_SHIFTS,
                              ForwardModelSpec(), seed=None)


def classical_phase(stack):
    """The classical unwrapped phase of ``stack``: the five-step wrapped
    phase, unwrapped under its modulation as quality."""
    return unwrap_phase(five_step_wrapped_phase(stack),
                        modulation_amplitude(stack))


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
