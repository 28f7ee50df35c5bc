"""Pair construction, augmentation, and train/test splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, TypedDict

import numpy as np


class NormInfo(TypedDict, total=False):
    """The dataset-wide ranges a model was trained with, as its checkpoint
    records them; ``phase_range`` is recorded in mode ``phase`` only."""

    mode: str
    intensity_range: Tuple[float, float]
    phase_range: Tuple[float, float]


@dataclass
class PairedSample:
    """One normalized (input, target) training pair.

    The ranges that normalized it are dataset-wide; ``build_pairs`` returns
    them once, in its ``norm_info``.
    """

    input: np.ndarray
    target: np.ndarray


def _affine_to_unit(lo, hi):
    """(offset, scale) mapping [lo, hi] -> [-1, 1]."""
    off = 0.5 * (hi + lo)
    scale = 0.5 * (hi - lo)
    if scale == 0.0:
        scale = 1.0
    return off, scale


def normalize(x, lo, hi):
    off, scale = _affine_to_unit(lo, hi)
    return (x - off) / scale


def denormalize(x, lo, hi):
    off, scale = _affine_to_unit(lo, hi)
    return x * scale + off


def dataset_intensity_range(dataset):
    lo = min(f.data.min() for stack, _ in dataset for f in stack.frames)
    hi = max(f.data.max() for stack, _ in dataset for f in stack.frames)
    return float(lo), float(hi)


PHASE_MARGIN = 0.05


def dataset_phase_range(dataset):
    """Fixed phase range over the whole dataset's ground truth, with headroom."""
    lo = min(truth.data.min() for _, truth in dataset)
    hi = max(truth.data.max() for _, truth in dataset)
    pad = PHASE_MARGIN * max(hi - lo, 1.0)
    return float(lo - pad), float(hi + pad)


def build_pairs(dataset, mode, ranges=None) -> Tuple[list, NormInfo]:
    """Turn (stack, truth) samples into normalized training pairs.

    mode ``frames``: four pairs per stack, frame k -> frame k+1 (one shared
    generator learns the constant advance).  mode ``phase``: one pair per
    stack, frame 1 -> ground-truth phase, target normalized by a
    dataset-wide fixed phase range.  Intensities always use the dataset-wide
    range so inference from a single frame normalizes consistently.
    ``ranges``, a ``norm_info`` such as a checkpoint records, supplies the
    ranges to use instead, and must hold each of them (KeyError).

    Returns (pairs, norm_info) where norm_info records the intensity range
    and, for mode phase, the phase range used.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if mode not in ("frames", "phase"):
        raise ValueError(f"unknown mode {mode!r}")

    intensity_range = (dataset_intensity_range(dataset) if ranges is None
                       else ranges["intensity_range"])
    norm_info = NormInfo(mode=mode, intensity_range=intensity_range)
    pairs = []

    lo, hi = intensity_range
    if mode == "frames":
        for stack, _ in dataset:
            for k in range(4):
                pairs.append(PairedSample(
                    normalize(stack.frames[k].data, lo, hi),
                    normalize(stack.frames[k + 1].data, lo, hi)))
        return pairs, norm_info

    norm_info["phase_range"] = (dataset_phase_range(dataset) if ranges is None
                                else ranges["phase_range"])
    plo, phi = norm_info["phase_range"]
    for stack, truth in dataset:
        pairs.append(PairedSample(
            normalize(stack.frames[0].data, lo, hi),
            np.clip(normalize(truth.data, plo, phi), -1.0, 1.0)))
    return pairs, norm_info


def _rotate(grid, deg):
    if deg % 90 == 0:
        return np.rot90(grid, k=(deg // 90) % 4).copy()
    # imported here, so that only augmentation pays for loading scipy.ndimage
    from scipy import ndimage

    # bilinear about the center, reflect padding, same output size
    return ndimage.rotate(grid, deg, reshape=False, order=1, mode="reflect")


def augment(sample: PairedSample, deg: int) -> PairedSample:
    """Rotate input and target together by ``deg`` degrees."""
    return PairedSample(_rotate(sample.input, deg),
                        _rotate(sample.target, deg))


def rotations_12(samples):
    """The 12-fold 30-degree rotation family applied to every sample."""
    out = []
    for s in samples:
        for k in range(12):
            out.append(augment(s, 30 * k))
    return out


def split_dataset(dataset, train_fraction=0.8, seed=0, train_count=None):
    """Deterministic shuffled split into (train, test).

    ``train_count`` overrides the fraction with an explicit size.
    """
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    order = np.random.default_rng(seed).permutation(n)
    if train_count is None:
        train_count = math.ceil(train_fraction * n)
    if not 1 <= train_count < n:
        raise ValueError(f"train count {train_count} out of range for {n}")
    train = [dataset[i] for i in order[:train_count]]
    test = [dataset[i] for i in order[train_count:]]
    return train, test
