"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"CRITERION n: PASS/FAIL" line with the measured figures.  Criterion 10
re-executes the pipelines of criteria 1, 4 and 7 from scratch and compares
artifacts byte-for-byte, so the GAN training of criterion 7 runs twice by
design.
"""

import functools
import hashlib
import importlib
import json
import math
import time

import numpy as np

from psimlab import (ForwardModelSpec, PhaseMap, SsimParams,
                     align_global_offset, rms_error, ssim, synth_dataset)
from psimlab.gan import (GanSpec, build_pairs, chain_infer_frames,
                         infer_phase, init_gan, rotations_12, split_dataset,
                         train)
from psimlab.gan.data import PairedSample, normalize
from psimlab.gan.models import PatchDiscriminator, UNetGenerator
from psimlab.nn import (Conv2d, ConvTranspose2d, InstanceNorm, LeakyReLU,
                        ReLU, Sequential, Sigmoid, Tanh, grad_check, l2_loss,
                        ops)
from psimlab.reconstruct import five_step_wrapped_phase

from helpers import chained_stack, classical_phase, wrap_to_pi

C7_STEPS = 1500
C8_STEPS = 2500


def _report(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


def _sha(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _aligned_ssim(pred_data, truth):
    aligned = align_global_offset(PhaseMap(pred_data, wrapped=False), truth)
    span = truth.data.max() - truth.data.min()
    params = SsimParams(dynamic_range=span if span > 0 else 1.0)
    return ssim(aligned.data, truth.data, params)[0], aligned


# ---------------------------------------------------------------- criterion 1

def run_classical_round_trip():
    started = time.monotonic()
    model = ForwardModelSpec()  # noiseless, jitter-free defaults
    dataset = synth_dataset(32, 128, 128, "cell_blobs", model, seed=0)
    errors = []
    artifacts = []
    for stack, truth in dataset:
        unwrapped = classical_phase(stack)
        aligned = align_global_offset(unwrapped, truth)
        errors.append(rms_error(aligned.data, truth.data))
        artifacts.append(aligned.data)
    elapsed = time.monotonic() - started
    metrics = json.dumps({"rms": [repr(e) for e in errors]},
                         sort_keys=True).encode()
    return max(errors), elapsed, metrics, _sha(artifacts)


@functools.lru_cache(maxsize=1)
def classical_round_trip_cached():
    return run_classical_round_trip()


def test_criterion_01_classical_round_trip():
    worst, elapsed, _, _ = classical_round_trip_cached()
    ok = worst < 1e-9 and elapsed < 10.0
    _report(1, ok, f"32 noiseless stacks, max RMS {worst:.3e} rad "
                   f"(limit 1e-9), {elapsed:.1f} s (limit 10 s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_estimator_fidelity():
    rng = np.random.default_rng(2)
    n = 1_000_000
    side = 1000
    a = rng.uniform(0.5, 3.0, (side, side))
    b = rng.uniform(0.1, 2.0, (side, side))
    phi = rng.uniform(-math.pi, math.pi, (side, side))
    shifts = (-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi)
    frames = [a + b * np.cos(phi + s) for s in shifts]

    def estimate(fs):
        from psimlab import Image, InterferogramStack
        stack = InterferogramStack([Image(f) for f in fs], shifts,
                                   ForwardModelSpec())
        return five_step_wrapped_phase(stack).data

    phase = estimate(frames)
    i1, i2, i3, i4, i5 = frames
    num = 2.0 * (i4 - i2)
    den = i1 - 2.0 * i3 + i5
    valid = np.abs(den) > 1e-9
    ratio = num[valid] / den[valid]
    # near the tangent poles double precision cannot hold 1e-9 absolutely,
    # so the tolerance is relative once |ratio| exceeds 1
    tan_err = np.max(np.abs(np.tan(phase[valid]) - ratio)
                     / np.maximum(1.0, np.abs(ratio)))

    shifted = estimate([7.0 * f + 3.0 for f in frames])
    affine_err = np.max(np.abs(wrap_to_pi(shifted - phase)))

    ok = tan_err < 1e-9 and affine_err < 1e-12
    _report(2, ok, f"{n} pixels: tangent-ratio error {tan_err:.3e} "
                   f"(limit 1e-9), affine invariance {affine_err:.3e} "
                   f"(limit 1e-12)")


# ---------------------------------------------------------------- criterion 3

def _mean_rms(noise_sigma, jitter_sigma, seeds=20):
    model = ForwardModelSpec(noise_sigma=noise_sigma,
                             jitter_sigma=jitter_sigma)
    out = []
    for seed in range(seeds):
        stack, truth = synth_dataset(1, 64, 64, "cell_blobs", model,
                                     seed=1000 + seed)[0]
        unwrapped = classical_phase(stack)
        aligned = align_global_offset(unwrapped, truth)
        out.append(rms_error(aligned.data, truth.data))
    return float(np.mean(out))


def test_criterion_03_noise_degradation():
    amp = 2.0  # fringe amplitude 2 sqrt(Io Ir) at unit beams
    noise_curve = [_mean_rms(f * amp, 0.0) for f in (0.0, 0.01, 0.02, 0.05)]
    jitter_curve = [_mean_rms(0.0, s) for s in (0.0, 0.02, 0.05)]
    mono_n = all(x <= y + 1e-15 for x, y in zip(noise_curve, noise_curve[1:]))
    mono_j = all(x <= y + 1e-15 for x, y in
                 zip(jitter_curve, jitter_curve[1:]))
    ok = mono_n and mono_j
    _report(3, ok, "mean RMS monotone over noise "
                   f"{[f'{v:.2e}' for v in noise_curve]} and jitter "
                   f"{[f'{v:.2e}' for v in jitter_curve]} (20 seeds each)")


# ---------------------------------------------------------------- criterion 4

def run_gradient_checks():
    started = time.monotonic()
    rng = np.random.default_rng(4)
    results = {}

    x = rng.normal(size=(1, 2, 6, 6))
    linear = {
        "conv": Sequential(Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)),
        "conv_transpose": Sequential(
            ConvTranspose2d(2, 2, 4, stride=2, padding=1, rng=rng)),
    }
    for name, net in linear.items():
        # small residuals keep the quadratic loss tiny so the central
        # difference is dominated by the true derivative, not rounding
        t = net.forward(x) + rng.uniform(0.2, 1.0, net.forward(x).shape) * 0.1
        results[name] = grad_check(net, x, l2_loss(t))

    nonlinear = {
        "instance_norm": Sequential(
            Conv2d(2, 2, 3, padding=1, rng=rng, bias=False), InstanceNorm(2),
            LeakyReLU(0.2)),
        "tanh": Sequential(Conv2d(2, 2, 3, padding=1, rng=rng), Tanh()),
        "sigmoid": Sequential(Conv2d(2, 2, 3, padding=1, rng=rng), Sigmoid()),
        "relu": Sequential(Conv2d(2, 2, 3, padding=1, rng=rng), ReLU()),
        "leaky_relu": Sequential(Conv2d(2, 2, 3, padding=1, rng=rng),
                                 LeakyReLU(0.2)),
    }
    for name, net in nonlinear.items():
        t = net.forward(x) + rng.uniform(0.2, 1.0, net.forward(x).shape)
        results[name] = grad_check(net, x, l2_loss(t))

    gen = UNetGenerator(depth=2, base=4, rng=np.random.default_rng(40))
    xg = rng.normal(size=(1, 1, 8, 8))
    t = gen.forward(xg) + rng.uniform(0.2, 1.0, (1, 1, 8, 8))
    results["generator"] = grad_check(gen, xg, l2_loss(t))

    disc = PatchDiscriminator(blocks=2, base=4, rng=np.random.default_rng(41))
    xd = rng.normal(size=(1, 2, 8, 8))
    t = disc.forward(xd) + rng.uniform(0.2, 1.0, disc.forward(xd).shape)
    results["discriminator"] = grad_check(disc, xd, l2_loss(t))

    elapsed = time.monotonic() - started
    metrics = json.dumps({k: repr(v) for k, v in results.items()},
                         sort_keys=True).encode()
    return results, elapsed, metrics


@functools.lru_cache(maxsize=1)
def gradient_checks_cached():
    return run_gradient_checks()


def test_criterion_04_gradient_correctness():
    results, elapsed, _ = gradient_checks_cached()
    linear_worst = max(results["conv"], results["conv_transpose"])
    overall = max(results.values())
    ok = linear_worst < 1e-8 and overall < 1e-4 and elapsed < 60.0
    _report(4, ok, f"linear layers {linear_worst:.3e} (limit 1e-8), "
                   f"all layers and both toy networks {overall:.3e} "
                   f"(limit 1e-4), {elapsed:.1f} s (limit 60 s)")


# ---------------------------------------------------------------- criterion 5

def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    x = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(x ** 2) / (2.0 * sigma ** 2))
    win = np.outer(g, g)
    return win / win.sum()


def _brute_ssim_map(a, b, params):
    # Wang et al.'s window and constants: 11 taps, sigma 1.5, K1, K2
    n = 11
    win = _gaussian_window(n, 1.5)
    c1 = (0.01 * params.dynamic_range) ** 2
    c2 = (0.03 * params.dynamic_range) ** 2
    rows, cols = a.shape[0] - n + 1, a.shape[1] - n + 1
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            wa, wb = a[i:i + n, j:j + n], b[i:i + n, j:j + n]
            mu_a, mu_b = (win * wa).sum(), (win * wb).sum()
            var_a = (win * wa * wa).sum() - mu_a ** 2
            var_b = (win * wb * wb).sum() - mu_b ** 2
            cov = (win * wa * wb).sum() - mu_a * mu_b
            out[i, j] = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
                ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    return out


def test_criterion_05_ssim_oracle():
    rng = np.random.default_rng(5)
    params = SsimParams(dynamic_range=1.0)
    worst = 0.0
    sym_ok = True
    self_ok = True
    for _ in range(100):
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        score, smap = ssim(a, b, params)
        worst = max(worst, float(np.max(np.abs(
            smap - _brute_ssim_map(a, b, params)))))
        sym_ok = sym_ok and score == ssim(b, a, params)[0]
        self_ok = self_ok and ssim(a, a, params)[0] == 1.0
    ok = worst < 1e-12 and sym_ok and self_ok
    _report(5, ok, f"100 pairs: max deviation from brute-force oracle "
                   f"{worst:.3e} (limit 1e-12), symmetry exact: {sym_ok}, "
                   f"ssim(a,a)=1 exact: {self_ok}")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_augmentation_counts():
    base = PairedSample(np.zeros((8, 8)), np.zeros((8, 8)))
    n270 = len(rotations_12([base] * 270))
    n210 = len(rotations_12([base] * 210))
    ok = n270 == 3240 and n210 == 2520
    _report(6, ok, f"270 x 12 = {n270} (expect 3240), "
                   f"210 x 12 = {n210} (expect 2520)")


# ---------------------------------------------------------------- criterion 7

def _c7_dataset():
    model = ForwardModelSpec(noise_sigma=0.1, jitter_sigma=0.05)
    dataset = synth_dataset(288, 64, 64, "cell_blobs", model, seed=0)
    return split_dataset(dataset, seed=0, train_count=256)


def run_phase_training():
    started = time.monotonic()
    train_set, test_set = _c7_dataset()
    pairs, info = build_pairs(train_set, "phase")
    state = init_gan(GanSpec(mode="phase", depth=4, base=16, image_side=64),
                     seed=0, norm_info=info)
    train(state, pairs, C7_STEPS)

    gan_scores, classical_scores = [], []
    for stack, truth in test_set:
        pred = infer_phase(state, stack.frames[0])
        gan_scores.append(_aligned_ssim(pred.data, truth)[0])
        unwrapped = classical_phase(stack)
        classical_scores.append(_aligned_ssim(unwrapped.data, truth)[0])
    elapsed = time.monotonic() - started

    metrics = json.dumps({
        "gan_ssim": [repr(s) for s in gan_scores],
        "classical_ssim": [repr(s) for s in classical_scores],
        "steps": C7_STEPS,
    }, sort_keys=True).encode()
    weights_hash = _sha([p for _, p in state.generator.parameters()])
    return (float(np.mean(gan_scores)), float(np.mean(classical_scores)),
            elapsed, metrics, weights_hash)


@functools.lru_cache(maxsize=1)
def phase_training_cached():
    return run_phase_training()


def test_criterion_07_single_shot_phase_training():
    gan, classical, elapsed, _, _ = phase_training_cached()
    ok = gan >= 0.75 and gan >= 0.9 * classical and elapsed <= 1800.0
    _report(7, ok, f"{C7_STEPS} steps: held-out SSIM {gan:.4f} "
                   f"(limit 0.75), classical {classical:.4f}, ratio "
                   f"{gan / classical:.3f} (limit 0.9), "
                   f"{elapsed / 60:.1f} min (limit 30 min)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_frame_chaining(monkeypatch):
    model = ForwardModelSpec(noise_sigma=0.02)
    dataset = synth_dataset(96, 64, 64, "cell_blobs", model, seed=1)
    train_set, test_set = split_dataset(dataset, seed=0, train_count=64)
    test_set = test_set[:16]
    pairs, info = build_pairs(train_set, "frames")
    spec = GanSpec(mode="frames", depth=4, base=16, image_side=64)

    # analytic advance oracle: replays the true frame sequence, which also
    # verifies each chained input matches the frame the oracle expects
    stack, truth = test_set[0]
    lo, hi = info["intensity_range"]
    state = init_gan(spec, seed=0, norm_info=info)
    cursor = {"k": 0}

    def oracle(_, grid):
        assert np.max(np.abs(grid - normalize(
            stack.frames[cursor["k"]].data, lo, hi))) < 1e-9
        cursor["k"] += 1
        return normalize(stack.frames[cursor["k"]].data, lo, hi)

    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("psimlab.gan.train"),
                      "generator_apply", oracle)
        chained = chained_stack(stack.frames[0], chain_infer_frames(
            state, stack.frames[0]))
    oracle_unwrapped = classical_phase(chained)
    classical_unwrapped = classical_phase(stack)
    oracle_err = rms_error(
        align_global_offset(oracle_unwrapped, classical_unwrapped).data,
        classical_unwrapped.data)

    state = init_gan(spec, seed=0, norm_info=info)
    train(state, pairs, C8_STEPS)
    hop_l1 = np.zeros(4)
    scores = []
    for stack, _ in test_set:
        frames = chain_infer_frames(state, stack.frames[0])
        chained = chained_stack(stack.frames[0], frames)
        hop_l1 += [float(np.mean(np.abs(f.data - t.data)))
                   for f, t in zip(frames, stack.frames[1:])]
        unwrapped = classical_phase(chained)
        classical = classical_phase(stack)
        scores.append(_aligned_ssim(unwrapped.data, classical)[0])
    hop_l1 /= len(test_set)
    mean_ssim = float(np.mean(scores))

    ok = oracle_err < 1e-9 and mean_ssim >= 0.7
    _report(8, ok, f"oracle chaining RMS {oracle_err:.3e} (limit 1e-9); "
                   f"trained {C8_STEPS} steps: per-hop L1 "
                   f"{np.round(hop_l1, 4).tolist()}, reconstructed-phase "
                   f"SSIM vs classical {mean_ssim:.4f} (limit 0.7)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_overfit_sanity():
    model = ForwardModelSpec(noise_sigma=0.04, jitter_sigma=0.02)
    dataset = synth_dataset(4, 64, 64, "cell_blobs", model, seed=9)
    pairs, info = build_pairs(dataset, "phase")
    state = init_gan(GanSpec(mode="phase", depth=4, base=16, image_side=64),
                     seed=0, norm_info=info)
    train(state, pairs, 500)
    l1 = [row[2] for row in state.history]
    initial = l1[0]
    final = float(np.mean(l1[-10:]))
    ok = final <= 0.1 * initial
    _report(9, ok, f"4 samples, 500 steps: L1 term {initial:.3f} -> "
                   f"{final:.3f} ({final / initial:.1%}, limit 10%)")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_determinism():
    _, _, m1a, h1a = classical_round_trip_cached()
    _, _, m1b, h1b = run_classical_round_trip()
    _, _, m4a = gradient_checks_cached()
    _, _, m4b = run_gradient_checks()
    _, _, _, m7a, h7a = phase_training_cached()
    _, _, _, m7b, h7b = run_phase_training()
    ok = (m1a == m1b and h1a == h1b and m4a == m4b
          and m7a == m7b and h7a == h7b)
    _report(10, ok, "criteria 1, 4, 7 rerun with identical seeds: "
                    f"round-trip artifacts identical: {h1a == h1b and m1a == m1b}, "
                    f"gradient reports identical: {m4a == m4b}, "
                    f"training weights and metrics identical: "
                    f"{h7a == h7b and m7a == m7b}")
