"""The benchmark's workloads: seeded set-up, one timed pass, output checks.

Every pass drives the public CLI in-process through ``psimlab.cli.main`` and
times each call from outside.  Functions the benchmark calls itself are
looked up on their modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from psimlab import cli, io
from psimlab.image import Image
from psimlab.nn.checkpoint import CheckpointError
from psimlab.simulate import DEFAULT_SHIFTS, ForwardModelSpec, \
    InterferogramStack

gan = importlib.import_module("psimlab.gan")
gan_data = importlib.import_module("psimlab.gan.data")
gan_train = importlib.import_module("psimlab.gan.train")
gradcheck = importlib.import_module("psimlab.nn.gradcheck")
layers = importlib.import_module("psimlab.nn.layers")
metrics = importlib.import_module("psimlab.metrics")
reconstruct = importlib.import_module("psimlab.reconstruct")
simulate = importlib.import_module("psimlab.simulate")

TWO_PI = 2.0 * math.pi
JITTER = 0.02
CLEAN_NOISE = 0.04
NOISY_NOISE = 1.5  # about 0.6% of pixels become phase residues
# The paper's network: direct phase mode, 64^2, depth 4, base 16.
PAPER_SPEC = {"mode": "phase", "depth": 4, "base": 16, "image_side": 64}
# Clean stacks reconstruct to ~0.02 rad; a broken estimator or unwrapper
# is off by radians.
CLEAN_RMS_LIMIT = 0.2


def derive_seeds(seed, stream, count):
    """Independent 32-bit seeds for one workload's inputs."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


def call_cli(argv):
    """Run one psimlab command; returns (exit code, seconds).

    An exception escaping ``main`` is a failed operation, not the end of the
    run: its traceback is printed and the code is None.
    """
    argv = [str(a) for a in argv]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


def simulate_stacks(config_path, out, count, side, noise, seed):
    config_path.write_text(json.dumps({
        "count": count, "width": side, "height": side,
        "object_family": "cell_blobs", "seed": seed,
        "model": {"noise_sigma": noise, "jitter_sigma": JITTER}}))
    code, _ = call_cli(["simulate", "--config", config_path, "--out", out])
    if code != 0:
        raise RuntimeError(f"simulate exited with {code} in set-up")
    return sorted(p for p in out.iterdir() if p.is_dir())


def gradient_check(seed):
    """Largest relative error of ``psimlab.nn.grad_check`` at U-Net shapes.

    ``grad_check`` compares parameter gradients only, so the chain puts a
    conv, a transposed conv and a norm each in front of layers with
    parameters, which exercises their input gradients too.  As in the
    U-Net, a layer feeding a norm has no bias: that bias's gradient is
    structurally zero and its relative error meaningless.
    """
    rng = np.random.default_rng(seed)
    net = layers.Sequential(
        layers.Conv2d(1, 2, 4, stride=2, padding=1, rng=rng, bias=False),
        layers.InstanceNorm(2),
        layers.ConvTranspose2d(2, 1, 4, stride=2, padding=1, rng=rng,
                               bias=False),
        layers.InstanceNorm(1),
        layers.Conv2d(1, 1, 4, stride=2, padding=1, rng=rng))
    x = rng.normal(size=(1, 1, 8, 8))
    y = net.forward(x)
    target = y + 0.1 * rng.uniform(0.2, 1.0, y.shape)
    return gradcheck.grad_check(net, x, gradcheck.l2_loss(target))


def residue_fraction(phi):
    """Share of 2x2 pixel loops whose wrapped differences sum to +-2 pi."""

    def wrap(d):
        return d - TWO_PI * np.round(d / TWO_PI)

    a, b = phi[:-1, :-1], phi[:-1, 1:]
    c, d = phi[1:, 1:], phi[1:, :-1]
    loop = wrap(b - a) + wrap(c - b) + wrap(d - c) + wrap(a - d)
    return float(np.mean(np.abs(loop) > math.pi))


@dataclass
class Expected:
    """What a correct classical reconstruction of one stack must satisfy."""

    wrapped: np.ndarray
    seed_index: int
    residue_fraction: float


def analyse_stack(sample_dir):
    frames = [Image(io.read_pfm(sample_dir / f"frame_{k}.pfm"))
              for k in range(1, 6)]
    stack = InterferogramStack(frames, DEFAULT_SHIFTS, ForwardModelSpec())
    wrapped = reconstruct.five_step_wrapped_phase(stack).data
    quality = reconstruct.modulation_amplitude(stack).data
    return Expected(wrapped, int(np.argmax(quality)),
                    residue_fraction(wrapped))


def classical_ok(path, expected: Expected):
    """Output minus wrapped input is in 2 pi Z; the seed keeps its value."""
    try:
        u = io.read_pfm(path)
    except (OSError, ValueError):
        return False
    w = expected.wrapped
    if u.shape != w.shape or not np.all(np.isfinite(u)):
        return False
    turns = (u - w) / TWO_PI
    if np.max(np.abs(turns - np.round(turns))) > 1e-3:
        return False
    seed = expected.seed_index
    return abs(u.flat[seed] - w.flat[seed]) <= 1e-5


def in_phase_range(phase, phase_range):
    """Direct-phase output is finite and inside the checkpoint's range.

    The tolerance covers float32 rounding of the stored rasters.
    """
    lo, hi = phase_range
    tol = 1e-5 * max(1.0, abs(lo), abs(hi))
    return bool(np.all(np.isfinite(phase)) and phase.min() >= lo - tol
                and phase.max() <= hi + tol)


def single_shot_ok(path, phase_range, shape):
    try:
        p = io.read_pfm(path)
    except (OSError, ValueError):
        return False
    return p.shape == shape and in_phase_range(p, phase_range)


def eval_report(out_dir, images):
    """The eval report if it scores every image with finite numbers."""
    try:
        report = json.loads((Path(out_dir) / "metrics.json").read_text())
    except (OSError, ValueError):
        return None
    entries = report.get("per_image", [])
    if len(entries) != images:
        return None
    for e in entries:
        if not all(math.isfinite(e[k]) for k in
                   ("rms", "ssim_full", "ssim_foreground")):
            return None
    return report


@dataclass
class Tally:
    """Timings and operation counts accumulated over passes.

    ``samples`` holds (seconds, images) per measured unit for the
    end-to-end time per image; ``stages`` holds, per CLI command, the total
    call seconds and the images they covered; ``items`` counts the items
    that per-layer figures are normalised by (images, or train steps).
    """

    samples: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)
    items: int = 0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    call_s: float = 0.0

    def stage(self, name, seconds, images):
        total = self.stages.setdefault(name, [0.0, 0])
        total[0] += seconds
        total[1] += images
        self.call_s += seconds

    def ops(self, results):
        for ok in results:
            self.attempted += 1
            self.failed += not ok


class Workload:
    name = ""
    warmup_passes = 0
    min_passes = 1

    def __init__(self):
        # replaced by the tracer's pause while a traced run checks outputs
        self.untraced = contextlib.nullcontext
        self.expected = {}
        self.accuracy = {}

    def stack_dirs(self):
        return sorted(p for p in self.data.iterdir() if p.is_dir())

    def analyse(self):
        """Input properties and expected outputs, computed after set-up."""
        self.expected = {d.name: analyse_stack(d) for d in self.stack_dirs()}

    def input_properties(self):
        clean = [e.residue_fraction for n, e in self.expected.items()
                 if not n.startswith("noisy")]
        noisy = [e.residue_fraction for n, e in self.expected.items()
                 if n.startswith("noisy")]
        first = next(iter(self.expected.values()))
        return {
            "input.pixels_per_image": first.wrapped.size,
            "input.residue_fraction_clean": float(np.mean(clean)) if clean
            else 0.0,
            "input.residue_fraction_noisy": float(np.mean(noisy)) if noisy
            else 0.0,
        }

    def finish(self, tally):
        """Checks that need the final outputs; fills ``self.accuracy``."""


class Recon512(Workload):
    """Classical reconstruct then eval, one 512^2 stack per CLI call."""

    name = "recon_512"
    side = 512
    per_kind = 2
    # every stack is measured at least once
    min_passes = 2 * per_kind

    def setup(self, work, seed):
        self.work = work
        self.grad_error = gradient_check(seed)
        seeds = iter(derive_seeds(seed, 1, 2 * self.per_kind))
        self.names = []
        # interleaved, so any number of passes splits evenly between kinds
        for i in range(self.per_kind):
            for kind, noise in (("clean", CLEAN_NOISE),
                                ("noisy", NOISY_NOISE)):
                name = f"{kind}_{i}"
                data = work / "in" / name
                data.mkdir(parents=True)
                (sample,) = simulate_stacks(work / f"{name}.json", data, 1,
                                            self.side, noise, next(seeds))
                # a distinct directory name keys the traced spans per image
                sample.rename(data / name)
                self.names.append(name)

    def stack_dirs(self):
        return [self.work / "in" / n / n for n in self.names]

    def run_pass(self, tally):
        """One image: reconstruct then eval, cycling through the stacks."""
        name = self.names[tally.passes % len(self.names)]
        data = self.work / "in" / name
        rec = self.work / "rec" / name
        out = self.work / "eval" / name
        code_r, t_r = call_cli(["reconstruct", "--data", data, "--out", rec])
        code_e, t_e = call_cli(["eval", "--data", data, "--pred", rec,
                                "--out", out])
        tally.stage("reconstruct", t_r, 1)
        tally.stage("eval", t_e, 1)
        tally.samples.append((t_r + t_e, 1))
        tally.items += 1
        tally.passes += 1
        with self.untraced():
            ok_r = code_r == 0 and classical_ok(
                rec / name / "phase_unwrapped.pfm", self.expected[name])
            report = eval_report(out, 1) if code_e == 0 else None
        ok_e = report is not None
        if ok_e:
            rms = report["mean_rms"]
            self.accuracy[name] = (rms, report["mean_ssim_full"])
            if name.startswith("clean"):
                ok_e = rms < CLEAN_RMS_LIMIT
        tally.ops([ok_r, ok_e])

    def finish(self, tally):
        rms, ssim = zip(*self.accuracy.values()) if self.accuracy else \
            ([math.nan], [math.nan])
        self.accuracy = {"phase_rms_rad": float(np.mean(rms)),
                         "phase_ssim": float(np.mean(ssim))}


class Serve64(Workload):
    """Many 64^2 stacks through reconstruct, infer and two evals per pass."""

    name = "serve_64"
    side = 64
    count = 32
    # the first pass creates every output file; later passes rewrite them
    warmup_passes = 1

    def setup(self, work, seed):
        self.work = work
        self.grad_error = gradient_check(seed)
        data_seed, train_seed, init_seed = derive_seeds(seed, 3, 3)
        self.data = work / "in"
        simulate_stacks(work / "sim.json", self.data, self.count, self.side,
                        CLEAN_NOISE, data_seed)
        # The served checkpoint carries normalisation from a separate
        # training split, as a trained one would.
        train_set = simulate.synth_dataset(
            8, self.side, self.side, "cell_blobs",
            ForwardModelSpec(noise_sigma=CLEAN_NOISE, jitter_sigma=JITTER),
            train_seed)
        _, norm_info = gan_data.build_pairs(train_set, "phase")
        state = gan_train.init_gan(gan_train.GanSpec(**PAPER_SPEC),
                                   seed=init_seed, norm_info=norm_info)
        self.checkpoint = work / "phase.ckpt"
        gan_train.save_gan(self.checkpoint, state)
        self.phase_range = norm_info["phase_range"]

    def run_pass(self, tally):
        w = self.work
        n = self.count
        code_r, t_r = call_cli(["reconstruct", "--data", self.data,
                                "--out", w / "rec"])
        code_i, t_i = call_cli(["infer", "--checkpoint", self.checkpoint,
                                "--data", self.data, "--out", w / "pred"])
        code_c, t_c = call_cli(["eval", "--data", self.data, "--pred",
                                w / "rec", "--out", w / "eval_classical"])
        code_s, t_s = call_cli(["eval", "--data", self.data, "--pred",
                                w / "pred", "--out", w / "eval_single"])
        tally.stage("reconstruct", t_r, n)
        tally.stage("infer", t_i, n)
        tally.stage("eval", t_c + t_s, 2 * n)
        tally.samples.append((t_r + t_i + t_c + t_s, n))
        tally.items += n
        tally.passes += 1
        with self.untraced():
            shape = (self.side, self.side)
            for name, expected in self.expected.items():
                tally.ops([
                    code_r == 0 and classical_ok(
                        w / "rec" / name / "phase_unwrapped.pfm", expected),
                    code_i == 0 and single_shot_ok(
                        w / "pred" / name / "phase_pred.pfm",
                        self.phase_range, shape)])
            for code, out in ((code_c, "eval_classical"),
                              (code_s, "eval_single")):
                report = eval_report(w / out, n) if code == 0 else None
                if report is None:
                    tally.ops([False] * n)
                    continue
                tally.ops([True] * n)
                self.accuracy[out] = report

    def finish(self, tally):
        missing = {"mean_rms": math.nan, "mean_ssim_full": math.nan}
        classical = self.accuracy.get("eval_classical", missing)
        single = self.accuracy.get("eval_single", missing)
        self.accuracy = {"phase_rms_rad": classical["mean_rms"],
                         "phase_ssim": classical["mean_ssim_full"],
                         "single_shot_rms_rad": single["mean_rms"]}


class Train64(Workload):
    """The train command at the paper config, batch 8, from a fresh start."""

    name = "train_64"
    side = 64
    count = 24
    train_count = 16
    steps = 8
    batch = 8
    tail = 4  # steps averaged for train_l1_final

    def setup(self, work, seed):
        self.work = work
        self.grad_error = gradient_check(seed)
        data_seed, self.train_seed, self.split_seed = derive_seeds(seed, 2, 3)
        self.data = work / "in"
        simulate_stacks(work / "sim.json", self.data, self.count, self.side,
                        CLEAN_NOISE, data_seed)
        self.l1_final = math.nan
        self.config = work / "train.json"
        self.config.write_text(json.dumps({
            "spec": PAPER_SPEC, "steps": self.steps, "seed": self.train_seed,
            "batch_size": self.batch, "train_count": self.train_count,
            "split_seed": self.split_seed}))

    def run_pass(self, tally):
        out = self.work / "run"
        code, seconds = call_cli(["train", "--config", self.config,
                                  "--data", self.data, "--out", out])
        samples = self.steps * self.batch
        tally.stage("train", seconds, samples)
        tally.samples.append((seconds, samples))
        tally.items += self.steps
        tally.passes += 1
        with self.untraced():
            losses = self._losses(out / "loss.csv") if code == 0 else []
        ok = len(losses) == self.steps
        tally.ops([ok and all(math.isfinite(v) for v in row)
                   for row in losses] if ok else [False] * self.steps)
        if ok:
            self.l1_final = float(np.mean([row[2] for row in
                                           losses[-self.tail:]]))

    @staticmethod
    def _losses(path):
        try:
            with open(path, newline="") as fh:
                return [tuple(float(row[k]) for k in
                              ("L_D", "L_G_adv", "L_G_l1"))
                        for row in csv.DictReader(fh)]
        except (OSError, ValueError, KeyError):
            return []

    def finish(self, tally):
        """Single-shot accuracy of the trained checkpoint on held-out stacks."""
        _, held_out = gan.split_dataset(self.stack_dirs(),
                                        seed=self.split_seed,
                                        train_count=self.train_count)
        try:
            state = gan_train.load_gan(self.work / "run" / "checkpoint.ckpt")
        except (OSError, CheckpointError):
            tally.ops([False] * len(held_out))
            self.accuracy = dict.fromkeys(
                ("phase_rms_rad", "phase_ssim", "train_l1_final"), math.nan)
            return
        rms, ssim, ok = [], [], []
        for d in held_out:
            phase = gan_train.infer_phase(
                state, Image(io.read_pfm(d / "frame_1.pfm")))
            ok.append(in_phase_range(phase.data,
                                     state.norm_info["phase_range"]))
            truth = io.load_phase(d / "phase_gt.pfm")
            aligned = metrics.align_global_offset(phase, truth)
            span = float(np.ptp(truth.data)) or 1.0
            rms.append(metrics.rms_error(aligned.data, truth.data))
            ssim.append(metrics.ssim(aligned.data, truth.data,
                                     metrics.SsimParams(dynamic_range=span))[0])
        tally.ops(ok)
        self.accuracy = {"phase_rms_rad": float(np.mean(rms)),
                         "phase_ssim": float(np.mean(ssim)),
                         "train_l1_final": self.l1_final}


WORKLOADS = {w.name: w for w in (Recon512, Train64, Serve64)}
