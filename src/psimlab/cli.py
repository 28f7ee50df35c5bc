"""Command-line pipeline: simulate, reconstruct, train, infer, eval.

Exit codes are a stable contract: 0 success, 2 config error, 3 I/O error,
4 data-shape error (including training data whose side differs from the
spec's ``image_side``) or a result that is not finite, 5 mode mismatch,
6 checkpoint integrity failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal, Optional

import numpy as np

from . import __version__, io
from .config import Range, check_fields
from .gan import (build_pairs, chain_infer_frames, infer_phase, init_gan,
                  load_gan, rotations_12, save_gan, split_dataset, train)
from .gan.train import GanSpec
from .image import Image
from .metrics import (K1, K2, SIGMA, WINDOW_SIZE, SsimParams,
                      align_global_offset, foreground_mask, masked_mean_ssim,
                      rms_error, ssim, stitched_line_profile)
from .nn import CheckpointError, NumericError
from .reconstruct import reconstruct_stack
from .simulate import (DEFAULT_SHIFTS, ForwardModelSpec, InterferogramStack,
                       SourceSpec, synth_dataset)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_MODE = 5
EXIT_INTEGRITY = 6

log = logging.getLogger("psimlab")


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _setup_logging():
    level = os.environ.get("PSIM_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


@dataclass
class SimulateConfig:
    count: Annotated[int, Range(ge=1)]
    width: Annotated[int, Range(ge=8)] = 64
    height: Annotated[int, Range(ge=8)] = 64
    object_family: Literal["flat", "waveguide_ridge", "cell_blobs"] = \
        "cell_blobs"
    seed: Annotated[int, Range(ge=0)] = 0
    model: ForwardModelSpec = field(default_factory=ForwardModelSpec)

    __post_init__ = check_fields


@dataclass
class TrainConfig:
    spec: GanSpec = field(default_factory=GanSpec)
    steps: Annotated[int, Range(ge=0)] = 1000
    seed: Annotated[int, Range(ge=0)] = 0
    batch_size: Annotated[int, Range(ge=1)] = 1
    train_fraction: Annotated[float, Range(gt=0, lt=1)] = 0.8
    split_seed: Annotated[int, Range(ge=0)] = 0
    train_count: Optional[Annotated[int, Range(ge=1)]] = None
    augment: bool = False

    __post_init__ = check_fields


def _load_config(path, cls, **flags):
    """``cls`` from the JSON object at ``path`` with the flags that are set
    in place of its keys, and the hash of the object as read."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
        set_flags = {k: v for k, v in flags.items() if v is not None}
        config = cls(**{**cfg, **set_flags})
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_CONFIG, f"malformed JSON in {path}: {exc}")
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"bad config {path}: {exc}")
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode())
    return config, digest.hexdigest()[:16]


def _manifest(inputs, outputs, timings, config_hash="", seeds=None):
    """A command's own manifest fields; ``main`` adds the run's."""
    return {"config_hash": config_hash, "seeds": seeds or {},
            "inputs": [str(p) for p in inputs], "outputs": outputs,
            "timings_s": {k: round(v, 3) for k, v in timings.items()}}


@contextlib.contextmanager
def _timed(timings, stage):
    """Add the seconds spent in the block to ``timings[stage]``."""
    start = time.monotonic()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0.0) + time.monotonic() - start


def _sample_dirs(data_dir):
    root = Path(data_dir)
    if not root.is_dir():
        raise CliError(EXIT_IO, f"data directory {data_dir} does not exist")
    dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not dirs:
        raise CliError(EXIT_DATA, f"no sample directories under {data_dir}")
    return dirs


def _sample_file(sample_dir, name):
    path = sample_dir / name
    if not path.exists():
        raise CliError(EXIT_DATA, f"{sample_dir} has no {name}")
    return path


def _load_stack(sample_dir):
    frames = [Image(io.read_pfm(_sample_file(sample_dir, f"frame_{k}.pfm")))
              for k in range(1, 6)]
    meta = io.read_sidecar(sample_dir / "frame_1.pfm")
    try:
        stack = InterferogramStack(
            frames, meta.get("realized_shifts", list(DEFAULT_SHIFTS)),
            ForwardModelSpec(), seed=meta.get("seed"))
        if meta.get("lambda0_nm") is not None:
            meta["lambda0_nm"] = float(SourceSpec(meta["lambda0_nm"]).lambda0)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{sample_dir}: bad frame_1 sidecar: {exc}") from None
    return stack, meta


def _load_dataset(data_dir):
    dataset = []
    for d in _sample_dirs(data_dir):
        stack, _ = _load_stack(d)
        dataset.append((stack, io.load_phase(_sample_file(d, "phase_gt.pfm"))))
    return dataset


def cmd_simulate(args):
    cfg, cfg_hash = _load_config(args.config, SimulateConfig, seed=args.seed)

    timings = {}
    with _timed(timings, "simulate"):
        try:
            dataset = synth_dataset(cfg.count, cfg.width, cfg.height,
                                    cfg.object_family, cfg.model, cfg.seed)
            for stack, truth in dataset:  # as write_pfm will store them
                for grid in (*stack.frames, truth):
                    io.pfm_data(grid.data)
        except (OverflowError, ValueError) as exc:
            raise CliError(EXIT_CONFIG, f"bad simulate config: {exc}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for idx, (stack, truth) in enumerate(dataset):
        d = out / f"sample_{idx:05d}"
        d.mkdir(exist_ok=True)
        for k, frame in enumerate(stack.frames, start=1):
            p = d / f"frame_{k}.pfm"
            io.save_image(p, frame, seed=stack.seed,
                          realized_shifts=list(stack.realized_shifts),
                          lambda0_nm=cfg.model.source.lambda0)
        io.save_phase(d / "phase_gt.pfm", truth,
                      lambda0_nm=cfg.model.source.lambda0, seed=stack.seed)
        outputs.append(str(d))
    log.info("wrote %d samples to %s", cfg.count, out)
    return _manifest([args.config], outputs, timings, cfg_hash,
                     {"master": cfg.seed})


def cmd_reconstruct(args):
    samples = _sample_dirs(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    timings = {}
    for d in samples:
        with _timed(timings, "io"):
            stack, meta = _load_stack(d)
        lambda0 = meta.get("lambda0_nm")
        with _timed(timings, "compute"):
            wrapped, quality, unwrapped, height = reconstruct_stack(stack,
                                                                    lambda0)
        dest = out / d.name
        with _timed(timings, "io"):
            dest.mkdir(exist_ok=True)
            io.save_phase(dest / "phase_wrapped.pfm", wrapped)
            io.save_phase(dest / "phase_unwrapped.pfm", unwrapped,
                          **unwrapped.meta)
            io.write_pfm(dest / "quality.pfm", quality.data)
            io.write_sidecar(dest / "quality.pfm", role="quality",
                             units="intensity")
            if height is not None:
                io.write_pfm(dest / "height.pfm", height.data)
                io.write_sidecar(dest / "height.pfm", role="height",
                                 units="nm", lambda0_nm=lambda0)
        outputs.append(str(dest))
    return _manifest([args.data], outputs, timings)


def cmd_train(args):
    cfg, cfg_hash = _load_config(args.config, TrainConfig, steps=args.steps,
                                 seed=args.seed)
    if args.mode and args.mode != cfg.spec.mode:
        raise CliError(EXIT_MODE,
                       f"--mode {args.mode} != config mode {cfg.spec.mode}")

    dataset = _load_dataset(args.data)
    train_set, _ = split_dataset(dataset, train_fraction=cfg.train_fraction,
                                 seed=cfg.split_seed,
                                 train_count=cfg.train_count)
    if args.checkpoint:
        state = load_gan(args.checkpoint)
        if state.spec.mode != cfg.spec.mode:
            raise CliError(EXIT_MODE, "checkpoint mode differs from config")
        # normalized by the checkpoint's ranges only, which infer reads too
        try:
            pairs, _ = build_pairs(train_set, cfg.spec.mode, state.norm_info)
        except KeyError as exc:
            raise CliError(EXIT_INTEGRITY, f"{args.checkpoint}: no usable "
                           f"normalization ranges to resume with: {exc!r}")
    else:
        pairs, norm_info = build_pairs(train_set, cfg.spec.mode)
        state = init_gan(cfg.spec, seed=cfg.seed, norm_info=norm_info)
    if cfg.augment:
        pairs = rotations_12(pairs)
    side = state.spec.image_side
    if any(stack.shape != (side, side) for stack, _ in train_set):
        raise CliError(EXIT_DATA, f"training data is not {side}x{side}, "
                       "the spec's image_side")

    timings = {}
    with _timed(timings, "train"):
        train(state, pairs, cfg.steps, batch_size=cfg.batch_size)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.ckpt"
    save_gan(ckpt, state)
    with open(out / "loss.csv", "w") as fh:
        fh.write("step,L_D,L_G_adv,L_G_l1\n")
        # rows are numbered by global step, so a resumed run continues
        # from its checkpoint's step
        first = state.step - len(state.history) + 1
        for i, (ld, lga, lgl1) in enumerate(state.history, start=first):
            fh.write(f"{i},{ld!r},{lga!r},{lgl1!r}\n")
    # a resumed run trains with its checkpoint's seed, not the flag's
    return _manifest([args.data], [str(ckpt)], timings, cfg_hash,
                     {"train": state.seed})


def cmd_infer(args):
    timings = {}
    with _timed(timings, "load"):
        state = load_gan(args.checkpoint, generator_only=True)
    if args.mode and args.mode != state.spec.mode:
        raise CliError(EXIT_MODE,
                       f"--mode {args.mode} != checkpoint mode {state.spec.mode}")
    samples = _sample_dirs(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for d in samples:
        i1_path = _sample_file(d, "frame_1.pfm")
        with _timed(timings, "io"):
            i1 = Image(io.read_pfm(i1_path))
        dest = out / d.name
        dest.mkdir(exist_ok=True)
        if state.spec.mode == "frames":
            with _timed(timings, "compute"):
                frames = chain_infer_frames(state, i1)
            with _timed(timings, "io"):
                io.save_image(dest / "frame_1.pfm", i1)
                for k, frame in enumerate(frames, start=2):
                    io.save_image(dest / f"frame_{k}.pfm", frame,
                                  predicted=True)
        else:
            with _timed(timings, "compute"):
                phase = infer_phase(state, i1)
            with _timed(timings, "io"):
                io.save_phase(dest / "phase_pred.pfm", phase, predicted=True)
        outputs.append(str(dest))
    return _manifest([args.data], outputs, timings)


def cmd_eval(args):
    samples = _sample_dirs(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pred_root = Path(args.pred) if args.pred else Path(args.data)
    per_sample = []
    timings = {}
    for d in samples:
        truth_path = _sample_file(d, "phase_gt.pfm")
        with _timed(timings, "io"):
            truth = io.load_phase(truth_path)
        pred_dir = pred_root / d.name
        entry = {"sample": d.name}

        pred_path = None
        for name in ("phase_pred.pfm", "phase_unwrapped.pfm"):
            if (pred_dir / name).exists():
                pred_path = pred_dir / name
                break
        if pred_path is None:
            raise CliError(EXIT_DATA, f"{pred_dir} has no predicted phase")
        with _timed(timings, "io"):
            pred = io.load_phase(pred_path)
        if pred.shape != truth.shape:
            raise CliError(EXIT_DATA, f"{pred_path}: shape mismatch vs truth")
        with _timed(timings, "compute"):
            aligned = align_global_offset(pred, truth)
            span = truth.data.max() - truth.data.min()
            params = SsimParams(dynamic_range=span if span > 0 else 1.0)
            score, ssim_map = ssim(aligned.data, truth.data, params)
            mask = foreground_mask(truth)
            entry["ssim_full"] = score
            entry["ssim_foreground"] = masked_mean_ssim(ssim_map, mask)
            entry["rms"] = rms_error(aligned.data, truth.data)

        with _timed(timings, "io"):
            # per-hop frame errors when predicted frames sit next to real ones
            hops = []
            for k in range(2, 6):
                pp = pred_dir / f"frame_{k}.pfm"
                tp = d / f"frame_{k}.pfm"
                if pp.exists() and tp.exists():
                    hops.append(float(np.mean(np.abs(io.read_pfm(pp)
                                                     - io.read_pfm(tp)))))
            if hops:
                entry["hop_l1"] = hops

            if args.profile_row is not None:
                stack, _ = _load_stack(d)
                profile = stitched_line_profile(stack, args.profile_row)
                io.write_profile_csv(out / f"{d.name}_profile.csv", profile)
        per_sample.append(entry)

    report = {
        "metric": "phase-map comparison",
        "params": {"window_size": WINDOW_SIZE, "sigma": SIGMA, "k1": K1,
                   "k2": K2, "dynamic_range": "truth peak-to-peak"},
        "mean_ssim_full": float(np.mean([e["ssim_full"] for e in per_sample])),
        "mean_ssim_foreground": float(np.mean(
            [e["ssim_foreground"] for e in per_sample])),
        "mean_rms": float(np.mean([e["rms"] for e in per_sample])),
        "per_image": per_sample,
    }
    with _timed(timings, "io"):
        (out / "metrics.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    return _manifest([args.data], [str(out / "metrics.json")], timings)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psimlab",
        description="Simulated phase-shifting interference microscopy lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=False, data=False, checkpoint=None):
        if config:
            p.add_argument("--config", required=True)
        if data:
            p.add_argument("--data", required=True)
        if checkpoint is not None:
            p.add_argument("--checkpoint", required=(checkpoint == "required"))
        p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="synthesize interferogram stacks")
    common(p, config=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="classical five-step reconstruction")
    common(p, data=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("train", help="train the conditional GAN")
    common(p, config=True, data=True, checkpoint="optional")
    p.add_argument("--mode", choices=("frames", "phase"))
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="single-shot inference")
    common(p, data=True, checkpoint="required")
    p.add_argument("--mode", choices=("frames", "phase"))
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="metric reports and profiles")
    common(p, data=True)
    p.add_argument("--pred", help="directory with predictions "
                   "(defaults to --data)")
    p.add_argument("--profile-row", type=int, default=None)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        started = time.monotonic()
        manifest = args.func(args)
        manifest.update(command=args.command, tool_version=__version__,
                        wall_clock_s=round(time.monotonic() - started, 3))
        path = Path(args.out) / "manifest.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
        return EXIT_OK
    except CliError as exc:
        log.error("%s", exc)
        return exc.code
    except CheckpointError as exc:
        log.error("%s", exc)
        return EXIT_INTEGRITY
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return EXIT_IO
    except NumericError as exc:  # a diverging run, or huge weights
        log.error("result is not finite: %s", exc)
        return EXIT_DATA
    except ValueError as exc:
        log.error("bad input data: %s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
