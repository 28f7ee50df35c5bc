import copy
import errno
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psimlab import ForwardModelSpec, PhaseMap, io
from psimlab.cli import (SimulateConfig, TrainConfig, _load_dataset,
                         build_parser, main)
from psimlab.config import Range
from psimlab.gan import (GanSpec, build_pairs, load_gan, split_dataset,
                         train)
from psimlab.gan.data import NormInfo
from psimlab.metrics import (SsimParams, align_global_offset, foreground_mask,
                             masked_mean_ssim, rms_error, ssim)
from psimlab.nn.checkpoint import load_checkpoint, save_checkpoint

from helpers import read_profile_csv, traced_peak

ROOT = Path(__file__).resolve().parents[1]
TINY_SPEC = {"mode": "phase", "depth": 2, "base": 4,
             "disc_blocks": 2, "disc_base": 4, "image_side": 16}


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate(out_dir, config_dir, count=5, side=16, seed=0, model=None):
    cfg = {"count": count, "width": side, "height": side, "seed": seed,
           "object_family": "cell_blobs"}
    if model:
        cfg["model"] = model
    config = write_config(config_dir / "sim.json", cfg)
    assert main(["simulate", "--config", config, "--out", str(out_dir)]) == 0
    return Path(out_dir)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    return simulate(root / "data", root)


class TestSimulate:
    def test_layout(self, sim_dir):
        samples = sorted(d for d in sim_dir.iterdir() if d.is_dir())
        assert len(samples) == 5
        assert samples[0].name == "sample_00000"
        for d in samples:
            for k in range(1, 6):
                assert (d / f"frame_{k}.pfm").exists()
                assert (d / f"frame_{k}.pfm.json").exists()
            assert (d / "phase_gt.pfm").exists()
        assert (sim_dir / "manifest.json").exists()

    def test_manifest_contents(self, sim_dir):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seeds"] == {"master": 0}
        assert len(manifest["outputs"]) == 5
        assert "wall_clock_s" in manifest

    def test_sidecar_records_shifts(self, sim_dir):
        meta = io.read_sidecar(sim_dir / "sample_00000" / "frame_1.pfm")
        assert meta["role"] == "intensity"
        assert len(meta["realized_shifts"]) == 5
        assert meta["lambda0_nm"] == 520.0

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        again = simulate(tmp_path / "data", tmp_path)
        for d in sorted(p for p in sim_dir.iterdir() if p.is_dir()):
            for f in sorted(d.glob("*.pfm")):
                assert f.read_bytes() == (again / d.name / f.name).read_bytes()

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 3

    def test_bad_model_field_exits_2(self, tmp_path):
        config = write_config(tmp_path / "c.json",
                              {"count": 1, "model": {"noise_sigma": -1}})
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("field", [
        {"count": 0}, {"width": 0}, {"object_family": "nope"},
        {"count": 2.7}, {"count": "3"}, {"count": True}, {"width": 16.9},
        {"model": {"i_object": True}}, {"model": {"noise_sigma": math.nan}},
        {"model": {"source": {"lambda0": 1e200}}}, {"widht": 16},
        {"seed": -1}, {"model": {"noise_sigma": 1e300}},
    ], ids=["count_0", "width_0", "unknown_family", "count_float",
            "count_string", "count_bool", "width_float", "model_bool",
            "model_nan", "source_overflow", "unknown_key", "negative_seed",
            "frames_beyond_float32"])
    def test_bad_dataset_field_exits_2_without_output(self, tmp_path, field):
        config = write_config(tmp_path / "c.json",
                              {"count": 1, "width": 16, "height": 16, **field})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [[{"count": 1}], {"count": 1, "model": []}],
                             ids=["config_list", "model_list"])
    def test_non_object_config_exits_2(self, tmp_path, cfg):
        config = write_config(tmp_path / "c.json", cfg)
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "out")]) == 2

    def test_seed_flag_overrides_config_seed(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "c.json",
                              {"count": 5, "width": 16, "height": 16,
                               "seed": 0, "object_family": "cell_blobs"})
        runs = {}
        for seed in (0, 7):
            out = tmp_path / f"seed{seed}"
            assert main(["simulate", "--config", config, "--out", str(out),
                         "--seed", str(seed)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seeds"] == {"master": seed}
            runs[seed] = (out / "sample_00000" / "frame_1.pfm").read_bytes()
        # --seed 0 is the config's own seed, so it reproduces sim_dir
        assert runs[0] == (sim_dir / "sample_00000" / "frame_1.pfm").read_bytes()
        assert runs[7] != runs[0]

    def test_out_of_memory_exits_4(self, tmp_path):
        # a 200000^2 float64 grid is 320 GB; the child caps its own address
        # space at 2 GiB first, so numpy's allocation fails and nothing is
        # allocated for real
        config = write_config(tmp_path / "c.json",
                              {"count": 1, "width": 200000, "height": 200000})
        out = tmp_path / "out"
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from psimlab.cli import main\n"
                f"sys.exit(main(['simulate', '--config', {config!r}, "
                f"'--out', {str(out)!r}]))\n")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=path,
                                      OPENBLAS_NUM_THREADS="1"))
        assert run.returncode == 4, run.stderr
        assert "out of memory: " in run.stderr
        assert "Traceback" not in run.stderr
        assert not (out / "manifest.json").exists()


class TestReconstruct:
    def test_noiseless_round_trip(self, sim_dir, tmp_path):
        out = tmp_path / "recon"
        assert main(["reconstruct", "--data", str(sim_dir),
                     "--out", str(out)]) == 0
        ev = tmp_path / "eval"
        assert main(["eval", "--data", str(sim_dir), "--pred", str(out),
                     "--out", str(ev)]) == 0
        report = json.loads((ev / "metrics.json").read_text())
        # storage is float32, so exactness stops at single precision
        assert report["mean_rms"] < 1e-5
        assert report["mean_ssim_full"] > 0.999999

    def test_outputs_per_sample(self, sim_dir, tmp_path):
        out = tmp_path / "recon"
        main(["reconstruct", "--data", str(sim_dir), "--out", str(out)])
        d = out / "sample_00000"
        for name in ("phase_wrapped.pfm", "phase_unwrapped.pfm",
                     "quality.pfm", "height.pfm"):
            assert (d / name).exists()

    def test_manifests_record_compute_and_io_seconds(self, sim_dir,
                                                     tmp_path):
        out = tmp_path / "recon"
        ev = tmp_path / "eval"
        assert main(["reconstruct", "--data", str(sim_dir),
                     "--out", str(out)]) == 0
        assert main(["eval", "--data", str(sim_dir), "--pred", str(out),
                     "--out", str(ev)]) == 0
        for run, stages in ((out, ["io", "quality", "unwrap", "wrap"]),
                            (ev, ["compute", "io"])):
            manifest = json.loads((run / "manifest.json").read_text())
            timings = manifest["timings_s"]
            assert sorted(timings) == stages
            assert all(v >= 0.0 for v in timings.values())
            assert sum(timings.values()) <= manifest["wall_clock_s"] + 0.002

    def test_unwrapped_sidecar_records_the_seed(self, sim_dir, tmp_path):
        out = tmp_path / "recon"
        assert main(["reconstruct", "--data", str(sim_dir),
                     "--out", str(out)]) == 0
        for d in sorted(p for p in out.iterdir() if p.is_dir()):
            meta = io.read_sidecar(d / "phase_unwrapped.pfm")
            r, c = meta["seed_pixel"]
            # quality.pfm is float32, where clean stacks tie at the top
            quality = io.read_pfm(d / "quality.pfm")
            assert quality[r, c] == quality.max()
            assert meta["quality_all_zero"] is False

    def test_all_zero_quality_is_flagged(self, sim_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(sim_dir / "sample_00000", data / "sample_00000")
        for k in range(1, 6):
            io.write_pfm(data / "sample_00000" / f"frame_{k}.pfm",
                         np.ones((16, 16)))
        out = tmp_path / "recon"
        with pytest.warns(UserWarning, match="raster"):
            assert main(["reconstruct", "--data", str(data),
                         "--out", str(out)]) == 0
        meta = io.read_sidecar(out / "sample_00000" / "phase_unwrapped.pfm")
        assert meta["seed_pixel"] == [0, 0]
        assert meta["quality_all_zero"] is True

    def test_benchmark_accepts_a_noisy_reconstruction(self, tmp_path,
                                                      monkeypatch):
        """The benchmark's own output check passes on a noisy 64^2 stack,
        so an unwrap it would reject fails here first."""
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        data = simulate(tmp_path / "data", tmp_path, count=1, side=64,
                        seed=3, model={"noise_sigma": 1.5})
        out = tmp_path / "recon"
        assert main(["reconstruct", "--data", str(data),
                     "--out", str(out)]) == 0
        expected = workloads.analyse_stack(data / "sample_00000")
        assert expected.residue_fraction > 0
        unwrapped = out / "sample_00000" / "phase_unwrapped.pfm"
        assert workloads.classical_ok(unwrapped, expected)
        quality = io.read_pfm(out / "sample_00000" / "quality.pfm")
        seed = int(np.argmax(quality))
        assert seed == expected.seed_index
        assert io.read_sidecar(unwrapped)["seed_pixel"] == \
            list(divmod(seed, 64))

    def test_incomplete_stack_exits_4(self, tmp_path):
        d = tmp_path / "data" / "sample_00000"
        d.mkdir(parents=True)
        for k in range(1, 5):  # frame_5 missing
            io.write_pfm(d / f"frame_{k}.pfm", np.zeros((8, 8)))
        assert main(["reconstruct", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")]) == 4

    def test_missing_data_dir_exits_3(self, tmp_path):
        assert main(["reconstruct", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")]) == 3

    def corrupt_frame(self, sim_dir, tmp_path, mutate):
        data = tmp_path / "data"
        shutil.copytree(sim_dir / "sample_00000", data / "sample_00000")
        frame = data / "sample_00000" / "frame_3.pfm"
        frame.write_bytes(mutate(frame.read_bytes()))
        return main(["reconstruct", "--data", str(data),
                     "--out", str(tmp_path / "out")])

    def test_truncated_frame_exits_4(self, sim_dir, tmp_path, caplog):
        assert self.corrupt_frame(sim_dir, tmp_path,
                                  lambda raw: raw[:-3]) == 4
        assert "truncated PFM" in caplog.text

    def test_nan_frame_exits_4(self, sim_dir, tmp_path, caplog):
        nan = np.array([np.nan], dtype="<f4").tobytes()
        assert self.corrupt_frame(sim_dir, tmp_path,
                                  lambda raw: raw[:-4] + nan) == 4
        assert "NaN" in caplog.text

    def test_height_beyond_float32_exits_4_unwritten(self, sim_dir,
                                                     tmp_path):
        data = tmp_path / "data"
        shutil.copytree(sim_dir / "sample_00000", data / "sample_00000")
        sidecar = data / "sample_00000" / "frame_1.pfm.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(dict(meta, lambda0_nm=1e306)))
        out = tmp_path / "out"
        assert main(["reconstruct", "--data", str(data),
                     "--out", str(out)]) == 4
        assert not (out / "sample_00000" / "height.pfm").exists()

    @pytest.mark.parametrize("command,sidecar,text", [
        ("reconstruct", "frame_1.pfm.json", "[]"),
        ("reconstruct", "frame_1.pfm.json", "3"),
        ("reconstruct", "frame_1.pfm.json", '{"realized_shifts": 5}'),
        ("reconstruct", "frame_1.pfm.json", '{"realized_shifts": [0, 1]}'),
        ("reconstruct", "frame_1.pfm.json", '{"lambda0_nm": "x"}'),
        ("reconstruct", "frame_1.pfm.json", '{"lambda0_nm": [1, 2]}'),
        ("reconstruct", "frame_1.pfm.json", '{"lambda0_nm": -520}'),
        ("reconstruct", "frame_1.pfm.json", '{"lambda0_nm": 0}'),
        ("reconstruct", "frame_1.pfm.json", '{"lambda0_nm": true}'),
        ("eval", "phase_gt.pfm.json", "[]"),
    ])
    def test_malformed_sidecar_exits_4(self, sim_dir, tmp_path, command,
                                       sidecar, text):
        data = tmp_path / "data"
        shutil.copytree(sim_dir / "sample_00000", data / "sample_00000")
        (data / "sample_00000" / sidecar).write_text(text)
        argv = [command, "--data", str(data), "--out", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--pred", str(sim_dir)]
        assert main(argv) == 4


def test_512_reconstruct_and_eval_memory_is_bounded(tmp_path):
    # the five frames are freed before the unwrap, and ssim forms its map
    # in row bands: holding the frames through the unwrap and every
    # full-size SSIM statistic at once, the two calls peaked at about 27
    # and 23 MB
    data = simulate(tmp_path / "data", tmp_path, count=1, side=512, seed=3,
                    model={"noise_sigma": 1.5})
    rec, ev = tmp_path / "recon", tmp_path / "eval"
    assert traced_peak(main, ["reconstruct", "--data", str(data),
                              "--out", str(rec)]) <= 20e6
    assert (rec / "sample_00000" / "phase_unwrapped.pfm").exists()
    assert traced_peak(main, ["eval", "--data", str(data), "--pred",
                              str(rec), "--out", str(ev)]) <= 14e6
    assert (ev / "metrics.json").exists()


class TestTrainInfer:
    def train_cfg(self, tmp_path, **extra):
        cfg = {"spec": dict(TINY_SPEC), "steps": 4, "seed": 0}
        cfg.update(extra)
        return write_config(tmp_path / "train.json", cfg)

    def test_train_writes_checkpoint_and_losses(self, sim_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", self.train_cfg(tmp_path),
                     "--data", str(sim_dir), "--out", str(out)]) == 0
        assert (out / "checkpoint.ckpt").exists()
        lines = (out / "loss.csv").read_text().splitlines()
        assert lines[0] == "step,L_D,L_G_adv,L_G_l1"
        assert len(lines) == 5

    def test_resume_equals_straight_run(self, sim_dir, tmp_path):
        cfg = self.train_cfg(tmp_path)
        first = tmp_path / "first"
        main(["train", "--config", cfg, "--data", str(sim_dir),
              "--out", str(first), "--steps", "4"])
        resumed = tmp_path / "resumed"
        main(["train", "--config", cfg, "--data", str(sim_dir),
              "--out", str(resumed), "--steps", "4",
              "--checkpoint", str(first / "checkpoint.ckpt")])
        straight = tmp_path / "straight"
        main(["train", "--config", cfg, "--data", str(sim_dir),
              "--out", str(straight), "--steps", "8"])
        assert (resumed / "checkpoint.ckpt").read_bytes() == \
            (straight / "checkpoint.ckpt").read_bytes()

    def test_failed_checkpoint_write_keeps_the_old_one(self, sim_dir,
                                                       tmp_path,
                                                       monkeypatch):
        cfg = self.train_cfg(tmp_path)
        run, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
        assert main(["train", "--config", cfg, "--data", str(sim_dir),
                     "--out", str(run)]) == 0
        ckpt = run / "checkpoint.ckpt"
        old = ckpt.read_bytes()
        resume = ["train", "--config", cfg, "--data", str(sim_dir),
                  "--steps", "1", "--checkpoint", str(ckpt), "--out"]

        class FullDisk:
            """A file whose third write fails as on a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def full_disk_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return FullDisk(fh) if "w" in mode else fh

        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("psimlab.nn.checkpoint"),
                          "open", full_disk_open, raising=False)
            assert main(resume + [str(run)]) == 3
        assert ckpt.read_bytes() == old
        assert sorted(p.name for p in run.iterdir()) == [
            "checkpoint.ckpt", "loss.csv", "manifest.json"]
        # a save that succeeds writes what a save to a new path writes
        assert main(resume + [str(elsewhere)]) == 0
        assert main(resume + [str(run)]) == 0
        assert ckpt.read_bytes() == \
            (elsewhere / "checkpoint.ckpt").read_bytes() != old
        assert not list(run.glob("*.tmp"))

    def test_resume_normalizes_with_the_checkpoint_ranges(self, sim_dir,
                                                           tmp_path):
        cfg = self.train_cfg(tmp_path)
        first, resumed = tmp_path / "first", tmp_path / "resumed"
        main(["train", "--config", cfg, "--data", str(sim_dir),
              "--out", str(first), "--steps", "2"])
        noisy = simulate(tmp_path / "noisy", tmp_path,
                         model={"noise_sigma": 0.5})
        ckpt = first / "checkpoint.ckpt"
        assert main(["train", "--config", cfg, "--data", str(noisy),
                     "--out", str(resumed), "--steps", "2",
                     "--checkpoint", str(ckpt)]) == 0

        state = load_gan(ckpt)
        train_set, _ = split_dataset(_load_dataset(noisy))
        _, own = build_pairs(train_set, "phase")
        assert own["intensity_range"] != tuple(
            state.norm_info["intensity_range"])
        pairs, _ = build_pairs(train_set, "phase", state.norm_info)
        train(state, pairs, 2)
        back = load_gan(resumed / "checkpoint.ckpt")
        assert back.norm_info == state.norm_info
        for (name, a), (_, b) in zip(
                state.generator.parameters() +
                state.discriminator.parameters(),
                back.generator.parameters() + back.discriminator.parameters()):
            assert a.tobytes() == b.tobytes(), name

    def test_resumed_loss_log_is_numbered_by_global_step(self, sim_dir,
                                                         tmp_path):
        cfg = self.train_cfg(tmp_path)
        first, resumed = tmp_path / "first", tmp_path / "resumed"
        main(["train", "--config", cfg, "--data", str(sim_dir),
              "--out", str(first), "--steps", "3"])
        assert main(["train", "--config", cfg, "--data", str(sim_dir),
                     "--out", str(resumed), "--steps", "2",
                     "--checkpoint", str(first / "checkpoint.ckpt")]) == 0

        def steps(run):
            lines = (run / "loss.csv").read_text().splitlines()[1:]
            return [line.split(",")[0] for line in lines]

        assert steps(first) == ["1", "2", "3"]
        assert steps(resumed) == ["4", "5"]

    def test_manifest_records_the_seed_training_used(self, sim_dir,
                                                      tmp_path):
        cfg = self.train_cfg(tmp_path)  # seed 0
        first, resumed = tmp_path / "first", tmp_path / "resumed"
        main(["train", "--config", cfg, "--data", str(sim_dir),
              "--out", str(first), "--steps", "1", "--seed", "3"])
        assert main(["train", "--config", cfg, "--data", str(sim_dir),
                     "--out", str(resumed), "--steps", "1", "--seed", "7",
                     "--checkpoint", str(first / "checkpoint.ckpt")]) == 0
        for run in (first, resumed):
            manifest = json.loads((run / "manifest.json").read_text())
            assert manifest["seeds"] == {"train": 3}

    def test_mode_flag_mismatch_exits_5(self, sim_dir, tmp_path):
        assert main(["train", "--config", self.train_cfg(tmp_path),
                     "--data", str(sim_dir), "--out", str(tmp_path / "o"),
                     "--mode", "frames"]) == 5

    def test_infer_and_eval_phase(self, sim_dir, tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", self.train_cfg(tmp_path),
              "--data", str(sim_dir), "--out", str(run)])
        pred = tmp_path / "pred"
        assert main(["infer", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(sim_dir), "--out", str(pred)]) == 0
        for d in sorted(p for p in pred.iterdir() if p.is_dir()):
            assert (d / "phase_pred.pfm").exists()
        ev = tmp_path / "eval"
        assert main(["eval", "--data", str(sim_dir), "--pred", str(pred),
                     "--out", str(ev)]) == 0
        report = json.loads((ev / "metrics.json").read_text())
        assert len(report["per_image"]) == 5
        assert -1.0 <= report["mean_ssim_full"] <= 1.0

    @pytest.mark.parametrize("mode", ["phase", "frames"])
    def test_infer_manifest_records_load_compute_and_io_seconds(
            self, sim_dir, tmp_path, mode):
        run = tmp_path / "run"
        main(["train", "--config",
              self.train_cfg(tmp_path, spec=dict(TINY_SPEC, mode=mode)),
              "--data", str(sim_dir), "--out", str(run)])
        pred = tmp_path / "pred"
        assert main(["infer", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(sim_dir), "--out", str(pred)]) == 0
        manifest = json.loads((pred / "manifest.json").read_text())
        timings = manifest["timings_s"]
        assert sorted(timings) == ["compute", "io", "load"]
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= manifest["wall_clock_s"] + 0.002

    def test_infer_frames_mode_writes_frames(self, sim_dir, tmp_path):
        cfg = self.train_cfg(tmp_path, spec=dict(TINY_SPEC, mode="frames"))
        run = tmp_path / "run"
        main(["train", "--config", cfg, "--data", str(sim_dir),
              "--out", str(run)])
        pred = tmp_path / "pred"
        assert main(["infer", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(sim_dir), "--out", str(pred)]) == 0
        d = pred / "sample_00000"
        for k in range(1, 6):
            assert (d / f"frame_{k}.pfm").exists()
        assert io.read_sidecar(d / "frame_2.pfm")["predicted"] is True

    def test_infer_mode_mismatch_exits_5(self, sim_dir, tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", self.train_cfg(tmp_path),
              "--data", str(sim_dir), "--out", str(run)])
        assert main(["infer", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(sim_dir), "--out", str(tmp_path / "p"),
                     "--mode", "frames"]) == 5

    def test_corrupt_checkpoint_exits_6(self, sim_dir, tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", self.train_cfg(tmp_path),
              "--data", str(sim_dir), "--out", str(run)])
        ckpt = run / "checkpoint.ckpt"
        raw = bytearray(ckpt.read_bytes())
        raw[-1] ^= 0xFF
        ckpt.write_bytes(bytes(raw))
        assert main(["infer", "--checkpoint", str(ckpt),
                     "--data", str(sim_dir),
                     "--out", str(tmp_path / "p")]) == 6

    def test_truncated_checkpoint_header_exits_6(self, sim_dir, tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", self.train_cfg(tmp_path),
              "--data", str(sim_dir), "--out", str(run)])
        ckpt = run / "checkpoint.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        assert main(["infer", "--checkpoint", str(ckpt),
                     "--data", str(sim_dir),
                     "--out", str(tmp_path / "p")]) == 6

    def resaved_checkpoint(self, sim_dir, tmp_path, edit):
        """Train, then re-save the checkpoint with ``edit(entries, meta)``
        applied: header and blob stay intact, the content does not fit."""
        run = tmp_path / "run"
        assert main(["train", "--config", self.train_cfg(tmp_path),
                     "--data", str(sim_dir), "--out", str(run)]) == 0
        ckpt = run / "checkpoint.ckpt"
        entries, meta = load_checkpoint(ckpt)
        entries = edit(entries, meta)
        save_checkpoint(ckpt, entries, meta)
        return ckpt

    def run_with_checkpoint(self, command, ckpt, sim_dir, tmp_path):
        if command == "infer":
            argv = ["infer"]
        else:
            argv = ["train", "--config", self.train_cfg(tmp_path)]
        return main(argv + ["--checkpoint", str(ckpt), "--data", str(sim_dir),
                            "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_checkpoint_missing_meta_key_exits_6(self, command, sim_dir,
                                                 tmp_path):
        def drop_norm_info(entries, meta):
            del meta["norm_info"]
            return entries

        ckpt = self.resaved_checkpoint(sim_dir, tmp_path, drop_norm_info)
        assert self.run_with_checkpoint(command, ckpt, sim_dir, tmp_path) == 6

    @pytest.mark.parametrize("edit", [
        lambda norm: {k: v for k, v in norm.items() if k != "phase_range"},
        lambda norm: {k: v for k, v in norm.items()
                      if k != "intensity_range"},
        lambda norm: [norm["intensity_range"], norm["phase_range"]],
    ], ids=["no_phase_range", "no_intensity_range", "list"])
    def test_resume_without_checkpoint_ranges_exits_6(self, edit, sim_dir,
                                                      tmp_path):
        # a resumed run normalizes by the checkpoint's ranges alone
        def resave(entries, meta):
            meta["norm_info"] = edit(meta["norm_info"])
            return entries

        ckpt = self.resaved_checkpoint(sim_dir, tmp_path, resave)
        assert self.run_with_checkpoint("train", ckpt, sim_dir, tmp_path) == 6

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_checkpoint_spec_of_wrong_type_exits_6(self, command, sim_dir,
                                                   tmp_path):
        def skips_as_string(entries, meta):
            meta["spec"]["skips"] = "no"
            return entries

        ckpt = self.resaved_checkpoint(sim_dir, tmp_path, skips_as_string)
        assert self.run_with_checkpoint(command, ckpt, sim_dir, tmp_path) == 6

    def test_checkpoint_without_skips_exits_6(self, sim_dir, tmp_path):
        def no_skips(entries, meta):
            meta["spec"]["skips"] = False
            return entries

        ckpt = self.resaved_checkpoint(sim_dir, tmp_path, no_skips)
        assert self.run_with_checkpoint("infer", ckpt, sim_dir, tmp_path) == 6

    @pytest.mark.parametrize("command", ["infer", "train"])
    @pytest.mark.parametrize("key,value", [
        ("step", "1"), ("step", 1.5), ("g_opt_t", "1"), ("norm_info", []),
        ("d_opt_t", -1), ("seed", True), ("seed", -1), ("unknown", 0),
        ("norm_info.intensity_range", "ab"),
        ("norm_info.intensity_range", [1.0]),
        ("norm_info.intensity_range", [1.0, "x"]),
        ("norm_info.intensity_range", [1.0, math.nan]),
        ("norm_info.intensity_range", None),
    ], ids=["step_string", "step_float", "g_opt_t_string", "norm_info_list",
            "negative_d_opt_t", "seed_bool", "negative_seed", "unknown_key",
            "intensity_range_string", "intensity_range_one_number",
            "intensity_range_string_item", "intensity_range_nan",
            "intensity_range_null"])
    def test_checkpoint_meta_of_wrong_type_exits_6(self, command, key, value,
                                                   sim_dir, tmp_path):
        def set_meta(entries, meta):
            meta.update(replace_field(meta, tuple(key.split(".")), value))
            return entries

        ckpt = self.resaved_checkpoint(sim_dir, tmp_path, set_meta)
        assert self.run_with_checkpoint(command, ckpt, sim_dir, tmp_path) == 6

    @pytest.mark.parametrize("command", ["infer", "train"])
    @pytest.mark.parametrize("edit", [
        lambda entries, meta: entries[:3],
        lambda entries, meta: [(n, p.reshape(-1)[:1]) if i == 0 else (n, p)
                               for i, (n, p) in enumerate(entries)],
        # the last entry is a discriminator moment, which infer does not keep
        lambda entries, meta: entries[:-1] + [
            (entries[-1][0], np.append(entries[-1][1], 0.0))],
        lambda entries, meta: entries[:-1],
    ], ids=["first_three_params", "misshapen_param", "misshapen_last_moment",
            "no_last_moment"])
    def test_checkpoint_of_other_architecture_exits_6(self, command, edit,
                                                      sim_dir, tmp_path):
        ckpt = self.resaved_checkpoint(sim_dir, tmp_path, edit)
        assert self.run_with_checkpoint(command, ckpt, sim_dir, tmp_path) == 6

    @pytest.mark.parametrize("command", ["infer", "train"])
    @pytest.mark.parametrize("prefix,value", [
        ("g_head.", math.nan), ("g_head.", math.inf),
        ("opt.g.v.", math.nan), ("opt.g.v.", math.inf),
        ("d.", math.nan), ("opt.d.m.", math.inf),
    ], ids=["nan_weight", "inf_weight", "nan_moment", "inf_moment",
            "nan_disc_weight", "inf_disc_moment"])
    def test_non_finite_checkpoint_array_exits_6(self, command, prefix, value,
                                                 sim_dir, tmp_path):
        def poison(entries, meta):
            i = next(i for i, (n, _) in enumerate(entries)
                     if n.startswith(prefix))
            name, array = entries[i]
            array = array.copy()
            array.flat[0] = value
            return entries[:i] + [(name, array)] + entries[i + 1:]

        ckpt = self.resaved_checkpoint(sim_dir, tmp_path, poison)
        assert self.run_with_checkpoint(command, ckpt, sim_dir, tmp_path) == 6

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_norm_info_mode_other_than_spec_exits_6(self, command, sim_dir,
                                                    tmp_path):
        def flip_mode(entries, meta):
            assert meta["norm_info"]["mode"] == meta["spec"]["mode"]
            meta["norm_info"]["mode"] = "frames"
            return entries

        ckpt = self.resaved_checkpoint(sim_dir, tmp_path, flip_mode)
        assert self.run_with_checkpoint(command, ckpt, sim_dir, tmp_path) == 6

    def test_too_few_samples_to_split_exits_4(self, tmp_path):
        # ceil(0.8 * 3) == 3 leaves no test sample
        data = simulate(tmp_path / "data", tmp_path, count=3)
        assert main(["train", "--config", self.train_cfg(tmp_path),
                     "--data", str(data), "--out", str(tmp_path / "o")]) == 4

    def test_bad_spec_exits_2(self, sim_dir, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"spec": {"mode": "telepathy"}})
        assert main(["train", "--config", cfg, "--data", str(sim_dir),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("cfg", [
        [{"spec": TINY_SPEC}],
        {"spec": TINY_SPEC, "steps": "many"},
        {"spec": TINY_SPEC, "seed": "x"},
        {"spec": TINY_SPEC, "batch_size": "x"},
        {"spec": TINY_SPEC, "split_seed": [1]},
        {"spec": TINY_SPEC, "train_count": "x"},
        {"spec": TINY_SPEC, "train_fraction": "x"},
        {"spec": []},
        {"spec": TINY_SPEC, "steps": -3},
        {"spec": TINY_SPEC, "batch_size": 0},
        {"spec": dict(TINY_SPEC, lr="x")},
        {"spec": dict(TINY_SPEC, beta1="0.5")},
        {"spec": dict(TINY_SPEC, skips="no")},
        {"spec": TINY_SPEC, "steps": True},
        {"spec": TINY_SPEC, "batch_size": 2.5},
        {"spec": TINY_SPEC, "augment": "false"},
        {"spec": dict(TINY_SPEC, lr=math.nan)},
        {"spec": dict(TINY_SPEC, base=0)},
        {"spec": dict(TINY_SPEC, disc_blocks=0)},
        {"spec": dict(TINY_SPEC, image_side=-16)},
        {"spec": TINY_SPEC, "seed": -1},
        {"spec": TINY_SPEC, "split_seed": -1},
        {"spec": TINY_SPEC, "stpes": 4},
        {"spec": TINY_SPEC, "train_count": 0},
        {"spec": TINY_SPEC, "train_fraction": 1.0},
        {"spec": TINY_SPEC, "train_fraction": -0.5},
        {"spec": dict(TINY_SPEC, skips=False)},
        {"spec": dict(TINY_SPEC, depth=4)},
        {"spec": dict(TINY_SPEC, disc_blocks=4)},
    ], ids=["config_list", "steps", "seed", "batch_size", "split_seed",
            "train_count", "train_fraction", "spec_list", "negative_steps",
            "zero_batch_size", "spec_lr_string", "spec_beta1_string",
            "spec_skips_string", "steps_bool", "batch_size_float",
            "augment_string", "spec_lr_nan", "spec_base_0",
            "spec_disc_blocks_0", "spec_negative_image_side",
            "negative_seed", "negative_split_seed", "unknown_key",
            "zero_train_count", "train_fraction_1", "negative_train_fraction",
            "spec_skips_false", "spec_norm_1x1_generator",
            "spec_norm_1x1_discriminator"])
    def test_bad_config_field_exits_2(self, sim_dir, tmp_path, cfg):
        config = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert main(["train", "--config", config, "--data", str(sim_dir),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_image_side_differs_from_data_exits_4(self, sim_dir, tmp_path):
        spec_32 = dict(TINY_SPEC, image_side=32)
        out = tmp_path / "o"
        assert main(["train", "--config",
                     self.train_cfg(tmp_path, spec=spec_32),
                     "--data", str(sim_dir), "--out", str(out)]) == 4
        assert not out.exists()
        # a resumed run trains with its checkpoint's spec, not the config's
        run = tmp_path / "run"
        assert main(["train", "--config", self.train_cfg(tmp_path),
                     "--data", str(sim_dir), "--out", str(run)]) == 0
        assert main(["train", "--config",
                     self.train_cfg(tmp_path, spec=spec_32),
                     "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(sim_dir), "--out", str(out)]) == 0


class TestEval:
    def make_perfect_pair(self, tmp_path, width=256, height=16):
        rng = np.random.default_rng(0)
        data = tmp_path / "data" / "sample_00000"
        data.mkdir(parents=True)
        truth = rng.uniform(0.0, 3.0, (height, width))
        for k in range(1, 6):
            io.write_pfm(data / f"frame_{k}.pfm",
                         rng.uniform(0, 4, (height, width)))
        io.save_phase(data / "phase_gt.pfm", PhaseMap(truth, wrapped=False))
        pred = tmp_path / "pred" / "sample_00000"
        pred.mkdir(parents=True)
        io.save_phase(pred / "phase_pred.pfm",
                      PhaseMap(io.read_pfm(data / "phase_gt.pfm"),
                               wrapped=False))
        return tmp_path / "data", tmp_path / "pred"

    def test_identical_prediction_scores_perfectly(self, tmp_path):
        data, pred = self.make_perfect_pair(tmp_path)
        ev = tmp_path / "eval"
        assert main(["eval", "--data", str(data), "--pred", str(pred),
                     "--out", str(ev)]) == 0
        report = json.loads((ev / "metrics.json").read_text())
        assert report["mean_ssim_full"] == 1.0
        assert report["mean_rms"] == 0.0
        assert report["params"] == {"window_size": 11, "sigma": 1.5,
                                    "k1": 0.01, "k2": 0.03,
                                    "dynamic_range": "truth peak-to-peak"}

    def test_profile_csv(self, tmp_path):
        data, pred = self.make_perfect_pair(tmp_path, width=256)
        ev = tmp_path / "eval"
        assert main(["eval", "--data", str(data), "--pred", str(pred),
                     "--out", str(ev), "--profile-row", "3"]) == 0
        profile = read_profile_csv(ev / "sample_00000_profile.csv")
        assert len(profile.values) == 1280
        assert profile.boundaries == (256, 512, 768, 1024)

    def test_shape_mismatch_exits_4(self, tmp_path):
        data, pred = self.make_perfect_pair(tmp_path)
        io.save_phase(pred / "sample_00000" / "phase_pred.pfm",
                      PhaseMap(np.zeros((4, 4)), wrapped=False))
        assert main(["eval", "--data", str(data), "--pred", str(pred),
                     "--out", str(tmp_path / "e")]) == 4

    def test_signalling_nan_in_truth_exits_4_without_warning(self,
                                                              tmp_path):
        data, pred = self.make_perfect_pair(tmp_path)
        truth = data / "sample_00000" / "phase_gt.pfm"
        snan = np.array([0x7FA00000], dtype="<u4").tobytes()
        truth.write_bytes(truth.read_bytes()[:-4] + snan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(io.read_pfm(truth)[0, -1])
            assert main(["eval", "--data", str(data), "--pred", str(pred),
                         "--out", str(tmp_path / "e")]) == 4

    def test_missing_prediction_exits_4(self, tmp_path):
        data, pred = self.make_perfect_pair(tmp_path)
        (pred / "sample_00000" / "phase_pred.pfm").unlink()
        assert main(["eval", "--data", str(data), "--pred", str(pred),
                     "--out", str(tmp_path / "e")]) == 4

    def test_scores_match_the_metric_functions(self, sim_dir, tmp_path):
        rec = tmp_path / "recon"
        ev = tmp_path / "eval"
        assert main(["reconstruct", "--data", str(sim_dir),
                     "--out", str(rec)]) == 0
        assert main(["eval", "--data", str(sim_dir), "--pred", str(rec),
                     "--out", str(ev)]) == 0
        report = json.loads((ev / "metrics.json").read_text())
        for entry in report["per_image"]:
            truth = io.load_phase(sim_dir / entry["sample"] / "phase_gt.pfm")
            pred = io.load_phase(rec / entry["sample"] / "phase_unwrapped.pfm")
            aligned = align_global_offset(pred, truth).data
            span = truth.data.max() - truth.data.min()
            params = SsimParams(dynamic_range=span)
            mask = foreground_mask(truth)
            assert entry["ssim_full"] == ssim(aligned, truth.data, params)[0]
            assert entry["ssim_foreground"] == masked_mean_ssim(
                ssim(aligned, truth.data, params)[1], mask)
            assert entry["rms"] == rms_error(aligned, truth.data)


def mutate(data, raw):
    """Draw a truncation, up to eight bit flips or a splice of ``raw``.

    The splice joins a prefix to a suffix, which drops or repeats a span.
    No draw makes a checkpoint ask for a large network: eight flips add at
    most a digit or two to a layer size in the header, and a splice that
    moves header bytes breaks the header's length prefix.  Returns (kind,
    mutated bytes).
    """
    kind = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return kind, raw[:data.draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        out = bytearray(raw)
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1),
                                      min_size=1, max_size=8)):
            out[bit // 8] ^= 1 << bit % 8
        return kind, bytes(out)
    cut = st.integers(0, len(raw))
    return kind, raw[:data.draw(cut)] + raw[data.draw(cut):]


@pytest.fixture(scope="module")
def fuzz_root(sim_dir, tmp_path_factory):
    """One sample, its reconstruction and a tiny phase-mode checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(sim_dir / "sample_00000", root / "data" / "sample_00000")
    assert main(["reconstruct", "--data", str(root / "data"),
                 "--out", str(root / "recon")]) == 0
    config = write_config(root / "train.json",
                          {"spec": TINY_SPEC, "steps": 1, "seed": 0})
    assert main(["train", "--config", config, "--data", str(sim_dir),
                 "--out", str(root / "run")]) == 0
    return root


class TestExitCodeFuzz:
    """Hostile bytes in a checkpoint, a PFM or a sidecar end in a documented
    exit code, never in a traceback."""

    @pytest.mark.parametrize("command,target", [
        ("infer", "run/checkpoint.ckpt"),
        ("reconstruct", "data/sample_00000/frame_1.pfm"),
        ("infer", "data/sample_00000/frame_1.pfm"),
        ("eval", "data/sample_00000/phase_gt.pfm"),
        ("reconstruct", "data/sample_00000/frame_1.pfm.json"),
        ("eval", "data/sample_00000/phase_gt.pfm.json"),
    ])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_input_exits_with_a_documented_code(
            self, fuzz_root, command, target, data):
        argv = {"infer": ["infer", "--checkpoint",
                          str(fuzz_root / "run" / "checkpoint.ckpt")],
                "reconstruct": ["reconstruct"],
                "eval": ["eval", "--pred", str(fuzz_root / "recon")]}[command]
        argv += ["--data", str(fuzz_root / "data"),
                 "--out", str(fuzz_root / "out")]
        path = fuzz_root / target
        original = path.read_bytes()
        kind, mutated = mutate(data, original)
        path.write_bytes(mutated)
        try:
            code = main(argv)
        finally:
            path.write_bytes(original)
        assert code in (0, 3, 4, 6)
        if kind == "truncate" and not target.endswith(".json"):
            assert code != 0


SIM_CONFIG = {"count": 1, "width": 16, "height": 16,
              "object_family": "cell_blobs", "seed": 0,
              "model": {"source": {"lambda0": 520.0, "delta_lambda": 72.0},
                        "i_object": 1.0, "i_reference": 1.0,
                        "shift_schedule": [-3.0, -1.5, 0.0, 1.5, 3.0],
                        "jitter_sigma": 0.0, "noise_sigma": 0.0,
                        "envelope_reference_opd": 0.0}}
TRAIN_CONFIG = {"spec": dict(TINY_SPEC, skips=True, lambda_l1=100.0,
                             lr=2e-4, beta1=0.5, beta2=0.999),
                "steps": 0, "seed": 0, "batch_size": 1,
                "train_fraction": 0.8, "split_seed": 0, "train_count": None,
                "augment": False}


def field_paths(cfg, prefix=()):
    """The key path of every field of a config, nested fields included."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


def replace_field(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


class TestConfigFuzz:
    """A config with one field, at any depth, replaced by a string, a
    negative, a float, null, a list or an object ends in exit 0 or 2, never
    in a traceback.  ``train`` runs 0 steps, so an accepted config is cheap."""

    VALUES = st.one_of(
        st.text(max_size=6),
        st.integers(-10 ** 6, -1), st.floats(-1e6, -1e-6),
        st.floats(-1e3, 1e3),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.none(),
        st.lists(st.floats(-10.0, 10.0), max_size=6),
        st.dictionaries(st.text(max_size=6), st.integers(), max_size=2))

    # the data decides whether these fit: a train_fraction in (0, 1) may
    # leave no test sample, and an empty spec's image_side is 64, not 16
    DATA_DECIDES = {("train_fraction",), ("spec",)}

    def run(self, fuzz_root, sim_dir, command, cfg):
        config = write_config(fuzz_root / f"{command}.json", cfg)
        argv = [command, "--config", config,
                "--out", str(fuzz_root / f"{command}_out")]
        return main(argv + (["--data", str(sim_dir)]
                            if command == "train" else []))

    def test_unmutated_configs_exit_0(self, fuzz_root, sim_dir):
        for command, cfg in (("simulate", SIM_CONFIG), ("train", TRAIN_CONFIG)):
            assert self.run(fuzz_root, sim_dir, command, cfg) == 0

    @pytest.mark.parametrize("command,base", [("simulate", SIM_CONFIG),
                                              ("train", TRAIN_CONFIG)],
                             ids=["simulate", "train"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_field_exits_0_or_2(self, fuzz_root, sim_dir, command,
                                        base, data):
        path = data.draw(st.sampled_from(list(field_paths(base))))
        value = data.draw(self.VALUES)
        code = self.run(fuzz_root, sim_dir, command,
                        replace_field(base, path, value))
        assert code in ({0, 2, 4} if path in self.DATA_DECIDES else {0, 2})


class TestCheckpointMetaFuzz:
    """A checkpoint whose meta has one field, at any depth, replaced by a
    ``TestConfigFuzz.VALUES`` draw ends ``infer`` and a resumed ``train``
    (0 steps) in exit 0 or 6, never in a traceback."""

    # the data decides on these: a checkpoint of the other mode meets the
    # train config's mode, one of another image_side meets 16^2 data, and
    # an empty norm_info is a record with no ranges, which inference
    # reports as bad input data
    DATA_DECIDES = {("train", ("spec", "mode")): {5},
                    ("train", ("spec", "image_side")): {4},
                    ("infer", ("norm_info",)): {4}}

    @pytest.mark.parametrize("command", ["infer", "train"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_meta_field_exits_0_or_6(self, fuzz_root, sim_dir,
                                             command, data):
        entries, meta = load_checkpoint(fuzz_root / "run" / "checkpoint.ckpt")
        path = data.draw(st.sampled_from(list(field_paths(meta))))
        ckpt = fuzz_root / f"{command}_meta.ckpt"
        save_checkpoint(ckpt, entries, replace_field(
            meta, path, data.draw(TestConfigFuzz.VALUES)))
        argv = [command]
        if command == "train":
            argv += ["--config",
                     write_config(fuzz_root / "resume.json", TRAIN_CONFIG)]
        code = main(argv + ["--checkpoint", str(ckpt), "--data", str(sim_dir),
                            "--out", str(fuzz_root / f"{command}_meta_out")])
        assert code in {0, 6} | self.DATA_DECIDES.get((command, path), set())


class TestFlags:
    ARGS = {
        "simulate": ["--config", "c.json", "--out", "o"],
        "reconstruct": ["--data", "d", "--out", "o"],
        "train": ["--config", "c.json", "--data", "d", "--out", "o"],
        "infer": ["--checkpoint", "c.ckpt", "--data", "d", "--out", "o"],
        "eval": ["--data", "d", "--out", "o"],
    }

    @pytest.mark.parametrize("command,flag", [
        *((c, ["--workers", "2"]) for c in ARGS),
        ("reconstruct", ["--seed", "1"]),
        ("infer", ["--seed", "1"]),
        ("eval", ["--seed", "1"]),
        ("eval", ["--mask", "foreground"]),
    ])
    def test_removed_flag_is_rejected(self, command, flag):
        argv = [command] + self.ARGS[command]
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_seed_is_kept_where_read(self, command):
        argv = [command] + self.ARGS[command] + ["--seed", "3"]
        assert build_parser().parse_args(argv).seed == 3


@pytest.mark.parametrize("command", ["reconstruct", "infer", "eval"])
@pytest.mark.parametrize("data,code", [("missing", 3), ("empty", 4)])
def test_bad_data_dir_exits_without_output(command, data, code, fuzz_root,
                                           tmp_path):
    if data == "empty":
        (tmp_path / "empty").mkdir()
    argv = {"reconstruct": [],
            "infer": ["--checkpoint",
                      str(fuzz_root / "run" / "checkpoint.ckpt")],
            "eval": ["--pred", str(fuzz_root / "recon")]}[command]
    out = tmp_path / "x" / "out"
    assert main([command, *argv, "--data", str(tmp_path / data),
                 "--out", str(out)]) == code
    assert not out.exists() and not out.parent.exists()


def command_argv(command, fuzz_root, sim_dir, tmp_path):
    """Arguments, but ``--out``, for a small successful run of ``command``."""
    if command == "simulate":
        return ["simulate", "--config", write_config(
            tmp_path / "sim.json", {"count": 1, "width": 16, "height": 16})]
    if command == "train":
        return ["train", "--data", str(sim_dir), "--config", write_config(
            tmp_path / "train.json", {"spec": TINY_SPEC, "steps": 1})]
    argv = {"reconstruct": [],
            "infer": ["--checkpoint",
                      str(fuzz_root / "run" / "checkpoint.ckpt")],
            "eval": ["--pred", str(fuzz_root / "recon")]}[command]
    return [command, *argv, "--data", str(fuzz_root / "data")]


class TestManifest:
    TIMINGS = {"simulate": ["simulate"],
               "reconstruct": ["io", "quality", "unwrap", "wrap"],
               "train": ["train"], "infer": ["compute", "io", "load"],
               "eval": ["compute", "io"]}

    @pytest.mark.parametrize("command", list(TIMINGS))
    def test_keys_and_stages(self, command, fuzz_root, sim_dir, tmp_path):
        out = tmp_path / "out"
        argv = command_argv(command, fuzz_root, sim_dir, tmp_path)
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == sorted([
            "command", "config_hash", "seeds", "inputs", "outputs",
            "tool_version", "wall_clock_s", "timings_s"])
        assert manifest["command"] == command
        assert sorted(manifest["timings_s"]) == self.TIMINGS[command]

    @pytest.mark.parametrize("command", list(TIMINGS))
    def test_failed_run_writes_none(self, command, fuzz_root, sim_dir,
                                    tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        argv = command_argv(command, fuzz_root, sim_dir, tmp_path)
        # the path after --data (--config for simulate) does not exist
        argv[argv.index("--config" if command == "simulate" else "--data")
             + 1] = str(tmp_path / "missing")
        assert main(argv + ["--out", str(out)]) == 3
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,name", [
    ("reconstruct", "frame_5.pfm"), ("train", "phase_gt.pfm"),
    ("infer", "frame_1.pfm"), ("eval", "phase_gt.pfm")])
def test_missing_sample_file_exits_4(command, name, fuzz_root, sim_dir,
                                     tmp_path, caplog):
    data = tmp_path / "data"
    shutil.copytree(sim_dir, data)
    (data / "sample_00000" / name).unlink()
    argv = command_argv(command, fuzz_root, data, tmp_path)
    argv[argv.index("--data") + 1] = str(data)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    assert f"has no {name}" in caplog.text


def test_readme_walkthrough_configs_build():
    """The two JSON configs of the README's CLI walkthrough build, so the
    docs cannot drift from the keys a config may hold."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"<<'JSON'\n(.*?)\nJSON\n", text, re.S)
    sim_cfg, train_cfg = (json.loads(block) for block in blocks)
    assert SimulateConfig(**sim_cfg).model.noise_sigma == 0.04
    assert TrainConfig(**train_cfg).spec.image_side == 64


def test_readme_config_tables_list_every_field():
    """Each config table of the README names exactly its class's fields,
    and the checkpoint's ``norm_info`` table exactly ``NormInfo``'s keys."""
    text = (ROOT / "README.md").read_text()
    for heading, cls in (("`simulate` config:", SimulateConfig),
                         ("`model` object:", ForwardModelSpec),
                         ("`train` config:", TrainConfig),
                         ("`spec` object", GanSpec),
                         ("`norm_info` object", NormInfo)):
        table = text.split(heading, 1)[1].split("\n\n", 2)[1]
        keys = {key for row in table.splitlines()[2:]
                for key in re.findall(r"`(\w+)`", row.split("|")[1])}
        assert keys == set(typing.get_type_hints(cls)), heading


def declared_ranges(kind):
    """Every ``Range`` in an annotation, nested ones included."""
    if isinstance(kind, Range):
        yield kind
    for arg in typing.get_args(kind):
        yield from declared_ranges(arg)


def readme_form(bound):
    """A ``Range`` as the README tables write it: ``>= 1``, ``> 0``,
    ``in (0, 1)`` or ``in [0, 1)``."""
    ends = [(op, value) for op, value in zip((">=", ">", "<=", "<"), bound)
            if value is not None]
    if len(ends) == 1:
        return "%s %s" % ends[0]
    (low, a), (high, b) = ends
    return (f"in {'[' if low == '>=' else '('}{a}, "
            f"{b}{']' if high == '<=' else ')'}")


def test_readme_config_tables_state_every_declared_range():
    """Each ``Range`` a config field declares is written in that field's
    README row, so the tables cannot drift from the annotations."""
    text = (ROOT / "README.md").read_text()
    checked = 0
    for heading, cls in (("`simulate` config:", SimulateConfig),
                         ("`model` object:", ForwardModelSpec),
                         ("`train` config:", TrainConfig),
                         ("`spec` object", GanSpec)):
        table = text.split(heading, 1)[1].split("\n\n", 2)[1]
        rows = {key: row.split("|")[2] for row in table.splitlines()[2:]
                for key in re.findall(r"`(\w+)`", row.split("|")[1])}
        hints = typing.get_type_hints(cls, include_extras=True)
        for name, kind in hints.items():
            for bound in declared_ranges(kind):
                assert readme_form(bound) in rows[name], (heading, name)
                checked += 1
    assert checked


@pytest.mark.parametrize("key,value,code", [
    ("beta1", 1.0, 2), ("beta2", 1.0, 2), ("beta2", -0.5, 2),
    ("beta1", 1.5, 2), ("lr", -1.0, 2), ("beta1", 0.0, 0)])
def test_adam_setting_outside_its_range_exits_2(key, value, code, sim_dir,
                                                tmp_path, caplog):
    # without the ranges the first three diverge and the last two train
    config = write_config(tmp_path / "c.json",
                          {"spec": dict(TINY_SPEC, **{key: value}),
                           "steps": 2})
    out = tmp_path / "o"
    assert main(["train", "--config", config, "--data", str(sim_dir),
                 "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert f"GanSpec.{key} = {value!r} is not of type " \
               "Annotated[float, Range(ge=0" in caplog.text


def resaved(ckpt, dest, edit):
    """``ckpt`` saved to ``dest`` with ``edit(entries, meta)`` applied."""
    entries, meta = load_checkpoint(ckpt)
    save_checkpoint(dest, edit(entries, meta), meta)
    return str(dest)


@pytest.mark.parametrize("command", ["infer", "train"])
def test_checkpoint_spec_outside_its_range_exits_6(command, fuzz_root,
                                                   sim_dir, tmp_path, caplog):
    def beta1_of_1(entries, meta):
        meta["spec"]["beta1"] = 1.0
        return entries

    ckpt = resaved(fuzz_root / "run" / "checkpoint.ckpt",
                   tmp_path / "c.ckpt", beta1_of_1)
    argv = [command, "--checkpoint", ckpt, "--data", str(sim_dir),
            "--out", str(tmp_path / "o")]
    if command == "train":
        argv += ["--config", write_config(tmp_path / "t.json",
                                          {"spec": TINY_SPEC, "steps": 1})]
    assert main(argv) == 6
    assert "GanSpec.beta1 = 1.0" in caplog.text


@pytest.mark.parametrize("entry", [
    lambda n: {"shape": [2.5]},
    lambda n: {"shape": ["a"]},
    lambda n: {"shape": [-1, -n]},  # the product matches the blob
    lambda n: {"shape": [True, n]},
    lambda n: {"name": ["g"]},
], ids=["float_side", "string_side", "negative_sides", "bool_side",
        "list_name"])
def test_malformed_checkpoint_header_exits_6(entry, fuzz_root, sim_dir,
                                              tmp_path):
    raw = (fuzz_root / "run" / "checkpoint.ckpt").read_bytes()
    hlen = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8:8 + hlen])
    first = header["params"][0]
    first.update(entry(math.prod(first["shape"])))
    head = json.dumps(header).encode()
    ckpt = tmp_path / "c.ckpt"
    ckpt.write_bytes(len(head).to_bytes(8, "little") + head + raw[8 + hlen:])
    assert main(["infer", "--checkpoint", str(ckpt), "--data", str(sim_dir),
                 "--out", str(tmp_path / "o")]) == 6


class TestNonFiniteResultExits4:
    """A computation whose result is not finite is exit 4, and the run
    writes no manifest."""

    def test_diverging_training_run(self, sim_dir, tmp_path, caplog):
        config = write_config(tmp_path / "c.json", {
            "spec": dict(TINY_SPEC, lr=1e308), "steps": 5})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["train", "--config", config, "--data", str(sim_dir),
                         "--out", str(out)]) == 4
        assert not out.exists()
        assert "result is not finite" in caplog.text

    def test_inference_on_huge_weights(self, fuzz_root, sim_dir, tmp_path):
        def huge(entries, meta):
            return [(name, array if name.startswith(("opt.", "d."))
                     else np.full_like(array, 1e200))
                    for name, array in entries]

        ckpt = resaved(fuzz_root / "run" / "checkpoint.ckpt",
                       tmp_path / "c.ckpt", huge)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["infer", "--checkpoint", ckpt, "--data",
                         str(sim_dir), "--out", str(out)]) == 4
        assert not (out / "manifest.json").exists()

    def test_generator_loss_check(self, sim_dir, tmp_path, caplog):
        # frames-mode targets are not clipped: resumed on frames 1000 times
        # brighter than the checkpoint's intensity range, lambda_l1 times
        # their L1 error overflows
        dim = simulate(tmp_path / "dim", tmp_path, model={
            "i_object": 0.001, "i_reference": 0.001})
        config = write_config(tmp_path / "c.json", {
            "spec": dict(TINY_SPEC, mode="frames", lambda_l1=1e308),
            "steps": 0})
        run = tmp_path / "run"
        assert main(["train", "--config", config, "--data", str(dim),
                     "--out", str(run)]) == 0
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["train", "--config", config, "--steps", "2",
                         "--checkpoint", str(run / "checkpoint.ckpt"),
                         "--data", str(sim_dir), "--out", str(out)]) == 4
        assert not out.exists()
        assert "generator loss is not finite at step 0" in caplog.text

    def test_adam_second_moment_overflow(self, sim_dir, tmp_path, caplog):
        # lambda_l1 near the float64 maximum leaves the losses finite but
        # squares gradients past it: an infinite second moment would stop
        # its weights learning without a word
        config = write_config(tmp_path / "c.json", {
            "spec": dict(TINY_SPEC, lambda_l1=1e308), "steps": 3,
            "batch_size": 2})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", config, "--data", str(sim_dir),
                         "--out", str(out)]) == 4
        assert not out.exists()
        assert "Adam second moment" in caplog.text


def test_augmented_training_runs(sim_dir, tmp_path):
    runs = {}
    for augment in (False, True):
        config = write_config(tmp_path / "c.json", {
            "spec": TINY_SPEC, "steps": 2, "augment": augment})
        out = tmp_path / f"augment_{augment}"
        assert main(["train", "--config", config, "--data", str(sim_dir),
                     "--out", str(out)]) == 0
        assert len((out / "loss.csv").read_text().splitlines()) == 3
        runs[augment] = (out / "checkpoint.ckpt").read_bytes()
    # the 12 rotations change which pairs the seeded order draws
    assert runs[True] != runs[False]


def test_eval_scores_each_hop_of_predicted_frames(sim_dir, tmp_path):
    config = write_config(tmp_path / "c.json", {
        "spec": dict(TINY_SPEC, mode="frames"), "steps": 1})
    run, pred, report = tmp_path / "run", tmp_path / "pred", tmp_path / "rep"
    assert main(["train", "--config", config, "--data", str(sim_dir),
                 "--out", str(run)]) == 0
    assert main(["infer", "--checkpoint", str(run / "checkpoint.ckpt"),
                 "--data", str(sim_dir), "--out", str(pred)]) == 0
    assert main(["reconstruct", "--data", str(pred), "--out", str(pred)]) == 0
    assert main(["eval", "--data", str(sim_dir), "--pred", str(pred),
                 "--out", str(report)]) == 0
    per_image = json.loads((report / "metrics.json").read_text())["per_image"]
    assert len(per_image) == 5
    for entry in per_image:
        assert len(entry["hop_l1"]) == 4
        assert all(math.isfinite(v) and v >= 0 for v in entry["hop_l1"])


def test_resume_from_checkpoint_of_other_mode_exits_5(fuzz_root, sim_dir,
                                                      tmp_path):
    config = write_config(tmp_path / "c.json", {
        "spec": dict(TINY_SPEC, mode="frames"), "steps": 1})
    out = tmp_path / "o"
    assert main(["train", "--config", config,
                 "--checkpoint", str(fuzz_root / "run" / "checkpoint.ckpt"),
                 "--data", str(sim_dir), "--out", str(out)]) == 5
    assert not out.exists()
