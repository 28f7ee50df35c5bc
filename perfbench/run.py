"""psimlab benchmark: time the public CLI on seeded inputs and check outputs.

    python3 perfbench/run.py --workload recon_512 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One closed-loop caller in one process runs the workload's CLI calls back to
back for ``--seconds`` and checks every output.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced passes
with passes in which every psimlab layer is wrapped in spans, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
GRAD_CHECK_LIMIT = 1e-4
WORKLOAD_NAMES = ("recon_512", "train_64", "serve_64")


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """At most one BLAS thread per CPU; must run before numpy is imported."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)


def blas_info():
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return f"{blas['name']} {blas.get('version', '')}".strip(), threads


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy

    blas, threads = blas_info()
    return {"nproc": nproc(), "blas": blas, "blas_threads": threads,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "git_commit": git_commit(),
            "seed": seed}


def warm_up(workload, tally_type):
    """Uncounted passes, so output files exist and first-call costs pass."""
    for _ in range(workload.warmup_passes):
        workload.run_pass(tally_type())


def measure(workload, seconds, blocks):
    """Closed loop: rounds of passes back to back while the next one fits.

    ``blocks`` is a list of (tally, context); a round runs one pass into
    each tally, inside its context, so traced and untraced passes alternate
    and see the same machine.  The order flips every round, so neither
    side always pays for first writing an output file.  Every tally gets
    at least ``workload.min_passes`` passes.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        before = time.perf_counter()
        for tally, context in blocks[::-1] if rounds % 2 else blocks:
            with context():
                workload.run_pass(tally)
        rounds += 1
        now = time.perf_counter()
        if rounds >= workload.min_passes and \
                now - start + (now - before) > seconds:
            return


def end_to_end(setup_times, tally):
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s_per_image": statistics.median(
            s / n for s, n in tally.samples),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, spans, untraced, traced):
    """Per-layer figures; ``*.self_s`` is self time per item of the workload
    (per image, or per train step on train_64)."""
    run = tracer.summarize(spans, "pass")
    setup = tracer.summarize(spans, "setup")
    items = traced.items
    zero = tracer.Totals()

    def self_s(name, totals=run, per=items):
        return totals.get(name, zero).self_s / per

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    stages = untraced.stages
    for stage in ("reconstruct", "eval", "infer"):
        seconds, images = stages.get(stage, (0.0, 0))
        out[f"{stage}_s_per_image"] = ratio(seconds, images)
    seconds, samples = stages.get("train", (0.0, 0))
    out["train_samples_per_s"] = ratio(samples, seconds)
    out["phase_rms_rad"] = workload.accuracy["phase_rms_rad"]
    out["phase_ssim"] = workload.accuracy["phase_ssim"]
    out["train_l1_final"] = workload.accuracy.get("train_l1_final", 0.0)

    roots = sum(s.end - s.start for s in spans
                if s.phase == "pass" and s.parent is None)
    out["trace.overhead"] = ratio(traced.call_s / traced.items,
                                  untraced.call_s / untraced.items) - 1.0
    out["trace.coverage"] = ratio(roots, traced.call_s)
    out["trace.spans_per_item"] = ratio(
        sum(1 for s in spans if s.phase == "pass"), items)

    out.update(workload.input_properties())
    unwrap = run.get("reconstruct.unwrap_phase", zero)
    noisy = tracer.summarize(
        spans, "pass", lambda item: str(item).startswith("noisy"))
    out["reconstruct.unwrap_phase.noisy_share"] = ratio(
        noisy.get("reconstruct.unwrap_phase", zero).self_s, unwrap.self_s)
    out["reconstruct.unwrap_phase.us_per_pixel"] = ratio(
        unwrap.self_s * 1e6, unwrap.calls * out["input.pixels_per_image"])
    for name in ("reconstruct.unwrap_phase",
                 "reconstruct.five_step_wrapped_phase",
                 "reconstruct.modulation_amplitude",
                 "reconstruct.reconstruct_stack",
                 "metrics.ssim", "metrics.masked_mean_ssim",
                 "metrics.align_global_offset", "metrics.rms_error",
                 "metrics.foreground_mask",
                 "io.read_pfm", "io.write_pfm", "io.read_sidecar",
                 "io.write_sidecar",
                 "nn.ops.conv2d_forward", "nn.ops.conv2d_backward",
                 "nn.ops.conv_transpose2d_forward",
                 "nn.ops.conv_transpose2d_backward",
                 "nn.ops.instance_norm_forward",
                 "nn.ops.instance_norm_backward", "nn.ops.check_finite",
                 "nn.adam.adam_step",
                 "nn.checkpoint.load_checkpoint",
                 "nn.checkpoint.save_checkpoint",
                 "gan.train.train_step", "gan.train.infer_phase",
                 "gan.train.load_gan", "gan.train.init_gan",
                 "gan.data.build_pairs",
                 "cli.cmd_reconstruct", "cli.cmd_eval", "cli.cmd_infer",
                 "cli.cmd_train"):
        out[name + ".self_s"] = self_s(name)

    evaluated = traced.stages.get("eval", (0.0, 0))[1]
    out["metrics.ssim.calls_per_image"] = ratio(
        run.get("metrics.ssim", zero).calls, evaluated)

    io_counts = [run.get(n, zero).counts for n in
                 ("io.read_pfm", "io.read_sidecar", "io.write_pfm",
                  "io.write_sidecar")]
    out["io.bytes_read"] = sum(c["io_read"] for c in io_counts) / items
    out["io.bytes_written"] = sum(c["io_written"] for c in io_counts) / items
    out["nn.checkpoint.bytes_read"] = run.get(
        "nn.checkpoint.load_checkpoint", zero).counts["ckpt_read"] / items
    out["nn.checkpoint.bytes_written"] = run.get(
        "nn.checkpoint.save_checkpoint", zero).counts["ckpt_written"] / items

    out.update(conv_counts(spans, run, zero))

    for block in ("down0", "down1", "down2", "down3", "up0", "up1", "up2",
                  "up3", "g_head", "d"):
        for direction in ("fwd", "bwd"):
            name = f"gan.block.{block}.{direction}"
            out[name + "_s"] = run.get(name, zero).incl_s / items
    steps = run.get("gan.train.train_step", zero).durations
    out["gan.train.train_step.s_p50"] = statistics.median(steps) \
        if steps else 0.0

    # set-up figures are inclusive seconds in the one traced set-up
    for name in ("simulate.synth_dataset", "gan.data.build_pairs",
                 "nn.checkpoint.save_checkpoint", "nn.gradcheck.grad_check"):
        out[f"setup.{name}.s"] = setup.get(name, zero).incl_s
    out["setup.io.s"] = sum(
        setup.get(n, zero).incl_s for n in ("io.write_pfm", "io.write_sidecar",
                                            "io.read_pfm", "io.read_sidecar"))
    out["nn.gradcheck.max_rel_err"] = workload.grad_error
    return out


CONV_OPS = ("nn.ops.conv2d_forward", "nn.ops.conv2d_backward",
            "nn.ops.conv_transpose2d_forward",
            "nn.ops.conv_transpose2d_backward")


def conv_counts(spans, run, zero):
    """Conv kernel calls, GFLOP and MB moved per train step and per infer
    call, computed from layer shapes, plus the achieved GFLOP/s."""
    per = {"gan.train.train_step": [0, 0.0, 0.0],
           "gan.train.infer_phase": [0, 0.0, 0.0]}
    for span in spans:
        if span.phase != "pass" or span.name not in CONV_OPS:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in per:
            parent = spans[parent].parent
        if parent is not None:
            acc = per[spans[parent].name]
            acc[0] += 1
            acc[1] += span.counts["conv_flop"]
            acc[2] += span.counts["conv_bytes"]
    out = {}
    for root, unit in (("gan.train.train_step", "step"),
                       ("gan.train.infer_phase", "infer")):
        calls = run.get(root, zero).calls
        n, flop, moved = per[root]
        out[f"nn.ops.conv.calls_per_{unit}"] = n / calls if calls else 0.0
        out[f"nn.ops.conv.gflop_per_{unit}"] = flop / 1e9 / calls \
            if calls else 0.0
        out[f"nn.ops.conv.mb_moved_per_{unit}"] = moved / 1e6 / calls \
            if calls else 0.0
    conv_s = sum(run.get(n, zero).incl_s for n in CONV_OPS)
    flop = sum(run.get(n, zero).counts["conv_flop"] for n in CONV_OPS)
    out["nn.ops.conv.gflops_per_s"] = flop / 1e9 / conv_s if conv_s else 0.0
    return out


def run_workload(name, seed, seconds, trace, work):
    import workloads  # imports psimlab, so only after main() set it up

    workload = workloads.WORKLOADS[name]()
    untraced = workloads.Tally()
    if not trace:
        setup_times = []
        for i in range(SETUP_REPEATS):
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
            (work / f"setup{i}").mkdir()
            start = time.perf_counter()
            workload.setup(work / f"setup{i}", seed)
            setup_times.append(time.perf_counter() - start)
        workload.analyse()
        warm_up(workload, workloads.Tally)
        measure(workload, seconds, [(untraced, contextlib.nullcontext)])
        workload.finish(untraced)
        return workload, untraced, end_to_end(setup_times, untraced)

    recorder = tracer.Tracer()
    (work / "setup0").mkdir()
    with recorder.installed():
        workload.setup(work / "setup0", seed)
    workload.analyse()
    warm_up(workload, workloads.Tally)
    recorder.phase = "pass"
    traced = workloads.Tally()

    @contextlib.contextmanager
    def tracing():
        # output checks inside a pass call psimlab too; keep them out
        workload.untraced = recorder.paused
        try:
            with recorder.installed():
                yield
        finally:
            workload.untraced = contextlib.nullcontext

    measure(workload, seconds, [(untraced, contextlib.nullcontext),
                                (traced, tracing)])
    workload.finish(traced)
    layers = per_layer(workload, recorder.spans, untraced, traced)
    write_spans(recorder.spans, name, seed)
    tally = workloads.Tally(attempted=untraced.attempted + traced.attempted,
                            failed=untraced.failed + traced.failed,
                            passes=untraced.passes + traced.passes,
                            samples=untraced.samples)
    return workload, tally, layers


def write_spans(spans, name, seed):
    """Spans kept in memory during the run, written once at the end."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "item": s.item, "phase": s.phase,
                                 "counts": s.counts}) + "\n")
    print(f"spans: {path.relative_to(ROOT)} ({len(spans)} spans)")


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def report(name, seed, trace, workload, tally, values, env):
    units = declared(trace)
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    print("environment " + json.dumps(env, sort_keys=True))
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print("seconds per image, by pass or image: " + " ".join(
        f"{s / n:.4g}" for s, n in tally.samples))
    print(f"{name} seed={seed} trace={trace}: {tally.passes} passes, "
          f"{tally.attempted} operations, {tally.failed} failed, "
          f"error_rate {error_rate:g}, "
          f"grad_check max rel err {workload.grad_error:.2e}")
    extra = {k: v for k, v in workload.accuracy.items() if k not in values}
    if extra:
        print("accuracy " + json.dumps(extra, sort_keys=True))
    for key in sorted(values):
        print(f"  {key:48s} {values[key]:>14.6g} {units[key]}")
    correct = bool(tally.failed == 0 and tally.attempted > 0
                   and workload.grad_error < GRAD_CHECK_LIMIT)
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                          for k in values}}
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, so each has its own peak RSS."""
    correct, attempted, failed, merged = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            merged[f"{name}.{key}"] = value
    print(f"all workloads: {attempted} operations, {failed} failed, "
          f"error_rate {failed / attempted:g}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    limit_blas_threads()
    os.environ.setdefault("PSIM_LOG", "warning")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import psimlab
    except ImportError as exc:
        print(f"cannot import psimlab from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(psimlab.__file__).resolve().parent != ROOT / "src" / "psimlab":
        print(f"psimlab was imported from {psimlab.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2

    env = environment(args.seed)
    scratch = ROOT / ".perfbench_tmp"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload, tally, values = run_workload(
            args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    report(args.workload, args.seed, args.trace, workload, tally, values, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
