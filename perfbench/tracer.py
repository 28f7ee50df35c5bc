"""Span tracing of psimlab from outside the package.

Each wrapper is installed on the attribute where its caller looks the
function up at call time (``psimlab.cli`` binds many functions by name, the
layer classes reach their kernels through ``psimlab.nn.ops``), and is removed
again on exit, so untraced runs execute the unmodified program.

A span records its name, start, end, parent span, the item it belongs to
(one image or one train step), the phase (``setup`` or ``pass``) and
optional counters computed from the call's arguments.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from typing import NamedTuple

F8 = 8  # bytes per float64 element


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    phase: str
    counts: dict | None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item: str | None = None
        self.phase = "setup"
        self.recording = True
        self._open: list = []
        self._patches: list = []

    def wrap(self, fn, name, on_enter=None, counts=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of the call's positional
        arguments; ``on_enter(args)`` may set the current item;
        ``counts(args, result)`` returns a dict of counters for the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            label = name(args) if callable(name) else name
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            tracer.spans.append(None)
            tracer._open.append(index)
            result = _FAILED
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                extra = None
                if counts is not None and result is not _FAILED:
                    extra = counts(args, result)
                tracer.spans[index] = Span(label, start, end, parent,
                                           tracer.item, tracer.phase, extra)

        return traced

    def patch(self, owner, attr, name=None, on_enter=None, counts=None):
        original = getattr(owner, attr)
        if name is None:
            name = original.__module__.removeprefix("psimlab.") + "." + attr
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_enter, counts))

    @contextlib.contextmanager
    def paused(self):
        """Call through the wrappers without recording, e.g. for checks."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    @contextlib.contextmanager
    def installed(self):
        """Wrap psimlab's public functions for the duration of the block."""
        _install(self)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()


_FAILED = object()


def _path_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _conv_counts(transposed, backward):
    """FLOPs and compulsory float64 traffic of one conv call, from shapes."""

    def counts(args, result):
        x, w = args[0], args[1]
        kh, kw = w.shape[2], w.shape[3]
        if transposed:  # every input pixel scatters into out_c * kh * kw
            macs = x.size * w.shape[1] * kh * kw
        else:  # every output pixel gathers in_c * kh * kw
            y = args[2] if backward else result
            macs = y.size * w.shape[1] * kh * kw
        if backward:  # data gradient and weight gradient, one pass each
            gx, gw, _ = result
            moved = x.size + w.size + args[2].size + gx.size + gw.size
            return {"conv_flop": 4 * macs, "conv_bytes": moved * F8}
        moved = x.size + w.size + result.size
        return {"conv_flop": 2 * macs, "conv_bytes": moved * F8}

    return counts


def _install(tracer: Tracer):
    mod = importlib.import_module
    cli = mod("psimlab.cli")
    io = mod("psimlab.io")
    gan_train = mod("psimlab.gan.train")
    ops = mod("psimlab.nn.ops")
    layers = mod("psimlab.nn.layers")

    def item_from_path(args):
        tracer.item = os.path.basename(os.path.dirname(str(args[0])))

    def item_from_step(args):
        tracer.item = f"step{args[0].step}"

    def file_size(key, suffix=""):
        return lambda args, result: {key: _path_size(str(args[0]) + suffix)}

    for attr in ("cmd_simulate", "cmd_reconstruct", "cmd_train", "cmd_infer",
                 "cmd_eval", "reconstruct_stack", "ssim", "masked_mean_ssim",
                 "align_global_offset", "rms_error", "foreground_mask",
                 "infer_phase", "train", "load_gan", "save_gan", "init_gan",
                 "build_pairs", "split_dataset", "synth_dataset"):
        tracer.patch(cli, attr)

    tracer.patch(io, "read_pfm", on_enter=item_from_path,
                 counts=file_size("io_read"))
    tracer.patch(io, "read_sidecar", on_enter=item_from_path,
                 counts=file_size("io_read", ".json"))
    tracer.patch(io, "write_pfm", on_enter=item_from_path,
                 counts=file_size("io_written"))
    tracer.patch(io, "write_sidecar", on_enter=item_from_path,
                 counts=file_size("io_written", ".json"))

    for attr in ("five_step_wrapped_phase", "modulation_amplitude",
                 "unwrap_phase", "phase_to_height"):
        tracer.patch(mod("psimlab.reconstruct"), attr)
    tracer.patch(mod("psimlab.metrics"), "ssim")
    tracer.patch(mod("psimlab.simulate"), "synth_dataset")
    tracer.patch(mod("psimlab.gan.data"), "build_pairs")
    tracer.patch(mod("psimlab.nn.gradcheck"), "grad_check")

    tracer.patch(gan_train, "train_step", on_enter=item_from_step)
    for attr in ("adam_step", "generator_apply", "init_gan", "save_gan"):
        tracer.patch(gan_train, attr)
    tracer.patch(gan_train, "load_checkpoint", counts=file_size("ckpt_read"))
    tracer.patch(gan_train, "save_checkpoint",
                 counts=file_size("ckpt_written"))

    tracer.patch(ops, "conv2d_forward", counts=_conv_counts(False, False))
    tracer.patch(ops, "conv2d_backward", counts=_conv_counts(False, True))
    tracer.patch(ops, "conv_transpose2d_forward",
                 counts=_conv_counts(True, False))
    tracer.patch(ops, "conv_transpose2d_backward",
                 counts=_conv_counts(True, True))
    tracer.patch(ops, "instance_norm_forward")
    tracer.patch(ops, "instance_norm_backward")
    tracer.patch(layers, "check_finite")

    # Layer names carry the block tag set by psimlab.gan.models._tag_names
    # ("down0.conv4x4s2_1to16"); untagged layers keep their own name.
    for cls in (layers.Conv2d, layers.ConvTranspose2d, layers.InstanceNorm,
                layers.LeakyReLU, layers.ReLU, layers.Tanh, layers.Sigmoid):
        for attr, suffix in (("forward", "fwd"), ("backward", "bwd")):
            tracer.patch(cls, attr, name=lambda args, s=suffix: (
                "gan.block." + args[0].name.split(".", 1)[0] + "." + s))


class Totals:
    __slots__ = ("calls", "self_s", "incl_s", "counts", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.counts = defaultdict(float)
        self.durations = []


def summarize(spans, phase, item_filter=None):
    """Per-name totals (calls, self and inclusive seconds, counters).

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    totals = defaultdict(Totals)
    for i, span in enumerate(spans):
        if span.phase != phase:
            continue
        if item_filter is not None and not item_filter(span.item):
            continue
        t = totals[span.name]
        duration = span.end - span.start
        t.calls += 1
        t.incl_s += duration
        t.self_s += duration - child[i]
        t.durations.append(duration)
        if span.counts:
            for key, value in span.counts.items():
                t.counts[key] += value
    return totals
