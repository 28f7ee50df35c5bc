"""Conditional-GAN training loop, losses, and single-shot inference."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Annotated, Literal

import numpy as np

from ..config import Range, check_fields
from ..image import Image, PhaseMap
from ..nn.adam import AdamState, adam_step
from ..nn.checkpoint import (CheckpointError, load_checkpoint,
                             save_checkpoint)
from ..nn.ops import NumericError, sigmoid_forward
from .data import NormInfo, denormalize, normalize
from .models import PatchDiscriminator, UNetGenerator


@dataclass
class GanSpec:
    mode: Literal["phase", "frames"] = "phase"
    depth: Annotated[int, Range(ge=1)] = 4
    base: Annotated[int, Range(ge=1)] = 16
    # the U-Net always has its skips; the key stays so that old configs
    # and checkpoints still read
    skips: Literal[True] = True
    disc_blocks: Annotated[int, Range(ge=1)] = 3
    disc_base: Annotated[int, Range(ge=1)] = 16
    lambda_l1: Annotated[float, Range(ge=0)] = 100.0
    image_side: Annotated[int, Range(ge=1)] = 64
    lr: Annotated[float, Range(ge=0)] = 2e-4
    # at beta = 1 Adam's bias correction 1 - beta**t is zero
    beta1: Annotated[float, Range(ge=0, lt=1)] = 0.5
    beta2: Annotated[float, Range(ge=0, lt=1)] = 0.999

    def __post_init__(self):
        check_fields(self)
        # shifts, not 2 ** depth, which grows with a huge depth.  Every
        # block but each network's first is normalized, and the deepest of
        # n blocks is side >> n wide: an instance norm needs two pixels
        side = self.image_side
        if side >> self.depth << self.depth != side:
            raise ValueError("image side must be divisible by 2^depth")
        for key, n in (("depth", self.depth),
                       ("disc_blocks", self.disc_blocks)):
            if n >= 2 and side >> n < 2:
                raise ValueError(f"image side {side} is too small for {key} "
                                 f"{n}: an instance norm would be 1x1")


@dataclass
class GanMeta:
    """The ``meta`` of a GAN checkpoint."""

    spec: GanSpec
    step: Annotated[int, Range(ge=0)]
    seed: Annotated[int, Range(ge=0)]
    norm_info: NormInfo
    g_opt_t: Annotated[int, Range(ge=0)]
    d_opt_t: Annotated[int, Range(ge=0)]

    __post_init__ = check_fields


@dataclass
class GanState:
    """A GAN and its training state; a state loaded for inference alone
    holds no discriminator and no optimizers."""

    spec: GanSpec
    generator: UNetGenerator
    discriminator: PatchDiscriminator | None
    g_opt: AdamState | None
    d_opt: AdamState | None
    step: int = 0
    seed: int = 0
    norm_info: NormInfo = field(default_factory=NormInfo)
    history: list = field(default_factory=list)  # (L_D, L_G_adv, L_G_l1)


def init_gan(spec: GanSpec, seed: int = 0, norm_info=None) -> GanState:
    rng = np.random.default_rng(seed)
    gen = UNetGenerator(depth=spec.depth, base=spec.base, rng=rng)
    disc = PatchDiscriminator(blocks=spec.disc_blocks, base=spec.disc_base,
                              rng=rng)
    return GanState(spec, gen, disc,
                    AdamState(lr=spec.lr, beta1=spec.beta1, beta2=spec.beta2),
                    AdamState(lr=spec.lr, beta1=spec.beta1, beta2=spec.beta2),
                    step=0, seed=seed, norm_info=norm_info or {})


def bce_with_logits(logits, target):
    """Numerically stable mean BCE on logits; returns (loss, grad)."""
    z = logits
    loss = np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    grad = (sigmoid_forward(z) - target) / n
    return float(loss.mean()), grad


def discriminator_loss(logits, real):
    """The real-pair (``real``) or generated-pair term of
    L_D = [BCE(D(x, y), 1) + BCE(D(x, G(x)), 0)] / 2, and its gradient in
    ``logits``."""
    loss, grad = bce_with_logits(logits, 1.0 if real else 0.0)
    return 0.5 * loss, 0.5 * grad


def generator_loss(logits, g_out, target, lambda_l1):
    """L_G = BCE(D(x, G(x)), 1) + lambda_l1 * mean|G(x) - y|.

    Returns (adversarial term, L1 term, gradient in ``logits``, gradient
    of the L1 term in ``g_out``).
    """
    adv, grad_logits = bce_with_logits(logits, 1.0)
    diff = g_out - target
    l1 = lambda_l1 * float(np.mean(np.abs(diff)))
    return adv, l1, grad_logits, lambda_l1 * np.sign(diff) / g_out.size


def _as_batch(pairs):
    x = np.stack([p.input for p in pairs])[:, None, :, :]
    y = np.stack([p.target for p in pairs])[:, None, :, :]
    return x, y


def train_step(state: GanState, batch) -> GanState:
    """One discriminator update then one generator update, in place."""
    if not batch:
        raise ValueError("empty batch")
    x, target = _as_batch(batch)
    gen, disc = state.generator, state.discriminator

    # discriminator step, generator frozen.  The discriminator reads each
    # (x, candidate) pair as one two-channel array; each is backpropagated
    # before the next forward replaces the discriminator's layer caches,
    # and no gradient in the pair itself is formed.  A backward overwrites
    # the gradients, so the real pair's are kept and added to the fake's
    fake = gen.forward(x)
    l_real, grad = discriminator_loss(
        disc.forward(np.concatenate([x, target], axis=1)), True)
    disc.backward(grad, inputs=False)
    real_grads = [g.copy() for _, g in disc.gradients()]
    pair = np.concatenate([x, fake], axis=1)
    l_fake, grad = discriminator_loss(disc.forward(pair), False)
    disc.backward(grad, inputs=False)
    for (_, g), g_real in zip(disc.gradients(), real_grads):
        g += g_real
    del real_grads  # not held through the generator's larger backward
    l_d = l_real + l_fake
    if not np.isfinite(l_d):
        raise NumericError(f"discriminator loss is not finite at step {state.step}")
    adam_step(disc.parameters(), disc.gradients(), state.d_opt)

    # generator step, discriminator frozen: its backward forms input
    # gradients only.  Only the discriminator changed since ``fake`` was
    # computed, so the generator's caches still hold; the gradient in x,
    # channel 0 of the pair, is never read
    l_g_adv, l1, grad_logits, grad_l1 = generator_loss(
        disc.forward(pair), fake, target, state.spec.lambda_l1)
    del pair  # not held through the generator's backward
    grad_fake_img = disc.backward(grad_logits, params=False)[:, 1:]
    if not np.isfinite(l_g_adv) or not np.isfinite(l1):
        raise NumericError(f"generator loss is not finite at step {state.step}")
    gen.backward(grad_fake_img + grad_l1, inputs=False)
    adam_step(gen.parameters(), gen.gradients(), state.g_opt)

    state.step += 1
    state.history.append((l_d, l_g_adv, l1))
    return state


def train(state: GanState, pairs, steps, batch_size=1):
    """Run ``steps`` updates cycling pairs in a seeded shuffled order.

    Sample order is a pure function of (state.seed, global step), so a run
    resumed from a checkpoint continues exactly where an uninterrupted run
    would be.
    """
    n = len(pairs)
    orders = {}
    for _ in range(steps):
        pos = state.step * batch_size
        batch = []
        for i in range(pos, pos + batch_size):
            epoch, off = divmod(i, n)
            if epoch not in orders:
                orders = {epoch: np.random.default_rng(
                    (state.seed, epoch)).permutation(n)}
            batch.append(pairs[orders[epoch][off]])
        train_step(state, batch)
    return state


def generator_apply(state: GanState, normalized: np.ndarray) -> np.ndarray:
    """Run the generator on one normalized 2D grid."""
    out = state.generator.forward(normalized[None, None, :, :])
    return out[0, 0]


def _recorded(state: GanState, key):
    """The training set's range ``key`` from ``state.norm_info``."""
    if key not in state.norm_info:
        raise ValueError(f"state carries no recorded {key}")
    return state.norm_info[key]


def chain_infer_frames(state: GanState, i1: Image):
    """Approach 1 inference: predict frames 2..5 by chaining the generator,
    each hop through the module's ``generator_apply``.  Returns the four
    predicted frames as Images.
    """
    if state.spec.mode != "frames":
        raise ValueError("chain inference requires a frames-mode model")
    lo, hi = _recorded(state, "intensity_range")

    current = normalize(i1.data, lo, hi)
    frames = []
    for _ in range(4):
        current = generator_apply(state, current)
        frames.append(Image(denormalize(current, lo, hi)))
    return frames


def infer_phase(state: GanState, i1: Image) -> PhaseMap:
    """Approach 2 inference: single interferogram straight to unwrapped phase."""
    if state.spec.mode != "phase":
        raise ValueError("direct phase inference requires a phase-mode model")
    lo, hi = _recorded(state, "intensity_range")
    phase_range = _recorded(state, "phase_range")
    out = generator_apply(state, normalize(i1.data, lo, hi))
    return PhaseMap(denormalize(out, *phase_range), wrapped=False)


def _layout(gen, disc, moment):
    """Every parameter, then every Adam moment, in checkpoint order, as
    (name, value).  ``gen`` and ``disc`` list each network's (name, value)
    pairs, and ``moment(net, key, name, value)`` gives the value of the
    moment ``key`` ("m" or "v") of parameter ``name`` of ``net`` ("g" or
    "d")."""
    entries = gen + disc
    for net, params in (("g", gen), ("d", disc)):
        for key in ("m", "v"):
            entries += [(f"opt.{net}.{key}.{name}",
                         moment(net, key, name, value))
                        for name, value in params]
    return entries


def _entries(state: GanState):
    """Every parameter and Adam moment of ``state``, in checkpoint order.  A
    moment not made yet is made as zeros, as ``adam_step`` makes it."""
    opts = {"g": state.g_opt, "d": state.d_opt}

    def moment(net, key, name, p):
        return getattr(opts[net], key).setdefault(name, np.zeros_like(p))

    return _layout(state.generator.parameters(),
                   state.discriminator.parameters(), moment)


class _NoDraws:
    """An ``rng`` that draws nothing: each weight it gives is left unset,
    for a network whose weights a checkpoint fills."""

    @staticmethod
    def normal(loc, scale, size):
        return np.empty(size)


def save_gan(path, state: GanState):
    meta = GanMeta(state.spec, state.step, state.seed, state.norm_info,
                   state.g_opt.t, state.d_opt.t)
    save_checkpoint(path, _entries(state), asdict(meta))


def load_gan(path, generator_only=False) -> GanState:
    """Restore a state written by ``save_gan``.

    Both networks are built unset and the read fills them, so no weight is
    drawn.  With ``generator_only`` the state holds what inference runs:
    the generator, and no discriminator, optimizers or moments (``None``).
    The other entries are still hashed and checked for their shape and
    finiteness, so both loads reject the same checkpoints.  A checkpoint
    that passes its integrity checks but whose meta does not fit
    ``GanMeta`` or whose ``norm_info`` mode is not the spec's, or whose
    parameters or moments are missing, not finite or shaped for another
    architecture, raises ``CheckpointError``.
    """
    state = None

    def plan(meta):
        nonlocal state
        try:
            meta = GanMeta(**meta)
            spec = meta.spec
            if meta.norm_info.get("mode", spec.mode) != spec.mode:
                raise ValueError("norm_info mode differs from the spec's")
            gen = UNetGenerator(spec.depth, spec.base, rng=_NoDraws())
            disc = PatchDiscriminator(blocks=spec.disc_blocks,
                                      base=spec.disc_base, rng=_NoDraws())
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: not a checkpoint of this GAN: {exc!r}") from None
        if generator_only:
            state = GanState(spec, gen, None, None, None, step=meta.step,
                             seed=meta.seed, norm_info=meta.norm_info)
            # a generator parameter is read into place, and every other
            # entry is checked against its parameter's shape and dropped
            shapes = [[(name, p.shape) for name, p in net.parameters()]
                      for net in (gen, disc)]
            layout = _layout(*shapes, lambda net, key, name, shape: shape)
            return dict(layout) | dict(gen.parameters())
        state = GanState(
            spec, gen, disc,
            AdamState(spec.lr, spec.beta1, spec.beta2, t=meta.g_opt_t),
            AdamState(spec.lr, spec.beta1, spec.beta2, t=meta.d_opt_t),
            step=meta.step, seed=meta.seed, norm_info=meta.norm_info)
        return dict(_entries(state))

    load_checkpoint(path, plan)
    return state
