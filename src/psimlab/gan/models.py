"""Toy-scale conditional-GAN networks built on the nn engine.

The generator is a U-Net: stride-2 conv encoder, stride-2 transposed-conv
decoder, skip concatenation at every level (including the input at full
resolution), final 3x3 conv + tanh.  The discriminator is a patch critic:
it reads the (input, candidate) pair as one two-channel array, which the
training step concatenates, and passes it through stride-2 conv blocks and
a final conv that emits a grid of logits.  One ``_block`` builds every
stride-2 block of both networks.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import (Conv2d, ConvTranspose2d, InstanceNorm, LeakyReLU,
                         ReLU, Sequential, Tanh)


def _tag_names(block: Sequential, tag: str):
    """Prefix layer names with the block position, and return the block.

    Checkpoint entries and Adam moment buffers are keyed by parameter name,
    so names must be unique across the whole network even when two blocks
    happen to share a shape signature.
    """
    for layer in block.layers:
        layer.name = f"{tag}.{layer.name}"
    return block


def _widths(base, n):
    """Output channels of ``n`` stride-2 blocks: doubling from ``base``,
    capped at ``base * 8``."""
    return [min(base * 2 ** k, base * 8) for k in range(n)]


def _block(conv, ch_in, ch_out, norm, act, rng):
    """The layers of a 4x4 stride-2 ``conv``, an ``InstanceNorm`` if
    ``norm``, then ``act``.  A conv that feeds a norm has no bias: the norm
    would cancel it exactly."""
    layers = [conv(ch_in, ch_out, 4, stride=2, padding=1, rng=rng,
                   bias=not norm)]
    if norm:
        layers.append(InstanceNorm(ch_out))
    return layers + [act]


class UNetGenerator(Sequential):
    def __init__(self, depth, base, *, rng):
        self.depth = depth

        down_out = _widths(base, depth)
        act_ch = [1] + down_out  # channels of acts[0..depth]
        self.up_out = [base] + down_out[:-1]
        # the deepest up block reads the bottleneck, every other one the
        # block below it concatenated with the skip
        up_in = [self.up_out[k + 1] + act_ch[k + 1]
                 for k in range(depth - 1)] + [down_out[-1]]

        self.downs = [_tag_names(Sequential(*_block(
            Conv2d, act_ch[k], down_out[k], k > 0, LeakyReLU(0.2), rng)),
            f"down{k}") for k in range(depth)]
        self.ups = [_tag_names(Sequential(*_block(
            ConvTranspose2d, up_in[k], self.up_out[k], True, ReLU(), rng)),
            f"up{k}") for k in range(depth)]
        self.head = _tag_names(Sequential(
            Conv2d(self.up_out[0] + act_ch[0], 1, 3, stride=1, padding=1,
                   rng=rng),
            Tanh()), "g_head")
        # block order is the parameter, checkpoint and Adam-key order
        self.layers = self.downs + self.ups + [self.head]

    def forward(self, x):
        side = x.shape[2]
        if side % (2 ** self.depth) != 0 or x.shape[3] % (2 ** self.depth) != 0:
            raise ValueError(
                f"input sides must be divisible by {2 ** self.depth}")
        acts = [x]
        for down in self.downs:
            acts.append(down.forward(acts[-1]))
        u = acts[self.depth]
        for k in range(self.depth - 1, -1, -1):
            u = self.ups[k].forward(u)
            u = np.concatenate([u, acts[k]], axis=1)
        return self.head.forward(u)

    def backward(self, grad_y, inputs=True):
        # each gradient in a concatenation rides in a one-item list: its
        # skip part is copied out and the up block gets the rest, with no
        # reference left here, so the whole array is freed once the
        # block's first layer has read it
        pending = [self.head.backward(grad_y)]
        skip_grads = {}
        for k in range(self.depth):
            c = self.up_out[k]
            skip_grads[k] = pending[0][:, c:].copy()
            pending.append(self.ups[k].backward(pending.pop()[:, :c]))
        g = pending.pop()
        for k in range(self.depth - 1, -1, -1):
            g = self.downs[k].backward(g, inputs=inputs or k > 0)
            if g is None:  # the input's own gradient, not asked for
                return None
            g += skip_grads[k]
        return g


class PatchDiscriminator(Sequential):
    """Patch logits of the channels of (condition, candidate), concatenated
    in that order."""

    def __init__(self, blocks, base, *, rng):
        widths = _widths(base, blocks)
        layers = []
        for k, (ch_in, ch_out) in enumerate(zip([2] + widths, widths)):
            layers += _block(Conv2d, ch_in, ch_out, k > 0, LeakyReLU(0.2),
                             rng)
        super().__init__(*layers, Conv2d(widths[-1], 1, 3, stride=1,
                                         padding=1, rng=rng))
        _tag_names(self, "d")
