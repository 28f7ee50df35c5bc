"""Toy-scale conditional-GAN networks built on the nn engine.

The generator is a U-Net: stride-2 conv encoder, stride-2 transposed-conv
decoder, skip concatenation at every level (including the input at full
resolution), final 3x3 conv + tanh.  The discriminator is a patch critic:
the (input, candidate) pair is channel-concatenated, passed through three
stride-2 conv blocks and a final conv that emits a grid of logits.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import (Conv2d, ConvTranspose2d, InstanceNorm, LeakyReLU,
                         ReLU, Sequential, Tanh)


def _tag_names(block: Sequential, tag: str):
    """Prefix layer names with the block position.

    Checkpoint entries and Adam moment buffers are keyed by parameter name,
    so names must be unique across the whole network even when two blocks
    happen to share a shape signature.
    """
    for layer in block.layers:
        layer.name = f"{tag}.{layer.name}"


class UNetGenerator(Sequential):
    def __init__(self, depth=4, base=16, rng=None):
        rng = rng or np.random.default_rng(0)
        self.depth = depth

        down_out = [min(base * 2 ** k, base * 8) for k in range(depth)]
        act_ch = [1] + down_out  # channels of acts[0..depth]
        self.up_out = [base if k == 0 else down_out[k - 1]
                       for k in range(depth)]

        self.downs = []
        for k in range(depth):
            block = [Conv2d(act_ch[k], down_out[k], 4, stride=2, padding=1,
                            rng=rng, bias=(k == 0))]
            if k > 0:
                block.append(InstanceNorm(down_out[k]))
            block.append(LeakyReLU(0.2))
            seq = Sequential(*block)
            _tag_names(seq, f"down{k}")
            self.downs.append(seq)

        self.ups = []
        for k in range(depth):
            if k == depth - 1:
                up_in = down_out[depth - 1]
            else:
                up_in = self.up_out[k + 1] + act_ch[k + 1]
            seq = Sequential(
                ConvTranspose2d(up_in, self.up_out[k], 4, stride=2, padding=1,
                                rng=rng, bias=False),
                InstanceNorm(self.up_out[k]),
                ReLU())
            _tag_names(seq, f"up{k}")
            self.ups.append(seq)

        head_in = self.up_out[0] + act_ch[0]
        self.head = Sequential(
            Conv2d(head_in, 1, 3, stride=1, padding=1, rng=rng),
            Tanh())
        _tag_names(self.head, "g_head")
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
        g = self.head.backward(grad_y)
        skip_grads = {}
        for k in range(self.depth):
            skip_grads[k] = g[:, self.up_out[k]:]
            g = self.ups[k].backward(g[:, :self.up_out[k]])
        for k in range(self.depth - 1, -1, -1):
            g = self.downs[k].backward(g, inputs=inputs or k > 0)
            if g is None:  # the input's own gradient, not asked for
                return None
            g += skip_grads[k]
        return g


class PatchDiscriminator(Sequential):
    def __init__(self, blocks=3, base=16, rng=None):
        rng = rng or np.random.default_rng(0)
        layers = []
        ch = 2  # the (condition, candidate) pair
        for k in range(blocks):
            out = min(base * 2 ** k, base * 8)
            layers.append(Conv2d(ch, out, 4, stride=2, padding=1, rng=rng,
                                 bias=(k == 0)))
            if k > 0:
                layers.append(InstanceNorm(out))
            layers.append(LeakyReLU(0.2))
            ch = out
        layers.append(Conv2d(ch, 1, 3, stride=1, padding=1, rng=rng))
        super().__init__(*layers)
        _tag_names(self, "d")

    def forward(self, condition, candidate):
        """Patch logits for a (condition, candidate) image pair."""
        if condition.shape != candidate.shape:
            raise ValueError("condition and candidate must share shape")
        x = np.concatenate([condition, candidate], axis=1)
        return super().forward(x)

    def backward(self, grad_logits, params=True, inputs=True):
        """Returns (grad wrt condition, grad wrt candidate), or None when
        ``inputs`` is False."""
        g = super().backward(grad_logits, params, inputs)
        if g is None:
            return None
        half = g.shape[1] // 2
        return g[:, :half], g[:, half:]
