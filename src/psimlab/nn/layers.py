"""Stateful layer objects wrapping the functional ops.

Each layer caches what its backward pass needs and no more: a conv its
input, padded once in the forward for both passes; an activation the 1-byte
mask of where its input is positive; tanh and sigmoid their output.  A cache
lives from a forward until its backward, which drops it, so every backward
needs a forward of its own before it.
``parameters()`` / ``gradients()`` expose (name, array) pairs in
declaration order, which is also the checkpoint serialization order.  A
backward writes its parameter gradients over the previous ones, in the same
arrays; a caller that sums several passes adds them up itself.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .ops import check_finite

WEIGHT_INIT_SIGMA = 0.02


class Layer:
    name = "layer"
    # attribute names of the parameters; the gradient of each is "g" + name
    params = ()

    def parameters(self):
        return [(f"{self.name}.{p}", getattr(self, p)) for p in self.params]

    def gradients(self):
        return [(f"{self.name}.{p}", getattr(self, "g" + p))
                for p in self.params]

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad_y, params=True, inputs=True):
        """The gradient in the input, after writing the parameter gradients
        into ``gradients()``.  ``params=False`` leaves those alone and
        ``inputs=False`` lets a layer skip the input gradient and return
        None; a layer without parameters ignores both, and a transposed
        conv refuses either."""
        raise NotImplementedError

    def _release(self, cache):
        """The forward's cache ``cache``, which the layer no longer holds."""
        try:
            return self.__dict__.pop(cache)
        except KeyError:
            raise RuntimeError(f"{self.name}: backward without a forward "
                               "since the last backward") from None


class _Conv(Layer):
    """Parameters and naming shared by ``Conv2d`` and ``ConvTranspose2d``.
    Both look their kernels up in ``ops`` at call time, so wrappers
    installed there see every call."""

    transposed = False
    params = ("w", "b")

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0, *, rng,
                 bias=True):
        self.stride = stride
        self.padding = padding
        layout = (in_ch, out_ch) if self.transposed else (out_ch, in_ch)
        self.w = rng.normal(0.0, WEIGHT_INIT_SIGMA, layout + (kernel, kernel))
        # np.zeros writes no page, so a network that only infers keeps
        # these out of memory
        self.gw = np.zeros(self.w.shape)
        # bias=False for convs feeding a normalization layer, where a bias
        # would be cancelled exactly and its gradient structurally zero:
        # the ops then neither add one nor form its gradient
        self.b = self.gb = None
        if bias:
            self.b = np.zeros(out_ch)
            self.gb = np.zeros_like(self.b)
        else:
            self.params = ("w",)
        prefix = "convT" if self.transposed else "conv"
        self.name = f"{prefix}{kernel}x{kernel}s{stride}_{in_ch}to{out_ch}"


class Conv2d(_Conv):
    """Cross-correlation; weight layout (out, in, kh, kw)."""

    def forward(self, x):
        # padded once: the backward reads the same padded input
        self.x = ops._pad(x, self.padding, self.padding)
        y = ops.conv2d_forward(self.x, self.w, self.b, self.stride, 0)
        return check_finite(y, self.name)

    def backward(self, grad_y, params=True, inputs=True):
        # the public backward op returns all three gradients; a partial
        # backward asks conv_grads for the ones it needs
        x, bias = self._release("x"), self.b is not None
        if params and inputs:
            gx, gw, gb = ops.conv2d_backward(x, self.w, grad_y, self.stride,
                                             0, bias)
        else:
            gx, gw, gb = ops.conv_grads(x, self.w, grad_y, self.stride, 0,
                                        params, inputs, bias)
        if params:
            self.gw[...] = gw
            if bias:
                self.gb[...] = gb
        return None if gx is None else ops._crop(gx, self.padding)


class ConvTranspose2d(_Conv):
    """Adjoint of ``Conv2d``; weight layout (in, out, kh, kw)."""

    transposed = True

    def forward(self, x):
        self.x = x
        y = ops.conv_transpose2d_forward(x, self.w, self.b, self.stride,
                                         self.padding)
        return check_finite(y, self.name)

    def backward(self, grad_y, params=True, inputs=True):
        if not (params and inputs):
            raise ValueError(f"{self.name} has only the full backward")
        bias = self.b is not None
        gx, gw, gb = ops.conv_transpose2d_backward(
            self._release("x"), self.w, grad_y, self.stride, self.padding,
            bias)
        self.gw[...] = gw
        if bias:
            self.gb[...] = gb
        return gx


class InstanceNorm(Layer):
    params = ("gamma", "beta")

    def __init__(self, channels):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)
        self.name = f"inorm_{channels}"

    def forward(self, x):
        y, self.cache = ops.instance_norm_forward(x, self.gamma, self.beta)
        return check_finite(y, self.name)

    def backward(self, grad_y, params=True, inputs=True):
        gx, ggamma, gbeta = ops.instance_norm_backward(
            grad_y, self._release("cache"))
        if params:
            self.ggamma[...] = ggamma
            self.gbeta[...] = gbeta
        return gx


class LeakyReLU(Layer):
    name = "leaky_relu"

    def __init__(self, alpha=0.2):
        self.alpha = alpha

    def forward(self, x):
        self.positive = x >= 0
        return ops.leaky_relu_forward(x, self.alpha)

    def backward(self, grad_y, params=True, inputs=True):
        return ops.leaky_relu_backward(self._release("positive"), grad_y,
                                       self.alpha)


class ReLU(Layer):
    name = "relu"

    def forward(self, x):
        self.positive = x > 0
        return ops.relu_forward(x)

    def backward(self, grad_y, params=True, inputs=True):
        return ops.relu_backward(self._release("positive"), grad_y)


class Tanh(Layer):
    name = "tanh"

    def forward(self, x):
        self.y = ops.tanh_forward(x)
        return self.y

    def backward(self, grad_y, params=True, inputs=True):
        return ops.tanh_backward(self._release("y"), grad_y)


class Sigmoid(Layer):
    name = "sigmoid"

    def forward(self, x):
        self.y = ops.sigmoid_forward(x)
        return check_finite(self.y, self.name)

    def backward(self, grad_y, params=True, inputs=True):
        return ops.sigmoid_backward(self._release("y"), grad_y)


class Sequential(Layer):
    name = "sequential"

    def __init__(self, *layers):
        self.layers = list(layers)

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self):
        return [g for layer in self.layers for g in layer.gradients()]

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_y, params=True, inputs=True):
        # only the first layer's input gradient is the block's own
        for k in range(len(self.layers) - 1, -1, -1):
            grad_y = self.layers[k].backward(grad_y, params, inputs or k > 0)
        return grad_y
