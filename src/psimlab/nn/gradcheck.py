"""Central-finite-difference validation of analytic gradients."""

from __future__ import annotations

import numpy as np

STEP = 1e-6


def grad_check(model, x, loss_fn):
    """Max relative error between analytic and numeric parameter gradients.

    ``loss_fn(y)`` must return (scalar loss, grad of loss w.r.t. y).  The
    relative error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8),
    maximized over every parameter element.
    """
    y = model.forward(x)
    _, grad_y = loss_fn(y)
    model.backward(grad_y)
    analytic = {name: g.copy() for name, g in model.gradients()}

    worst = 0.0
    for name, p in model.parameters():
        flat = p.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            lp, _ = loss_fn(model.forward(x))
            flat[i] = orig - STEP
            lm, _ = loss_fn(model.forward(x))
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * STEP)
            denom = max(abs(ana[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(ana[i] - numeric) / denom)
    return worst


def l2_loss(target):
    def fn(y):
        diff = y - target
        return 0.5 * float(np.sum(diff * diff)), diff
    return fn

