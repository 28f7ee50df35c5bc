"""Adam optimizer with bias correction, operating on (name, array) pairs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ops import NumericError

# added to the root of the second moment, so an update never divides by 0
EPS = 1e-8


@dataclass
class AdamState:
    lr: float
    beta1: float
    beta2: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state: AdamState) -> AdamState:
    """One Adam update in place.

    ``params`` and ``grads`` are matching lists of (name, array) pairs.
    Moments always update, even at lr = 0, so the step counter stays honest.
    Each product lands in one scratch buffer, in the order of the textbook
    formula, so the moments and parameters are bitwise its own.  A second
    moment that overflows raises ``NumericError`` before any parameter
    moves: where it is infinite the update would silently be zero.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must pair up")
    state.t += 1
    b1, b2, lr = state.beta1, state.beta2, state.lr
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    scratch = np.empty(max((p.size for _, p in params), default=0))
    # every moment first, so an overflow raises before any parameter moves
    with np.errstate(over="ignore"):
        for (name, p), (_, g) in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.shape} vs {g.shape}")
            if name not in state.m:
                state.m[name] = np.zeros_like(p)
                state.v[name] = np.zeros_like(p)
            m, v = state.m[name], state.v[name]
            t = scratch[:p.size].reshape(p.shape)
            m *= b1
            np.multiply(g, 1.0 - b1, out=t)
            m += t
            v *= b2
            np.multiply(g, 1.0 - b2, out=t)
            t *= g
            v += t
            if not np.isfinite(v.max()):
                raise NumericError(f"Adam second moment of {name} is not "
                                   f"finite at step {state.t}")
    if lr == 0.0:
        return state
    for name, p in params:
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
        t = scratch[:p.size].reshape(p.shape)
        np.divide(state.v[name], bc2, out=t)
        np.sqrt(t, out=t)
        t += EPS
        u = state.m[name] / bc1
        u *= lr
        u /= t
        p -= u
    return state
