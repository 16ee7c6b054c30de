"""Adam and plain SGD steps over flat parameter vectors.

Update rule (bias-corrected moments):

    m_t = b1*m + (1-b1)*g        mhat = m_t / (1 - b1^t)
    v_t = b2*v + (1-b2)*g^2      vhat = v_t / (1 - b2^t)
    p  -= lr * mhat / (sqrt(vhat) + eps)

Steps are functional: inputs are never mutated. Freezing happens upstream,
in ``network.backward_batch``: a zero gradient keeps an entry's moments at
zero, so its step is exactly +0.0 and its value stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .params import CACHE_BLOCK, ParamSet


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8

    @classmethod
    def fresh(cls, size: int, lr: float = 1e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps_hat: float = 1e-8) -> "AdamState":
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError("Adam betas must lie in [0, 1)")
        # lr 0 is allowed: a zero-rate solve is a useful identity check.
        if lr < 0.0 or eps_hat <= 0.0:
            raise ConfigError("Adam lr must be nonnegative and eps positive")
        return cls(np.zeros(size), np.zeros(size), 0, lr, beta1, beta2, eps_hat)


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState) -> tuple[ParamSet, AdamState]:
    """One Adam update. Returns new (params, state); the inputs are untouched."""
    if params.layout != grads.layout:
        raise ConfigError("params and grads have different layouts")
    if state.m.shape != params.values.shape:
        raise ConfigError("optimizer state size does not match parameters")
    g = grads.values
    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m, v, new = np.empty_like(g), np.empty_like(g), np.empty_like(g)
    scratch = np.empty(min(g.size, CACHE_BLOCK))
    # The update rule above, operation for operation and in numpy's
    # evaluation order, block by block into the three outputs and one
    # scratch block instead of a whole-vector temporary per operation:
    #   m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,
    #   p - (lr * (m / c1)) / (sqrt(v / c2) + eps)
    for lo in range(0, g.size, CACHE_BLOCK):
        hi = lo + CACHE_BLOCK
        gb, mb, vb, pb = g[lo:hi], m[lo:hi], v[lo:hi], new[lo:hi]
        s = scratch[: gb.size]
        np.multiply(gb, 1.0 - b1, out=s)
        np.multiply(state.m[lo:hi], b1, out=mb)
        mb += s
        np.multiply(gb, 1.0 - b2, out=s)
        s *= gb
        np.multiply(state.v[lo:hi], b2, out=vb)
        vb += s
        np.divide(mb, c1, out=pb)
        pb *= state.lr
        np.divide(vb, c2, out=s)
        np.sqrt(s, out=s)
        s += state.eps_hat
        pb /= s
        np.subtract(params.values[lo:hi], pb, out=pb)
    new_state = AdamState(m, v, t, state.lr, b1, b2, state.eps_hat)
    return ParamSet(params.layout, new), new_state


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """Plain gradient step, used to cross-check the meta-update algebra."""
    if params.layout != grads.layout:
        raise ConfigError("params and grads have different layouts")
    return ParamSet(params.layout, params.values - lr * grads.values)
