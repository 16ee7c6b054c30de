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
from .params import ParamSet


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
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    mhat = m / (1.0 - state.beta1 ** t)
    vhat = v / (1.0 - state.beta2 ** t)
    step = state.lr * mhat / (np.sqrt(vhat) + state.eps_hat)
    new_state = AdamState(m, v, t, state.lr, state.beta1, state.beta2, state.eps_hat)
    return ParamSet(params.layout, params.values - step), new_state


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """Plain gradient step, used to cross-check the meta-update algebra."""
    if params.layout != grads.layout:
        raise ConfigError("params and grads have different layouts")
    return ParamSet(params.layout, params.values - lr * grads.values)
