"""Adam and plain SGD steps over flat parameter vectors.

Update rule (bias-corrected moments, b1 = BETA1, b2 = BETA2, eps = EPS):

    m_t = b1*m + (1-b1)*g        mhat = m_t / (1 - b1^t)
    v_t = b2*v + (1-b2)*g^2      vhat = v_t / (1 - b2^t)
    p  -= lr * mhat / (sqrt(vhat) + eps)

``adam_step`` updates the parameters and its state in place: its one caller,
``training.inner_solve``, owns both the model copy it steps and the
``AdamState``, and writing into them keeps a new set of three vectors of the
model's size (2.03M entries at the default arch) from being live beside the
old ones at every inner step. ``sgd_step`` stays functional; it allocates one
vector either way. Freezing happens upstream, in ``network.backward_batch``:
a zero gradient keeps an entry's moments at zero, so its step is exactly
+0.0 and its value stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .params import CACHE_BLOCK, ParamSet


# Adam's usual moment decay rates and denominator floor.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-4

    @classmethod
    def fresh(cls, size: int, lr: float = 1e-4) -> "AdamState":
        # lr 0 is allowed: a zero-rate solve is a useful identity check.
        if lr < 0.0:
            raise ConfigError("Adam lr must be nonnegative")
        return cls(np.zeros(size), np.zeros(size), 0, lr)


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState) -> ParamSet:
    """One Adam update, in place: ``state.m``, ``state.v``, ``state.t`` and
    ``params.values`` hold the new values afterwards, and ``grads`` is only
    read. Returns ``params``. The caller must own ``params``: a vector
    shared with another model is changed for it too. The only allocation is
    one scratch array of two cache blocks."""
    if params.layout != grads.layout:
        raise ConfigError("params and grads have different layouts")
    if state.m.shape != params.values.shape:
        raise ConfigError("optimizer state size does not match parameters")
    g, m, v, p = grads.values, state.m, state.v, params.values
    state.t += 1
    c1, c2 = 1.0 - BETA1 ** state.t, 1.0 - BETA2 ** state.t
    scratch = np.empty((2, min(g.size, CACHE_BLOCK)))
    # The update rule above, operation for operation and in numpy's
    # evaluation order, block by block in place and through two scratch
    # rows instead of a whole-vector temporary per operation:
    #   m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,
    #   p - (lr * (m / c1)) / (sqrt(v / c2) + eps)
    for lo in range(0, g.size, CACHE_BLOCK):
        hi = lo + CACHE_BLOCK
        gb, mb, vb, pb = g[lo:hi], m[lo:hi], v[lo:hi], p[lo:hi]
        s, step = scratch[0, : gb.size], scratch[1, : gb.size]
        np.multiply(gb, 1.0 - BETA1, out=s)
        mb *= BETA1
        mb += s
        np.multiply(gb, 1.0 - BETA2, out=s)
        s *= gb
        vb *= BETA2
        vb += s
        np.divide(mb, c1, out=step)
        step *= state.lr
        np.divide(vb, c2, out=s)
        np.sqrt(s, out=s)
        s += EPS
        step /= s
        pb -= step
    return params


def sgd_step(params: ParamSet, grads: ParamSet, lr: float) -> ParamSet:
    """Plain gradient step, used to cross-check the meta-update algebra."""
    if params.layout != grads.layout:
        raise ConfigError("params and grads have different layouts")
    return ParamSet(params.layout, params.values - lr * grads.values)
