"""Differentiable 1-D kernels: convolution, batch norm, ReLU, pooling.

Everything here is a pure function on float64 numpy arrays. Conv and BN
signals are ``[batch, channels, T]``; gradients are exact reverse-mode and
every kernel is covered by a finite-difference test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, UsageError

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def _as_bct(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ConfigError(f"expected [batch, channels, T], got ndim={x.ndim}")
    return x


def conv_padding(filter_len: int) -> tuple[int, int]:
    """Zero padding for length-preserving convolution.

    The split is asymmetric for even filter lengths: the extra zero goes on
    the left, ceil((f-1)/2) left and floor((f-1)/2) right.
    """
    if filter_len < 1:
        raise ConfigError(f"filter length must be >= 1, got {filter_len}")
    return (filter_len - 1 + 1) // 2, (filter_len - 1) // 2


# Multi-bank convolution. Every bank is centred with conv_padding, so one
# input buffer padded for the widest bank serves them all: bank i reads taps
# [pad_l - l_i, pad_l + r_i] of it, and those ranges nest. Taking the banks
# shortest first, the banks active at a tap are a suffix of that order, which
# is one contiguous block of (sorted) output channels. The buffer is
# time-major, [T + pad_l + pad_r, b, c], so tap s reads xt[s : s + T] without
# a copy, and a layer is a sum of one GEMM per tap group. The backward pass
# runs the same sum backwards, the padded upstream read at flipped taps,
# and takes both gradients from each upstream block.

# Neighbouring taps with the same active banks are stacked along K (one copy
# of their input columns) while taps * in_cols <= _STACK_RATIO * out_cols;
# beyond that, a separate GEMM per tap and a read-modify-write of its output
# columns is cheaper than the copy. So a 165-channel layer runs its outer
# taps one by one forward and stacks its 33-channel bank rings backward,
# while the 1-channel first layer stacks whole rings forward and runs tap by
# tap backward.
_STACK_RATIO = 4


@dataclass(frozen=True)
class _TapPlan:
    order: tuple[int, ...]  # bank indices, shortest filter first (stable)
    first: tuple[int, ...]  # first buffer tap of each sorted bank
    cols: tuple[int, ...]  # channel offsets of the sorted banks, plus the total
    perm: np.ndarray  # caller's channel index of each sorted channel
    pad_l: int
    pad_r: int
    groups: tuple[tuple[int, int, int], ...]  # (s, g, a): g taps from s, banks a..
    flipped: tuple[tuple[int, int, int], ...]  # (u, g, a), u = taps - 1 - s


def _stack_taps(active: list[int], width) -> tuple[tuple[int, int, int], ...]:
    # Split runs of equal active suffixes into groups of at most width(a) taps.
    groups = []
    s = 0
    while s < len(active):
        a = active[s]
        g = 1
        while g < width(a) and s + g < len(active) and active[s + g] == a:
            g += 1
        groups.append((s, g, a))
        s += g
    return tuple(groups)


@functools.lru_cache(maxsize=64)
def _tap_plan(shapes: tuple[tuple[int, int], ...], in_ch: int) -> _TapPlan:
    """Tap layout of banks with the given (out_ch, filter length) shapes."""
    order = tuple(sorted(range(len(shapes)), key=lambda i: shapes[i][1]))
    pads = [conv_padding(shapes[i][1]) for i in order]
    pad_l = max(p[0] for p in pads)
    pad_r = max(p[1] for p in pads)
    first = tuple(pad_l - p[0] for p in pads)
    active = [
        next(k for k, p in enumerate(pads) if first[k] <= s <= pad_l + p[1])
        for s in range(pad_l + pad_r + 1)
    ]
    starts = np.cumsum([0] + [o for o, _ in shapes])
    perm = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in order])
    perm.flags.writeable = False
    cols = tuple(np.cumsum([0] + [shapes[i][0] for i in order]).tolist())
    width = [cols[-1] - cols[a] for a in range(len(order))]  # active columns
    return _TapPlan(
        order, first, cols, perm, pad_l, pad_r,
        _stack_taps(active, lambda a: max(1, _STACK_RATIO * width[a] // in_ch)),
        _stack_taps(active[::-1], lambda a: max(1, _STACK_RATIO * in_ch // width[a])),
    )


def _tap_block(buf: np.ndarray, s: int, g: int, t: int) -> np.ndarray:
    # Taps s .. s+g-1 of a time-major buffer, columns (tap, channel):
    # [t, b, g * c]. A view when g == 1, else one copy.
    if g == 1:
        return buf[s : s + t]
    _, b, c = buf.shape
    st = buf.strides
    win = as_strided(buf[s:], (t, b, g, c), (st[0], st[1], st[0], st[2]), writeable=False)
    return win.reshape(t, b, g * c)


def _tap_major(banks: list[np.ndarray], plan: _TapPlan) -> np.ndarray:
    # Filters by buffer tap: [taps, sorted out_ch, in_ch]. Only the entries
    # of active banks are written, and no others are ever read.
    wt = np.empty((plan.pad_l + plan.pad_r + 1, plan.cols[-1], banks[0].shape[1]))
    for k, i in enumerate(plan.order):
        f0 = plan.first[k]
        wt[f0 : f0 + banks[i].shape[2], plan.cols[k] : plan.cols[k + 1]] = (
            banks[i].transpose(2, 0, 1)
        )
    return wt


def _conv_inputs(x, banks, tail, name: str):
    """Float64 ``(banks, tail, plan, xt)`` after one shared shape check.

    ``tail`` is the bias ``[out_ch]`` or the upstream gradient
    ``[b, out_ch, T]``; ``xt`` is the padded time-major input buffer.
    """
    x = _as_bct(x)
    banks = [np.asarray(w, dtype=np.float64) for w in banks]
    if not banks:
        raise ConfigError("a convolution needs at least one filter bank")
    for w in banks:
        if w.ndim != 3:
            raise ConfigError(f"filters must be [out_ch, in_ch, f], got shape {w.shape}")
        if w.shape[1] != x.shape[1]:
            raise ConfigError(f"input has {x.shape[1]} channels, filters expect {w.shape[1]}")
    b, c, t = x.shape
    out_ch = sum(w.shape[0] for w in banks)
    tail = np.asarray(tail, dtype=np.float64)
    want = (out_ch,) if name == "bias" else (b, out_ch, t)
    if tail.shape != want:
        raise ConfigError(f"{name} must be {list(want)}, got shape {tail.shape}")
    plan = _tap_plan(tuple((w.shape[0], w.shape[2]) for w in banks), c)
    xt = np.zeros((t + plan.pad_l + plan.pad_r, b, c))
    xt[plan.pad_l : plan.pad_l + t] = x.transpose(2, 0, 1)
    return banks, tail, plan, xt


def multiscale_conv_forward(x: np.ndarray, banks, bias: np.ndarray) -> np.ndarray:
    """Length-preserving 1-D convolution (correlation form) with several
    filter banks at once.

    Parameters
    ----------
    x : ndarray, [batch, in_ch, T]
    banks : sequence of ndarray, each [out_i, in_ch, f_i], f_i in any order
    bias : ndarray, [sum out_i]

    Returns
    -------
    ndarray, [batch, sum out_i, T]: each bank's :func:`conv1d_forward`
    output, concatenated along channels in the given order, plus ``bias``.
    """
    banks, bias, plan, xt = _conv_inputs(x, banks, bias, "bias")
    _, b, c = xt.shape
    t = xt.shape[0] - plan.pad_l - plan.pad_r
    cols = plan.cols
    wt = _tap_major(banks, plan)
    out = np.empty((b, cols[-1], t))
    out[:] = bias[plan.perm, None]
    for s, g, a in plan.groups:
        # One [n, g * c] @ [g * c, t] GEMM per series: a row's output never
        # depends on the batch around it, which keeps batched infer bitwise.
        w = wt[s : s + g, cols[a] :].transpose(1, 0, 2).reshape(-1, g * c)
        out[:, cols[a] :] += np.matmul(w, _tap_block(xt, s, g, t).transpose(1, 2, 0))
    result = np.empty_like(out)
    result[:, plan.perm] = out
    return result


def multiscale_conv_backward(
    x: np.ndarray,
    banks,
    upstream: np.ndarray,
    dbanks: list[np.ndarray] | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, list[np.ndarray], np.ndarray]:
    """Gradients of :func:`multiscale_conv_forward` w.r.t. input, each bank
    and bias. ``upstream`` has the output's shape. Returns
    ``(dx, [dbank_i], dbias)``.

    Each bank's filter gradient is added into ``dbanks[i]`` (an array of
    that bank's shape, written in place) when given, else into fresh zeros.
    With ``input_grad=False``, ``dx`` is not computed and is None.
    """
    banks, upstream, plan, xt = _conv_inputs(x, banks, upstream, "upstream")
    if dbanks is None:
        dbanks = [np.zeros_like(w) for w in banks]
    elif [d.shape for d in dbanks] != [w.shape for w in banks]:
        raise ConfigError("filter gradient buffers must match the banks' shapes")
    _, b, c = xt.shape
    t = upstream.shape[2]
    cols = plan.cols
    taps = plan.pad_l + plan.pad_r + 1
    gp = np.zeros((t + taps - 1, b, cols[-1]))  # padded upstream, sorted channels
    gp[plan.pad_r : plan.pad_r + t] = upstream.transpose(2, 0, 1)[:, :, plan.perm]
    x0 = xt[plan.pad_l : plan.pad_l + t].reshape(t * b, c)  # the unpadded input

    # One pass over the flipped tap groups. A group's upstream block, row t
    # holding gp[t + u + k] for its taps k, gives the input gradient through
    # the transposed filters and, against the unpadded input rows, the
    # filter gradient of buffer taps s = taps - 1 - u - k, which each active
    # bank takes at its own taps s - first.
    if input_grad:
        wt = _tap_major(banks, plan)
        dxt = np.zeros((c, t * b))
    for u, g, a in plan.flipped:
        win = _tap_block(gp[:, :, cols[a] :], u, g, t).reshape(t * b, -1)
        dw = (x0.T @ win).reshape(c, g, -1)[:, ::-1].transpose(2, 0, 1)  # [col, c, tap]
        for k in range(a, len(plan.order)):
            d0 = taps - u - g - plan.first[k]
            dbanks[plan.order[k]][:, :, d0 : d0 + g] += dw[cols[k] - cols[a] : cols[k + 1] - cols[a]]
        if input_grad:
            w = wt[taps - u - g : taps - u, cols[a] :][::-1].transpose(2, 0, 1)
            dxt += w.reshape(c, -1) @ win.T
    dx = np.ascontiguousarray(dxt.reshape(c, t, b).transpose(2, 0, 1)) if input_grad else None
    return dx, dbanks, upstream.sum(axis=(0, 2))


def conv1d_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Length-preserving 1-D convolution (correlation form): the one-bank
    call of :func:`multiscale_conv_forward`.

    Parameters
    ----------
    x : ndarray, [batch, in_ch, T]
    filters : ndarray, [out_ch, in_ch, f]
    bias : ndarray, [out_ch]

    Returns
    -------
    ndarray, [batch, out_ch, T]:
    ``out[b, o, t] = bias[o] + sum_{c, d} filters[o, c, d] * padded_x[b, c, t + d]``.
    """
    return multiscale_conv_forward(x, [filters], bias)


def conv1d_backward(
    x: np.ndarray,
    filters: np.ndarray,
    upstream: np.ndarray,
    dfilters: np.ndarray | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of :func:`conv1d_forward` w.r.t. input, filters and bias.

    ``upstream`` has the output's shape. Returns ``(dx, dfilters, dbias)``;
    ``dfilters`` and ``input_grad`` act as in :func:`multiscale_conv_backward`.
    """
    dx, (dfilters,), dbias = multiscale_conv_backward(
        x, [filters], upstream, None if dfilters is None else [dfilters], input_grad
    )
    return dx, dfilters, dbias


# ---------------------------------------------------------------------------
# Batch normalization. Train mode normalizes with statistics of the current
# batch (pooled over batch and time) and the gradient flows through those
# statistics; infer mode uses frozen running estimates.
# ---------------------------------------------------------------------------


@dataclass
class BnState:
    """Running per-channel statistics. ``updates == 0`` means uninitialized."""

    mean: np.ndarray
    var: np.ndarray
    updates: int = 0

    @classmethod
    def fresh(cls, channels: int) -> "BnState":
        return cls(np.zeros(channels), np.ones(channels), 0)

    def copy(self) -> "BnState":
        return BnState(self.mean.copy(), self.var.copy(), self.updates)

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> "BnState":
        # First update adopts the batch statistics outright; there is nothing
        # meaningful to blend with before that.
        if self.updates == 0:
            return BnState(batch_mean.copy(), batch_var.copy(), 1)
        return BnState(
            BN_MOMENTUM * self.mean + (1.0 - BN_MOMENTUM) * batch_mean,
            BN_MOMENTUM * self.var + (1.0 - BN_MOMENTUM) * batch_var,
            self.updates + 1,
        )


def pooled_batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-channel mean and population variance of a [b, ch, T] array,
    pooled across batch and time."""
    n_total = x.shape[0] * x.shape[2]
    if n_total < 2:
        raise ConfigError("batch normalization needs at least 2 elements per channel")
    mean = x.sum(axis=(0, 2)) / n_total
    var = ((x - mean[None, :, None]) ** 2).sum(axis=(0, 2)) / n_total
    return mean, var, n_total


def bn_apply(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize [b, ch, T] with the given statistics. Returns (y, xhat)."""
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[None, :, None]) * inv[None, :, None]
    return gamma[None, :, None] * xhat + beta[None, :, None], xhat


def bn_backward_pooled(
    upstream: np.ndarray,
    xhat: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    n_total: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode through train-mode batch norm: (dx, dgamma, dbeta).

    The batch mean and variance are treated as functions of the inputs,
    which yields the usual centering terms.
    """
    dbeta = upstream.sum(axis=(0, 2))
    dgamma = (upstream * xhat).sum(axis=(0, 2))
    inv = 1.0 / np.sqrt(var + BN_EPS)
    coeff = (gamma * inv)[None, :, None]
    mean_dy = (dbeta / n_total)[None, :, None]
    mean_dy_xhat = (dgamma / n_total)[None, :, None]
    return coeff * (upstream - mean_dy - xhat * mean_dy_xhat), dgamma, dbeta


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    state: BnState,
    mode: str = "train",
) -> tuple[np.ndarray, BnState, dict | None]:
    """Batch-normalize one [batch, ch, T] array.

    Train mode uses this batch's statistics (pooled over batch and time),
    returns an updated running-statistics state and a cache for
    :func:`batchnorm_backward`. Infer mode uses the running statistics and
    requires at least one prior train-mode update.
    """
    x = _as_bct(x)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ConfigError("gamma/beta must be per-channel vectors")
    if mode == "train":
        mean, var, n_total = pooled_batch_stats(x)
        y, xhat = bn_apply(x, gamma, beta, mean, var)
        cache = {"xhat": xhat, "var": var, "n_total": n_total}
        return y, state.update(mean, var), cache
    if mode == "infer":
        if state.updates == 0:
            raise UsageError("batch norm infer mode before any running-stat update")
        y, _ = bn_apply(x, gamma, beta, state.mean, state.var)
        return y, state, None
    raise ConfigError(f"unknown batch norm mode {mode!r}")


def batchnorm_backward(
    upstream: np.ndarray, gamma: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of train-mode :func:`batchnorm_forward`: (dx, dgamma, dbeta)."""
    return bn_backward_pooled(
        _as_bct(upstream), cache["xhat"], cache["var"], gamma, cache["n_total"]
    )


def relu_forward(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Subgradient convention: exactly 0 at x == 0."""
    return upstream * (x > 0)


def gap_forward(x: np.ndarray) -> np.ndarray:
    """Global average pooling over time: [.., ch, T] -> [.., ch]."""
    return np.asarray(x, dtype=np.float64).mean(axis=-1)


def gap_backward(upstream: np.ndarray, t: int) -> np.ndarray:
    """Spread the channel gradient evenly over the pooled steps."""
    if t < 1:
        raise ConfigError("pooled length must be >= 1")
    return np.repeat(np.asarray(upstream)[..., None], t, axis=-1) / float(t)


def orthogonal_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal weight tensor for a conv filter bank or matrix.

    ``shape`` is flattened to (out_ch, fan_in). The shorter side is made
    orthonormal: rows when out_ch <= fan_in, columns otherwise. Signs are
    fixed from the QR factor so the draw is deterministic per rng state.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2 or any(s < 1 for s in shape):
        raise ConfigError(f"cannot orthogonally initialize shape {shape}")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    a = rng.standard_normal((rows, cols))
    if rows <= cols:
        q, r = np.linalg.qr(a.T)
        d = np.sign(np.diag(r))
        d[d == 0] = 1.0
        w = (q * d).T  # rows orthonormal: w @ w.T = I
    else:
        q, r = np.linalg.qr(a)
        d = np.sign(np.diag(r))
        d[d == 0] = 1.0
        w = q * d  # columns orthonormal: w.T @ w = I
    return np.ascontiguousarray(w.reshape(shape))
