"""Differentiable 1-D kernels: convolution, batch norm, ReLU, pooling.

Everything here is a pure function on float64 numpy arrays. Conv and BN
signals are ``[batch, channels, T]``; gradients are exact reverse-mode and
every kernel is covered by a finite-difference test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _conv_windows(x: np.ndarray, filter_len: int) -> np.ndarray:
    # [batch, c, T] -> [batch, T, c*f] windows of the zero-padded signal.
    pad_l, pad_r = conv_padding(filter_len)
    xp = np.pad(x, ((0, 0), (0, 0), (pad_l, pad_r)))
    win = sliding_window_view(xp, filter_len, axis=2)  # [b, c, T, f]
    b, c, t, f = win.shape
    return win.transpose(0, 2, 1, 3).reshape(b, t, c * f)


def conv1d_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Length-preserving 1-D convolution (correlation form).

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
    x = _as_bct(x)
    filters = np.asarray(filters, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if filters.ndim != 3:
        raise ConfigError(f"filters must be [out_ch, in_ch, f], got shape {filters.shape}")
    out_ch, in_ch, f = filters.shape
    if x.shape[1] != in_ch:
        raise ConfigError(f"input has {x.shape[1]} channels, filters expect {in_ch}")
    if bias.shape != (out_ch,):
        raise ConfigError(f"bias must be [{out_ch}], got shape {bias.shape}")
    win = _conv_windows(x, f)  # [b, T, c*f]
    out = win @ filters.reshape(out_ch, in_ch * f).T  # [b, T, o]
    return out.transpose(0, 2, 1) + bias[None, :, None]


def conv1d_backward(
    x: np.ndarray, filters: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`conv1d_forward` w.r.t. input, filters and bias.

    ``upstream`` has the output's shape. Returns ``(dx, dfilters, dbias)``.
    """
    x = _as_bct(x)
    gb = np.asarray(upstream, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    out_ch, in_ch, f = filters.shape
    b, _, t = x.shape
    if gb.shape != (b, out_ch, t):
        raise ConfigError(f"upstream shape {gb.shape} != {(b, out_ch, t)}")
    pad_l, _ = conv_padding(f)

    dbias = gb.sum(axis=(0, 2))

    win = _conv_windows(x, f)  # [b, T, c*f]
    g2 = gb.transpose(1, 0, 2).reshape(out_ch, b * t)
    dfilters = (g2 @ win.reshape(b * t, in_ch * f)).reshape(out_ch, in_ch, f)

    # dx: full correlation of the upstream with the flipped filters.
    gp = np.pad(gb, ((0, 0), (0, 0), (f - 1, f - 1)))
    gwin = sliding_window_view(gp, f, axis=2)  # [b, o, T+f-1, f]
    s = gwin.shape[2]
    gwin2 = gwin.transpose(0, 2, 1, 3).reshape(b, s, out_ch * f)
    wf = filters[:, :, ::-1].transpose(1, 0, 2).reshape(in_ch, out_ch * f)
    dxp = (gwin2 @ wf.T).transpose(0, 2, 1)  # [b, c, T+f-1]
    return dxp[:, :, pad_l : pad_l + t], dfilters, dbias


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
