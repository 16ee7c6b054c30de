"""Differentiable 1-D kernels: convolution, batch norm, ReLU, pooling.

Everything here is a pure function on float64 numpy arrays. Conv and BN
signals are ``[batch, channels, T]``; gradients are exact reverse-mode and
every kernel is covered by a finite-difference test.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

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
# runs the same sum backwards, the padded upstream read at flipped taps: each
# upstream block gives the filter gradient of its taps and, through the
# transposed filters, a term of the input gradient.

# Neighbouring taps with the same active banks are stacked along K (one copy
# of their input columns) while taps * in_cols <= _STACK_RATIO * out_cols;
# beyond that, a separate GEMM per tap and a read-modify-write of its output
# columns is cheaper than the copy. So a 165-channel layer runs its outer
# taps one by one forward and stacks its 33-channel bank rings backward,
# while the 1-channel first layer stacks whole rings forward and runs tap by
# tap backward.
_STACK_RATIO = 4

# A layer of at least _SPLIT_MACS multiply-adds is cut into parts whose
# outputs do not overlap, one per worker: the forward by series, the filter
# gradient by flipped tap groups and the input gradient by series again.
# Each part runs the GEMMs one part would, and each output sums its terms in
# the same order, so every output is bitwise the same on one core or many.
# The parts run GEMMs and copies into buffers the calling thread allocated,
# so that no worker grows a malloc arena of its own. On a 2-vCPU x86 host
# with both vCPUs free, two parts ran a 165-channel layer at b = 10,
# T = 128 (864M multiply-adds) 1.4x faster and one at b = 3, T = 64 (130M)
# 1.7x faster, while the tiny arch's layers (0.5M) and the in_ch = 1 first
# layer at T = 128 (5.2M) ran no faster or slower: there a hop to a pool
# thread costs what it saves.
_SPLIT_MACS = 1 << 25
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="fewts-conv")


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
    # The backward pass's upstream blocks, one per flipped group, have
    # g * (out_ch - cols[a]) columns each (``sizes``); those with g > 1 are
    # copies. The groups run in chunks (bounds ``chunks``) whose copies fit
    # in ``store`` columns, each at column ``at`` of it; ``store`` holds the
    # largest copy once per worker.
    sizes: tuple[int, ...]
    chunks: tuple[int, ...]
    at: tuple[int, ...]
    store: int


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
def _tap_plan(shapes: tuple[tuple[int, int], ...], in_ch: int, workers: int) -> _TapPlan:
    """Tap layout of banks with the given (out_ch, filter length) shapes;
    a backward chunk holds the copies of up to ``workers`` largest blocks."""
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
    flipped = _stack_taps(active[::-1], lambda a: max(1, _STACK_RATIO * in_ch // width[a]))
    sizes = tuple(g * width[a] for _, g, a in flipped)
    copied = [size if g > 1 else 0 for size, (_, g, _) in zip(sizes, flipped)]
    store = workers * max(copied)
    chunks, at, used = [0], [], 0
    for i, size in enumerate(copied):
        if used + size > store:
            chunks.append(i)
            used = 0
        at.append(used)
        used += size
    chunks.append(len(flipped))
    return _TapPlan(
        order, first, cols, perm, pad_l, pad_r,
        _stack_taps(active, lambda a: max(1, _STACK_RATIO * width[a] // in_ch)),
        flipped, sizes, tuple(chunks), tuple(at), store,
    )


def _tap_block(buf, col, s, g, t, lo, hi, scratch) -> np.ndarray:
    # Taps s .. s+g-1 of a C-contiguous time-major buffer [., b, C] at the
    # series lo .. hi-1 and channels col .., columns (tap, channel):
    # [t, hi - lo, g * c]. A view when g == 1, else a copy into the front of
    # flat ``scratch``.
    if g == 1:
        return buf[s : s + t, lo:hi, col:]
    c = buf.shape[2] - col
    into = scratch[: t * (hi - lo) * g * c].reshape(t, hi - lo, g, c)
    # Tap k of time step i reads buffer row s + i + k: the time stride twice.
    st = buf.strides
    win = np.ndarray(into.shape, buf.dtype, buf, s * st[0] + lo * st[1] + col * st[2],
                     (st[0], st[1], st[0], st[2]))
    np.copyto(into, win)
    return into.reshape(t, hi - lo, -1)


def _split(weights: list[int], parts: int) -> list[int]:
    """Bounds of at most ``parts`` runs of consecutive items, of about equal
    total weight."""
    if parts == 1:
        return [0, len(weights)]
    cum = list(itertools.accumulate(weights))
    cuts = {bisect.bisect_left(cum, cum[-1] * p / parts) + 1 for p in range(1, parts)}
    return sorted({0, len(cum)} | cuts)


def _in_parts(body, bounds: list[int]) -> None:
    """``body(k, lo, hi)`` for each run k of ``bounds``: the first on the
    calling thread, the others on the pool. Returns when all have ended."""
    futures = [_POOL.submit(body, k, bounds[k], bounds[k + 1]) for k in range(1, len(bounds) - 1)]
    try:
        body(0, bounds[0], bounds[1])
    finally:
        if futures:
            wait(futures)
    for f in futures:
        f.result()


def _conv_inputs(x, banks):
    """Float64 ``(banks, plan, xt, parts)`` after one shared shape check.

    ``xt`` is the padded time-major input buffer and ``parts`` the number of
    parts the layer runs in.
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
    plan = _tap_plan(tuple((w.shape[0], w.shape[2]) for w in banks), c, _WORKERS)
    xt = np.zeros((t + plan.pad_l + plan.pad_r, b, c))
    xt[plan.pad_l : plan.pad_l + t] = x.transpose(2, 0, 1)
    macs = b * t * c * sum(w.shape[0] * w.shape[2] for w in banks)
    return banks, plan, xt, _WORKERS if macs >= _SPLIT_MACS else 1


def multiscale_conv_forward(x: np.ndarray, banks) -> np.ndarray:
    """Length-preserving 1-D convolution (correlation form) with several
    filter banks at once. There is no bias: every conv output feeds a batch
    norm, which subtracts any per-channel constant.

    Parameters
    ----------
    x : ndarray, [batch, in_ch, T]
    banks : sequence of ndarray, each [out_i, in_ch, f_i], f_i in any order

    Returns
    -------
    ndarray, [batch, sum out_i, T]: each bank's :func:`conv1d_forward`
    output, concatenated along channels in the given order.
    """
    banks, plan, xt, parts = _conv_inputs(x, banks)
    _, b, c = xt.shape
    t = xt.shape[0] - plan.pad_l - plan.pad_r
    cols = plan.cols
    # Filters by sorted output channel and buffer tap, so that a tap group's
    # filters [n, g * c] are a view. Only active banks' taps are written.
    wt = np.empty((cols[-1], plan.pad_l + plan.pad_r + 1, c))
    for k, i in enumerate(plan.order):
        f0 = plan.first[k]
        wt[cols[k] : cols[k + 1], f0 : f0 + banks[i].shape[2]] = banks[i].transpose(0, 2, 1)
    out = np.zeros((b, cols[-1], t))
    result = np.empty_like(out)  # each group's GEMM output, then the result
    # Stacked taps of series lo .. hi-1 go to their own share of ``stack``.
    share = t * max(g for _, g, _ in plan.groups) * c
    stack = np.empty(b * share)

    def run(k, lo, hi):
        # One [n, g * c] @ [g * c, t] GEMM per series: a row's output never
        # depends on the batch around it, which keeps batched infer bitwise.
        for s, g, a in plan.groups:
            blk = _tap_block(xt, 0, s, g, t, lo, hi, stack[lo * share :])
            dst = result[lo:hi, cols[a] :]
            np.matmul(wt[cols[a] :, s : s + g].reshape(-1, g * c), blk.transpose(1, 2, 0), out=dst)
            out[lo:hi, cols[a] :] += dst

    _in_parts(run, _split([1] * b, parts))
    result[:, plan.perm] = out
    return result


def multiscale_conv_backward(
    x: np.ndarray,
    banks,
    upstream: np.ndarray,
    dbanks: list[np.ndarray] | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Gradients of :func:`multiscale_conv_forward` w.r.t. input and each
    bank. ``upstream`` has the output's shape. Returns ``(dx, [dbank_i])``.

    Each bank's filter gradient is added into ``dbanks[i]`` (an array of
    that bank's shape, written in place) when given, else into fresh zeros.
    With ``input_grad=False``, ``dx`` is not computed and is None.
    """
    banks, plan, xt, parts = _conv_inputs(x, banks)
    _, b, c = xt.shape
    t = xt.shape[0] - plan.pad_l - plan.pad_r
    cols = plan.cols
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (b, cols[-1], t):
        raise ConfigError(f"upstream must be {[b, cols[-1], t]}, got shape {upstream.shape}")
    if dbanks is None:
        dbanks = [np.zeros_like(w) for w in banks]
    elif [d.shape for d in dbanks] != [w.shape for w in banks]:
        raise ConfigError("filter gradient buffers must match the banks' shapes")
    taps = plan.pad_l + plan.pad_r + 1
    gp = np.zeros((t + taps - 1, b, cols[-1]))  # padded upstream, sorted channels
    gp[plan.pad_r : plan.pad_r + t] = upstream.transpose(2, 0, 1)[:, :, plan.perm]
    x0t = xt[plan.pad_l : plan.pad_l + t].reshape(t * b, c).T  # the unpadded input
    # A flipped tap group's upstream block, row t holding gp[t + u + k] for
    # its taps k, is [t, b, g * n]: a view of gp when g == 1, else a copy
    # into ``store``. Each chunk's filter gradients are split by group, then
    # its input-gradient terms by series, both reading the chunk's blocks.
    # ``wdx`` holds each group's transposed filters [c, g * n] at ``ofs``,
    # in its block's column order.
    sizes = plan.sizes
    ofs = [c * n for n in itertools.accumulate(sizes, initial=0)]
    store = np.empty(t * b * plan.store)
    dws = np.empty((parts, c * max(sizes)))
    wdx = np.empty(ofs[-1] if input_grad else 0)
    blocks = [None] * len(sizes)

    def filter_grads(k, lo, hi):
        # Against the unpadded input rows, a group's block gives the filter
        # gradient of buffer taps s = taps - 1 - u - k, which each active
        # bank takes at its own taps s - first.
        for i in range(lo, hi):
            u, g, a = plan.flipped[i]
            n = cols[-1] - cols[a]
            blocks[i] = _tap_block(gp, cols[a], u, g, t, 0, b, store[t * b * plan.at[i] :])
            win = blocks[i].reshape(t * b, -1)
            dw = np.matmul(x0t, win, out=dws[k, : c * sizes[i]].reshape(c, -1))
            dw = dw.reshape(c, g, n)[:, ::-1].transpose(2, 0, 1)  # [col, c, tap]
            if input_grad:
                w = wdx[ofs[i] : ofs[i + 1]].reshape(c, g, n)[:, ::-1].transpose(2, 0, 1)
            for j in range(a, len(plan.order)):
                d0 = taps - u - g - plan.first[j]
                col = slice(cols[j] - cols[a], cols[j + 1] - cols[a])
                dbanks[plan.order[j]][:, :, d0 : d0 + g] += dw[col]
                if input_grad:
                    w[col] = banks[plan.order[j]][:, :, d0 : d0 + g]

    def input_grads(first, end, k, lo, hi):
        # Groups first .. end-1's terms of each series, added in their order.
        for i in range(first, end):
            w = wdx[ofs[i] : ofs[i + 1]].reshape(c, -1)
            np.matmul(w, blocks[i][:, lo:hi].transpose(1, 2, 0), out=prod[lo:hi])
            dx[lo:hi] += prod[lo:hi]

    if input_grad:
        dx = np.zeros((b, c, t))
        prod = np.empty_like(dx)
    series = _split([1] * b, parts)
    for lo, hi in zip(plan.chunks, plan.chunks[1:]):
        _in_parts(filter_grads, [lo + i for i in _split(sizes[lo:hi], parts)])
        if input_grad:
            _in_parts(functools.partial(input_grads, lo, hi), series)
    return (dx if input_grad else None), dbanks


def conv1d_forward(x: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Length-preserving 1-D convolution (correlation form) without bias:
    the one-bank call of :func:`multiscale_conv_forward`.

    Parameters
    ----------
    x : ndarray, [batch, in_ch, T]
    filters : ndarray, [out_ch, in_ch, f]

    Returns
    -------
    ndarray, [batch, out_ch, T]:
    ``out[b, o, t] = sum_{c, d} filters[o, c, d] * padded_x[b, c, t + d]``.
    """
    return multiscale_conv_forward(x, [filters])


def conv1d_backward(
    x: np.ndarray,
    filters: np.ndarray,
    upstream: np.ndarray,
    dfilters: np.ndarray | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of :func:`conv1d_forward` w.r.t. input and filters.

    ``upstream`` has the output's shape. Returns ``(dx, dfilters)``;
    ``dfilters`` and ``input_grad`` act as in :func:`multiscale_conv_backward`.
    """
    dx, (dfilters,) = multiscale_conv_backward(
        x, [filters], upstream, None if dfilters is None else [dfilters], input_grad
    )
    return dx, dfilters


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
