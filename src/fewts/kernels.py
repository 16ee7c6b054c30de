"""Differentiable 1-D kernels: convolution, batch norm, ReLU, pooling.

Every kernel works on float64 numpy arrays and leaves its inputs as they
were, except that the conv backward passes add their filter gradients into
the arrays the caller passes as ``dbanks``/``dfilters``, in place, and
``orthonormalize`` overwrites the matrix it is given. Conv and
BN signals are ``[batch, channels, T]``; gradients are exact reverse-mode and
every kernel is covered by a finite-difference test.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

BN_EPS = 1e-5


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
# channel-major, [b, c, pad_l + T + pad_r]: each (series, channel) row is a
# contiguous run of time, so tap s of series i is the view buf[i, :, s : s + T]
# and a stack of taps is a copy of whole time runs. A layer is a sum of one
# GEMM per tap group. The backward pass runs the same sum backwards, the
# padded upstream read at flipped taps: each upstream block gives the filter
# gradient of its taps and, through the transposed filters, a term of the
# input gradient.

# A tap group is a run of neighbouring taps that one GEMM serves. Its output
# columns are those of the banks active at any of its taps; a bank inactive
# at some of them gets zero filters there. The plan picks the groups with the
# least cost in units of one copied float64, counting a multiply-add as _MAC,
# each cell a group adds into its output as _ACC and a group's calls as _CALL
# per series (measured on a 2-vCPU AVX-512 host with OpenBLAS, one thread).
# So the tiny arch's layers run every tap in one GEMM both ways; the default
# arch's in_ch = 1 first layer runs three stacked groups forward and one tap
# per GEMM backward, and its 165-channel layers one tap per GEMM forward
# (but for three four-tap stacks near the centre) and one GEMM per bank ring
# backward. A one-tap group reads a view; a stacked copy never exceeds
# _STACK_CELLS cells (32 MB), so no layer builds an im2col (108 MB for a
# 165-channel layer at b = 10, T = 128).
_MAC = 0.12
_ACC = 2.0
_CALL = 3000.0
_STACK_CELLS = 1 << 22

# The input gradient folds every series into one GEMM per tap group and
# block of _DX_STEPS time steps, a fixed count: the blocks do not depend on
# the worker count.
_DX_STEPS = 64

# A layer of at least _SPLIT_MACS multiply-adds is cut into parts whose
# outputs do not overlap, one per worker: the forward by series, the filter
# gradient by tap groups and the input gradient by time blocks. Each part
# runs the GEMMs one part would, and each output sums its terms in the same
# order, so every output is bitwise the same on one core or many. The parts
# run GEMMs and copies into buffers the calling thread allocated, so that no
# worker grows a malloc arena of its own. On a 2-vCPU x86 host with both
# vCPUs free, two parts ran a 165-channel layer at b = 10, T = 128 (864M
# multiply-adds) 1.4x faster and one at b = 3, T = 64 (130M) 1.7x faster,
# while the tiny arch's layers (0.5M) and the in_ch = 1 first layer at
# T = 128 (5.2M) ran no faster or slower: there a hop to a pool thread costs
# what it saves.
_SPLIT_MACS = 1 << 25
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="fewts-conv")


@dataclass(frozen=True)
class _TapPlan:
    shapes: tuple[tuple[int, int], ...]  # (out_ch, filter length) of each bank
    order: tuple[int, ...]  # bank indices, shortest filter first (stable)
    first: tuple[int, ...]  # first buffer tap of each sorted bank
    cols: tuple[int, ...]  # channel offsets of the sorted banks, plus the total
    perm: np.ndarray | None  # caller's channel of each sorted one; None if the same
    unsort: np.ndarray | None  # sorted channel of each caller's one
    pad_l: int
    pad_r: int
    active: tuple[int, ...]  # lowest sorted bank active at each buffer tap


@functools.lru_cache(maxsize=64)
def _tap_plan(shapes: tuple[tuple[int, int], ...]) -> _TapPlan:
    """Tap layout of banks with the given (out_ch, filter length) shapes."""
    order = tuple(sorted(range(len(shapes)), key=lambda i: shapes[i][1]))
    pads = [conv_padding(shapes[i][1]) for i in order]
    pad_l = max(p[0] for p in pads)
    pad_r = max(p[1] for p in pads)
    first = tuple(pad_l - p[0] for p in pads)
    active = tuple(
        next(k for k, p in enumerate(pads) if first[k] <= s <= pad_l + p[1])
        for s in range(pad_l + pad_r + 1)
    )
    starts = np.cumsum([0] + [o for o, _ in shapes])
    perm = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in order])
    perm.flags.writeable = False
    cols = tuple(np.cumsum([0] + [shapes[i][0] for i in order]).tolist())
    if order == tuple(range(len(order))):
        return _TapPlan(shapes, order, first, cols, None, None, pad_l, pad_r, active)
    unsort = np.argsort(perm)
    unsort.flags.writeable = False
    return _TapPlan(shapes, order, first, cols, perm, unsort, pad_l, pad_r, active)


def _cheapest_groups(active, cost) -> tuple[tuple[int, int, int], ...]:
    """Runs (s, g, a) of g taps from s covering every tap of ``active``, a
    the lowest bank active in the run, with the least total ``cost(g, a)``."""
    best = [0.0] + [math.inf] * len(active)
    last = [(0, 0, 0)] * (len(active) + 1)
    for e in range(1, len(active) + 1):
        a = active[e - 1]
        for s in range(e - 1, -1, -1):
            a = min(a, active[s])
            total = best[s] + cost(e - s, a)
            if total < best[e]:
                best[e], last[e] = total, (s, e - s, a)
    groups, e = [], len(active)
    while e:
        groups.append(last[e])
        e = last[e][0]
    return tuple(reversed(groups))


@functools.lru_cache(maxsize=64)
def _forward_groups(shapes, c: int, t: int):
    """Forward tap groups (s, g, a), the first one spanning every bank; the
    series per stacked copy; whether some group has zero filters. All are
    independent of the batch size, so that a row's output is the same alone
    or in any batch."""
    plan = _tap_plan(shapes)
    cols = plan.cols

    def cost(g, a):
        n = cols[-1] - cols[a]
        if g > 1 and g * c * t > _STACK_CELLS:
            return math.inf
        return t * (_MAC * n * g * c + (g * c if g > 1 else 0) + _ACC * n) + _CALL

    groups = _cheapest_groups(plan.active, cost)
    k = next(i for i, (_, _, a) in enumerate(groups) if a == 0)
    groups = (groups[k],) + groups[:k] + groups[k + 1 :]
    widest = max(g for _, g, _ in groups)
    per = max(1, _STACK_CELLS // max(1, widest * c * t))
    return groups, per, _zero_filled(groups, plan.active)


@dataclass(frozen=True)
class _BackwardPlan:
    groups: tuple[tuple[int, int, int], ...]  # (u, g, a): g flipped taps from u
    # A group's upstream block [g * n, T * b] is a view when g == 1, else a
    # copy into ``store`` at ``at``. The groups run in chunks (bounds
    # ``chunks``) whose copies fit in it together; it holds at least one
    # copy per part.
    chunks: tuple[int, ...]
    at: tuple[int, ...]
    store: int
    zero: bool  # some group has zero filters
    # Per group, the banks active at some of its taps: (bank, k0, k1, d0,
    # d1, c0, c1), its taps k0 .. k1-1 being the bank's taps d1-1 down to
    # d0, at columns c0 .. c1-1 of the group.
    pieces: tuple[tuple[tuple[int, ...], ...], ...]


@functools.lru_cache(maxsize=64)
def _backward_plan(shapes, c: int, b: int, t: int, parts: int) -> _BackwardPlan:
    """Backward tap groups over flipped taps and the chunks they run in.
    The groups may depend on the batch size: the backward has no per-row
    contract, and the part count changes only the chunks."""
    plan = _tap_plan(shapes)
    cols = plan.cols

    def cost(g, a):
        n = cols[-1] - cols[a]
        if g > 1 and g * n * b * t > _STACK_CELLS:
            return math.inf
        return t * (2 * _MAC * n * g * c + (g * n if g > 1 else 0) + _ACC * c) + _CALL

    groups = _cheapest_groups(plan.active[::-1], cost)
    sizes = [g * (cols[-1] - cols[a]) * b * t if g > 1 else 0 for _, g, a in groups]
    store = min(sum(sizes), parts * max(sizes))
    chunks, at, used = [0], [], 0
    for i, size in enumerate(sizes):
        if used + size > store:
            chunks.append(i)
            used = 0
        at.append(used)
        used += size
    chunks.append(len(groups))
    taps = len(plan.active)
    pieces = []
    for u, g, a in groups:
        pieces.append([])
        for j in range(a, len(plan.order)):
            f0, f = plan.first[j], shapes[plan.order[j]][1]
            p, q = max(u, taps - f0 - f), min(u + g, taps - f0)
            if p < q:
                pieces[-1].append((plan.order[j], p - u, q - u, taps - q - f0, taps - p - f0,
                                   cols[j] - cols[a], cols[j + 1] - cols[a]))
    return _BackwardPlan(groups, tuple(chunks), tuple(at), store,
                         _zero_filled(groups, plan.active[::-1]),
                         tuple(tuple(p) for p in pieces))


def _zero_filled(groups, active) -> bool:
    """Whether some group spans taps with different active banks."""
    return any(len(set(active[s : s + g])) > 1 for s, g, _ in groups)


def _copy_taps(buf, lo, hi, s, g, t, time, into) -> np.ndarray:
    # Taps s .. s+g-1 of rows lo .. hi-1 of a C-contiguous padded buffer
    # whose axis ``time`` (1 or 2) is padded time, copied into the front of
    # flat ``into`` with a tap axis inserted at ``time - 1``:
    # [hi - lo, g, ., t] for time = 2, [g, hi - lo, t, .] for time = 1.
    shape, strides = list(buf.shape), list(buf.strides)
    shape[0], shape[time] = hi - lo, t
    shape.insert(time - 1, g)
    strides.insert(time - 1, buf.strides[time])
    win = np.ndarray(shape, buf.dtype, buf, lo * buf.strides[0] + s * buf.strides[time], strides)
    block = into[: win.size].reshape(shape)
    np.copyto(block, win)
    return block


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
    """Float64 ``(x, banks, plan, parts)`` after one shared shape check;
    ``parts`` is the number of parts the layer runs in."""
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
    plan = _tap_plan(tuple((w.shape[0], w.shape[2]) for w in banks))
    macs = b * t * c * sum(w.shape[0] * w.shape[2] for w in banks)
    return x, banks, plan, _WORKERS if macs >= _SPLIT_MACS else 1


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
    x, banks, plan, parts = _conv_inputs(x, banks)
    b, c, t = x.shape
    if plan.pad_l + plan.pad_r == 0:
        buf = np.ascontiguousarray(x)
    else:
        buf = np.zeros((b, c, plan.pad_l + t + plan.pad_r))
        buf[:, :, plan.pad_l : plan.pad_l + t] = x
    cols = plan.cols
    groups, per, zero = _forward_groups(plan.shapes, c, t)
    # Filters by sorted output channel and buffer tap, so that a tap group's
    # filters [n, g * c] are a view.
    wt = (np.zeros if zero else np.empty)((cols[-1], plan.pad_l + plan.pad_r + 1, c))
    for k, i in enumerate(plan.order):
        f0 = plan.first[k]
        wt[cols[k] : cols[k + 1], f0 : f0 + banks[i].shape[2]] = banks[i].transpose(0, 2, 1)
    out = np.empty((b, cols[-1], t))
    prod = np.empty((b, max((cols[-1] - cols[a] for _, _, a in groups[1:]), default=0), t))
    bounds = _split([1] * b, parts)
    # Part k stacks up to ``per`` of its series at a time in its share of
    # ``stack``.
    widest = max(g for _, g, _ in groups)
    most = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    share = min(per, most) * widest * c * t if widest > 1 else 0
    stack = np.empty((len(bounds) - 1) * share)

    def run(k, lo, hi):
        # One [n, g * c] @ [g * c, t] GEMM per series: a row's output never
        # depends on the batch around it, which keeps batched infer bitwise.
        for lo2 in range(lo, hi, per):
            hi2 = min(hi, lo2 + per)
            for j, (s, g, a) in enumerate(groups):
                w = wt[cols[a] :, s : s + g].reshape(-1, g * c)
                if g == 1:
                    blk = buf[lo2:hi2, :, s : s + t]
                else:
                    blk = _copy_taps(buf, lo2, hi2, s, g, t, 2, stack[k * share :])
                    blk = blk.reshape(hi2 - lo2, g * c, t)
                if j == 0:
                    np.matmul(w, blk, out=out[lo2:hi2])
                else:
                    dst = prod[lo2:hi2, : cols[-1] - cols[a]]
                    np.matmul(w, blk, out=dst)
                    out[lo2:hi2, cols[a] :] += dst

    _in_parts(run, bounds)
    return out if plan.perm is None else out.take(plan.unsort, axis=1)


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
    x, banks, plan, parts = _conv_inputs(x, banks)
    b, c, t = x.shape
    cols = plan.cols
    n_out = cols[-1]
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (b, n_out, t):
        raise ConfigError(f"upstream must be {[b, n_out, t]}, got shape {upstream.shape}")
    if dbanks is None:
        dbanks = [np.zeros_like(w) for w in banks]
    elif [d.shape for d in dbanks] != [w.shape for w in banks]:
        raise ConfigError("filter gradient buffers must match the banks' shapes")
    bp = _backward_plan(plan.shapes, c, b, t, parts)
    groups = bp.groups
    taps = plan.pad_l + plan.pad_r + 1
    # Both operands put time before series, so that a (time, series) block
    # is one GEMM dimension: the input, which is read unpadded, as
    # [c, t * b], and the padded upstream by sorted channel,
    # [n_out, t + taps - 1, b], whose flipped tap u is the view
    # gq[:, u : u + t] and a stack of taps a copy of whole runs of t * b.
    x0 = np.empty((c, t, b))
    np.copyto(x0, x.transpose(1, 2, 0))
    x0 = x0.reshape(c, t * b)
    gq = np.zeros((n_out, t + taps - 1, b))
    up = upstream.transpose(1, 2, 0)
    gq[:, plan.pad_r : plan.pad_r + t] = up if plan.perm is None else up[plan.perm]
    dws = np.empty((parts, c * max(g * (n_out - cols[a]) for _, g, a in groups)))
    store = np.empty(bp.store)
    blocks = [None] * len(groups)

    def filter_grads(k, lo, hi):
        # Against the unpadded input, a group's block [g * n, t * b] gives
        # the filter gradient of its taps in one GEMM with K = b * t, added
        # into each bank's taps with one add per bank it holds.
        for i in range(lo, hi):
            u, g, a = groups[i]
            n = n_out - cols[a]
            if g == 1:
                blocks[i] = gq[cols[a] :, u : u + t].reshape(n, t * b)
            else:
                blk = _copy_taps(gq, cols[a], n_out, u, g, t, 1, store[bp.at[i] :])
                blocks[i] = blk.reshape(g * n, t * b)
            dw = np.matmul(x0, blocks[i].T, out=dws[k, : c * g * n].reshape(c, g * n))
            dw = dw.reshape(c, g, n)
            for bank, k0, k1, d0, d1, c0, c1 in bp.pieces[i]:
                dbanks[bank][:, :, d0:d1] += dw[:, k0:k1, c0:c1][:, ::-1].transpose(2, 0, 1)

    if input_grad:
        # Each group's filters [c, g * n] by input channel, then flipped
        # tap and sorted output channel.
        ofs = list(itertools.accumulate((c * g * (n_out - cols[a]) for _, g, a in groups),
                                        initial=0))
        wdx = (np.zeros if bp.zero else np.empty)(ofs[-1])
        wd = []
        for i, (_, g, a) in enumerate(groups):
            w = wdx[ofs[i] : ofs[i + 1]].reshape(c, g, n_out - cols[a])
            for bank, k0, k1, d0, d1, c0, c1 in bp.pieces[i]:
                w[:, k0:k1, c0:c1] = banks[bank][:, :, d0:d1][:, :, ::-1].transpose(1, 2, 0)
            wd.append(w.reshape(c, -1))
        dx = np.empty((c, t * b))
        prod = np.empty_like(dx)
        steps = list(range(0, t, _DX_STEPS)) + [t]

    def input_grads(first, end, k, lo, hi):
        # Groups first .. end-1's terms of time blocks lo .. hi-1, added in
        # group order: one [c, g * n] @ [g * n, steps * b] GEMM each.
        for j in range(lo, hi):
            span = slice(steps[j] * b, steps[j + 1] * b)
            for i in range(first, end):
                if i == 0:
                    np.matmul(wd[i], blocks[i][:, span], out=dx[:, span])
                else:
                    np.matmul(wd[i], blocks[i][:, span], out=prod[:, span])
                    dx[:, span] += prod[:, span]

    for lo, hi in zip(bp.chunks, bp.chunks[1:]):
        weights = [g * (n_out - cols[a]) for _, g, a in groups[lo:hi]]
        _in_parts(filter_grads, [lo + i for i in _split(weights, parts)])
        if input_grad:
            _in_parts(functools.partial(input_grads, lo, hi), _split([1] * (len(steps) - 1), parts))
    if not input_grad:
        return None, dbanks
    return np.ascontiguousarray(dx.reshape(c, t, b).transpose(2, 0, 1)), dbanks


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


def pooled_batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population variance of a [b, ch, T] array,
    pooled across batch and time, in one pass over ``x``: the variance is
    the mean square less the squared mean, floored at zero."""
    n_total = x.shape[0] * x.shape[2]
    if n_total < 2:
        raise ConfigError("batch normalization needs at least 2 elements per channel")
    mean = x.sum(axis=2).sum(axis=0) / n_total
    var = np.einsum("bct,bct->c", x, x) / n_total - mean * mean
    return mean, np.maximum(var, 0.0, out=var)


def bn_apply(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    train: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Normalize [b, ch, T] with the given statistics. Returns (y, xhat) in
    train mode, whose backward reads xhat. Otherwise returns (y, None), with
    y from one folded per-channel scale and shift, so no xhat is built."""
    inv = 1.0 / np.sqrt(var + BN_EPS)
    if not train:
        scale = gamma * inv
        y = x * scale[:, None]
        y += (beta - mean * scale)[:, None]
        return y, None
    xhat = x - mean[:, None]
    xhat *= inv[:, None]
    y = xhat * gamma[:, None]
    y += beta[:, None]
    return y, xhat


def bn_backward_pooled(
    upstream: np.ndarray,
    xhat: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode through train-mode batch norm: (dx, dgamma, dbeta).

    The batch mean and variance are treated as functions of the inputs,
    which yields the usual centering terms.
    """
    n_total = xhat.shape[0] * xhat.shape[2]
    dbeta = upstream.sum(axis=2).sum(axis=0)
    dgamma = np.einsum("bct,bct->c", upstream, xhat)
    # coeff * (upstream - dbeta / n - xhat * dgamma / n), in place.
    dx = xhat * (dgamma / -n_total)[:, None]
    dx += upstream
    dx -= (dbeta / n_total)[:, None]
    dx *= (gamma / np.sqrt(var + BN_EPS))[:, None]
    return dx, dgamma, dbeta


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """Batch-normalize one [batch, ch, T] array.

    Returns (y, stats, cache), where stats is the [2, ch] mean and variance
    that normalized ``x``. Without ``running`` (train mode) they are this
    batch's statistics, pooled over batch and time, and the cache feeds
    :func:`batchnorm_backward`. Given ``running``, a [2, ch] row of running
    mean and variance (infer mode), they are that row and the cache is None.
    """
    x = _as_bct(x)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ConfigError("gamma/beta must be per-channel vectors")
    if running is not None:
        y, _ = bn_apply(x, gamma, beta, *running, False)
        return y, running, None
    stats = np.stack(pooled_batch_stats(x))
    y, xhat = bn_apply(x, gamma, beta, *stats, True)
    return y, stats, {"xhat": xhat, "var": stats[1]}


def batchnorm_backward(
    upstream: np.ndarray, gamma: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of train-mode :func:`batchnorm_forward`: (dx, dgamma, dbeta)."""
    return bn_backward_pooled(_as_bct(upstream), cache["xhat"], cache["var"], gamma)


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


# float64 unit roundoff, the u of rounding-error bounds.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def orthonormalize(w: np.ndarray) -> None:
    """Overwrite the 2-D float64 array ``w`` with the orthonormal factor of
    its QR factorization.

    The factorization runs on ``w``'s wide orientation ``a``: ``w`` itself
    when rows <= cols, otherwise ``w.T``. It writes ``a = L @ q``, with ``L``
    lower triangular with a positive diagonal and the k rows of ``q``
    orthonormal, and stores ``q`` in ``a``. This is the factor that
    Householder QR of ``a.T`` gives once the signs of its R are made
    positive, up to rounding.

    It is shifted Cholesky QR (Fukaya et al., SIAM J. Sci. Comput. 2020),
    which runs in GEMMs: one pass on the Gram matrix ``a @ a.T`` plus
    ``11 (m k + k (k + 1)) u ||a||_F^2`` on its diagonal, which keeps the
    Cholesky from failing, then two plain passes. Each pass is a Gram GEMM,
    a Cholesky, a triangular inverse and a GEMM. The plain passes reach
    orthonormality to rounding while the shifted pass leaves a factor with
    a condition number below about u^(-1/2); that holds for cond(a) up to
    about 1 / (u sqrt(11 m k)), or 4e12 for a [33, 10560] bank. Gaussian
    draws sit far inside that: 2,000 draws of the worst-shaped default
    bank, [33, 1, 32], all had condition numbers below 3e3.
    """
    a = w if w.shape[0] <= w.shape[1] else w.T
    k, m = a.shape
    q = a
    for shifted in (True, False, False):
        gram = q @ q.T
        if shifted:
            gram.flat[:: k + 1] += 11 * (m * k + k * (k + 1)) * _UNIT_ROUNDOFF * np.trace(gram)
        q = np.linalg.inv(np.linalg.cholesky(gram)) @ q
    a[...] = q

