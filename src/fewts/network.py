"""Residual 1-D convolutional embedding network.

Each conv layer runs a bank of filters at several lengths in parallel (the
per-length outputs are concatenated along the channel axis), so one layer
sees multiple receptive-field scales. A block is

    [conv -> BN -> ReLU] x (convs_per_block - 1), conv -> BN,
    + shortcut, ReLU

where the shortcut is the identity, or a 1x1 convolution followed by BN
exactly when the block changes the channel count (only the first block,
1 -> channels). Global average pooling over time turns the last block's
output into a fixed-size embedding; there is no feedforward head and the
embedding is not L2-normalized.

A batch of series is one [n, T] float64 array. Train mode runs it as one
[n, 1, T] array and pools BN statistics over batch and time. Infer mode runs
the rows through the network in chunks of a fixed cell budget; every op it
uses acts on each row alone, so a row's embedding is bitwise the same
whether it is embedded alone or in any batch.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import CheckpointError, ConfigError, UsageError
from .params import Layout, ParamSet

_MODEL_IDS = itertools.count(1)

# Share of the old running statistics kept by each update after the first.
BN_MOMENTUM = 0.9

# Infer-mode chunk size as a cell budget (rows x T), which bounds memory for
# any number of rows: one chunk's [rows, 165, T] activation at the default
# arch is 2.7 MB. On a 2-vCPU x86 host with one BLAS thread, 125 tiny-arch
# series at T=128 embedded in 7.1-9.6 ms at 2^11 cells, 8.4-10.8 at 2^13
# and 10.5-13.8 at 2^15 (the minimum of 15-21 calls, two runs), and 25
# default-arch series in 260-284 ms at all three. Larger chunks also cost
# memory: the one-chunk, 125-row stacked tap copy of a tiny-arch layer is
# 8 MB, and the call's traced peak rose from 2.3 to 17.6 MiB, against
# embed-eval's 45 MB resident peak.
_INFER_CHUNK_CELLS = 1 << 11

CHECKPOINT_MAGIC = "fewts-checkpoint"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ArchSpec:
    """Architecture hyperparameters of the embedding network."""

    blocks: int = 2
    convs_per_block: int = 2
    filter_lengths: tuple[int, ...] = (4, 8, 16, 32, 64)
    filters_per_length: int = 33

    def __post_init__(self):
        if self.blocks < 1:
            raise ConfigError("blocks must be >= 1")
        if self.convs_per_block < 1:
            raise ConfigError("convs_per_block must be >= 1")
        if not self.filter_lengths:
            raise ConfigError("filter_lengths must be non-empty")
        if any(int(f) < 1 for f in self.filter_lengths):
            raise ConfigError("filter lengths must be >= 1")
        lengths = tuple(int(f) for f in self.filter_lengths)
        repeated = [f for f, n in Counter(lengths).items() if n > 1]
        if repeated:
            raise ConfigError(f"filter_lengths repeats length {min(repeated)} "
                              f"in a list of {len(lengths)}")
        if self.filters_per_length < 1:
            raise ConfigError("filters_per_length must be >= 1")
        object.__setattr__(self, "filter_lengths", lengths)

    @property
    def channels(self) -> int:
        """Embedding dimension; every conv layer outputs this many channels."""
        return len(self.filter_lengths) * self.filters_per_length

    @property
    def conv_layers(self) -> int:
        return self.blocks * self.convs_per_block

    def to_dict(self) -> dict:
        return {
            "blocks": self.blocks,
            "convs_per_block": self.convs_per_block,
            "filter_lengths": list(self.filter_lengths),
            "filters_per_length": self.filters_per_length,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArchSpec":
        return cls(
            blocks=int(d["blocks"]),
            convs_per_block=int(d["convs_per_block"]),
            filter_lengths=tuple(int(f) for f in d["filter_lengths"]),
            filters_per_length=int(d["filters_per_length"]),
        )


class _Layer(NamedTuple):
    """A conv layer or a projection: its BN site and that site's row of the
    model's BN statistics, and the slices of the flat parameter vector
    holding its filter banks (with their shapes, in ``filter_lengths``
    order; one bank for a projection), BN gamma and beta."""

    site: str
    row: int
    banks: tuple[tuple[slice, tuple[int, ...]], ...]
    gamma: slice
    beta: slice

    def filters(self, values: np.ndarray) -> list[np.ndarray]:
        return [values[part].reshape(shape) for part, shape in self.banks]


class _StepPlan(NamedTuple):
    layout: Layout
    layers: tuple[_Layer, ...]  # in record order
    blocks: tuple[tuple[tuple[_Layer, ...], _Layer | None], ...]  # (convs, projection)


@functools.lru_cache(maxsize=64)
def _step_plan(spec: ArchSpec) -> _StepPlan:
    """The one walk over the architecture: it names each record, lays it out
    and cuts its slice. A block's projection is None when its shortcut is
    the identity."""
    m, shapes, layers, blocks, end = spec.channels, [], [], [], 0

    def layer(site: str, banks: list) -> _Layer:
        nonlocal end
        parts = []
        for leaf, shape in (*banks, ("gamma", (m,)), ("beta", (m,))):
            shapes.append((f"{site}.{leaf}", shape))
            parts.append(slice(end, end + math.prod(shape)))
            end = parts[-1].stop
        layers.append(_Layer(site, len(layers), tuple(zip(parts, [s for _, s in banks])),
                             *parts[-2:]))
        return layers[-1]

    for bi in range(spec.blocks):
        block_in = 1 if bi == 0 else m
        convs = tuple(
            layer(f"b{bi}.c{j}", [(f"w{f}", (spec.filters_per_length, m if j else block_in, f))
                                  for f in spec.filter_lengths])
            for j in range(spec.convs_per_block)
        )
        proj = layer(f"b{bi}.proj", [("w", (m, block_in, 1))]) if block_in != m else None
        blocks.append((convs, proj))
    return _StepPlan(Layout(shapes), tuple(layers), tuple(blocks))


def build_layout(spec: ArchSpec) -> Layout:
    """Parameter records in a fixed, documented order: for each block, each
    conv layer contributes per-length filter banks and BN gamma/beta; blocks
    that change channel count append projection filters plus BN. Convs have
    no bias, since the BN each feeds subtracts it again. The layout comes
    from the same walk as the per-layer slices that the forward, backward
    and init read, and the BN sites."""
    return _step_plan(spec).layout


def bn_site_names(spec: ArchSpec) -> list[str]:
    """BN site of every conv layer and projection, in record order."""
    return [layer.site for layer in _step_plan(spec).layers]


class ResNetModel:
    """Architecture + its step plan + parameters + task-local BN buffers +
    the number of lowest conv layers held fixed by :func:`backward_batch`.

    The forward, backward and init walk ``plan``, which cuts each layer's
    parameter views out of the flat vector and names its BN row; none looks
    a record or a BN site up by name. The BN buffers are ``bn``, the running
    mean and variance of every site as one [sites, 2, channels] array in
    :func:`bn_site_names` order, and ``bn_updates``, the number of train
    forwards folded into them (0: uninitialized, mean 0 and variance 1).
    They are deliberately NOT part of the ParamSet: they are estimated per
    task and never touched by the optimizer or the meta-update.
    """

    def __init__(
        self,
        spec: ArchSpec,
        params: ParamSet,
        bn: np.ndarray | None = None,
        bn_updates: int = 0,
        frozen_layers: int = 0,
    ):
        self.spec = spec
        self.plan = _step_plan(spec)
        if params.layout != self.plan.layout:
            raise ConfigError("parameter layout does not match the architecture")
        self.params = params
        shape = (len(self.plan.layers), 2, spec.channels)
        if bn is None:
            bn = np.zeros(shape)
            bn[:, 1] = 1.0
        if bn.shape != shape:
            raise ConfigError(f"BN buffers must be {list(shape)}, got {list(bn.shape)}")
        self.bn = bn
        self.bn_updates = bn_updates
        if not (0 <= frozen_layers <= spec.conv_layers):
            raise ConfigError(
                f"frozen_layers must be in [0, {spec.conv_layers}], got {frozen_layers}"
            )
        self.frozen_layers = frozen_layers
        self._uid = next(_MODEL_IDS)
        self._revision = 0

    def set_params(self, params: ParamSet) -> None:
        if params.layout != self.params.layout:
            raise ConfigError("replacement parameters have a different layout")
        self.params = params
        self._revision += 1

    def copy(self) -> "ResNetModel":
        return ResNetModel(
            self.spec, self.params.copy(), self.bn.copy(), self.bn_updates, self.frozen_layers
        )


def build_model(spec: ArchSpec, rng: np.random.Generator) -> ResNetModel:
    """Fresh model: orthogonal conv filters, BN gamma=1/beta=0,
    uninitialized BN buffers. Each bank is one standard-normal draw, in
    layout-record order, straight into its slice of the parameter vector,
    orthonormalized there by :func:`kernels.orthonormalize` as an
    (out_ch, fan_in) matrix, so equal seeds give bit-identical models."""
    plan = _step_plan(spec)
    params = ParamSet(plan.layout)
    for layer in plan.layers:
        for part, shape in layer.banks:
            bank = params.values[part].reshape(shape[0], -1)
            rng.standard_normal(out=bank)
            kernels.orthonormalize(bank)
        params.values[layer.gamma] = 1.0  # beta stays zero
    return ResNetModel(spec, params)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _bn_forward_site(
    model: ResNetModel, layer: _Layer, x: np.ndarray, batch: np.ndarray | None
) -> tuple[np.ndarray, dict | None]:
    """Infer mode (``batch`` None) normalizes with the site's running row;
    train mode writes the batch statistics into the site's row of ``batch``
    and returns the backward's cache."""
    values = model.params.values
    gamma, beta = values[layer.gamma], values[layer.beta]
    if batch is None:
        return kernels.batchnorm_forward(x, gamma, beta, model.bn[layer.row])[0], None
    y, batch[layer.row], cache = kernels.batchnorm_forward(x, gamma, beta)
    return y, cache


def _bn_backward_site(
    model: ResNetModel, grads: ParamSet, layer: _Layer, upstream: np.ndarray, cache: dict
) -> np.ndarray:
    gamma = model.params.values[layer.gamma]
    dx, dgamma, dbeta = kernels.batchnorm_backward(upstream, gamma, cache)
    grads.values[layer.gamma] += dgamma
    grads.values[layer.beta] += dbeta
    return dx


def _forward(
    model: ResNetModel, x: np.ndarray, batch: np.ndarray | None
) -> tuple[np.ndarray, list[tuple]]:
    """Run the conv blocks over a [b, 1, T] batch, in train mode when
    ``batch`` is a [sites, 2, C] array for the BN batch statistics.

    Returns the last block's output [b, ch, T] and per block the cache the
    backward reads: (per conv layer (input, BN cache), projection BN cache,
    block output). Only what the backward reads is kept: a ReLU's mask is
    read off its output, which is the next layer's input or the block
    output, so no BN output or residual sum is held. The first conv's input
    is the block input, which the projection reads too.
    """
    values = model.params.values
    h = x
    block_caches = []
    last = model.spec.convs_per_block - 1
    for convs, proj in model.plan.blocks:
        cur = h
        conv_caches = []
        for j, layer in enumerate(convs):
            pre_bn = kernels.multiscale_conv_forward(cur, layer.filters(values))
            y, bn_cache = _bn_forward_site(model, layer, pre_bn, batch)
            conv_caches.append((cur, bn_cache))
            cur = kernels.relu_forward(y) if j < last else y
        shortcut, proj_cache = h, None
        if proj is not None:
            pre_bn_p = kernels.conv1d_forward(h, *proj.filters(values))
            shortcut, proj_cache = _bn_forward_site(model, proj, pre_bn_p, batch)
        h = kernels.relu_forward(cur + shortcut)
        block_caches.append((conv_caches, proj_cache, h))
    return h, block_caches


def embed_batch(
    model: ResNetModel,
    batch,
    mode: str = "infer",
    return_cache: bool = False,
    update_buffers: bool = True,
):
    """Embed an [n, T] batch of series into [n, dim] rows.

    Train mode needs at least 2 series, pools BN statistics across the whole
    batch and (by default) folds them into the model's running stats: the
    first update adopts them, each later one keeps ``BN_MOMENTUM`` of the
    old. Pass ``return_cache=True`` to get the cache :func:`backward_batch`
    needs.
    Infer mode uses frozen statistics and runs the rows in chunks of at most
    ``_INFER_CHUNK_CELLS`` cells; each row is bit-identical to embedding
    that row alone.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"unknown mode {mode!r}")
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ConfigError(f"a batch must be a non-empty [n, T] array, got shape {x.shape}")

    if mode == "infer":
        if return_cache:
            raise UsageError("backward caches exist only in train mode")
        if model.bn_updates == 0:
            raise UsageError("infer mode before any BN running-stat update")
        rows = max(1, _INFER_CHUNK_CELLS // x.shape[1])
        return np.vstack([
            kernels.gap_forward(_forward(model, x[i : i + rows, None, :], None)[0])
            for i in range(0, x.shape[0], rows)
        ])

    if x.shape[0] < 2:
        raise ConfigError("train mode needs a batch of >= 2 series")
    batch = np.empty_like(model.bn)
    out, block_caches = _forward(model, x[:, None, :], batch)
    if update_buffers:
        if model.bn_updates:
            batch = BN_MOMENTUM * model.bn + (1.0 - BN_MOMENTUM) * batch
        model.bn = batch
        model.bn_updates += 1
    z = kernels.gap_forward(out)
    if not return_cache:
        return z
    return z, {"uid": model._uid, "revision": model._revision, "blocks": block_caches}


def backward_batch(model: ResNetModel, cache: dict, upstream: np.ndarray) -> ParamSet:
    """Reverse-mode through a train-mode forward pass.

    ``upstream`` is the loss gradient w.r.t. the embedding rows, [batch, dim].
    Returns parameter gradients as a ParamSet. Conv layer ``L`` (counted
    bottom up over blocks) is frozen when ``L < model.frozen_layers``, and a
    block's projection once all of the block's layers are; frozen records
    get zero gradient. The pass stops below the lowest unfrozen layer.

    The pass consumes the cache: it drops each block's arrays once the
    block is done, and a second backward on the same cache raises
    UsageError.
    """
    if cache.get("uid") != model._uid or cache.get("revision") != model._revision:
        raise UsageError("stale forward cache: model parameters changed since the forward pass")
    blocks = cache.get("blocks")
    if blocks is None:
        raise UsageError("forward cache already consumed by a backward pass")
    n, channels, length = blocks[-1][2].shape
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (n, channels):
        raise ConfigError(f"upstream must be [{n}, {channels}], got {upstream.shape}")
    del cache["blocks"]
    grads = ParamSet(model.params.layout)
    cpb = model.spec.convs_per_block
    frozen = model.frozen_layers

    d = kernels.gap_backward(upstream, length)
    for bi in reversed(range(model.spec.blocks)):
        conv_caches, proj_cache, out = blocks.pop()
        convs, proj = model.plan.blocks[bi]
        d_pre = kernels.relu_backward(out, d)
        # Layer L needs an input gradient only if a layer below it is
        # unfrozen; block 0's first layer reads the network input.
        input_grad = frozen < bi * cpb

        # Shortcut branch: the projection freezes with the whole block.
        if proj is not None:
            if (bi + 1) * cpb <= frozen:
                break
            d_bn = _bn_backward_site(model, grads, proj, d_pre, proj_cache)
            d_short, _ = kernels.conv1d_backward(
                conv_caches[0][0], *proj.filters(model.params.values), d_bn,
                *proj.filters(grads.values), input_grad,
            )
        else:
            d_short = d_pre

        # Main branch, last conv first. The final conv's BN output feeds the
        # residual sum directly (no ReLU in between); below it, a ReLU's
        # output is the input of the layer above.
        d_cur = d_pre
        for j in reversed(range(cpb)):
            layer = bi * cpb + j
            if layer < frozen:
                break
            x, bn_cache = conv_caches[j]
            if j < cpb - 1:
                d_cur = kernels.relu_backward(conv_caches[j + 1][0], d_cur)
            d_bn = _bn_backward_site(model, grads, convs[j], d_cur, bn_cache)
            d_cur, _ = kernels.multiscale_conv_backward(
                x, convs[j].filters(model.params.values), d_bn, convs[j].filters(grads.values),
                frozen < layer,
            )

        if not input_grad:
            break
        d = d_cur + d_short

    return grads


# ---------------------------------------------------------------------------
# Checkpoints: one file holding (version, ArchSpec, layout, raw little-endian
# float64 parameters, BN buffers). Round-trips are bit-exact.
# ---------------------------------------------------------------------------


def _checkpoint_header(spec: ArchSpec, updates: int) -> bytes:
    """The header line, without its newline, of a checkpoint of ``spec``
    whose BN buffers have seen ``updates`` running-stat updates; every site
    lists that one count."""
    plan = _step_plan(spec)
    return json.dumps({
        "magic": CHECKPOINT_MAGIC,
        "format_version": CHECKPOINT_VERSION,
        "arch": spec.to_dict(),
        "layout": [{"name": r.name, "shape": list(r.shape), "offset": r.offset}
                   for r in plan.layout.records],
        "param_count": plan.layout.total_size,
        "bn": [{"name": layer.site, "channels": spec.channels, "updates": updates}
               for layer in plan.layers],
        "dtype": "<f8",
    }, sort_keys=True).encode("utf-8")


def checkpoint_bytes(model: ResNetModel) -> bytes:
    header = _checkpoint_header(model.spec, model.bn_updates)
    # join reads each array's buffer in place: the parameters are copied
    # once, into the result, and no 16 MB temporary is built on the way.
    return b"".join([header, b"\n", *(np.ascontiguousarray(a, dtype="<f8")
                                      for a in (model.params.values, model.bn))])


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it into
    place, so a failed write never destroys an existing file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_checkpoint(model: ResNetModel, path) -> None:
    """Write the checkpoint atomically: a failed save keeps the previous file."""
    write_atomic(path, checkpoint_bytes(model))


def load_checkpoint(path) -> ResNetModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')}"
        )
    try:
        spec = ArchSpec.from_dict(header["arch"])
        records = len(header["layout"])
        updates = header["bn"][0]["updates"]
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc
    # A negative count would pass the infer-mode guard, which checks for 0.
    # Another site's count is checked by the byte-for-byte header check.
    if type(updates) is not int or updates < 0:
        raise CheckpointError(f"{path}: the BN update count must be a non-negative integer")
    # Each conv layer has a record per filter length: reject a huge arch
    # before laying it out.
    if spec.conv_layers * len(spec.filter_lengths) > records:
        raise CheckpointError(f"{path}: arch has more conv filter banks than layout records")
    # Byte for byte: a header loads only in the one form that saving writes.
    if blob[:nl] != _checkpoint_header(spec, updates):
        raise CheckpointError(f"{path}: header does not match the architecture")

    body = blob[nl + 1 :]
    layout = build_layout(spec)
    sites = bn_site_names(spec)
    expected = (layout.total_size + len(sites) * 2 * spec.channels) * 8
    if len(body) != expected:
        raise CheckpointError(f"{path}: body has {len(body)} bytes, expected {expected}")
    values = np.frombuffer(body, dtype="<f8").astype(np.float64)
    finite = np.isfinite(values[: layout.total_size])
    if not finite.all():
        first = int(finite.argmin())
        record = next(r for r in layout.records if first < r.offset + r.size)
        raise CheckpointError(f"{path}: parameter record {record.name!r} holds a NaN or "
                              "infinite value")
    bn = values[layout.total_size :].reshape(len(sites), 2, spec.channels)
    for site, (mean, var) in zip(sites, bn):
        # A negative or NaN variance gives non-finite infer embeddings, and
        # an infinite one silently zeroes its channel.
        if not (np.isfinite(mean).all() and np.isfinite(var).all() and var.min() >= 0):
            raise CheckpointError(f"{path}: BN site {site!r} has a non-finite running mean "
                                  "or a negative or non-finite running variance")
    return ResNetModel(spec, ParamSet(layout, values[: layout.total_size]), bn, updates)
