"""Span recorder and the call-boundary wrappers of the traced benchmark run.

The recorder keeps every span (name, start, end, parent) in memory and
writes them out once, at the end of the run. In the traced run,
:meth:`Recorder.installed` replaces the public fewts functions with timing
wrappers at the module attribute their callers look them up through, and
restores the originals afterwards; nothing in the package itself changes.
The untraced run uses :data:`NULL`, which records nothing.

Work counts are computed from argument shapes at the call boundary, not
measured: conv FLOPs, im2col bytes, DTW band cells and Adam bytes.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


# ---------------------------------------------------------------------------
# Work counts (computed)
# ---------------------------------------------------------------------------


def conv_flops(batch: int, length: int, out_ch: int, in_ch: int, filter_len: int) -> int:
    """Multiply-adds of a length-preserving conv, counted as 2 FLOPs each."""
    return 2 * batch * length * out_ch * in_ch * filter_len


def im2col_bytes(batch: int, length: int, in_ch: int, filter_len: int) -> int:
    """Bytes of the [batch, T, in_ch * f] float64 window matrix."""
    return 8 * batch * length * in_ch * filter_len


def band_cells(tx: int, ty: int, w: int) -> int:
    """DP cells (i, j), 1 <= i <= tx, 1 <= j <= ty, inside |i - j| <= w."""

    def above(rows: int, cols: int) -> int:
        # Cells with j - i > w: row i contributes max(0, cols - w - i).
        m = min(rows, cols - w - 1)
        return m * (cols - w) - m * (m + 1) // 2 if m > 0 else 0

    return tx * ty - above(tx, ty) - above(ty, tx)


def adam_bytes(n_params: int) -> int:
    """float64 traffic of one Adam step: read params, grads, m, v; write
    params, m, v."""
    return 7 * 8 * n_params


def _batch_and_length(x) -> tuple[int, int]:
    return (1, x.shape[1]) if x.ndim == 2 else (x.shape[0], x.shape[2])


def _conv_forward_work(args, kwargs, result) -> dict:
    x, filters = args[0], args[1]
    b, t = _batch_and_length(x)
    o, i, f = filters.shape
    return {"flop": conv_flops(b, t, o, i, f), "im2col_bytes": im2col_bytes(b, t, i, f)}


def _conv_backward_work(args, kwargs, result) -> dict:
    # Input and filter gradients each cost one forward's multiply-adds.
    x, filters = args[0], args[1]
    b, t = _batch_and_length(x)
    o, i, f = filters.shape
    return {"flop": 2 * conv_flops(b, t, o, i, f)}


def _dtw_work(args, kwargs, result) -> dict:
    x, y, w = args[0], args[1], args[2]
    return {"cells": band_cells(len(x), len(y), int(w))}


def _loocv_work(args, kwargs, result) -> dict:
    from fewts.baselines import DTWConfig, band_width

    train_set = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config", DTWConfig())
    t = max(v.shape[0] for v in train_set.values)
    return {"widths": len({band_width(f, t) for f in config.fractions})}


def _dtw_1nn_work(args, kwargs, result) -> dict:
    train_set, queries = args[0], args[1]
    n_queries = 1 if getattr(queries, "ndim", 2) == 1 else len(queries)
    return {"pairs": n_queries * train_set.n}


def _adam_work(args, kwargs, result) -> dict:
    return {"bytes": adam_bytes(args[0].values.size)}


def _triplet_work(args, kwargs, result) -> dict:
    return {"triplets": len(args[1])}


def _inner_solve_work(args, kwargs, result) -> dict:
    return {"steps": args[2]}


def _embed_work(args, kwargs, result) -> dict:
    return {"series": len(args[1])}


def _checkpoint_work(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _embed_layer(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
    return f"network.embed_batch.{mode}"


# (module, attribute, layer, work). Each attribute is the name the calling
# module looks up at call time, so wrapping it there times every call.
PATCHES = (
    ("fewts.kernels", "conv1d_forward", "kernels.conv1d_forward", _conv_forward_work),
    ("fewts.kernels", "conv1d_backward", "kernels.conv1d_backward", _conv_backward_work),
    ("fewts.kernels", "pooled_batch_stats", "kernels.bn", None),
    ("fewts.kernels", "bn_apply", "kernels.bn", None),
    ("fewts.kernels", "bn_backward_pooled", "kernels.bn", None),
    ("fewts.kernels", "relu_forward", "kernels.relu_gap", None),
    ("fewts.kernels", "gap_forward", "kernels.relu_gap", None),
    ("fewts.kernels", "gap_backward", "kernels.relu_gap", None),
    ("fewts.training", "embed_batch", _embed_layer, _embed_work),
    ("fewts.training", "backward_batch", "network.backward_batch", None),
    ("fewts.training", "save_checkpoint", "network.save_checkpoint", _checkpoint_work),
    ("fewts.training", "adam_step", "optim.adam_step", _adam_work),
    ("fewts.training", "meta_update", "training.meta_update", None),
    ("fewts.training", "enumerate_valid_triplets", "triplet", None),
    ("fewts.training", "triplet_loss", "triplet", _triplet_work),
    ("fewts.training", "triplet_loss_grad", "triplet", None),
    ("fewts.training", "inner_solve", "training.inner_solve", _inner_solve_work),
    ("fewts.training", "finetune", "training.finetune", None),
    ("fewts.training", "classify_1nn", "training.classify_1nn", None),
    ("fewts.training", "sample_task_seeded", "data.sample_task_seeded", None),
    ("fewts.protocol", "sample_task_seeded", "data.sample_task_seeded", None),
    ("fewts.protocol", "dtw_loocv_window", "baselines.dtw_loocv_window", _loocv_work),
    ("fewts.protocol", "dtw_1nn", "baselines.dtw_1nn", _dtw_1nn_work),
    ("fewts.protocol", "euclidean_1nn", "baselines.euclidean_1nn", None),
    ("fewts.baselines", "dtw_distance", "baselines.dtw_distance", _dtw_work),
)

# Work the benchmark itself calls, recorded around its own call sites.
CALL_SITE_WORK = {
    "network.save_checkpoint": _checkpoint_work,
}


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


class NullRecorder:
    """Stand-in for the untraced run: records nothing, wraps nothing."""

    def wrap(self, fn, layer, work=None):
        return fn

    def call(self, layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def installed(self):
        return nullcontext()


NULL = NullRecorder()


class Recorder:
    """In-memory spans of one traced run, plus work counts per layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float | None] = []
        self.parents: list[int] = []
        self.work: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, layer, work=None):
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    self.work[name][key] += value
            return result

        return traced

    def call(self, layer: str, fn, *args, **kwargs):
        return self.wrap(fn, layer, CALL_SITE_WORK.get(layer))(*args, **kwargs)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, layer, work in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, layer, work))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(index)
        out = []
        for index, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = 0.0
            cursor = start
            for child in sorted(children[index], key=self.starts.__getitem__):
                lo = max(self.starts[child], cursor)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(end - start - covered)
        return out

    def write(self, path) -> None:
        """Spans as [name, start, end, parent] rows, starts relative to the
        first span."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [n, round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "work": self.work}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Layer -> the metrics reported for it, in BENCHMARK.json order.
LAYER_FIELDS = (
    ("kernels.conv1d_forward", ("calls", "s", "gflop", "gflop_per_s", "im2col_mb")),
    ("kernels.conv1d_backward", ("calls", "s", "gflop", "gflop_per_s")),
    ("kernels.bn", ("calls", "s")),
    ("kernels.relu_gap", ("s",)),
    ("network.embed_batch.train", ("calls", "s", "self_s")),
    ("network.embed_batch.infer", ("calls", "series", "s", "self_s")),
    ("network.backward_batch", ("calls", "s", "self_s")),
    ("network.save_checkpoint", ("calls", "s", "mb")),
    ("network.load_checkpoint", ("calls", "s")),
    ("optim.adam_step", ("calls", "s", "mb")),
    ("training.meta_update", ("calls", "s")),
    ("triplet", ("calls", "s", "triplets")),
    ("training.inner_solve", ("calls", "steps", "s", "self_s")),
    ("training.finetune", ("s",)),
    ("training.classify_1nn", ("calls", "s", "self_s")),
    ("training.validation_hook", ("s",)),
    ("baselines.dtw_distance", ("calls", "s", "mcells", "mcells_per_s")),
    ("baselines.dtw_loocv_window", ("calls", "s", "widths")),
    ("baselines.dtw_1nn", ("calls", "s", "candidates_frac")),
    ("baselines.euclidean_1nn", ("calls", "s")),
    ("data.sample_task_seeded", ("calls", "s")),
    ("protocol.run_protocol", ("s", "self_s")),
    ("protocol.report_from_records", ("s",)),
)

TRACE_FIELDS = ("overhead_frac", "glue_frac", "accounted_frac")

UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "gflop": "GFLOP", "gflop_per_s": "GFLOP/s",
    "im2col_mb": "MB", "mb": "MB", "series": "count", "steps": "count",
    "triplets": "count", "mcells": "Mcell", "mcells_per_s": "Mcell/s", "widths": "count",
    "candidates_frac": "ratio", "overhead_frac": "ratio", "glue_frac": "ratio",
    "accounted_frac": "ratio",
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = [(f"{layer}.{field}", UNITS[field]) for layer, fields in LAYER_FIELDS for field in fields]
    out += [(f"trace.{field}", UNITS[field]) for field in TRACE_FIELDS]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, passes: int, traced_s: float) -> dict:
    """Per-layer metrics of ``passes`` traced passes taking ``traced_s`` in
    all; the runner adds ``trace.overhead_frac``.

    Counts and times are per pass; rates and fractions are over the run.
    Spans named ``bench.*`` are the benchmark's own structure: their self
    time is the glue no layer covers.
    """
    self_s = rec.self_times()
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for index, name in enumerate(rec.names):
        calls[name] += 1
        total[name] += rec.ends[index] - rec.starts[index]
        own[name] += self_s[index]
    nn_ids = {i for i, n in enumerate(rec.names) if n == "baselines.dtw_1nn"}
    nn_dtw = sum(
        1 for i, n in enumerate(rec.names)
        if n == "baselines.dtw_distance" and rec.parents[i] in nn_ids
    )

    def value(layer: str, field: str) -> float:
        w = rec.work.get(layer, {})
        if field == "calls":
            return calls[layer] / passes
        if field == "s":
            return total[layer] / passes
        if field == "self_s":
            return own[layer] / passes
        if field == "gflop":
            return w.get("flop", 0.0) / 1e9 / passes
        if field == "gflop_per_s":
            return _ratio(w.get("flop", 0.0) / 1e9, total[layer])
        if field == "im2col_mb":
            return w.get("im2col_bytes", 0.0) / 1e6 / passes
        if field == "mb":
            return w.get("bytes", 0.0) / 1e6 / passes
        if field == "mcells":
            return w.get("cells", 0.0) / 1e6 / passes
        if field == "mcells_per_s":
            return _ratio(w.get("cells", 0.0) / 1e6, total[layer])
        if field == "widths":
            return _ratio(w.get("widths", 0.0), calls[layer])
        if field == "candidates_frac":
            return _ratio(nn_dtw, w.get("pairs", 0.0))
        return w.get(field, 0.0) / passes

    out = {}
    for layer, fields in LAYER_FIELDS:
        for field in fields:
            out[f"{layer}.{field}"] = value(layer, field)
    glue = sum(s for name, s in own.items() if name.startswith("bench."))
    out["trace.glue_frac"] = _ratio(glue, traced_s)
    out["trace.accounted_frac"] = _ratio(sum(self_s), traced_s)
    return out


def layer_breakdown(rec: Recorder) -> list[tuple[str, float]]:
    """(span name, total self time) for every name, largest first."""
    acc: dict[str, float] = defaultdict(float)
    for name, s in zip(rec.names, rec.self_times()):
        acc[name] += s
    return sorted(acc.items(), key=lambda kv: -kv[1])
