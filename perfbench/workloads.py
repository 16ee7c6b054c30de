"""The three benchmark workloads.

Each workload is a closed loop from one process: :meth:`setup` builds the
inputs and models for a variant, and :meth:`run_pass` makes one call into
fewts (one ``fs1_train`` or one ``run_protocol``) and returns what it did.
The runner repeats set-up and pass for the measured time; every pass of a
run does the same work on the same inputs.

Inputs come only from the variant, ``seed % VARIANTS``, so the same seed
gives the same inputs and ``reference.json`` (written by
``make_reference.py``) holds the expected outputs of every variant.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fewts.network import ArchSpec, build_model, load_checkpoint, save_checkpoint
from fewts.protocol import report_from_records, run_protocol
from fewts.synthetic import ar_coefficient_domain, sine_frequency_domain, square_duty_domain
from fewts.training import (
    MetaConfig,
    fixed_task_pool,
    fs1_train,
    make_validation_hook,
    meta_task_stream,
)

VARIANTS = 8

# Distance baselines are exact arithmetic and must match the reference
# bitwise. Embedding methods run BLAS matmuls whose summation order may
# change with the BLAS build, the thread count or a rewritten kernel. That
# moves the validation loss by about 1e-15 relative and could flip a
# near-tied nearest neighbour, so an embedding record may lose or gain one
# of its 100 query predictions (0.01), not two.
EMBED_ACCURACY_TOL = 0.015
VALIDATION_LOSS_RTOL = 1e-9

TINY_ARCH = ArchSpec(blocks=2, convs_per_block=2, filter_lengths=(8, 5), filters_per_length=4)


def domains(variant: int, length: int, n_classes: int):
    """Sine-frequency, square-duty and AR-coefficient bundles of a variant."""
    base = 7919 * (variant + 1)
    return [
        sine_frequency_domain(base, n_classes=n_classes, length=length, noise=1.0),
        square_duty_domain(base + 1, n_classes=n_classes, length=length, noise=1.0),
        ar_coefficient_domain(base + 2, n_classes=n_classes, length=length),
    ]


@dataclass
class PassResult:
    seconds: float  # wall time of the timed fewts call
    ops: int  # operations attempted: inner steps or (task, method) records
    failed: int  # operations that raised, went non-finite or broke a check
    # The pass's wall time split into the parts the program times itself;
    # "rest" is what they leave over.
    parts: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, float] = field(default_factory=dict)  # checked against the reference


def mismatches(got: dict[str, float], want: dict[str, float], tolerance) -> list[str]:
    """Keys of ``want`` that ``got`` lacks or holds outside ``tolerance(key)``,
    a pair (absolute, relative); (0, 0) means bitwise equal."""
    bad = []
    for key, expected in want.items():
        value = got.get(key)
        if value is None or not math.isfinite(value):
            bad.append(key)
            continue
        abs_tol, rel_tol = tolerance(key)
        if abs(value - expected) > max(abs_tol, rel_tol * abs(expected)):
            bad.append(key)
    return bad


# Why: BLAS-bound conv at the paper's default arch (165 channels, filters
# 4-64) at T=128, b=10. Conv forward and backward are about 93% of an inner
# step; Adam and meta_update run over 2.03M parameters, and each pass (one
# meta-iteration of two tasks) ends with a validation hook and a 16 MB
# checkpoint write. It never touches the baselines or infer mode.
class MetaTrain:
    name = "meta-train"
    length = 128
    n_classes = 5
    config = dict(meta_iterations=1, meta_batch=2, batch_size=10, epochs=1, k_train=2,
                  checkpoint_every=1, validation_tasks=2)
    # 2 tasks; 2 shots x 5 classes fill one batch of 10, so each task takes
    # one step per epoch.
    ops_per_pass = 2

    def setup(self, variant: int, work_dir: Path, rec):
        sine, square, ar = domains(variant, self.length, self.n_classes)
        model = build_model(ArchSpec(), np.random.default_rng(variant))
        pool = fixed_task_pool([sine], self.config["k_train"], 0, variant,
                               self.config["validation_tasks"])
        hook = rec.wrap(make_validation_hook(pool), "training.validation_hook")
        return {"variant": variant, "model": model, "train": [square, ar], "hook": hook,
                "run_dir": work_dir / "meta"}

    def run_pass(self, state, rec) -> PassResult:
        config = MetaConfig(seed=state["variant"], **self.config)
        stream = meta_task_stream(state["train"], config.k_train, 0, config.seed)
        t0 = time.perf_counter()
        result = rec.call("training.fs1_train", fs1_train, state["model"], config, stream,
                          validation_hook=state["hook"], run_dir=state["run_dir"])
        seconds = time.perf_counter() - t0
        (record,) = result.history
        finite = math.isfinite(record["mean_task_loss"])
        return PassResult(
            seconds=seconds,
            ops=self.ops_per_pass,
            failed=0 if finite and result.total_inner_steps == self.ops_per_pass
            else self.ops_per_pass,
            parts={"iteration": record["wall_time_s"],
                   "rest": seconds - record["wall_time_s"]},
            outputs={"validation_loss": record["validation_loss"]},
        )

    def task_latencies(self, parts: dict[str, float]) -> dict[str, float]:
        # The iteration's wall time covers its tasks and the meta-update.
        return {"iteration": parts["iteration"] / self.config["meta_batch"]}

    def failures(self, outputs, reference) -> int:
        bad = mismatches(outputs, reference, lambda key: (0.0, VALIDATION_LOSS_RTOL))
        return self.ops_per_pass if bad else 0

    def summary(self, result: PassResult) -> dict:
        return {"validation_loss": (result.outputs["validation_loss"], "loss", 1)}


class _ProtocolWorkload:
    """Shared pass logic of the two evaluation workloads."""

    methods: tuple[str, ...]
    k: int
    k_prime: int
    datasets = 3  # one task per synthetic domain per pass

    @property
    def ops_per_pass(self) -> int:
        return self.datasets * len(self.methods)

    def protocol_kwargs(self, state) -> dict:
        return {}

    def after_protocol(self, records_path: Path, out_dir: Path, rec) -> bool:
        return True

    def run_pass(self, state, rec) -> PassResult:
        out_dir = state["out_dir"]
        t0 = time.perf_counter()
        records_path = rec.call(
            "protocol.run_protocol", run_protocol, state["bundles"], list(self.methods),
            self.k, self.k_prime, 1, state["variant"], out_dir,
            **self.protocol_kwargs(state),
        )
        seconds = time.perf_counter() - t0
        ok = self.after_protocol(records_path, out_dir, rec)
        records = [json.loads(line) for line in Path(records_path).read_text().splitlines()]
        parts: dict[str, float] = {}
        outputs = {}
        for r in records:
            key = f"{r['dataset']}/{r['task_index']}/{r['method']}"
            parts[key] = r["wall_time_s"]
            outputs[key] = r["accuracy"]
        parts["rest"] = seconds - sum(parts.values())
        expected = self.ops_per_pass
        return PassResult(
            seconds=seconds,
            ops=expected,
            failed=expected if not ok else max(0, expected - len(outputs)),
            parts=parts,
            outputs=outputs,
        )

    def task_latencies(self, parts: dict[str, float]) -> dict[str, float]:
        # A task's latency is the time of all of its (task, method) records.
        tasks: dict[str, float] = {}
        for key, s in parts.items():
            if key != "rest":
                task = key.rsplit("/", 1)[0]
                tasks[task] = tasks.get(task, 0.0) + s
        return tasks

    @staticmethod
    def tolerance(key: str) -> tuple[float, float]:
        if key.endswith(("/ed", "/dtw")):
            return 0.0, 0.0
        return EMBED_ACCURACY_TOL, 0.0

    def failures(self, outputs, reference) -> int:
        return len(mismatches(outputs, reference, self.tolerance))

    def summary(self, result: PassResult) -> dict:
        values = list(result.outputs.values())
        return {"accuracy": (statistics.fmean(values), "fraction", len(values))}


# Why: the per-call-overhead regime. The tiny demo arch (filter lengths 8
# and 5, 4 per length) makes an inner step about 11 ms, of which np.pad and
# sliding_window_view are about 40%. A third of each task is per-series
# infer embedding (25 train + 100 query series), so a conv change that
# helps large tensors but adds fixed cost shows here, and so does batched
# infer. The fs1 checkpoint is written and loaded in setup. It never
# touches the baselines.
class EmbedEval(_ProtocolWorkload):
    name = "embed-eval"
    methods = ("fs1", "resnet")
    k = 5
    k_prime = 20

    def setup(self, variant: int, work_dir: Path, rec):
        bundles = domains(variant, 128, 5)
        ckpt = work_dir / "fs1.ckpt"
        rec.call("network.save_checkpoint", save_checkpoint,
                 build_model(TINY_ARCH, np.random.default_rng(variant)), ckpt)
        fs1 = rec.call("network.load_checkpoint", load_checkpoint, ckpt)
        return {"variant": variant, "bundles": bundles, "fs1": fs1, "out_dir": work_dir / "embed"}

    def protocol_kwargs(self, state) -> dict:
        return {"models": {"fs1": state["fs1"]}, "scratch_spec": TINY_ARCH}


# Why: pure-Python DTW. LOOCV over the default 50-fraction window grid at
# T=64 is 50 distinct bands x 15 train pairs per task, then dtw_1nn over 6
# queries; no conv runs. The 1NN band is the one LOOCV picks, so few queries
# keep the work per task nearly the same for every seed. This is the workload for vectorized DTW and
# LB_Keogh pruning, and its peak RSS catches memory blow-up from
# vectorizing over pairs x widths. The report step runs the statistics.
class BaselineEval(_ProtocolWorkload):
    name = "baseline-eval"
    methods = ("ed", "dtw")
    k = 2
    k_prime = 2

    def setup(self, variant: int, work_dir: Path, rec):
        return {"variant": variant, "bundles": domains(variant, 64, 3),
                "out_dir": work_dir / "baseline"}

    def after_protocol(self, records_path: Path, out_dir: Path, rec) -> bool:
        paths = rec.call("protocol.report_from_records", report_from_records,
                         records_path, out_dir)
        summary = json.loads(Path(paths["summary"]).read_text())
        return (summary["methods"] == list(self.methods)
                and summary["dataset_count"] == self.datasets)


WORKLOADS = {w.name: w for w in (MetaTrain(), EmbedEval(), BaselineEval())}
