"""Shared-task evaluation protocol and deterministic report emission.

Every method in a run is evaluated on the exact same tasks: task seeds
derive from (run seed, dataset, index) only, never from the method list, so
adding a method changes nothing about what the others see. Reports carry no
timestamps and are bytewise reproducible from the records.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .baselines import DTWConfig, dtw_1nn, dtw_loocv_window, euclidean_1nn
from .data import (
    DatasetBundle, FewShotTask, format_task_log, read_jsonl, sample_task_seeded, task_seed,
)
from .errors import ConfigError
from .network import ArchSpec, ResNetModel, build_model, write_atomic
from .stats import (
    ALPHA,
    RankTable,
    aggregate,
    cd_cliques,
    friedman_statistic,
    nemenyi_cd,
    wtl_counts,
)
from .training import FineTuneConfig, evaluate_task

KNOWN_METHODS = ("fs1", "fs2", "resnet", "ed", "dtw")
# Methods that fine-tune a meta-trained checkpoint, one per meta-train variant.
CHECKPOINT_METHODS = ("fs1", "fs2")

# Fine-tuning budgets per method; fs2 checkpoints prefer a shorter budget.
DEFAULT_FINETUNE = {
    "fs1": FineTuneConfig(epochs=16),
    "fs2": FineTuneConfig(epochs=8),
    "resnet": FineTuneConfig(epochs=16),
}


@dataclass(frozen=True)
class TaskResult:
    dataset: str
    task_index: int
    method: str
    accuracy: float
    wall_time_s: float
    task_seed: int

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigError(f"accuracy {self.accuracy} outside [0, 1]")


def format_record(record: TaskResult) -> str:
    return json.dumps(asdict(record), sort_keys=True) + "\n"


def read_records(path: Path | str) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"records file not found: {path}")
    return read_jsonl(path, "record")


def _accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predicted == labels))


def _evaluate_method(
    method: str,
    task: FewShotTask,
    run_seed: int,
    task_index: int,
    models: Mapping[str, ResNetModel],
    finetune: Mapping[str, FineTuneConfig],
    scratch_spec: ArchSpec,
    dtw_config: DTWConfig,
) -> float:
    if method == "ed":
        return _accuracy(euclidean_1nn(task.train, task.test.values), task.test.labels)
    if method == "dtw":
        window = dtw_loocv_window(task.train, dtw_config)
        return _accuracy(dtw_1nn(task.train, task.test.values, window), task.test.labels)
    rng = np.random.default_rng(
        task_seed(run_seed, f"finetune:{method}:{task.dataset}", task_index)
    )
    if method in CHECKPOINT_METHODS:
        return evaluate_task(models[method], task, finetune[method], rng=rng)
    if method == "resnet":
        init = np.random.default_rng(
            task_seed(run_seed, f"scratch-init:{task.dataset}", task_index)
        )
        fresh = build_model(scratch_spec, init)
        return evaluate_task(fresh, task, finetune["resnet"], rng=rng)
    raise ConfigError(f"unknown method {method!r}")


def run_protocol(
    bundles: Sequence[DatasetBundle],
    methods: Sequence[str],
    k: int,
    k_prime: int,
    tasks_per_dataset: int,
    run_seed: int,
    out_dir: Path | str,
    models: Mapping[str, ResNetModel] | None = None,
    finetune: Mapping[str, FineTuneConfig] | None = None,
    scratch_spec: ArchSpec | None = None,
    dtw_config: DTWConfig = DTWConfig(),
) -> Path:
    """Evaluate every method on ``tasks_per_dataset`` shared tasks per
    dataset; returns the records path. Writes the run configuration into
    ``out_dir`` first, then appends and flushes each task's log line and each
    (task, method) record as it is produced, so a crash loses no finished
    record."""
    if not bundles:
        raise ConfigError("protocol needs at least one dataset")
    if not methods:
        raise ConfigError("protocol needs at least one method")
    if len(set(methods)) != len(methods):
        raise ConfigError("duplicate method names")
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {', '.join(KNOWN_METHODS)}")
    if min(k, k_prime, tasks_per_dataset) < 1:
        raise ConfigError("k, k_prime and tasks_per_dataset must be >= 1")
    models = dict(models or {})
    for m in methods:
        if m in CHECKPOINT_METHODS and m not in models:
            raise ConfigError(f"method {m!r} needs a trained checkpoint")
    ft = {**DEFAULT_FINETUNE, **(finetune or {})}
    if scratch_spec is None:
        for name in CHECKPOINT_METHODS:
            if name in models:
                scratch_spec = models[name].spec
                break
        else:
            scratch_spec = ArchSpec()
    for m in methods:
        if m in ft:
            layers = (models[m].spec if m in CHECKPOINT_METHODS else scratch_spec).conv_layers
            if ft[m].frozen_layers > layers:
                raise ConfigError(f"finetune.{m}: frozen_layers must be in [0, {layers}], "
                                  f"got {ft[m].frozen_layers}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_config = {
        "run_seed": run_seed,
        "k": k,
        "k_prime": k_prime,
        "tasks_per_dataset": tasks_per_dataset,
        "methods": list(methods),
        "datasets": [b.name for b in bundles],
    }
    config_text = json.dumps(run_config, sort_keys=True, indent=2) + "\n"
    write_atomic(out / "run_config.json", config_text.encode())
    records_path = out / "records.jsonl"
    with open(out / "tasks.jsonl", "w") as task_log, open(records_path, "w") as record_log:
        for bundle in bundles:
            for index in range(tasks_per_dataset):
                seed = task_seed(run_seed, bundle.name, index)
                task = sample_task_seeded(bundle, k, k_prime, seed=seed)
                task_log.write(format_task_log([task]))
                task_log.flush()
                for method in methods:
                    t0 = time.perf_counter()
                    acc = _evaluate_method(
                        method, task, run_seed, index, models, ft, scratch_spec, dtw_config
                    )
                    wall = round(time.perf_counter() - t0, 6)
                    result = TaskResult(bundle.name, index, method, acc, wall, seed)
                    record_log.write(format_record(result))
                    record_log.flush()
    return records_path


def emit_report(
    table: RankTable,
    out_dir: Path | str,
    header: Mapping | None = None,
) -> dict[str, Path]:
    """Write the accuracy table (CSV), a structured summary, and
    critical-difference plot data. Bytewise deterministic for a given table."""
    if len(table.methods) < 2:
        raise ConfigError("a report needs at least two methods")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create report directory {out}: {exc}") from exc

    stat, k, n = friedman_statistic(table)
    cd = nemenyi_cd(k, n)

    csv_lines = ["dataset," + ",".join(table.methods)]
    for name, row in zip(table.datasets, table.accuracies):
        csv_lines.append(name + "," + ",".join(f"{a:.6f}" for a in row))
    csv_lines.append("mean_rank," + ",".join(f"{r:.6f}" for r in table.mean_ranks))
    table_path = out / "accuracy_table.csv"
    write_atomic(table_path, ("\n".join(csv_lines) + "\n").encode())

    wtl = {
        a: {
            b: list(wtl_counts(table, a, b))
            for b in table.methods
            if b != a
        }
        for a in table.methods
    }
    summary = {
        "alpha": ALPHA,
        "critical_difference": cd,
        "dataset_count": n,
        "friedman_chi2": stat,
        "header": dict(header or {}),
        "mean_ranks": {m: float(r) for m, r in zip(table.methods, table.mean_ranks)},
        "method_count": k,
        "methods": list(table.methods),
        "wtl": wtl,
    }
    summary_path = out / "summary.json"
    write_atomic(summary_path, (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode())

    order = np.argsort(table.mean_ranks, kind="stable")
    plot = {
        "alpha": ALPHA,
        "critical_difference": cd,
        "entries": [
            {"mean_rank": float(table.mean_ranks[i]), "method": table.methods[i]}
            for i in order
        ],
        "cliques": cd_cliques(table, cd),
    }
    plot_path = out / "cd_plot.json"
    write_atomic(plot_path, (json.dumps(plot, sort_keys=True, indent=2) + "\n").encode())
    return {"table": table_path, "summary": summary_path, "cd_plot": plot_path}


def report_from_records(records_path: Path | str, out_dir: Path | str) -> dict[str, Path]:
    """Aggregate a records file and emit the report, headed by the
    ``run_config.json`` beside the records when there is one."""
    table = aggregate(read_records(records_path))
    header = None
    run_config = Path(records_path).parent / "run_config.json"
    if run_config.exists():
        try:
            header = json.loads(run_config.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{run_config}: unreadable run config ({exc})") from exc
        if not isinstance(header, dict):
            raise ConfigError(f"{run_config}: run config is not a JSON object")
    return emit_report(table, out_dir, header=header)
