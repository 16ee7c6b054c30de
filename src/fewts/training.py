"""Inner-loop task adaptation, the two meta-training loops, test-time
fine-tuning, and 1NN-over-embeddings classification.

The trainer treats the network functionally: every task adaptation starts
from a copy and the caller decides what to keep. That keeps the two outer
loops honest (FS-1 averages parameter deltas, FS-2 adopts them wholesale)
and makes every path reproducible from a seed.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .baselines import euclidean_1nn, query_array
from .data import DatasetBundle, FewShotTask, LabeledSet, sample_task_seeded, task_seed
from .errors import ConfigError, TaskDegenerateError
from .network import (
    ResNetModel,
    backward_batch,
    embed_batch,
    save_checkpoint,
    write_atomic,
)
from .optim import AdamState, adam_step, sgd_step
from .params import CACHE_BLOCK, ParamSet
from .triplet import enumerate_valid_triplets, triplet_loss, triplet_loss_grad

log = logging.getLogger(__name__)

# Stratified batch draws that fail to contain a triplet are retried; a task
# that cannot produce one within this budget is treated as degenerate.
MAX_BATCH_ATTEMPTS = 100
# Consecutive degenerate tasks tolerated from a task source before giving up.
MAX_DEGENERATE_RESAMPLES = 100


@dataclass(frozen=True)
class MetaConfig:
    """Outer-loop hyperparameters shared by both meta-training variants."""

    meta_iterations: int = 2000
    meta_batch: int = 5
    batch_size: int = 10
    epochs: int = 4
    epsilon: float = 1.0
    inner_lr: float = 1e-4
    k_train: int = 10
    margin: float = 0.5
    seed: int = 0
    checkpoint_every: int = 50
    validation_tasks: int = 100

    def __post_init__(self):
        for name in ("meta_iterations", "meta_batch", "batch_size", "epochs",
                     "k_train", "checkpoint_every", "validation_tasks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in (0, 1]")
        if self.inner_lr <= 0.0:
            raise ConfigError("inner_lr must be positive")
        if self.margin < 0.0:
            raise ConfigError("margin must be nonnegative")


@dataclass(frozen=True)
class FineTuneConfig:
    """Test-time adaptation settings. ``epochs=0`` skips optimization and
    only estimates normalization statistics from the task's train split."""

    epochs: int = 16
    inner_lr: float = 1e-4
    batch_size: int = 10
    frozen_layers: int = 0
    margin: float = 0.5

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.inner_lr <= 0.0:
            raise ConfigError("inner_lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.frozen_layers < 0:
            raise ConfigError("frozen_layers must be >= 0")
        if self.margin < 0.0:
            raise ConfigError("margin must be nonnegative")


@dataclass
class TaskSolveReport:
    final_loss: float
    violations: list[int]


@dataclass
class TrainResult:
    """``best_checkpoint`` is the validation-selected checkpoint's path in
    the run dir, the one ``model_selection.json`` names; None without a
    validation hook or a run dir."""

    model: ResNetModel
    best_checkpoint: str | None
    best_iteration: int | None
    best_validation: float | None
    history: list[dict]
    total_inner_steps: int


def iterations_for_task(k_shots: int, n_way: int, batch_size: int, epochs: int) -> int:
    """Inner-loop step count for a K-shot N-way task.

    The floor can reach zero when K*N < b (for example 2-shot 2-way with
    b=10); clamping to one pass keeps small tasks trainable.
    """
    if min(k_shots, n_way, batch_size, epochs) < 1:
        raise ConfigError("all task-size arguments must be >= 1")
    return max(1, (k_shots * n_way) // batch_size) * epochs


def _admits_triplet(labels: np.ndarray) -> bool:
    counts = np.bincount(labels)
    return int((counts >= 1).sum()) >= 2 and int(counts.max(initial=0)) >= 2


def stratified_batch(labels: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a mini-batch of at most ``batch_size`` indices covering
    ceil(b/2) distinct classes and admitting at least one triplet.

    Draws are retried until the batch has two classes present and some class
    contributes twice; a set that cannot satisfy that is degenerate.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    size = min(batch_size, n)
    classes = np.unique(labels)
    want = min(ceil(batch_size / 2), classes.shape[0])
    for _ in range(MAX_BATCH_ATTEMPTS):
        chosen = rng.choice(classes, size=want, replace=False)
        pool = np.flatnonzero(np.isin(labels, chosen))
        if pool.shape[0] <= size:
            batch = np.sort(pool)
        else:
            batch = np.sort(rng.choice(pool, size=size, replace=False))
        if _admits_triplet(labels[batch]):
            return batch
    raise TaskDegenerateError(
        f"no triplet-bearing mini-batch found in {MAX_BATCH_ATTEMPTS} draws "
        f"(classes {classes.tolist()}, batch size {size})"
    )


def inner_solve(
    model: ResNetModel,
    train_set: LabeledSet,
    k: int,
    batch_size: int,
    inner_lr: float,
    margin: float,
    rng: np.random.Generator,
    optimizer: str = "adam",
    task_id: str = "",
) -> tuple[ResNetModel, TaskSolveReport]:
    """Adapt a copy of the model with k stratified mini-batch steps of
    batch-all triplet loss. The input model is left untouched; the returned
    copy carries the adapted parameters and the BN statistics seen on the
    way. A non-finite loss or gradient raises ConfigError naming the task and
    the step."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if optimizer not in ("adam", "sgd"):
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    if not _admits_triplet(train_set.labels):
        raise TaskDegenerateError(
            f"task {task_id or '<unnamed>'} cannot form a triplet: needs two "
            "classes and a class with two instances"
        )
    work = model.copy()
    adam = AdamState.fresh(work.params.values.size, lr=inner_lr)
    violations: list[int] = []
    loss = 0.0
    for step in range(k):
        idx = stratified_batch(train_set.labels, batch_size, rng)
        z, cache = embed_batch(work, train_set.values[idx], mode="train", return_cache=True)
        triplets = enumerate_valid_triplets(train_set.labels[idx])
        loss, nviol = triplet_loss(z, triplets, margin)
        grads = backward_batch(work, cache, triplet_loss_grad(z, triplets, margin))
        if not (np.isfinite(loss) and np.isfinite(grads.values).all()):
            raise ConfigError(
                f"task {task_id or '<unnamed>'}: non-finite loss or gradient at inner "
                f"step {step} of {k} (loss {loss})"
            )
        if optimizer == "adam":
            new_params = adam_step(work.params, grads, adam)
        else:
            new_params = sgd_step(work.params, grads, inner_lr)
        # Adam steps work.params in place; set_params still bumps the
        # revision, so a forward cache taken before this step is refused.
        work.set_params(new_params)
        violations.append(nviol)
    return work, TaskSolveReport(float(loss), violations)


def meta_update(params: ParamSet, adapted: Sequence[ParamSet], epsilon: float) -> ParamSet:
    """Move the initialization toward the mean of the adapted parameters:
    phi + epsilon * mean_j(phi_j - phi).

    The per-coordinate deltas are summed in sorted order, so the result is
    bitwise independent of task order (and of any parallel solve schedule).
    """
    if not adapted:
        raise ConfigError("meta_update needs at least one adapted parameter set")
    for task_params in adapted:
        if task_params.layout != params.layout:
            raise ConfigError("adapted parameters use a different layout")
    k, n = len(adapted), params.values.size
    out = np.empty(n)
    block = np.empty((k, min(n, CACHE_BLOCK)))
    scratch = np.empty(block.shape[1])
    for lo in range(0, n, CACHE_BLOCK):
        hi = min(lo + CACHE_BLOCK, n)
        p = params.values[lo:hi]
        deltas = block[:, : hi - lo]
        for row, task_params in enumerate(adapted):
            np.subtract(task_params.values[lo:hi], p, out=deltas[row])
        _sort_rows(deltas, scratch[: hi - lo])
        np.add(p, epsilon * (deltas.sum(axis=0) / k), out=out[lo:hi])
    return ParamSet(params.layout, out)


def _sort_rows(rows: np.ndarray, scratch: np.ndarray) -> None:
    """Sort each column of a [k, n] array in place, ascending, by odd-even
    transposition: k rounds of min/max on neighbouring rows.

    numpy's minimum and maximum both return their second operand on a tie,
    so taking max(b, a) after min(a, b) keeps each column's multiset even for
    -0.0 == 0.0; the sorted values then match np.sort up to the signs within
    a run of zeros, which no sum over the column can tell apart.
    """
    k = rows.shape[0]
    for r in range(k):
        for i in range(r % 2, k - 1, 2):
            a, b = rows[i], rows[i + 1]
            np.minimum(a, b, out=scratch)
            np.maximum(b, a, out=b)
            a[...] = scratch


def _task_label(task: FewShotTask, ordinal: int) -> str:
    if task.seed is not None:
        return f"{task.dataset}#{task.seed}"
    return f"{task.dataset}#{ordinal}"


def _next_trainable_task(source: Iterator[FewShotTask]) -> FewShotTask:
    """Draw from the source, skipping (and logging) degenerate tasks."""
    for _ in range(MAX_DEGENERATE_RESAMPLES):
        try:
            task = next(source)
        except StopIteration:
            raise ConfigError("task source exhausted during meta-training") from None
        if _admits_triplet(task.train.labels):
            return task
        log.warning("resampling degenerate task from %s (no valid triplet)", task.dataset)
    raise TaskDegenerateError(
        f"{MAX_DEGENERATE_RESAMPLES} consecutive tasks had no valid triplet"
    )


class _RunWriter:
    """Owns the artifact files of one training run. A run dir may be reused:
    at the start the manifest and checkpoints an earlier run left there are
    removed and the log is emptied, so none of them passes for this run's."""

    def __init__(self, run_dir: Path | None):
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.log_path = None
        if self.run_dir is not None:
            checkpoints = self.run_dir / "checkpoints"
            checkpoints.mkdir(parents=True, exist_ok=True)
            (self.run_dir / "model_selection.json").unlink(missing_ok=True)
            for stale in checkpoints.glob("iter_*.ckpt"):
                stale.unlink()
            self.log_path = self.run_dir / "train_log.jsonl"
            self.log_path.write_text("")

    def append(self, record: dict) -> None:
        if self.log_path is not None:
            with self.log_path.open("a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def checkpoint(self, model: ResNetModel, iteration: int) -> str | None:
        if self.run_dir is None:
            return None
        name = f"checkpoints/iter_{iteration:06d}.ckpt"
        save_checkpoint(model, self.run_dir / name)
        return name

    def manifest(self, entry: dict) -> None:
        if self.run_dir is not None:
            text = json.dumps(entry, sort_keys=True, indent=2) + "\n"
            write_atomic(self.run_dir / "model_selection.json", text.encode())


def _train_loop(
    model: ResNetModel,
    config: MetaConfig,
    task_source: Iterator[FewShotTask],
    validation_hook: Callable[[ResNetModel], float] | None,
    run_dir: Path | str | None,
    sequential: bool,
) -> TrainResult:
    # Nothing writes the parameter vector in place (inner_solve steps a copy,
    # and meta_update returns a new vector), so the loop starts from the
    # caller's vector; only the small BN buffers are copied.
    work = ResNetModel(model.spec, model.params, model.bn.copy(), model.bn_updates,
                       model.frozen_layers)
    writer = _RunWriter(run_dir)
    history: list[dict] = []
    best_checkpoint = None
    best_iteration = None
    best_validation = None
    total_steps = 0
    solve_counter = 0

    for i in range(1, config.meta_iterations + 1):
        t0 = time.perf_counter()
        adapted: list[ParamSet] = []
        losses: list[float] = []
        for _ in range(config.meta_batch):
            task = _next_trainable_task(task_source)
            k = iterations_for_task(task.k, task.n_way, config.batch_size, config.epochs)
            solve_rng = np.random.default_rng(task_seed(config.seed, "inner-batches", solve_counter))
            solved, report = inner_solve(
                work,
                task.train,
                k,
                config.batch_size,
                config.inner_lr,
                config.margin,
                solve_rng,
                task_id=_task_label(task, solve_counter),
            )
            solve_counter += 1
            total_steps += k
            losses.append(report.final_loss)
            if sequential:
                work = solved
            else:
                adapted.append(solved.params)
        if not sequential:
            work.set_params(meta_update(work.params, adapted, config.epsilon))

        record = {
            "iteration": i,
            "mean_task_loss": float(np.mean(losses)),
            "wall_time_s": round(time.perf_counter() - t0, 6),
        }
        if i % config.checkpoint_every == 0 or i == config.meta_iterations:
            name = writer.checkpoint(work, i)
            if name is not None:
                record["checkpoint"] = name
            if validation_hook is not None:
                val = float(validation_hook(work))
                record["validation_loss"] = val
                if best_validation is None or val < best_validation:
                    best_validation = val
                    best_iteration = i
                    best_checkpoint = name
                    writer.manifest({
                        "checkpoint": name,
                        "iteration": i,
                        "validation_loss": val,
                    })
        history.append(record)
        writer.append(record)

    return TrainResult(
        model=work,
        best_checkpoint=best_checkpoint,
        best_iteration=best_iteration,
        best_validation=best_validation,
        history=history,
        total_inner_steps=total_steps,
    )


def fs1_train(
    model: ResNetModel,
    config: MetaConfig,
    task_source: Iterator[FewShotTask],
    validation_hook: Callable[[ResNetModel], float] | None = None,
    run_dir: Path | str | None = None,
) -> TrainResult:
    """Batched meta-training: every meta-iteration solves B tasks from the
    same initialization and averages the parameter deltas."""
    return _train_loop(model, config, task_source, validation_hook, run_dir, sequential=False)


def fs2_train(
    model: ResNetModel,
    config: MetaConfig,
    task_source: Iterator[FewShotTask],
    validation_hook: Callable[[ResNetModel], float] | None = None,
    run_dir: Path | str | None = None,
) -> TrainResult:
    """Sequential meta-training: each task's inner steps mutate the single
    running parameter vector directly, with a fresh optimizer per task.
    ``TrainResult.total_inner_steps`` counts exactly M*B*k gradient steps."""
    return _train_loop(model, config, task_source, validation_hook, run_dir, sequential=True)


def finetune(
    model: ResNetModel,
    train_set: LabeledSet,
    config: FineTuneConfig = FineTuneConfig(),
    rng: np.random.Generator | None = None,
    task_id: str = "",
) -> ResNetModel:
    """Adapt a trained initialization to one task's train split.

    Normalization statistics are re-estimated from this split alone, the
    lowest ``config.frozen_layers`` conv layers stay fixed, and ``epochs``
    epochs of stratified mini-batches run on top. The input model is not
    modified; ``task_id`` names the task in errors.
    """
    if train_set.n == 0:
        raise TaskDegenerateError("cannot fine-tune on an empty train split")
    if config.epochs == 0:
        if train_set.n < 2:
            raise TaskDegenerateError("estimating normalization statistics needs >= 2 series")
        work = ResNetModel(model.spec, model.params.copy(), frozen_layers=config.frozen_layers)
        embed_batch(work, train_set.values, mode="train", update_buffers=True)
        return work
    # inner_solve copies the model before it steps, so this view of the
    # input's parameters is never written.
    work = ResNetModel(model.spec, model.params, frozen_layers=config.frozen_layers)
    if rng is None:
        rng = np.random.default_rng(0)
    k = max(1, train_set.n // config.batch_size) * config.epochs
    solved, _ = inner_solve(
        work,
        train_set,
        k,
        config.batch_size,
        config.inner_lr,
        config.margin,
        rng,
        task_id=task_id,
    )
    return solved


def classify_1nn(model: ResNetModel, train_set: LabeledSet, queries) -> np.ndarray:
    """Label an [n, T] array of queries by
    :func:`~fewts.baselines.euclidean_1nn` over the embeddings of one infer
    call on the train split plus the queries.

    Ties resolve to the smallest training-sample index. Non-finite
    embeddings raise ConfigError rather than picking an arbitrary neighbour.
    """
    queries = query_array(train_set, queries)
    embedded = embed_batch(model, np.concatenate([train_set.values, queries]), mode="infer")
    anchors, z = embedded[: train_set.n], embedded[train_set.n :]
    return euclidean_1nn(LabeledSet(anchors, train_set.labels), z)


def evaluate_task(
    model: ResNetModel,
    task: FewShotTask,
    config: FineTuneConfig = FineTuneConfig(),
    rng: np.random.Generator | None = None,
) -> float:
    """Fine-tune on the task's train split, classify its test split, and
    return the accuracy."""
    if task.test.n == 0:
        raise ConfigError("task has no test samples to evaluate")
    tuned = finetune(model, task.train, config, rng=rng, task_id=_task_label(task, 0))
    predicted = classify_1nn(tuned, task.train, task.test.values)
    return float(np.mean(predicted == task.test.labels))


def make_validation_hook(
    tasks: Sequence[FewShotTask],
    margin: float = 0.5,
) -> Callable[[ResNetModel], float]:
    """Mean batch-all triplet loss over a fixed task pool, no adaptation.

    Embeddings use batch statistics without touching the model's buffers, so
    the hook is read-only and usable mid-training."""
    if not tasks:
        raise ConfigError("validation hook needs at least one task")

    def hook(model: ResNetModel) -> float:
        losses = []
        for task in tasks:
            z = embed_batch(model, task.train.values, mode="train", update_buffers=False)
            triplets = enumerate_valid_triplets(task.train.labels)
            loss, _ = triplet_loss(z, triplets, margin)
            losses.append(loss)
        return float(np.mean(losses))

    return hook


def meta_task_stream(
    bundles: Sequence[DatasetBundle],
    k: int,
    k_prime: int,
    run_seed: int,
) -> Iterator[FewShotTask]:
    """Endless deterministic task stream over a meta-set.

    The dataset choice and each task's sample draw derive from ``run_seed``
    alone, so two streams with the same arguments yield identical tasks."""
    if not bundles:
        raise ConfigError("task stream needs at least one dataset")
    picker = np.random.default_rng(task_seed(run_seed, "stream-datasets", 0))
    index = 0
    while True:
        bundle = bundles[int(picker.integers(len(bundles)))]
        yield sample_task_seeded(bundle, k, k_prime, seed=task_seed(run_seed, bundle.name, index))
        index += 1


def fixed_task_pool(
    bundles: Sequence[DatasetBundle],
    k: int,
    k_prime: int,
    run_seed: int,
    count: int,
) -> list[FewShotTask]:
    """A reproducible finite pool of validation tasks, seeded apart from the
    training stream."""
    if count < 1:
        raise ConfigError("task pool needs at least one task")
    stream = meta_task_stream(bundles, k, k_prime, task_seed(run_seed, "validation", 0))
    return [next(stream) for _ in range(count)]
