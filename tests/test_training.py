import hashlib
import itertools
import json
import logging
import os

import numpy as np
import pytest

from fewts import kernels
from fewts.data import Dataset, DatasetBundle, LabeledSet, sample_task_seeded, task_seed
from fewts.errors import ConfigError, TaskDegenerateError
from fewts.network import ArchSpec, backward_batch, build_layout, build_model, embed_batch
from fewts.optim import sgd_step
from fewts.params import CACHE_BLOCK, Layout, ParamSet
from fewts.training import (
    FineTuneConfig,
    MetaConfig,
    classify_1nn,
    evaluate_task,
    finetune,
    fixed_task_pool,
    fs1_train,
    fs2_train,
    inner_solve,
    iterations_for_task,
    make_validation_hook,
    meta_task_stream,
    meta_update,
    stratified_batch,
)
from fewts.triplet import enumerate_valid_triplets, triplet_loss_grad

from helpers import freeze_mask_reference, inner_solve_reference, meta_update_reference

TINY = ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(2, 3), filters_per_length=2)


def tiny_model(seed=0):
    return build_model(TINY, np.random.default_rng(seed))


def level_task_set(per_class=4, t=8, jitter=0.05, seed=0):
    """Two classes of near-constant series at levels -1 and +1."""
    rng = np.random.default_rng(seed)
    values, labels = [], []
    for c, level in enumerate((-1.0, 1.0)):
        for _ in range(per_class):
            values.append(np.full(t, level) + jitter * rng.standard_normal(t))
            labels.append(c)
    return LabeledSet(values, np.array(labels))


def toy_bundle(n_classes=4, per_class_train=6, per_class_test=5, t=8, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(str(c) for c in range(n_classes))

    def pool(split, per_class):
        values, labels = [], []
        for c in range(n_classes):
            center = np.sin(np.linspace(0.0, 2.0 * np.pi * (c + 1), t))
            for _ in range(per_class):
                values.append(center + 0.1 * rng.standard_normal(t))
                labels.append(c)
        return Dataset(np.vstack(values), np.array(labels), name="toy", split=split,
                       label_names=names)

    return DatasetBundle("toy", pool("train", per_class_train), pool("test", per_class_test))


# ---------------------------------------------------------------------------
# Iteration count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k_shots,n_way,b,e,expected",
    [(5, 2, 10, 4, 4), (10, 37, 10, 4, 148), (2, 2, 10, 4, 4), (10, 10, 10, 4, 40)],
)
def test_iterations_for_task(k_shots, n_way, b, e, expected):
    assert iterations_for_task(k_shots, n_way, b, e) == expected


def test_iterations_for_task_rejects_nonpositive():
    with pytest.raises(ConfigError):
        iterations_for_task(0, 2, 10, 4)


# ---------------------------------------------------------------------------
# Mini-batch stratification
# ---------------------------------------------------------------------------


def test_stratified_batch_size_and_triplet():
    labels = np.array([0] * 5 + [1] * 5 + [2] * 5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        batch = stratified_batch(labels, 10, rng)
        assert batch.shape[0] <= 10
        counts = np.bincount(labels[batch])
        assert (counts >= 1).sum() >= 2
        assert counts.max() >= 2
        assert np.array_equal(batch, np.sort(batch))


def test_stratified_batch_small_set_takes_everything():
    labels = np.array([0, 0, 1])
    batch = stratified_batch(labels, 10, np.random.default_rng(1))
    assert np.array_equal(batch, [0, 1, 2])


def test_stratified_batch_degenerate_raises():
    # One instance per class: no batch can ever contain a triplet.
    labels = np.arange(6)
    with pytest.raises(TaskDegenerateError):
        stratified_batch(labels, 10, np.random.default_rng(2))


# ---------------------------------------------------------------------------
# Inner solve
# ---------------------------------------------------------------------------


def noise_task_set(per_class=4, t=8, seed=0):
    """Inseparable two-class noise: guarantees active triplet terms."""
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(t) for _ in range(2 * per_class)]
    return LabeledSet(values, np.array([0] * per_class + [1] * per_class))


def test_inner_solve_leaves_input_untouched():
    model = tiny_model()
    before = model.params.values.copy()
    train = noise_task_set()
    solved, report = inner_solve(model, train, k=3, batch_size=8, inner_lr=1e-3,
                                 margin=0.5, rng=np.random.default_rng(0))
    assert np.array_equal(model.params.values, before)
    assert model.bn_updates == 0
    assert not np.array_equal(solved.params.values, before)
    assert len(report.violations) == 3
    # One train-mode embed per step updates the BN buffers once.
    assert solved.bn_updates == 3


def test_inner_solve_matches_functional_adam_reference_bitwise():
    # In-place Adam against the functional step it replaced, through the
    # whole inner loop: parameters, BN statistics and the report.
    model = tiny_model()
    train = noise_task_set(per_class=6)
    solved, report = inner_solve(model, train, k=3, batch_size=8, inner_lr=1e-2,
                                 margin=0.5, rng=np.random.default_rng(4))
    want, (violations, loss) = inner_solve_reference(
        model, train, k=3, batch_size=8, inner_lr=1e-2, margin=0.5,
        rng=np.random.default_rng(4))
    assert solved.params.values.tobytes() == want.params.values.tobytes()
    assert not np.array_equal(solved.params.values, model.params.values)
    assert solved.bn.tobytes() == want.bn.tobytes()
    assert solved.bn_updates == want.bn_updates == 3
    assert (report.violations, report.final_loss) == (violations, loss)


def test_inner_solve_deterministic():
    train = level_task_set()
    runs = []
    for _ in range(2):
        solved, report = inner_solve(tiny_model(), train, k=4, batch_size=4,
                                     inner_lr=1e-3, margin=0.5,
                                     rng=np.random.default_rng(7))
        runs.append((solved.params.values.tobytes(), report.violations))
    assert runs[0] == runs[1]


def test_inner_solve_zero_learning_rate_is_identity():
    model = tiny_model()
    solved, _ = inner_solve(model, level_task_set(), k=5, batch_size=8,
                            inner_lr=0.0, margin=0.5, rng=np.random.default_rng(0))
    assert np.array_equal(solved.params.values, model.params.values)


def test_inner_solve_separable_task_reaches_zero_violations():
    train = level_task_set(per_class=4, jitter=0.02)
    solved, report = inner_solve(tiny_model(3), train, k=20, batch_size=8,
                                 inner_lr=0.05, margin=0.5,
                                 rng=np.random.default_rng(0))
    assert report.violations[-1] == 0


def test_inner_solve_degenerate_task():
    bad = LabeledSet([np.zeros(8), np.ones(8)], np.array([0, 1]))
    with pytest.raises(TaskDegenerateError):
        inner_solve(tiny_model(), bad, k=1, batch_size=4, inner_lr=1e-3,
                    margin=0.5, rng=np.random.default_rng(0))


def test_inner_solve_rejects_non_finite_loss():
    model = tiny_model()
    values = model.params.values.copy()
    values[0] = np.nan
    model.set_params(ParamSet(model.params.layout, values))
    with pytest.raises(ConfigError, match=r"task toy#3: non-finite .* step 0 of 2"):
        inner_solve(model, noise_task_set(), k=2, batch_size=8, inner_lr=1e-3,
                    margin=0.5, rng=np.random.default_rng(0), task_id="toy#3")


# ---------------------------------------------------------------------------
# Meta-update
# ---------------------------------------------------------------------------


def random_paramsets(n, seed=0):
    model = tiny_model()
    rng = np.random.default_rng(seed)
    base = ParamSet(model.params.layout, rng.standard_normal(model.params.values.size))
    others = [ParamSet(base.layout, rng.standard_normal(base.values.size)) for _ in range(n)]
    return base, others


def test_meta_update_matches_algebra():
    base, adapted = random_paramsets(3)
    out = meta_update(base, adapted, 0.25)
    expected = base.values + 0.25 * np.mean([a.values - base.values for a in adapted], axis=0)
    assert np.allclose(out.values, expected, atol=1e-12)


def test_meta_update_order_independent_bitwise():
    base, adapted = random_paramsets(5, seed=3)
    reference = meta_update(base, adapted, 1.0).values.tobytes()
    for perm in itertools.permutations(range(5)):
        shuffled = [adapted[i] for i in perm]
        assert meta_update(base, shuffled, 1.0).values.tobytes() == reference


@pytest.mark.parametrize("k", range(1, 8))
def test_meta_update_matches_sorted_sum_bitwise(k):
    # Few distinct values make ties common; the zeros of either sign and the
    # infinities go through the sorting network as they would through np.sort.
    rng = np.random.default_rng(k)
    n = 2 * CACHE_BLOCK + 37
    levels = np.array([-np.inf, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.25, 1.5, np.inf])
    base = ParamSet(Layout([("p", (n,))]), rng.choice(levels[1:-1], n))
    adapted = [ParamSet(base.layout, rng.choice(levels, n)) for _ in range(k)]
    for epsilon in (1.0, 0.37):
        with np.errstate(invalid="ignore"):  # a column holding both infinities
            got = meta_update(base, adapted, epsilon).values
            want = meta_update_reference(base.values, [a.values for a in adapted], epsilon)
        assert got.tobytes() == want.tobytes()


def test_meta_update_identical_deltas_collapse_to_one():
    # Summing five copies of a delta can round in the last bit, so this
    # symmetry is near-exact rather than bitwise.
    base, adapted = random_paramsets(1, seed=5)
    single = meta_update(base, adapted, 1.0)
    repeated = meta_update(base, adapted * 5, 1.0)
    assert np.allclose(repeated.values, single.values, rtol=1e-12, atol=1e-12)


def test_meta_update_zero_epsilon_is_identity():
    base, adapted = random_paramsets(4, seed=1)
    assert np.array_equal(meta_update(base, adapted, 0.0).values, base.values)


def test_meta_update_rejects_empty_and_mismatched():
    base, _ = random_paramsets(1)
    with pytest.raises(ConfigError):
        meta_update(base, [], 1.0)
    other = build_model(ArchSpec(1, 2, (2,), 2), np.random.default_rng(0)).params
    with pytest.raises(ConfigError):
        meta_update(base, [other], 1.0)


def test_reptile_degeneracy_single_sgd_step():
    # B=1, k=1, inner SGD: the meta-update must equal one SGD step scaled
    # by epsilon, elementwise to 1e-12.
    model = tiny_model(2)
    train = level_task_set(per_class=2)
    eta, epsilon = 1e-3, 0.7
    solved, _ = inner_solve(model, train, k=1, batch_size=10, inner_lr=eta,
                            margin=0.5, rng=np.random.default_rng(0),
                            optimizer="sgd")
    updated = meta_update(model.params, [solved.params], epsilon)

    work = model.copy()
    z, cache = embed_batch(work, train.values, mode="train", return_cache=True)
    triplets = enumerate_valid_triplets(train.labels)
    grads = backward_batch(work, cache, triplet_loss_grad(z, triplets))
    direct = sgd_step(model.params, grads, epsilon * eta)
    assert np.max(np.abs(updated.values - direct.values)) < 1e-12


# ---------------------------------------------------------------------------
# Meta-training loops
# ---------------------------------------------------------------------------


def small_config(**overrides):
    base = dict(meta_iterations=2, meta_batch=2, batch_size=6, epochs=1,
                epsilon=1.0, inner_lr=1e-3, k_train=2, seed=0,
                checkpoint_every=1, validation_tasks=2)
    base.update(overrides)
    return MetaConfig(**base)


def test_meta_config_validation():
    with pytest.raises(ConfigError):
        MetaConfig(meta_iterations=0)
    with pytest.raises(ConfigError):
        MetaConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        MetaConfig(epsilon=1.5)
    with pytest.raises(ConfigError):
        MetaConfig(inner_lr=0.0)


def test_fs1_train_runs_and_moves_parameters():
    bundle = toy_bundle()
    config = small_config()
    model = tiny_model()
    stream = meta_task_stream([bundle], k=2, k_prime=0, run_seed=1)
    result = fs1_train(model, config, stream)
    assert len(result.history) == 2
    assert not np.array_equal(result.model.params.values, model.params.values)
    assert np.array_equal(model.params.values, tiny_model().params.values)
    assert result.total_inner_steps == 2 * 2 * iterations_for_task(2, 4, 6, 1)


def test_fs1_train_is_deterministic():
    bundle = toy_bundle()
    outs = []
    for _ in range(2):
        stream = meta_task_stream([bundle], k=2, k_prime=0, run_seed=4)
        result = fs1_train(tiny_model(), small_config(seed=9), stream)
        outs.append(result.model.params.values.tobytes())
    assert outs[0] == outs[1]


def test_fs1_checkpoint_independent_of_worker_count(tmp_path, monkeypatch):
    # Every conv layer is cut into parts, over 1 and over 3 workers.
    monkeypatch.setattr(kernels, "_SPLIT_MACS", 0)
    bundle = toy_bundle()
    digests = []
    for workers in (1, 3):
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        run_dir = tmp_path / f"w{workers}"
        fs1_train(tiny_model(), small_config(meta_iterations=1, checkpoint_every=1),
                  meta_task_stream([bundle], 2, 0, 6), run_dir=run_dir)
        (ckpt,) = (run_dir / "checkpoints").iterdir()
        digests.append(hashlib.sha256(ckpt.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_fs1_train_artifacts_and_model_selection(tmp_path):
    bundle = toy_bundle()
    config = small_config(meta_iterations=3, checkpoint_every=2)
    pool = fixed_task_pool([bundle], k=2, k_prime=0, run_seed=0, count=2)
    hook = make_validation_hook(pool)
    run_dir = tmp_path / "run"
    result = fs1_train(tiny_model(), config, meta_task_stream([bundle], 2, 0, 5),
                       validation_hook=hook, run_dir=run_dir)
    lines = (run_dir / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["iteration"] == 1 and "mean_task_loss" in first
    # Cadence 2 on 3 iterations checkpoints at 2 and at the final iteration.
    names = sorted(p.name for p in (run_dir / "checkpoints").iterdir())
    assert names == ["iter_000002.ckpt", "iter_000003.ckpt"]
    manifest = json.loads((run_dir / "model_selection.json").read_text())
    assert manifest["iteration"] == result.best_iteration
    assert manifest["validation_loss"] == result.best_validation
    assert result.best_checkpoint == manifest["checkpoint"]


def test_rerun_into_a_used_run_dir_leaves_no_earlier_artifacts(tmp_path):
    bundle = toy_bundle()
    pool = fixed_task_pool([bundle], k=2, k_prime=0, run_seed=0, count=2)
    run_dir = tmp_path / "run"
    fs1_train(tiny_model(), small_config(meta_iterations=3, checkpoint_every=1),
              meta_task_stream([bundle], 2, 0, 5),
              validation_hook=make_validation_hook(pool), run_dir=run_dir)
    assert (run_dir / "model_selection.json").exists()
    # A shorter run without validation writes no manifest and one checkpoint.
    fs1_train(tiny_model(), small_config(meta_iterations=1, checkpoint_every=1),
              meta_task_stream([bundle], 2, 0, 5), run_dir=run_dir)
    assert sorted(p.name for p in (run_dir / "checkpoints").iterdir()) == ["iter_000001.ckpt"]
    assert not (run_dir / "model_selection.json").exists()
    assert len((run_dir / "train_log.jsonl").read_text().splitlines()) == 1


def test_failed_manifest_write_keeps_previous_file(tmp_path, monkeypatch):
    bundle = toy_bundle()
    losses = iter([2.0, 1.0])
    run_dir = tmp_path / "run"
    manifest = run_dir / "model_selection.json"
    real_replace = os.replace

    def replace(src, dst):
        if os.fspath(dst) == os.fspath(manifest) and manifest.exists():
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        fs1_train(tiny_model(), small_config(meta_iterations=2, checkpoint_every=1),
                  meta_task_stream([bundle], 2, 0, 5),
                  validation_hook=lambda model: next(losses), run_dir=run_dir)
    # The iteration-1 manifest is still there, whole.
    assert json.loads(manifest.read_text())["iteration"] == 1
    assert not list(run_dir.rglob("*.tmp"))


def test_fs1_train_source_exhaustion():
    with pytest.raises(ConfigError):
        fs1_train(tiny_model(), small_config(), iter(()))


def test_fs1_train_skips_degenerate_tasks(caplog):
    bundle = toy_bundle()
    good = [sample_task_seeded(bundle, 2, 0, seed=s) for s in range(2, 6)]
    bad = sample_task_seeded(bundle, 2, 0, seed=0)
    bad = type(bad)(bad.dataset, bad.k, bad.k_prime, bad.class_ids,
                    LabeledSet(bad.train.values[:2], np.array([0, 1])),
                    bad.test, bad.train_rows[:2], bad.test_rows, bad.seed)
    stream = iter([bad] + good)
    with caplog.at_level(logging.WARNING):
        result = fs1_train(tiny_model(), small_config(meta_iterations=1), stream)
    assert len(result.history) == 1
    assert any("degenerate" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("train", [fs1_train, fs2_train], ids=["fs1", "fs2"])
def test_meta_training_shares_the_input_without_writing_it(train, monkeypatch):
    # The loop starts from the caller's parameter vector instead of a copy:
    # one copy per task solve is the only one, the input stays bitwise, and
    # the returned model holds no array of the input's.
    copies = []
    original = ParamSet.copy

    def counting_copy(self):
        copies.append(self.values.size)
        return original(self)

    model = tiny_model(12)
    embed_batch(model, np.random.default_rng(13).standard_normal((4, 8)), mode="train")
    before = model.params.values.tobytes()
    stats = model.bn.tobytes()
    monkeypatch.setattr(ParamSet, "copy", counting_copy)
    config = small_config(meta_iterations=2, meta_batch=2)
    result = train(model, config, meta_task_stream([toy_bundle()], 2, 0, 14))
    assert copies == [model.params.values.size] * 4
    assert model.params.values.tobytes() == before
    assert model.bn.tobytes() == stats and model.bn_updates == 1
    mine = [model.params.values, model.bn]
    theirs = [result.model.params.values, result.model.bn]
    assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
    assert result.model.params.values.tobytes() != before


def test_fs2_single_task_equals_inner_solve():
    bundle = toy_bundle()
    config = small_config(meta_iterations=1, meta_batch=1)
    stream = meta_task_stream([bundle], k=2, k_prime=0, run_seed=3)
    result = fs2_train(tiny_model(), config, stream)

    task = next(meta_task_stream([bundle], k=2, k_prime=0, run_seed=3))
    k = iterations_for_task(task.k, task.n_way, config.batch_size, config.epochs)
    solved, _ = inner_solve(tiny_model(), task.train, k, config.batch_size,
                            config.inner_lr, config.margin,
                            np.random.default_rng(task_seed(config.seed, "inner-batches", 0)))
    assert result.model.params.values.tobytes() == solved.params.values.tobytes()


def test_fs2_step_accounting_and_buffer_carryover():
    bundle = toy_bundle()
    config = small_config(meta_iterations=3, meta_batch=2)
    stream = meta_task_stream([bundle], k=2, k_prime=0, run_seed=8)
    result = fs2_train(tiny_model(), config, stream)
    k = iterations_for_task(2, 4, config.batch_size, config.epochs)
    assert result.total_inner_steps == 3 * 2 * k
    # The running model accumulates one buffer update per gradient step.
    assert result.model.bn_updates == 3 * 2 * k


def test_fs2_is_deterministic():
    bundle = toy_bundle()
    outs = []
    for _ in range(2):
        stream = meta_task_stream([bundle], k=2, k_prime=0, run_seed=2)
        outs.append(fs2_train(tiny_model(), small_config(), stream).model.params.values.tobytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Fine-tuning and inference
# ---------------------------------------------------------------------------


def test_finetune_zero_epochs_estimates_buffers_only():
    model = tiny_model()
    train = level_task_set()
    tuned = finetune(model, train, FineTuneConfig(epochs=0))
    assert np.array_equal(tuned.params.values, model.params.values)
    assert tuned.bn_updates == 1
    assert model.bn_updates == 0
    # Buffers are freshly estimated, so infer mode now works.
    classify_1nn(tuned, train, train.values[:1])


def test_finetune_freeze_all_keeps_parameters_bitwise():
    model = tiny_model(1)
    train = level_task_set()
    tuned = finetune(model, train, FineTuneConfig(epochs=4, frozen_layers=TINY.conv_layers))
    assert tuned.params.values.tobytes() == model.params.values.tobytes()
    assert tuned.bn_updates > 0


def test_finetune_partial_freeze_moves_only_unfrozen_entries():
    # backward_batch zeroes frozen gradients, so Adam leaves those entries
    # bit-identical while every unfrozen parameter record moves.
    model = tiny_model(3)
    tuned = finetune(model, noise_task_set(per_class=5),
                     FineTuneConfig(epochs=4, frozen_layers=1))
    mask = freeze_mask_reference(TINY, build_layout(TINY), 1)
    before, after = model.params.values, tuned.params.values
    assert mask.any() and not mask.all()
    assert after[mask].tobytes() == before[mask].tobytes()
    for rec in model.params.layout.records:
        part = slice(rec.offset, rec.offset + rec.size)
        if not mask[part].any():
            assert not np.array_equal(after[part], before[part]), rec.name


def test_evaluate_task_names_the_task_on_non_finite_step():
    model = tiny_model(2)
    values = model.params.values.copy()
    values[0] = np.nan
    model.set_params(ParamSet(model.params.layout, values))
    task = sample_task_seeded(toy_bundle(), 3, 2, seed=42)
    with pytest.raises(ConfigError, match=f"task {task.dataset}#{task.seed}: non-finite"):
        evaluate_task(model, task, FineTuneConfig(epochs=1))


def test_finetune_copies_the_parameters_once(monkeypatch):
    # inner_solve's model copy is the only one; the input stays bitwise.
    copies = []
    original = ParamSet.copy

    def counting_copy(self):
        copies.append(self.values.size)
        return original(self)

    model = tiny_model(4)
    before = model.params.values.tobytes()
    monkeypatch.setattr(ParamSet, "copy", counting_copy)
    tuned = finetune(model, noise_task_set(per_class=5), FineTuneConfig(epochs=2))
    assert copies == [model.params.values.size]
    assert model.params.values.tobytes() == before
    assert tuned.params.values is not model.params.values
    assert tuned.params.values.tobytes() != before


def test_finetune_step_count_via_buffer_updates():
    # 5-shot 2-way with b=10: max(1, 10//10) * 16 = 16 steps.
    model = tiny_model()
    train = noise_task_set(per_class=5)
    tuned = finetune(model, train, FineTuneConfig(epochs=16, batch_size=10),
                     rng=np.random.default_rng(0))
    assert tuned.bn_updates == 16
    assert not np.array_equal(tuned.params.values, model.params.values)


def test_finetune_rejects_empty_and_tiny_sets():
    model = tiny_model()
    with pytest.raises(TaskDegenerateError):
        finetune(model, LabeledSet(np.empty((0, 8)), np.array([], dtype=np.int64)),
                 FineTuneConfig(epochs=0))
    with pytest.raises(TaskDegenerateError):
        finetune(model, LabeledSet([np.zeros(8)], np.array([0])), FineTuneConfig(epochs=0))


def test_classify_1nn_self_match_and_tie_rule():
    train = level_task_set(per_class=3, jitter=0.2, seed=4)
    tuned = finetune(tiny_model(), train, FineTuneConfig(epochs=0))
    labels = classify_1nn(tuned, train, train.values)
    assert np.array_equal(labels, train.labels)
    assert np.array_equal(classify_1nn(tuned, train, train.values[4:5]), train.labels[4:5])
    # Identical series under different labels: the smaller index wins.
    dup = LabeledSet([train.values[0], train.values[0].copy(), train.values[3]],
                     np.array([1, 0, 0]))
    est = finetune(tiny_model(), dup, FineTuneConfig(epochs=0))
    assert np.array_equal(classify_1nn(est, dup, dup.values[:1]), [1])


def test_classify_1nn_matches_per_row_embeddings():
    # One embed_batch call over anchors and queries picks the same labels as
    # embedding every series alone, on a toy task after a short fine-tune.
    task = sample_task_seeded(toy_bundle(), 3, 4, seed=5)
    tuned = finetune(tiny_model(6), task.train, FineTuneConfig(epochs=2),
                     rng=np.random.default_rng(1))
    anchors = np.vstack([embed_batch(tuned, s[None])[0] for s in task.train.values])
    queries = np.vstack([embed_batch(tuned, s[None])[0] for s in task.test.values])
    d2 = ((queries[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    expected = task.train.labels[np.argmin(d2, axis=1)]
    assert np.array_equal(classify_1nn(tuned, task.train, task.test.values), expected)


def test_classify_1nn_rejects_query_length_mismatch():
    train = level_task_set(per_class=3, seed=4)
    tuned = finetune(tiny_model(), train, FineTuneConfig(epochs=0))
    for bad in (np.zeros((2, 9)), np.zeros(8)):
        with pytest.raises(ConfigError, match=r"queries must be \[n, 8\]"):
            classify_1nn(tuned, train, bad)


def test_classify_1nn_rejects_non_finite_embeddings():
    train = level_task_set(per_class=3, jitter=0.2, seed=4)
    tuned = finetune(tiny_model(), train, FineTuneConfig(epochs=0))
    tuned.params.values[:] = np.nan
    with pytest.raises(ConfigError, match="6 of 6 query rows and 6 of 6 train rows"):
        classify_1nn(tuned, train, train.values)


def test_evaluate_task_overlapping_test_is_perfect():
    bundle = toy_bundle()
    task = sample_task_seeded(bundle, 3, 0, seed=11)
    task = type(task)(task.dataset, task.k, 3, task.class_ids, task.train,
                      task.train, task.train_rows, task.train_rows,
                      task.seed)
    acc = evaluate_task(tiny_model(), task, FineTuneConfig(epochs=0))
    assert acc == 1.0


def test_evaluate_task_denominator():
    bundle = toy_bundle(per_class_test=5)
    task = sample_task_seeded(bundle, 2, 5, seed=3)
    assert task.test.n == 20
    acc = evaluate_task(tiny_model(), task, FineTuneConfig(epochs=0))
    assert abs(acc * 20 - round(acc * 20)) < 1e-12


def test_evaluate_task_random_labels_near_chance():
    rng = np.random.default_rng(0)
    accs = []
    for i in range(40):
        values = [rng.standard_normal(8) for _ in range(14)]
        labels = np.array([0] * 3 + [1] * 3 + list(rng.integers(0, 2, size=8)))
        task_train = LabeledSet(values[:6], labels[:6])
        task_test = LabeledSet(values[6:], labels[6:])
        from fewts.data import FewShotTask

        task = FewShotTask("noise", 3, 4, (0, 1), task_train, task_test,
                           list(range(6)), list(range(8)))
        accs.append(evaluate_task(tiny_model(i), task, FineTuneConfig(epochs=0)))
    assert abs(float(np.mean(accs)) - 0.5) < 0.12


# ---------------------------------------------------------------------------
# Validation hook and task streams
# ---------------------------------------------------------------------------


def test_validation_hook_is_read_only_and_deterministic():
    bundle = toy_bundle()
    pool = fixed_task_pool([bundle], k=2, k_prime=0, run_seed=0, count=3)
    hook = make_validation_hook(pool)
    model = tiny_model()
    a = hook(model)
    b = hook(model)
    assert a == b and np.isfinite(a) and a >= 0.0
    assert model.bn_updates == 0


def test_meta_task_stream_deterministic_and_covers_datasets():
    bundles = [toy_bundle(seed=0), toy_bundle(seed=1)]
    bundles[1] = DatasetBundle("toy2", bundles[1].train, bundles[1].test)
    a = [t for t, _ in zip(meta_task_stream(bundles, 2, 1, 6), range(12))]
    b = [t for t, _ in zip(meta_task_stream(bundles, 2, 1, 6), range(12))]
    assert [t.train_rows for t in a] == [t.train_rows for t in b]
    assert {t.dataset for t in a} == {"toy", "toy2"}


def test_fixed_task_pool_is_separate_from_stream():
    bundle = toy_bundle()
    pool = fixed_task_pool([bundle], 2, 1, run_seed=6, count=4)
    stream_heads = [t for t, _ in zip(meta_task_stream([bundle], 2, 1, 6), range(4))]
    assert len(pool) == 4
    assert [t.train_rows for t in pool] != [t.train_rows for t in stream_heads]
