"""Release acceptance suite. Each test is one criterion; the conftest prints
an ACCEPTANCE line per criterion at the end of the run. Tolerances here are
contract floors, not aspirations: do not loosen them to make a change pass.
"""

import csv
import itertools
import json
import time
from pathlib import Path

import numpy as np

from fewts.baselines import DEFAULT_WINDOW_GRID, band_width, dtw_distance
from fewts.data import LabeledSet, parse_ucr_file, sample_task, task_seed
from fewts.gradcheck import gradient_check
from fewts.kernels import (
    batchnorm_backward,
    batchnorm_forward,
    conv1d_backward,
    conv1d_forward,
    gap_backward,
    gap_forward,
    relu_backward,
    relu_forward,
)
from fewts.network import (
    ArchSpec,
    backward_batch,
    build_model,
    embed_batch,
    load_checkpoint,
    save_checkpoint,
)
from fewts.optim import sgd_step
from fewts.params import ParamSet
from fewts.protocol import report_from_records, run_protocol
from fewts.stats import aggregate, wtl_counts
from fewts.synthetic import ar_coefficient_domain, sine_frequency_domain, square_duty_domain
from fewts.training import (
    FineTuneConfig,
    MetaConfig,
    evaluate_task,
    fixed_task_pool,
    fs1_train,
    inner_solve,
    iterations_for_task,
    make_validation_hook,
    meta_task_stream,
    meta_update,
)
from fewts.triplet import enumerate_valid_triplets, triplet_loss, triplet_loss_grad

from helpers import brute_force_dtw, max_rel_err, numeric_grad, sequential_squared_ed

CRITERIA = {
    "test_gradient_correctness": "gradient correctness",
    "test_reptile_degeneracy": "reptile degeneracy identity",
    "test_meta_update_order_independence": "meta-update order independence",
    "test_triplet_combinatorics": "triplet combinatorics",
    "test_dtw_oracle_equivalence": "dtw oracle equivalence",
    "test_synthetic_meta_learning_efficacy": "synthetic meta-learning efficacy",
    "test_iteration_formula": "iteration formula fidelity",
    "test_statistics_fixture": "statistics fixtures",
    "test_determinism": "determinism",
    "test_format_round_trips": "format round-trips",
}

TINY = ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(2, 3), filters_per_length=2)


def test_gradient_correctness():
    start = time.perf_counter()
    # End-to-end: full network plus triplet loss on the tiny spec.
    assert gradient_check(spec=TINY, batch_size=4, length=8, h=1e-5) < 1e-4

    rng = np.random.default_rng(5)
    # Convolution: input and filter gradients.
    x = rng.standard_normal((2, 3, 12))
    filters = rng.standard_normal((4, 3, 5))
    proj = rng.standard_normal((2, 4, 12))
    dx, dfilters = conv1d_backward(x, filters, proj)
    for analytic, arg, rebuild in (
        (dx, x, lambda v: conv1d_forward(v.reshape(x.shape), filters)),
        (dfilters, filters, lambda v: conv1d_forward(x, v.reshape(filters.shape))),
    ):
        numeric = numeric_grad(lambda v: float((rebuild(v) * proj).sum()), arg.ravel())
        assert max_rel_err(analytic, numeric) < 1e-5

    # Batch norm in train mode: gradients flow through the batch statistics.
    xb = rng.standard_normal((3, 4, 10))
    gamma = rng.uniform(0.5, 1.5, 4)
    beta = rng.standard_normal(4)
    projb = rng.standard_normal(xb.shape)

    def bn_loss(v, g=gamma, b=beta, inp=None):
        inp = xb if inp is None else inp
        y, _, _ = batchnorm_forward(inp, g, b)
        return float((y * projb).sum())

    y, _, cache = batchnorm_forward(xb, gamma, beta)
    dxb, dgamma, dbeta = batchnorm_backward(projb, gamma, cache)
    assert max_rel_err(dxb, numeric_grad(lambda v: bn_loss(None, inp=v.reshape(xb.shape)),
                                         xb.ravel())) < 1e-5
    assert max_rel_err(dgamma, numeric_grad(lambda v: bn_loss(None, g=v), gamma)) < 1e-5
    assert max_rel_err(dbeta, numeric_grad(lambda v: bn_loss(None, b=v), beta)) < 1e-5

    # ReLU, away from the kink so central differences are valid.
    xr = rng.standard_normal((4, 9))
    xr = np.where(np.abs(xr) < 0.05, xr + 0.1, xr)
    projr = rng.standard_normal(xr.shape)
    drelu = relu_backward(xr, projr)
    numeric = numeric_grad(lambda v: float((relu_forward(v.reshape(xr.shape)) * projr).sum()),
                           xr.ravel())
    assert max_rel_err(drelu, numeric) < 1e-5

    # Global average pooling.
    xg = rng.standard_normal((3, 5, 7))
    projg = rng.standard_normal((3, 5))
    dgap = gap_backward(projg, 7)
    numeric = numeric_grad(lambda v: float((gap_forward(v.reshape(xg.shape)) * projg).sum()),
                           xg.ravel())
    assert max_rel_err(dgap, numeric) < 1e-5

    # Triplet loss on embeddings.
    z = rng.standard_normal((6, 4))
    trips = enumerate_valid_triplets(np.array([0, 0, 1, 1, 2, 2]))
    analytic = triplet_loss_grad(z, trips)
    numeric = numeric_grad(lambda v: triplet_loss(v.reshape(z.shape), trips)[0], z.ravel())
    assert max_rel_err(analytic, numeric) < 1e-5

    assert time.perf_counter() - start < 10.0


def test_reptile_degeneracy():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    model = build_model(TINY, np.random.default_rng(0))
    # Inseparable noise so the gradient is nonzero and the identity is
    # informative; batch_size >= n makes the single mini-batch the whole set.
    train = LabeledSet([rng.standard_normal(8) for _ in range(4)], np.array([0, 0, 1, 1]))
    eta, epsilon = 1e-3, 0.7
    solved, _ = inner_solve(model, train, k=1, batch_size=10, inner_lr=eta,
                            margin=0.5, rng=np.random.default_rng(0), optimizer="sgd")
    updated = meta_update(model.params, [solved.params], epsilon)

    work = model.copy()
    z, cache = embed_batch(work, train.values, mode="train", return_cache=True)
    triplets = enumerate_valid_triplets(train.labels)
    grads = backward_batch(work, cache, triplet_loss_grad(z, triplets))
    assert np.abs(grads.values).max() > 0.0
    direct = sgd_step(model.params, grads, epsilon * eta)
    assert np.max(np.abs(updated.values - direct.values)) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_meta_update_order_independence():
    rng = np.random.default_rng(8)
    model = build_model(TINY, np.random.default_rng(0))
    base = model.params
    adapted = [ParamSet(base.layout, base.values + rng.standard_normal(base.values.size))
               for _ in range(5)]
    reference = meta_update(base, adapted, 0.37).values.tobytes()
    # Any inner-solve completion order hands the reducer the same multiset of
    # deltas; the reduction itself must not care about arrival order.
    for perm in itertools.permutations(range(5)):
        shuffled = [adapted[i] for i in perm]
        assert meta_update(base, shuffled, 0.37).values.tobytes() == reference


def test_triplet_combinatorics():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        n_cls = int(rng.integers(2, 5))
        labels = rng.integers(0, n_cls, n)
        trips = enumerate_valid_triplets(labels)
        counts = np.bincount(labels, minlength=n_cls)
        expected = int(sum(c * (c - 1) * (n - c) for c in counts))
        assert len(trips) == expected

        z = rng.standard_normal((n, 4))
        loss, violations = triplet_loss(z, trips)
        assert loss >= 0.0
        assert 0 <= violations <= len(trips)
        if len(trips):
            q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            rotated, _ = triplet_loss(z @ q, trips)
            assert abs(loss - rotated) < 1e-9


def test_dtw_oracle_equivalence():
    rng = np.random.default_rng(3)
    # Banded DP with a full-cover band equals the unbanded oracle, exactly.
    for _ in range(500):
        tx = int(rng.integers(2, 33))
        ty = int(rng.integers(2, 33))
        x, y = rng.standard_normal(tx), rng.standard_normal(ty)
        assert dtw_distance(x, y, 32) == brute_force_dtw(x, y)

    # Width zero degenerates to the squared Euclidean distance, exactly.
    for _ in range(100):
        t = int(rng.integers(2, 33))
        x, y = rng.standard_normal(t), rng.standard_normal(t)
        assert dtw_distance(x, y, 0) == sequential_squared_ed(x, y)

    # Symmetry, including unequal lengths.
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(4, 33)))
        y = rng.standard_normal(int(rng.integers(4, 33)))
        assert abs(dtw_distance(x, y, 32) - dtw_distance(y, x, 32)) < 1e-12

    # Wider bands can only help: non-increasing over the full window grid.
    x, y = rng.standard_normal(32), rng.standard_normal(32)
    widths = [band_width(f, 32) for f in DEFAULT_WINDOW_GRID]
    distances = [dtw_distance(x, y, w) for w in widths]
    assert all(a >= b for a, b in zip(distances, distances[1:]))


def test_synthetic_meta_learning_efficacy():
    # Meta-train on the square-duty and AR domains, evaluate on held-out
    # sine-frequency tasks against a scratch-trained model of the same
    # architecture under the identical fine-tune budget. noise=1.0 keeps the
    # tasks hard enough that initialization quality is what separates the
    # methods; at low noise both sit near ceiling.
    start = time.perf_counter()
    test_bundle = sine_frequency_domain(1000, noise=1.0, train_per_class=100)
    train_bundles = [
        square_duty_domain(2000, noise=1.0, train_per_class=100),
        ar_coefficient_domain(3000, train_per_class=100),
    ]

    arch = ArchSpec(blocks=2, convs_per_block=2, filter_lengths=(8, 5), filters_per_length=4)
    config = MetaConfig(meta_iterations=200, meta_batch=5, seed=1)
    model = build_model(arch, np.random.default_rng(config.seed))
    stream = meta_task_stream(train_bundles, config.k_train, 0, config.seed)
    result = fs1_train(model, config, stream)

    budget = FineTuneConfig()
    fs1_acc, scratch_acc = [], []
    for i in range(50):
        rng = np.random.default_rng(task_seed(33, test_bundle.name, i))
        classes = sorted(int(c) for c in rng.choice(test_bundle.n_classes, 4, replace=False))
        task = sample_task(test_bundle, 5, 5, rng, classes=classes)
        fs1_acc.append(evaluate_task(result.model, task, budget,
                                     rng=np.random.default_rng(task_seed(33, "ft", i))))
        fresh = build_model(arch, np.random.default_rng(task_seed(33, "init", i)))
        scratch_acc.append(evaluate_task(fresh, task, budget,
                                         rng=np.random.default_rng(task_seed(33, "ft", i))))

    fs1_mean = float(np.mean(fs1_acc))
    scratch_mean = float(np.mean(scratch_acc))
    assert fs1_mean >= scratch_mean + 0.05, (fs1_mean, scratch_mean)
    assert fs1_mean >= 0.25 + 0.20, fs1_mean
    assert time.perf_counter() - start < 900.0


def test_iteration_formula():
    for k_shots in (2, 5, 10, 20):
        for n_way in range(2, 51):
            got = iterations_for_task(k_shots, n_way, 10, 4)
            floor = (k_shots * n_way) // 10
            if k_shots * n_way >= 10:
                assert got == floor * 4
            else:
                assert floor == 0 and got == 4  # the clamp, and only here


def test_statistics_fixture():
    path = Path(__file__).parent / "data" / "published_5shot_accuracy.csv"
    methods = ("ed", "dtw", "boss", "resnet", "fs2", "fs1")
    records = []
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            for m in methods:
                records.append({"dataset": row["dataset"], "method": m,
                                "accuracy": float(row[m])})
    table = aggregate(records)
    assert len(table.datasets) == 41
    published = {"ed": 4.537, "dtw": 3.463, "boss": 3.890,
                 "resnet": 3.305, "fs2": 3.244, "fs1": 2.561}
    for method, rank in zip(table.methods, table.mean_ranks):
        assert abs(rank - published[method]) < 0.01, (method, rank)
    assert wtl_counts(table, "fs1", "ed") == (32, 0, 9)


def _tiny_corpus():
    kwargs = dict(n_classes=4, length=32, train_per_class=8, test_per_class=4)
    return (sine_frequency_domain(1, **kwargs),
            ar_coefficient_domain(2, **kwargs),
            sine_frequency_domain(9, **kwargs))


def _train_once(run_dir):
    sine, ar, val = _tiny_corpus()
    config = MetaConfig(meta_iterations=3, meta_batch=2, batch_size=8, epochs=1,
                        inner_lr=1e-3, k_train=3, seed=4, checkpoint_every=2,
                        validation_tasks=3)
    model = build_model(TINY, np.random.default_rng(config.seed))
    stream = meta_task_stream([sine, ar], config.k_train, 0, config.seed)
    hook = make_validation_hook(fixed_task_pool([val], config.k_train, 0, config.seed, 3))
    return fs1_train(model, config, stream, validation_hook=hook, run_dir=run_dir)


def _evaluate_once(result, out_dir):
    sine, ar, _ = _tiny_corpus()
    records = run_protocol([sine, ar], ["fs1", "ed"], 3, 2, 2, 6, out_dir,
                           models={"fs1": result.model},
                           finetune={"fs1": FineTuneConfig(epochs=1)})
    report_from_records(records, out_dir)


def test_determinism(tmp_path):
    results = []
    for tag in ("r1", "r2"):
        run = tmp_path / tag
        result = _train_once(run / "train")
        _evaluate_once(result, run / "eval")
        results.append(run)
    r1, r2 = results

    ckpts1 = sorted(p.name for p in (r1 / "train" / "checkpoints").iterdir())
    ckpts2 = sorted(p.name for p in (r2 / "train" / "checkpoints").iterdir())
    assert ckpts1 == ckpts2 and ckpts1
    for name in ckpts1:
        assert (r1 / "train" / "checkpoints" / name).read_bytes() == \
               (r2 / "train" / "checkpoints" / name).read_bytes()
    assert (r1 / "train" / "model_selection.json").read_bytes() == \
           (r2 / "train" / "model_selection.json").read_bytes()

    assert (r1 / "eval" / "tasks.jsonl").read_bytes() == (r2 / "eval" / "tasks.jsonl").read_bytes()
    for name in ("accuracy_table.csv", "summary.json", "cd_plot.json"):
        assert (r1 / "eval" / name).read_bytes() == (r2 / "eval" / name).read_bytes()


def test_format_round_trips(tmp_path):
    # Checkpoints restore the exact model and re-serialize to the same bytes.
    model = build_model(TINY, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    series = [rng.standard_normal(12) for _ in range(6)]
    embed_batch(model, series, mode="train")  # populate BN buffers
    first = tmp_path / "a.ckpt"
    save_checkpoint(model, first)
    loaded = load_checkpoint(first)
    assert np.array_equal(loaded.params.values, model.params.values)
    second = tmp_path / "b.ckpt"
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    queries = [rng.standard_normal(12) for _ in range(3)]
    assert np.array_equal(embed_batch(model, queries, mode="infer"),
                          embed_batch(loaded, queries, mode="infer"))

    # A 50-row file parses identically under all three delimiters.
    rng = np.random.default_rng(4)
    values = rng.standard_normal((50, 20)) * np.power(10.0, rng.integers(-3, 4, (50, 1)))
    labels = rng.integers(1, 4, 50)
    rows = [[str(labels[i])] + [f"{v:.17g}" for v in values[i]] for i in range(50)]
    parsed = []
    for sep, name in (("\t", "Fix_TRAIN.tsv"), (",", "Fix_TRAIN.csv"), (" ", "Fix_TRAIN.txt")):
        path = tmp_path / name
        path.write_text("\n".join(sep.join(row) for row in rows) + "\n")
        parsed.append(parse_ucr_file(path, split="train", name="Fix"))
    for other in parsed[1:]:
        assert np.array_equal(parsed[0].values, other.values)
        assert np.array_equal(parsed[0].labels, other.labels)
        assert parsed[0].label_names == other.label_names
    assert parsed[0].values.shape == (50, 20)
