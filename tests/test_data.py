import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fewts.baselines import euclidean_1nn
from fewts.data import (
    STD_FLOOR,
    Dataset,
    DatasetBundle,
    LabeledSet,
    MetaSetSplit,
    format_task_log,
    load_dataset,
    parse_ucr_file,
    sample_task,
    sample_task_seeded,
    split_meta_sets,
    task_seed,
    znormalize,
)
from fewts.errors import ConfigError, ParseError, SamplingError
from fewts.synthetic import ar_coefficient_domain

from helpers import write_ucr, znormalize_reference

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_znormalize_hand_example():
    z = znormalize(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(z, [-1.224744871, 0.0, 1.224744871], atol=1e-8)
    assert abs(z.mean()) < 1e-12
    assert abs(((z - z.mean()) ** 2).mean() - 1.0) < 1e-12


def test_znormalize_constant_series_maps_to_zeros():
    assert np.array_equal(znormalize(np.full(7, 3.25)), np.zeros(7))
    near = np.full(5, 1.0) + 1e-15 * np.arange(5)
    assert np.array_equal(znormalize(near), np.zeros(5))


def test_znormalize_split_equals_row_by_row_bitwise():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((7, 37)) * rng.uniform(0.1, 100.0, (7, 1))
    rows += rng.uniform(-50.0, 50.0, (7, 1))
    rows[2] = 3.25  # constant
    unit = znormalize_reference(rng.standard_normal(37))
    rows[4] = 0.999 * STD_FLOOR * unit  # std just under the floor
    rows[5] = 1.001 * STD_FLOOR * unit  # and just over it
    std = np.sqrt(((rows - rows.mean(axis=1, keepdims=True)) ** 2).mean(axis=1))
    assert 0.99 * STD_FLOOR < std[4] < STD_FLOOR < std[5] < 1.01 * STD_FLOOR

    whole = znormalize(rows)
    assert whole.shape == rows.shape
    assert whole.tobytes() == np.vstack([znormalize(row) for row in rows]).tobytes()
    assert whole.tobytes() == np.vstack([znormalize_reference(row) for row in rows]).tobytes()
    assert not whole[2].any() and not whole[4].any() and whole[5].any()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def rows_text(delim, rows):
    return "\n".join(delim.join(str(v) for v in row) for row in rows) + "\n"


def sample_rows(n=6, t=8, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = i % 2 + 1
        rows.append([label] + [round(float(v), 6) for v in rng.standard_normal(t)])
    return rows


def test_parse_three_delimiters_identical(tmp_path):
    rows = sample_rows()
    parsed = []
    for delim, fname in ((",", "a.csv"), ("\t", "b.tsv"), (" ", "c.txt")):
        path = tmp_path / fname
        path.write_text(rows_text(delim, rows))
        parsed.append(parse_ucr_file(path, "train", "d"))
    base = parsed[0]
    for other in parsed[1:]:
        assert other.values.tobytes() == base.values.tobytes()
        assert np.array_equal(other.labels, base.labels)
        assert other.label_names == base.label_names


def test_parse_labels_numeric_sort(tmp_path):
    # Labels -1/1/10 must densify in numeric order, not lexical.
    lines = ["10,0,0,0,0", "-1,1,1,1,1", "1,2,2,2,2"]
    p = tmp_path / "d.csv"
    p.write_text("\n".join(lines))
    ds = parse_ucr_file(p, "train", "d")
    assert ds.label_names == ("-1", "1", "10")
    assert list(ds.labels) == [2, 0, 1]


def test_label_order_does_not_depend_on_hash_seed(tmp_path):
    # "1", "1.0" and "01" are equal numbers, and "nan" equals nothing; their
    # dense ids must not follow set iteration order, which changes with
    # PYTHONHASHSEED. NaN tokens go after the numbers, in token order.
    cases = {
        "ties": (["1", "1.0", "01", "2", "02", "2.0"], ('01', '1', '1.0', '02', '2', '2.0')),
        "nan": (["nan", "1", "NaN", "2", "3"], ('1', '2', '3', 'NaN', 'nan')),
    }
    script = ("import sys; from fewts.data import parse_ucr_file; "
              "print(parse_ucr_file(sys.argv[1], 'train', 'd').label_names)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for name, (tokens, expected) in cases.items():
        p = tmp_path / f"{name}.csv"
        p.write_text("".join(f"{tok},0,1,2,3\n" for tok in tokens))
        orders = []
        for hash_seed in ("1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", script, str(p)], env=env,
                                 capture_output=True, text=True, check=True)
            orders.append(out.stdout)
        assert orders == [f"{expected}\n"] * 2, name


def test_parse_ragged_row_reports_line(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,0,0,0,0\n2,1,1,1\n")
    with pytest.raises(ParseError) as err:
        parse_ucr_file(p, "train", "d")
    assert err.value.line == 2
    assert "ragged" in str(err.value)


def test_parse_non_numeric_reports_line(tmp_path):
    p = tmp_path / "n.csv"
    p.write_text("1,0,0,0,0\n2,1,oops,1,1\n")
    with pytest.raises(ParseError) as err:
        parse_ucr_file(p, "train", "d")
    assert err.value.line == 2
    assert "oops" in str(err.value)


def test_parse_rejects_missing_values(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,0,0,NaN,0\n2,1,1,1,1\n")
    with pytest.raises(ParseError) as err:
        parse_ucr_file(p, "train", "d")
    assert err.value.line == 1


def test_parse_empty_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("\n\n")
    with pytest.raises(ParseError) as err:
        parse_ucr_file(p, "train", "d")
    assert "no data rows" in str(err.value)


def test_parse_non_utf8_file_names_the_file(tmp_path):
    p = tmp_path / "l.csv"
    p.write_bytes(b"1,0,0,0,0\n2,1,1,1,1\xff\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: not UTF-8 text"):
        parse_ucr_file(p, "train", "d")


def test_parse_length_bounds(tmp_path):
    short = tmp_path / "s.csv"
    short.write_text("1,0,0,0\n2,1,1,1\n")  # T = 3
    with pytest.raises(ParseError):
        parse_ucr_file(short, "train", "d")
    long = tmp_path / "l.csv"
    row_a = "1," + ",".join(["0"] * 513)
    row_b = "2," + ",".join(["1"] * 513)
    long.write_text(row_a + "\n" + row_b + "\n")
    with pytest.raises(ParseError):
        parse_ucr_file(long, "train", "d")
    edge = tmp_path / "edge.csv"
    row_a = "1," + ",".join(["0"] * 512)
    row_b = "2," + ",".join(["1"] * 512)
    edge.write_text(row_a + "\n" + row_b + "\n")
    assert parse_ucr_file(edge, "train", "d").length == 512


def test_parse_single_class_rejected(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("1,0,0,0,0\n1,1,1,1,1\n")
    with pytest.raises(ParseError):
        parse_ucr_file(p, "train", "d")


def write_archive_dataset(root, name, n_train=8, n_test=6, t=10, seed=3):
    rng = np.random.default_rng(seed)
    d = root / name
    d.mkdir(parents=True)
    for tag, n in (("TRAIN", n_train), ("TEST", n_test)):
        rows = []
        for i in range(n):
            label = i % 2 + 1
            rows.append([label] + [round(float(v), 6) for v in rng.standard_normal(t)])
        (d / f"{name}_{tag}.tsv").write_text(rows_text("\t", rows))


def test_load_dataset_normalizes_and_unifies_labels(tmp_path):
    write_archive_dataset(tmp_path, "Toy")
    bundle = load_dataset(tmp_path, "Toy")
    assert bundle.name == "Toy"
    assert bundle.n_classes == 2
    assert bundle.train.split == "train" and bundle.test.split == "test"
    for row in bundle.train.values:
        assert abs(row.mean()) < 1e-10
    raw = parse_ucr_file(tmp_path / "Toy" / "Toy_TRAIN.tsv", "train", "Toy")
    assert not np.allclose(raw.values[0].mean(), 0.0, atol=1e-10)
    normalized = np.vstack([znormalize(row) for row in raw.values])
    assert bundle.train.values.tobytes() == normalized.tobytes()


def test_load_dataset_bytes_match_row_by_row_normalization(tmp_path):
    # The loader's one call per split gives what parsing each file and
    # normalizing its rows one at a time gave.
    write_ucr(ar_coefficient_domain(6, n_classes=3, length=45, train_per_class=4,
                                    test_per_class=5), tmp_path, name="Walk")
    bundle = load_dataset(tmp_path, "Walk")
    for split, tag in ((bundle.train, "TRAIN"), (bundle.test, "TEST")):
        raw = parse_ucr_file(tmp_path / "Walk" / f"Walk_{tag}.tsv", split.split, "Walk")
        want = np.vstack([znormalize_reference(row) for row in raw.values])
        assert split.values.tobytes() == want.tobytes()
        assert split.labels.tobytes() == raw.labels.tobytes()


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(ParseError) as err:
        load_dataset(tmp_path, "Nope")
    assert "Nope" in str(err.value)


# ---------------------------------------------------------------------------
# Task sampling
# ---------------------------------------------------------------------------


def toy_bundle(n_classes=4, per_class_train=6, per_class_test=5, t=10, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(str(c) for c in range(n_classes))

    def pool(split, per_class):
        values, labels = [], []
        for c in range(n_classes):
            for _ in range(per_class):
                values.append(rng.standard_normal(t))
                labels.append(c)
        return Dataset(np.vstack(values), np.array(labels), name="toy", split=split,
                       label_names=names)

    return DatasetBundle("toy", pool("train", per_class_train), pool("test", per_class_test))


def test_sample_task_shapes_and_labels():
    bundle = toy_bundle()
    task = sample_task(bundle, k=3, k_prime=2, rng=np.random.default_rng(1))
    assert task.n_way == 4
    assert task.train.n == 12 and task.test.n == 8
    assert sorted(set(task.train.labels)) == [0, 1, 2, 3]
    assert np.array_equal(np.bincount(task.train.labels), [3, 3, 3, 3])
    assert np.array_equal(np.bincount(task.test.labels), [2, 2, 2, 2])
    # Row numbers point into the right pools and recover the same values.
    assert len(task.train_rows) == 12 and len(task.test_rows) == 8
    for i, v in zip(task.train_rows, task.train.values):
        assert np.array_equal(bundle.train.values[i], v)
    for i, v in zip(task.test_rows, task.test.values):
        assert np.array_equal(bundle.test.values[i], v)


def test_labeled_set_values_must_be_n_by_t():
    assert LabeledSet([np.zeros(4), np.ones(4)], [0, 1]).values.shape == (2, 4)
    with pytest.raises(ConfigError):
        LabeledSet(np.zeros(3), np.array([0, 1, 2]))
    with pytest.raises(ConfigError):
        LabeledSet(np.zeros((2, 1, 4)), np.array([0, 1]))


def test_sample_task_without_test_split_is_empty_n_by_t():
    bundle = toy_bundle()
    task = sample_task_seeded(bundle, 3, 0, seed=8)
    assert task.test.values.shape == (0, bundle.train.length)
    assert task.test.values.dtype == np.float64
    assert task.test.labels.shape == (0,) and task.test_rows == []


def test_sample_task_small_class_rule():
    bundle = toy_bundle(per_class_train=2)
    task = sample_task(bundle, k=5, k_prime=1, rng=np.random.default_rng(2))
    # Every class contributes everything it has.
    assert np.array_equal(np.bincount(task.train.labels), [2, 2, 2, 2])


def test_sample_task_empty_class_raises():
    bundle = toy_bundle()
    # Remove class 3 from the test pool.
    keep = bundle.test.labels != 3
    bundle = DatasetBundle(
        "toy",
        bundle.train,
        Dataset(bundle.test.values[keep], bundle.test.labels[keep], name="toy", split="test",
                label_names=bundle.test.label_names),
    )
    with pytest.raises(SamplingError) as err:
        sample_task(bundle, k=2, k_prime=2, rng=np.random.default_rng(3))
    assert "'3'" in str(err.value)


def test_sample_task_class_subset_remaps_labels():
    bundle = toy_bundle()
    task = sample_task(bundle, k=2, k_prime=1, rng=np.random.default_rng(5), classes=[3, 1])
    assert task.class_ids == (1, 3)
    assert sorted(set(task.train.labels)) == [0, 1]
    # Task label 1 must correspond to dataset class 3.
    for i, lab in zip(task.train_rows, task.train.labels):
        assert bundle.train.labels[i] == task.class_ids[lab]


def test_sample_task_deterministic_by_seed():
    bundle = toy_bundle()
    a = sample_task_seeded(bundle, 3, 2, seed=99)
    b = sample_task_seeded(bundle, 3, 2, seed=99)
    assert a.train_rows == b.train_rows and a.test_rows == b.test_rows
    c = sample_task_seeded(bundle, 3, 2, seed=100)
    assert a.train_rows != c.train_rows or a.test_rows != c.test_rows


def test_sample_task_validates_arguments():
    bundle = toy_bundle()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        sample_task(bundle, k=0, k_prime=1, rng=rng)
    with pytest.raises(ConfigError):
        sample_task(bundle, k=2, k_prime=-1, rng=rng)
    with pytest.raises(ConfigError):
        sample_task(bundle, k=2, k_prime=1, rng=rng, classes=[1])


@pytest.mark.parametrize("classes, repeated", [([1, 1], 1), ([0, 3, 2, 3], 3)])
def test_sample_task_rejects_repeated_class_ids(classes, repeated):
    with pytest.raises(ConfigError, match=f"class id {repeated} is repeated"):
        sample_task(toy_bundle(), k=2, k_prime=1, rng=np.random.default_rng(0), classes=classes)


@pytest.mark.parametrize("bad", [1.7, 2.0, "1", None])
def test_sample_task_rejects_non_integer_class_ids(bad):
    with pytest.raises(ConfigError, match=re.escape(f"class id {bad!r} is not an integer")):
        sample_task(toy_bundle(), k=2, k_prime=1, rng=np.random.default_rng(0),
                    classes=[bad, 3])


def test_sample_task_accepts_numpy_integer_class_ids():
    bundle = toy_bundle()
    plain = sample_task(bundle, 2, 1, np.random.default_rng(7), classes=[1, 3], seed=7)
    for classes in (np.array([3, 1]), [np.int32(1), np.uint8(3)]):
        task = sample_task(bundle, 2, 1, np.random.default_rng(7), classes=classes, seed=7)
        assert task.class_ids == (1, 3) and all(type(c) is int for c in task.class_ids)
        assert task.train_rows == plain.train_rows and task.test_rows == plain.test_rows


def test_bundle_split_is_a_labeled_set():
    bundle = toy_bundle()
    assert isinstance(bundle.train, LabeledSet) and bundle.train.n == 24
    copy = LabeledSet(bundle.train.values.copy(), bundle.train.labels.copy())
    queries = bundle.test.values
    assert np.array_equal(euclidean_1nn(bundle.train, queries), euclidean_1nn(copy, queries))
    # Provenance fields are keyword-only, and the LabeledSet checks still run.
    with pytest.raises(TypeError):
        Dataset(bundle.train.values, bundle.train.labels, "toy", "train",
                bundle.train.label_names)
    with pytest.raises(ConfigError, match="disagree on sample count"):
        Dataset(bundle.train.values, bundle.train.labels[1:], name="toy", split="train",
                label_names=bundle.train.label_names)


def test_task_seed_is_stable_and_distinct():
    a = task_seed(7, "Coffee", 0)
    assert a == task_seed(7, "Coffee", 0)
    assert a != task_seed(7, "Coffee", 1)
    assert a != task_seed(8, "Coffee", 0)
    assert a != task_seed(7, "Wine", 0)
    # sha256-derived: must be stable across platforms and sessions.
    assert task_seed(0, "x", 0) == int.from_bytes(
        __import__("hashlib").sha256(b"0:x:0").digest()[:8], "little"
    )


# ---------------------------------------------------------------------------
# Meta-set manifests
# ---------------------------------------------------------------------------


def test_split_meta_sets_round_trip(tmp_path):
    manifest = tmp_path / "split.json"
    manifest.write_text(json.dumps({"train": ["A", "B"], "validation": ["C"], "test": ["D"]}))
    split = split_meta_sets(manifest)
    assert split == MetaSetSplit(("A", "B"), ("C",), ("D",))


def test_split_meta_sets_rejects_overlap(tmp_path):
    manifest = tmp_path / "split.json"
    manifest.write_text(json.dumps({"train": ["A"], "validation": ["A"], "test": ["B"]}))
    with pytest.raises(ConfigError) as err:
        split_meta_sets(manifest)
    assert "'A'" in str(err.value)


def test_split_meta_sets_empty_validation_warns(tmp_path, caplog):
    manifest = tmp_path / "split.json"
    manifest.write_text(json.dumps({"train": ["A"], "validation": [], "test": ["B"]}))
    with caplog.at_level(logging.WARNING):
        split = split_meta_sets(manifest)
    assert split.validation == ()
    assert any("validation" in rec.message for rec in caplog.records)


def test_split_meta_sets_missing_file_and_sections(tmp_path):
    with pytest.raises(ConfigError):
        split_meta_sets(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": []}))
    with pytest.raises(ConfigError):
        split_meta_sets(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"train": ["caf\xe9"], "validation": [], "test": ["b"]}')
    with pytest.raises(ConfigError, match=f"^{re.escape(str(latin1))}: not UTF-8 text"):
        split_meta_sets(latin1)


def test_split_meta_sets_rejects_a_list_manifest(tmp_path):
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(["train", "validation", "test"]))
    with pytest.raises(ConfigError, match="must be a JSON object"):
        split_meta_sets(listed)


def test_shipped_manifest_has_archive_counts():
    split = split_meta_sets(REPO_ROOT / "splits" / "meta_split_65.json")
    assert (len(split.train), len(split.validation), len(split.test)) == (18, 6, 41)


# ---------------------------------------------------------------------------
# Task logs
# ---------------------------------------------------------------------------


def test_task_log_is_deterministic_text():
    bundle = toy_bundle()
    tasks = [sample_task_seeded(bundle, 2, 1, seed=7)]
    assert format_task_log(tasks) == format_task_log(tasks)


def test_task_log_line_is_pinned():
    # tasks.jsonl names each row as a [split, row] pair; how a task stores
    # its rows must not move these bytes.
    task = sample_task_seeded(toy_bundle(), 2, 1, seed=7)
    assert format_task_log([task]) == (
        '{"classes": [0, 1, 2, 3], "dataset": "toy", "k": 2, "k_prime": 1, "seed": 7, '
        '"test": [["test", 4], ["test", 6], ["test", 14], ["test", 19]], '
        '"train": [["train", 3], ["train", 4], ["train", 8], ["train", 10], '
        '["train", 12], ["train", 13], ["train", 18], ["train", 22]]}\n'
    )
