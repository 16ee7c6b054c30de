"""Shared-task evaluation protocol and report emission."""

import json
import os
import re
from dataclasses import asdict

import numpy as np
import pytest

from fewts import protocol
from fewts.data import format_task_log, sample_task_seeded, task_seed
from fewts.errors import ConfigError, ParseError
from fewts.network import ArchSpec, build_model
from fewts.protocol import (
    TaskResult,
    emit_report,
    format_record,
    read_records,
    report_from_records,
    run_protocol,
)
from fewts.stats import aggregate
from fewts.synthetic import ar_coefficient_domain, sine_frequency_domain
from fewts.training import FineTuneConfig

TINY = ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(3, 5), filters_per_length=2)


@pytest.fixture(scope="module")
def bundles():
    return [
        sine_frequency_domain(1, n_classes=4, length=32, train_per_class=8, test_per_class=4),
        ar_coefficient_domain(2, n_classes=4, length=32, train_per_class=8, test_per_class=4),
    ]


FAST = {"resnet": FineTuneConfig(epochs=0), "fs1": FineTuneConfig(epochs=0)}


def test_task_result_validates_accuracy():
    TaskResult("d", 0, "ed", 0.0, 0.1, 7)
    TaskResult("d", 0, "ed", 1.0, 0.1, 7)
    with pytest.raises(ConfigError):
        TaskResult("d", 0, "ed", 1.5, 0.1, 7)
    with pytest.raises(ConfigError):
        TaskResult("d", 0, "ed", -0.1, 0.1, 7)


def test_records_round_trip(tmp_path):
    records = [
        TaskResult("a", 0, "ed", 0.5, 0.01, 3),
        TaskResult("a", 1, "dtw", 0.75, 0.02, 4),
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(map(format_record, records)))
    assert read_records(path) == [asdict(r) for r in records]


def test_read_records_missing(tmp_path):
    with pytest.raises(ConfigError):
        read_records(tmp_path / "absent.jsonl")


def test_read_records_torn_last_line_names_path_and_line(tmp_path):
    # run_protocol appends records as it goes, so a crash can tear the last one.
    path = tmp_path / "records.jsonl"
    text = format_record(TaskResult("a", 0, "ed", 0.5, 0.01, 3))
    path.write_text(text + text[:20])
    with pytest.raises(ParseError, match=re.escape(f"{path}:2:")):
        read_records(path)


def test_read_records_rejects_non_object_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:1:")):
        read_records(path)


def test_read_records_rejects_a_non_utf8_file(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"accuracy": 0.5, "dataset": "caf\xe9", "method": "ed"}\n')
    with pytest.raises(ParseError, match=re.escape(f"{path}: bad record log: not UTF-8 text")):
        read_records(path)


def test_run_protocol_record_grid(bundles, tmp_path):
    path = run_protocol(bundles, ["ed", "resnet"], 3, 2, 2, 5, tmp_path,
                        scratch_spec=TINY, finetune=FAST)
    rows = read_records(path)
    assert len(rows) == 2 * 2 * 2
    # Dataset-major, task-index-minor, method-innermost order.
    keys = [(r["dataset"], r["task_index"], r["method"]) for r in rows]
    assert keys == [(b.name, i, m) for b in bundles for i in range(2)
                    for m in ("ed", "resnet")]
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
    # Both methods see the identical task.
    for i in range(0, len(rows), 2):
        assert rows[i]["task_seed"] == rows[i + 1]["task_seed"]


def test_run_protocol_task_sampling_ignores_method_list(bundles, tmp_path):
    only = read_records(run_protocol(bundles, ["ed"], 3, 2, 2, 5, tmp_path / "a"))
    both = read_records(run_protocol(bundles, ["ed", "resnet"], 3, 2, 2, 5,
                                     tmp_path / "b", scratch_spec=TINY, finetune=FAST))
    ed_only = [(r["dataset"], r["task_index"], r["accuracy"], r["task_seed"]) for r in only]
    ed_both = [(r["dataset"], r["task_index"], r["accuracy"], r["task_seed"])
               for r in both if r["method"] == "ed"]
    assert ed_only == ed_both


def test_run_protocol_keeps_finished_records_after_a_crash(bundles, tmp_path, monkeypatch):
    evaluate = protocol._evaluate_method

    def crash_on_second_task(method, task, run_seed, task_index, *args):
        if task_index == 1:
            raise RuntimeError("simulated crash")
        return evaluate(method, task, run_seed, task_index, *args)

    monkeypatch.setattr(protocol, "_evaluate_method", crash_on_second_task)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_protocol(bundles, ["ed", "resnet"], 3, 2, 2, 5, tmp_path,
                     scratch_spec=TINY, finetune=FAST)
    rows = read_records(tmp_path / "records.jsonl")
    assert [(r["dataset"], r["task_index"], r["method"]) for r in rows] == [
        (bundles[0].name, 0, "ed"), (bundles[0].name, 0, "resnet")]
    assert json.loads((tmp_path / "run_config.json").read_text())["methods"] == ["ed", "resnet"]
    # Each task's log line is written when the task is sampled.
    assert len((tmp_path / "tasks.jsonl").read_text().splitlines()) == 2


def test_task_log_lines_resample_from_their_seeds(bundles, tmp_path):
    # A task is checked by re-sampling it from its logged seed: equal log
    # text shows it is the task logged, and its refs index the rows it holds.
    run_protocol(bundles, ["ed"], 3, 2, 2, 5, tmp_path)
    lines = (tmp_path / "tasks.jsonl").read_text().splitlines(keepends=True)
    expected = [(b, i) for b in bundles for i in range(2)]
    assert len(lines) == len(expected)
    for line, (bundle, index) in zip(lines, expected):
        record = json.loads(line)
        assert record["seed"] == task_seed(5, bundle.name, index)
        task = sample_task_seeded(bundle, record["k"], record["k_prime"], seed=record["seed"])
        assert format_task_log([task]) == line
        for part in ("train", "test"):
            held = getattr(task, part)
            assert len(record[part]) == held.n
            for row, (split, i) in enumerate(record[part]):
                pool = getattr(bundle, split)
                assert pool.values[i].tobytes() == held.values[row].tobytes()
                assert task.class_ids[held.labels[row]] == pool.labels[i]


@pytest.mark.parametrize("method", ["fs1", "resnet"])
def test_run_protocol_checks_frozen_layers_before_writing(bundles, tmp_path, method):
    model = build_model(TINY, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=re.escape(
            f"finetune.{method}: frozen_layers must be in [0, 2], got 3")):
        run_protocol(bundles, ["ed", method], 3, 2, 1, 0, tmp_path / "run",
                     models={"fs1": model}, scratch_spec=TINY,
                     finetune={method: FineTuneConfig(epochs=0, frozen_layers=3)})
    assert not (tmp_path / "run").exists()
    # At the model's layer count the run goes through.
    run_protocol(bundles, ["ed", method], 3, 2, 1, 0, tmp_path / "run",
                 models={"fs1": model}, scratch_spec=TINY,
                 finetune={method: FineTuneConfig(epochs=0, frozen_layers=2)})


def test_run_protocol_rejections(bundles, tmp_path):
    with pytest.raises(ConfigError):
        run_protocol([], ["ed"], 3, 2, 1, 0, tmp_path)
    with pytest.raises(ConfigError):
        run_protocol(bundles, [], 3, 2, 1, 0, tmp_path)
    with pytest.raises(ConfigError):
        run_protocol(bundles, ["ed", "ed"], 3, 2, 1, 0, tmp_path)
    with pytest.raises(ConfigError):
        run_protocol(bundles, ["boss"], 3, 2, 1, 0, tmp_path)
    with pytest.raises(ConfigError):
        run_protocol(bundles, ["fs1"], 3, 2, 1, 0, tmp_path)  # no checkpoint
    with pytest.raises(ConfigError):
        run_protocol(bundles, ["ed"], 3, 0, 1, 0, tmp_path)


def test_run_protocol_deterministic_artifacts(bundles, tmp_path):
    model = build_model(TINY, np.random.default_rng(0))
    kwargs = dict(models={"fs1": model}, finetune=FAST, scratch_spec=TINY)
    p1 = run_protocol(bundles, ["fs1", "ed"], 3, 2, 2, 9, tmp_path / "r1", **kwargs)
    p2 = run_protocol(bundles, ["fs1", "ed"], 3, 2, 2, 9, tmp_path / "r2", **kwargs)
    t1 = (tmp_path / "r1" / "tasks.jsonl").read_bytes()
    t2 = (tmp_path / "r2" / "tasks.jsonl").read_bytes()
    assert t1 == t2
    # Records match except for wall time.
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
    assert strip(read_records(p1)) == strip(read_records(p2))
    # Reports never contain wall time and are bytewise reproducible.
    report_from_records(p1, tmp_path / "r1")
    report_from_records(p2, tmp_path / "r2")
    for name in ("accuracy_table.csv", "summary.json", "cd_plot.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def _toy_table():
    records = []
    accs = {"ed": (0.50, 0.40, 0.30), "dtw": (0.60, 0.55, 0.35), "fs1": (0.70, 0.60, 0.45)}
    for method, values in accs.items():
        for d, acc in enumerate(values):
            records.append({"dataset": f"d{d}", "method": method, "accuracy": acc})
    return aggregate(records)


def test_emit_report_files(tmp_path):
    table = _toy_table()
    paths = emit_report(table, tmp_path, header={"run_seed": 9})
    csv = paths["table"].read_text().splitlines()
    assert csv[0] == "dataset,ed,dtw,fs1"
    assert len(csv) == 1 + 3 + 1 and csv[-1].startswith("mean_rank,")
    summary = json.loads(paths["summary"].read_text())
    assert summary["dataset_count"] == 3 and summary["method_count"] == 3
    assert summary["header"] == {"run_seed": 9}
    assert summary["mean_ranks"]["fs1"] == 1.0
    assert summary["wtl"]["fs1"]["ed"] == [3, 0, 0]
    assert summary["wtl"]["ed"]["fs1"] == [0, 0, 3]
    plot = json.loads(paths["cd_plot"].read_text())
    assert [e["method"] for e in plot["entries"]] == ["fs1", "dtw", "ed"]
    assert plot["critical_difference"] == summary["critical_difference"]


def test_emit_report_rerun_is_bytewise_identical(tmp_path):
    table = _toy_table()
    emit_report(table, tmp_path / "x")
    emit_report(table, tmp_path / "y")
    for name in ("accuracy_table.csv", "summary.json", "cd_plot.json"):
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


def test_emit_report_failed_write_keeps_previous_files(tmp_path, monkeypatch):
    table = _toy_table()
    paths = emit_report(table, tmp_path, header={"run_seed": 1})
    before = {key: path.read_bytes() for key, path in paths.items()}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        emit_report(table, tmp_path, header={"run_seed": 2})
    assert {key: path.read_bytes() for key, path in paths.items()} == before
    assert not list(tmp_path.glob("*.tmp"))


def test_emit_report_needs_two_methods(tmp_path):
    records = [{"dataset": f"d{i}", "method": "ed", "accuracy": 0.5} for i in range(3)]
    with pytest.raises(ConfigError):
        emit_report(aggregate(records), tmp_path)


def test_report_from_records_picks_up_run_config(bundles, tmp_path):
    path = run_protocol(bundles, ["ed", "dtw"], 3, 2, 1, 4, tmp_path)
    paths = report_from_records(path, tmp_path)
    header = json.loads(paths["summary"].read_text())["header"]
    assert header["run_seed"] == 4
    assert header["methods"] == ["ed", "dtw"]
    assert header["datasets"] == [b.name for b in bundles]


@pytest.mark.parametrize("text", ['{"run_seed": 4,', "[1, 2]\n"])
def test_report_from_records_rejects_bad_run_config(bundles, tmp_path, text):
    path = run_protocol(bundles, ["ed", "dtw"], 3, 2, 1, 4, tmp_path)
    (tmp_path / "run_config.json").write_text(text)
    with pytest.raises(ConfigError, match=re.escape(str(tmp_path / "run_config.json"))):
        report_from_records(path, tmp_path)
