"""End-to-end runs of every CLI subcommand on a small on-disk corpus."""

import json
import shutil

import numpy as np
import pytest

from fewts import gradcheck, training
from fewts.cli import main
from fewts.network import ArchSpec, build_model
from fewts.synthetic import ar_coefficient_domain, sine_frequency_domain, square_duty_domain

from helpers import version_1_checkpoint, write_ucr


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Four tiny datasets on disk plus a meta-split manifest and configs."""
    base = tmp_path_factory.mktemp("corpus")
    data = base / "data"
    kwargs = dict(n_classes=4, length=32, train_per_class=8, test_per_class=4)
    write_ucr(sine_frequency_domain(1, **kwargs), data, name="sine_frequency")
    write_ucr(square_duty_domain(2, **kwargs), data, name="square_duty")
    write_ucr(ar_coefficient_domain(3, **kwargs), data, name="ar_coefficient")
    write_ucr(sine_frequency_domain(7, **kwargs), data, name="sine_b")
    manifest = base / "manifest.json"
    manifest.write_text(json.dumps({
        "train": ["sine_frequency"],
        "validation": ["square_duty"],
        "test": ["ar_coefficient"],
    }))
    arch = {"blocks": 1, "convs_per_block": 2, "filter_lengths": [3, 5],
            "filters_per_length": 2}
    train_cfg = base / "train.json"
    train_cfg.write_text(json.dumps({
        "data_root": str(data), "split_manifest": str(manifest), "seed": 11,
        "arch": arch,
        "meta": {"meta_iterations": 2, "meta_batch": 1, "batch_size": 10,
                 "epochs": 1, "inner_lr": 1e-3, "k_train": 3,
                 "checkpoint_every": 2, "validation_tasks": 2},
    }))
    eval_cfg = base / "eval.json"
    eval_cfg.write_text(json.dumps({
        "data_root": str(data), "split_manifest": str(manifest), "seed": 11,
        "k": 3, "k_prime": 2, "tasks_per_dataset": 2, "arch": arch,
        "finetune": {"fs1": {"epochs": 1}, "resnet": {"epochs": 1}},
        "dtw": {"fractions": [0.2, 1.0]},
    }))
    return base


def test_sine_and_square_domains_have_expected_names(corpus):
    assert (corpus / "data" / "sine_frequency").is_dir()
    assert (corpus / "data" / "ar_coefficient").is_dir()


def test_meta_train_writes_checkpoints(corpus, capsys):
    out = corpus / "run_fs1"
    rc = main(["meta-train", "--config", str(corpus / "train.json"),
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "final.ckpt").is_file()
    assert (out / "selected.ckpt").is_file()
    assert (out / "model_selection.json").is_file()
    lines = (out / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 2
    stdout = capsys.readouterr().out
    assert "2 meta-iterations" in stdout and "selected iteration" in stdout


def test_meta_train_fs2_variant(corpus, capsys):
    out = corpus / "run_fs2"
    rc = main(["meta-train", "--config", str(corpus / "train.json"),
               "--variant", "fs2", "--out-dir", str(out)])
    assert rc == 0
    assert "fs2:" in capsys.readouterr().out
    assert (out / "selected.ckpt").is_file()


@pytest.mark.parametrize("variant,validation", [("fs1", ["square_duty"]),
                                                ("fs2", ["square_duty"]), ("fs1", [])],
                         ids=["fs1", "fs2", "fs1-no-validation"])
def test_meta_train_final_and_selected_are_run_checkpoints(corpus, variant, validation):
    # Checkpoints at iterations 2, 4 and 5. At this inner_lr the validation
    # loss is lowest at iteration 2, so selected.ckpt is not final.ckpt.
    cfg = json.loads((corpus / "train.json").read_text())
    cfg["meta"].update(meta_iterations=5, checkpoint_every=2, meta_batch=2, inner_lr=0.03)
    cfg["split_manifest"] = str(corpus / f"manifest_{len(validation)}.json")
    (corpus / f"manifest_{len(validation)}.json").write_text(json.dumps({
        "train": ["sine_frequency"], "validation": validation, "test": ["ar_coefficient"],
    }))
    cfg_path = corpus / f"train_{variant}_{len(validation)}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = corpus / f"copies_{variant}_{len(validation)}"
    assert main(["meta-train", "--config", str(cfg_path), "--variant", variant,
                 "--out-dir", str(out)]) == 0

    final = (out / "final.ckpt").read_bytes()
    assert final == (out / "checkpoints" / "iter_000005.ckpt").read_bytes()
    manifest = out / "model_selection.json"
    assert manifest.exists() == bool(validation)
    if validation:
        chosen = (out / json.loads(manifest.read_text())["checkpoint"]).read_bytes()
        assert chosen != final
    else:
        chosen = final
    assert (out / "selected.ckpt").read_bytes() == chosen


def test_failed_meta_train_rerun_leaves_no_earlier_copies(corpus, monkeypatch, capsys):
    out = corpus / "rerun"
    argv = ["meta-train", "--config", str(corpus / "train.json"), "--out-dir", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    assert (out / "final.ckpt").is_file() and (out / "selected.ckpt").is_file()

    saves = []
    real_save = training.save_checkpoint

    def fail_second(model, path):
        saves.append(path)
        if len(saves) == 2:
            raise OSError("disk full")
        real_save(model, path)

    monkeypatch.setattr(training, "save_checkpoint", fail_second)
    capsys.readouterr()
    cfg = json.loads((corpus / "train.json").read_text())
    cfg["meta"].update(meta_iterations=4, checkpoint_every=1)
    (corpus / "train_rerun.json").write_text(json.dumps(cfg))
    assert main(["meta-train", "--config", str(corpus / "train_rerun.json"),
                 "--out-dir", str(out), "--seed", "2"]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert len(saves) == 2
    assert not (out / "final.ckpt").exists()
    assert not (out / "selected.ckpt").exists()


def test_evaluate_then_report(corpus, capsys):
    run = corpus / "run_fs1"
    if not (run / "selected.ckpt").is_file():
        assert main(["meta-train", "--config", str(corpus / "train.json"),
                     "--out-dir", str(run)]) == 0
    out = corpus / "eval"
    cfg = json.loads((corpus / "eval.json").read_text())
    cfg["checkpoints"] = {"fs1": str(run / "selected.ckpt")}
    cfg["methods"] = ["fs1", "resnet", "ed"]
    cfg["split_manifest"] = str(corpus / "manifest2.json")
    # Two test datasets so the rank statistics are defined.
    (corpus / "manifest2.json").write_text(json.dumps({
        "train": ["sine_frequency"], "validation": ["square_duty"],
        "test": ["ar_coefficient", "sine_b"],
    }))
    cfg_path = corpus / "eval_full.json"
    cfg_path.write_text(json.dumps(cfg))

    assert main(["evaluate", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    rows = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
    assert len(rows) == 2 * 2 * 3
    capsys.readouterr()

    assert main(["report", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mean ranks:" in stdout and "friedman chi2" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method_count"] == 3
    assert (out / "accuracy_table.csv").is_file()
    assert (out / "cd_plot.json").is_file()


def test_evaluate_runs_the_baselines_alone(corpus):
    out = corpus / "base"
    rc = main(["evaluate", "--config", str(corpus / "eval.json"), "--method", "ed",
               "--method", "dtw", "--out-dir", str(out), "--tasks-per-dataset", "1"])
    assert rc == 0
    rows = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
    assert sorted({r["method"] for r in rows}) == ["dtw", "ed"]


@pytest.mark.parametrize("argv", [["meta-train", "--k", "5"], ["report", "--seed", "3"],
                                  ["baseline"], ["class-split", "--dataset", "x"]],
                         ids=["meta-train-k", "report-seed", "baseline", "class-split"])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code != 0
    assert "error:" in capsys.readouterr().err


def test_gradcheck_prints_small_error(capsys):
    rc = main(["gradcheck"])
    out = capsys.readouterr().out
    assert rc == 0
    value = float(out.split(":")[1])
    assert value < 1e-4


def test_gradcheck_fails_on_a_nan_gradient(monkeypatch, capsys):
    real_backward = gradcheck.backward_batch

    def backward(*args, **kwargs):
        grad = real_backward(*args, **kwargs)
        grad.values[0] = np.nan
        return grad

    monkeypatch.setattr(gradcheck, "backward_batch", backward)
    assert main(["gradcheck"]) == 1
    assert capsys.readouterr().out == "max relative gradient error: nan\n"


@pytest.mark.parametrize("step", ["nan", "0", "-1", "inf"])
def test_gradcheck_rejects_a_bad_step(step, capsys):
    assert main(["gradcheck", "--step", step]) == 1
    assert capsys.readouterr().err == (
        f"error: finite-difference step must be finite and > 0, got {float(step)!r}\n")


def test_errors_are_single_line_on_stderr(tmp_path, capsys):
    rc = main(["report", "--out-dir", str(tmp_path / "void")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert captured.err.strip().count("\n") == 0


@pytest.mark.parametrize("tail", ['{"dataset": "a", "task_in', '{"dataset": "a"}',
                                  '{"accuracy": "x", "dataset": "a", "method": "ed"}',
                                  '{"accuracy": 0.5, "dataset": 3, "method": "ed"}',
                                  '{"accuracy": 0.5, "dataset": ["a"], "method": "ed"}'],
                         ids=["torn-line", "no-method", "non-numeric-accuracy", "int-dataset",
                              "list-dataset"])
def test_report_on_broken_records_is_one_error_line(tmp_path, capsys, tail):
    line = json.dumps({"accuracy": 0.5, "dataset": "a", "method": "ed", "task_index": 0,
                       "task_seed": 3, "wall_time_s": 0.01})
    records = tmp_path / "records.jsonl"
    records.write_text(line + "\n" + tail + "\n")
    rc = main(["report", "--records", str(records), "--out-dir", str(tmp_path / "report")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert captured.err.strip().count("\n") == 0


def test_missing_checkpoint_is_an_error(corpus, capsys):
    rc = main(["evaluate", "--config", str(corpus / "eval.json"),
               "--method", "fs1", "--out-dir", str(corpus / "never2")])
    assert rc == 1
    assert "checkpoint" in capsys.readouterr().err


def test_evaluate_refuses_a_version_1_checkpoint(corpus, capsys):
    cfg = json.loads((corpus / "eval.json").read_text())
    old = corpus / "format1.ckpt"
    old.write_bytes(version_1_checkpoint(build_model(ArchSpec(**cfg["arch"]),
                                                     np.random.default_rng(0))))
    cfg["checkpoints"] = {"fs1": str(old)}
    cfg_path = corpus / "eval_format1.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["evaluate", "--config", str(cfg_path), "--method", "fs1",
               "--out-dir", str(corpus / "never3")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {old}: unsupported format version 1\n"


def test_evaluate_checks_frozen_layers_before_writing(corpus, capsys):
    cfg = json.loads((corpus / "eval.json").read_text())
    cfg["finetune"]["resnet"]["frozen_layers"] = 9
    cfg_path = corpus / "eval_frozen9.json"
    cfg_path.write_text(json.dumps(cfg))
    out = corpus / "never4"
    rc = main(["evaluate", "--config", str(cfg_path), "--method", "ed", "--method", "resnet",
               "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: finetune.resnet: frozen_layers must be in [0, 2], got 9\n")
    assert not out.exists()


def test_unknown_method_is_one_error_line_before_any_dataset_loads(tmp_path, capsys):
    # The manifest names a dataset that does not exist: the method typo is
    # reported, not the missing file, and nothing is written.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"train": [], "validation": [], "test": ["Missing"]}))
    out = tmp_path / "out"
    rc = main(["evaluate", "--data-root", str(tmp_path), "--split-manifest", str(manifest),
               "--method", "ed", "--method", "fs3", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: unknown method 'fs3'; known: fs1, fs2, resnet, ed, dtw\n")
    assert not out.exists()


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sedd": 1}))
    rc = main(["report", "--config", str(bad)])
    assert rc == 1
    assert "sedd" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["config", "records", "manifest", "data"])
def test_non_utf8_input_is_one_error_line_naming_the_file(corpus, tmp_path, capsys, bad):
    data = tmp_path / "data"
    shutil.copytree(corpus / "data" / "ar_coefficient", data / "ar_coefficient")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"train": [], "validation": [], "test": ["ar_coefficient"]}))
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({"accuracy": 0.5, "dataset": "a", "method": "ed"}) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
    target = {"config": config, "records": records, "manifest": manifest,
              "data": next((data / "ar_coefficient").glob("*TEST*"))}[bad]
    target.write_bytes(target.read_bytes() + b"\xff\n")
    if bad in ("config", "records"):
        argv = ["report", "--config", str(config), "--records", str(records)]
    else:
        argv = ["evaluate", "--data-root", str(data), "--split-manifest", str(manifest),
                "--method", "ed", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}") or err.startswith(f"error: config file {target}")
    assert "not UTF-8 text" in err and err.count("\n") == 1
