"""Experiment config loading and override semantics."""

import json
import re

import pytest

from fewts.baselines import DTWConfig
from fewts.config import ExperimentConfig, load_experiment_config
from fewts.errors import ConfigError
from fewts.network import ArchSpec
from fewts.training import FineTuneConfig


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_defaults_and_mode_only():
    config = load_experiment_config(None, {})
    assert config.k == 5 and config.k_prime == 5
    assert config.methods == ("fs1",)
    assert config.variant == "fs1"


def test_file_plus_overrides(tmp_path):
    path = write_config(tmp_path, {"seed": 3, "k": 4, "out_dir": "a"})
    config = load_experiment_config(path, {"seed": 8, "out_dir": None})
    # Flag overrides beat the file; None means the flag was not given.
    assert config.seed == 8
    assert config.k == 4
    assert str(config.out_dir) == "a"


def test_unknown_keys_rejected(tmp_path):
    # The subcommand is the run mode: neither "mode" nor "dataset" is a key.
    for key in ("sedd", "mode", "dataset"):
        path = write_config(tmp_path, {key: "report"}, name=f"{key}.json")
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}$"):
            load_experiment_config(path, {})


def test_invalid_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_experiment_config(bad, {})
    with pytest.raises(ConfigError, match="not found"):
        load_experiment_config(tmp_path / "absent.json", {})
    array = write_config(tmp_path, [1, 2])
    with pytest.raises(ConfigError, match="JSON object"):
        load_experiment_config(array, {})
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"out_dir": "caf\xe9"}')
    with pytest.raises(ConfigError, match=f"{re.escape(str(latin1))} is not UTF-8 text"):
        load_experiment_config(latin1, {})


def test_path_fields_must_exist(tmp_path):
    path = write_config(tmp_path, {"data_root": str(tmp_path / "no")})
    with pytest.raises(ConfigError, match="does not exist"):
        load_experiment_config(path, {})


def test_sections_parse(tmp_path):
    payload = {
        "arch": {"blocks": 1, "convs_per_block": 2, "filter_lengths": [3, 5],
                 "filters_per_length": 2},
        "meta": {"meta_iterations": 7, "k_train": 3},
        "finetune": {"fs1": {"epochs": 2}},
        "dtw": {"fractions": [0.1, 0.5, 1.0]},
        "methods": ["ed", "dtw"],
    }
    config = load_experiment_config(write_config(tmp_path, payload), {})
    assert config.arch.blocks == 1 and config.arch.filter_lengths == (3, 5)
    assert config.meta.meta_iterations == 7 and config.meta.k_train == 3
    assert config.finetune == {"fs1": FineTuneConfig(epochs=2)}
    assert config.dtw.fractions == (0.1, 0.5, 1.0)
    assert config.methods == ("ed", "dtw")


def test_finetune_entry_merges_over_the_method_default(tmp_path):
    # fs2 fine-tunes 8 epochs by default; setting only its learning rate
    # keeps them, rather than the dataclass's 16.
    path = write_config(tmp_path, {"finetune": {"fs2": {"inner_lr": 0.001}}})
    assert load_experiment_config(path, {}).finetune == {
        "fs2": FineTuneConfig(epochs=8, inner_lr=0.001)}


def test_meta_takes_the_run_seed(tmp_path):
    # The inner mini-batch draws of meta-train use meta.seed, so it must be
    # the run seed, from the file or from --seed, with or without a meta section.
    path = write_config(tmp_path, {"seed": 11, "meta": {"k_train": 3}})
    assert load_experiment_config(path, {}).meta.seed == 11
    assert load_experiment_config(path, {"seed": 12}).meta.seed == 12
    bare = write_config(tmp_path, {}, name="bare.json")
    assert load_experiment_config(bare, {"seed": 12}).meta.seed == 12
    assert load_experiment_config(bare, {}).meta.seed == 0


def test_meta_seed_key_points_to_top_level_seed(tmp_path):
    path = write_config(tmp_path, {"meta": {"seed": 3}})
    with pytest.raises(ConfigError, match="top-level seed"):
        load_experiment_config(path, {})


def test_meta_optimizer_is_not_a_key(tmp_path):
    # Meta-training's inner loop always steps with Adam.
    path = write_config(tmp_path, {"meta": {"optimizer": "adam"}})
    with pytest.raises(ConfigError, match="bad meta section: .*optimizer"):
        load_experiment_config(path, {})


def test_bad_sections(tmp_path):
    with pytest.raises(ConfigError, match="meta"):
        load_experiment_config(
            write_config(tmp_path, {"meta": {"bogus_key": 1}}), {})
    with pytest.raises(ConfigError, match="finetune"):
        load_experiment_config(
            write_config(tmp_path, {"finetune": {"fs1": {"nope": 1}}},
                         name="c2.json"), {})
    with pytest.raises(ConfigError, match="dtw"):
        load_experiment_config(
            write_config(tmp_path, {"dtw": {"fraction": [0.5]}},
                         name="c3.json"), {})
    with pytest.raises(ConfigError, match="checkpoint"):
        load_experiment_config(
            write_config(tmp_path, {"checkpoints": {"fs1": str(tmp_path / "no.ckpt")}},
                         name="c4.json"), {})


def test_partial_sections_take_defaults(tmp_path):
    payload = {"arch": {"blocks": 1}, "dtw": {}}
    config = load_experiment_config(write_config(tmp_path, payload), {})
    assert config.arch == ArchSpec(blocks=1)
    assert config.dtw == DTWConfig()


@pytest.mark.parametrize("section, match", [
    ({"finetune": {"fs_1": {"epochs": 2}}}, "fs_1"),
    ({"checkpoints": {"ed": __file__}}, "'ed'"),
    ({"checkpoints": {"fs1": 3}}, "checkpoint for 'fs1' is 3, expected a path"),
    ({"arch": {"blocks": 1.5}}, "arch.*blocks"),
    ({"arch": [1, 2]}, "arch"),
    ({"finetune": {"fs1": {"epochs": "2"}}}, "finetune.fs1.*epochs"),
    ({"arch": {"filter_lengths": [4.7, 8]}}, "bad arch section: filter_lengths entry 4.7"),
    ({"arch": {"filter_lengths": [4, "8"]}}, "bad arch section: filter_lengths entry '8'"),
    ({"arch": {"filter_lengths": [4, True]}}, "bad arch section: filter_lengths entry True"),
    ({"dtw": {"fractions": [True]}}, "bad dtw section: fractions entry True"),
    ({"dtw": {"fractions": [0.1, "0.5"]}}, "bad dtw section: fractions entry '0.5'"),
], ids=["finetune-method", "checkpoint-method", "int-for-checkpoint", "float-for-int",
        "not-an-object", "string-for-int", "float-filter-length", "string-filter-length",
        "bool-filter-length", "bool-fraction", "string-fraction"])
def test_bad_section_keys_name_the_section(tmp_path, section, match):
    path = write_config(tmp_path, section)
    with pytest.raises(ConfigError, match=match):
        load_experiment_config(path, {})


@pytest.mark.parametrize("key, value", [("k", "5"), ("data_root", 3)],
                         ids=["string-for-int", "int-for-path"])
def test_bad_top_level_values_name_the_key(tmp_path, key, value):
    path = write_config(tmp_path, {key: value})
    with pytest.raises(ConfigError, match=f"{key} is {value!r}"):
        load_experiment_config(path, {})


def test_checkpoints_resolve(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(b"x")
    payload = {"checkpoints": {"fs1": str(ckpt)}}
    config = load_experiment_config(write_config(tmp_path, payload), {})
    assert config.checkpoints == {"fs1": ckpt}


def test_methods_string_is_promoted(tmp_path):
    config = load_experiment_config(
        write_config(tmp_path, {"methods": "ed"}), {})
    assert config.methods == ("ed",)


@pytest.mark.parametrize("methods", [[["ed"]], ["ed", 3], [None]])
def test_methods_entries_must_be_strings(tmp_path, methods):
    path = write_config(tmp_path, {"methods": methods})
    with pytest.raises(ConfigError, match="methods"):
        load_experiment_config(path, {})


def test_validation_rules():
    with pytest.raises(ConfigError):
        ExperimentConfig(k=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(k_prime=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(tasks_per_dataset=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(variant="fs3")
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=())


def test_require_reports_missing_field():
    config = ExperimentConfig()
    with pytest.raises(ConfigError, match="data_root"):
        config.require("data_root")
    assert config.require("out_dir") == config.out_dir
