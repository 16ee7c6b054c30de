"""Experiment configuration: a JSON file of top-level keys and sections,
plus command-line overrides. Unknown keys are rejected so typos fail
loudly instead of silently using defaults."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .baselines import DTWConfig
from .errors import ConfigError
from .network import ArchSpec
from .protocol import CHECKPOINT_METHODS, DEFAULT_FINETUNE, KNOWN_METHODS
from .training import FineTuneConfig, MetaConfig


@dataclass(frozen=True)
class ExperimentConfig:
    data_root: Path | None = None
    split_manifest: Path | None = None
    out_dir: Path = Path("runs/latest")
    seed: int = 0
    k: int = 5
    k_prime: int = 5
    tasks_per_dataset: int = 100
    methods: tuple[str, ...] = ("fs1",)
    variant: str = "fs1"
    arch: ArchSpec = ArchSpec()
    meta: MetaConfig = MetaConfig()
    finetune: dict[str, FineTuneConfig] = field(default_factory=dict)
    dtw: DTWConfig = DTWConfig()
    checkpoints: dict[str, Path] = field(default_factory=dict)
    records: Path | None = None

    def __post_init__(self):
        # Triplet loss needs two instances of some class, so one-shot
        # support sets cannot be fine-tuned.
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if self.k_prime < 1:
            raise ConfigError("k_prime must be >= 1")
        if self.tasks_per_dataset < 1:
            raise ConfigError("tasks_per_dataset must be >= 1")
        if self.variant not in CHECKPOINT_METHODS:
            raise ConfigError(f"variant must be one of {', '.join(CHECKPOINT_METHODS)}")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {', '.join(KNOWN_METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method names")

    def require(self, name: str) -> object:
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"{name} is required (config key or flag)")
        return value


CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def _existing_path(value, key: str) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{key} is {value!r}, expected a path string")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{key} does not exist: {path}")
    return path


# The JSON types each top-level key accepts; the sections go through
# _section. A path is a string, and null leaves an optional key unset.
_TOP_LEVEL_KINDS = {
    "seed": (int,), "k": (int,), "k_prime": (int,),
    "tasks_per_dataset": (int,), "methods": (str, list), "variant": (str,),
    "out_dir": (str,), "data_root": (str, type(None)), "split_manifest": (str, type(None)),
    "records": (str, type(None)),
}

# The value types a section key accepts, by the type of its default.
_KINDS = {int: (int,), float: (int, float), str: (str,), tuple: (list, tuple)}


def _section(cls, name: str, section, base=None, **fixed):
    """Build ``cls(**section, **fixed)``. Omitted keys take their values in
    ``base``, an instance of ``cls``, when given, else the dataclass
    defaults; a section that is not an object, or an unknown or ill-typed
    key, raises ConfigError naming the section."""
    if not isinstance(section, dict):
        raise ConfigError(f"bad {name} section: expected an object, got {section!r}")
    for f in fields(cls):
        kinds = _KINDS.get(type(f.default))
        if not kinds or f.name not in section:
            continue
        value = section[f.name]
        if type(value) not in kinds:
            raise ConfigError(f"bad {name} section: {f.name} is {value!r}, "
                              f"not of the type of its default {f.default!r}")
        # A list's entries must have the type of the default's entries.
        if isinstance(f.default, tuple):
            entry_kinds = _KINDS[type(f.default[0])]
            for entry in value:
                if type(entry) not in entry_kinds:
                    raise ConfigError(f"bad {name} section: {f.name} entry {entry!r} is "
                                      f"not of the type of {f.default[0]!r}")
    try:
        return replace(base, **section, **fixed) if base is not None else cls(**section, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


def _by_method(raw: dict, name: str, methods, build) -> dict:
    """A section keyed by method name, each key one of ``methods``."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"bad {name} section: expected an object keyed by method")
    for method in section:
        if method not in methods:
            raise ConfigError(f"bad {name} section: {method!r} is not one of "
                              f"{', '.join(methods)}")
    return {method: build(method, value) for method, value in section.items()}


def load_experiment_config(
    config_path: Path | str | None,
    overrides: dict | None = None,
) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional JSON file plus overrides.

    Override values of None mean "not given on the command line"."""
    raw: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, kinds in _TOP_LEVEL_KINDS.items():
        if key in raw and type(raw[key]) not in kinds:
            names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ConfigError(f"{key} is {raw[key]!r}, expected {names}")

    kwargs: dict = {}
    for key in ("seed", "k", "k_prime", "tasks_per_dataset", "variant"):
        if key in raw:
            kwargs[key] = raw[key]
    if "out_dir" in raw:
        kwargs["out_dir"] = Path(raw["out_dir"])
    if "methods" in raw:
        methods = raw["methods"]
        if isinstance(methods, str):
            methods = [methods]
        if not all(isinstance(m, str) for m in methods):
            raise ConfigError(f"methods is {raw['methods']!r}, expected method name strings")
        kwargs["methods"] = tuple(methods)
    for key in ("data_root", "split_manifest", "records"):
        if raw.get(key) is not None:
            kwargs[key] = _existing_path(raw[key], key)
    # The run seed also seeds meta-training's inner mini-batch draws.
    meta = raw.get("meta", {})
    if isinstance(meta, dict) and "seed" in meta:
        raise ConfigError("meta.seed is not a key: the top-level seed seeds the whole run")
    run_seed = kwargs.get("seed", ExperimentConfig.seed)
    kwargs["meta"] = _section(MetaConfig, "meta", meta, seed=run_seed)
    kwargs["arch"] = _section(ArchSpec, "arch", raw.get("arch", {}))
    kwargs["dtw"] = _section(DTWConfig, "dtw", raw.get("dtw", {}))
    kwargs["finetune"] = _by_method(
        raw, "finetune", tuple(DEFAULT_FINETUNE),
        lambda m, s: _section(FineTuneConfig, f"finetune.{m}", s, DEFAULT_FINETUNE[m]))
    kwargs["checkpoints"] = _by_method(
        raw, "checkpoints", CHECKPOINT_METHODS,
        lambda m, p: _existing_path(p, f"checkpoint for {m!r}"))
    return ExperimentConfig(**kwargs)
