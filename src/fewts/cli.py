"""Command-line entry point.

Each subcommand is a run mode: meta-train, evaluate or report, plus a
gradcheck self-test. A run mode accepts --config pointing at a JSON file plus
the flags for the config keys it reads; flags override file values. The
subcommand is the only place that names a run mode; the config holds no mode.
Errors print a single machine-parsable line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Conv layers already split their work over one thread per CPU, and a
# default-arch inner step ran faster with one BLAS thread under them than
# with OpenBLAS's own threads (README, Threads). Set before numpy loads
# BLAS; a value in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__
from .config import CONFIG_KEYS, ExperimentConfig, load_experiment_config
from .data import load_dataset, split_meta_sets
from .errors import FewtsError
from .gradcheck import gradient_check
from .network import build_model, load_checkpoint, write_atomic
from .protocol import CHECKPOINT_METHODS, KNOWN_METHODS, report_from_records, run_protocol
from .training import fixed_task_pool, fs1_train, fs2_train, make_validation_hook, meta_task_stream

GRADCHECK_THRESHOLD = 1e-4

# One entry per config-key flag: its config key, and its argparse settings.
# The flag is the key with dashes, unless the entry names another.
_FLAGS = {
    "data_root": dict(help="directory containing the dataset folders"),
    "split_manifest": dict(help="JSON manifest of train/validation/test dataset names"),
    "out_dir": dict(help="directory for run artifacts"),
    "seed": dict(type=int, help="run seed"),
    "k": dict(type=int, help="shots per class (train split)"),
    "k_prime": dict(type=int, help="test samples per class"),
    "tasks_per_dataset": dict(type=int, help="tasks sampled per dataset"),
    "methods": dict(flag="--method", action="append",
                    help="method to evaluate (repeatable): " + " ".join(KNOWN_METHODS)),
    "variant": dict(choices=CHECKPOINT_METHODS,
                    help="batched (fs1) or sequential (fs2) meta-training"),
    "records": dict(help="records file (default: out-dir/records.jsonl)"),
}


def _add_mode(sub, mode: str, func, summary: str, *keys: str) -> None:
    """A run-mode subcommand taking --config plus the flags of ``keys``."""
    p = sub.add_parser(mode, help=summary)
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    for key in keys:
        settings = dict(_FLAGS[key])
        flag = settings.pop("flag", "--" + key.replace("_", "-"))
        p.add_argument(flag, dest=key, default=None, **settings)
    p.set_defaults(func=func)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file plus this subcommand's flags."""
    overrides = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS}
    return load_experiment_config(args.config, overrides)


def _load_bundles(config: ExperimentConfig, names) -> list:
    root = config.require("data_root")
    return [load_dataset(root, name) for name in names]


def cmd_meta_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    split = split_meta_sets(config.require("split_manifest"))
    train_bundles = _load_bundles(config, split.train)
    model = build_model(config.arch, np.random.default_rng(config.seed))
    stream = meta_task_stream(train_bundles, config.meta.k_train, 0, config.seed)
    hook = None
    if split.validation:
        pool = fixed_task_pool(_load_bundles(config, split.validation),
                               config.meta.k_train, 0, config.seed,
                               config.meta.validation_tasks)
        hook = make_validation_hook(pool, margin=config.meta.margin)
    train = fs1_train if config.variant == "fs1" else fs2_train
    # Both are copies of checkpoints the run writes: the last iteration's,
    # which is always checkpointed, and the one model_selection.json names.
    # An earlier run's copies go first, so a run that fails leaves none.
    out = Path(config.out_dir)
    for copy in ("final.ckpt", "selected.ckpt"):
        (out / copy).unlink(missing_ok=True)
    result = train(model, config.meta, stream, validation_hook=hook, run_dir=config.out_dir)
    last = result.history[-1]["checkpoint"]
    selected = out / "selected.ckpt"
    write_atomic(out / "final.ckpt", (out / last).read_bytes())
    write_atomic(selected, (out / (result.best_checkpoint or last)).read_bytes())
    print(f"{config.variant}: {config.meta.meta_iterations} meta-iterations, "
          f"{result.total_inner_steps} inner steps, checkpoint {selected}")
    if result.best_validation is not None:
        print(f"selected iteration {result.best_iteration} "
              f"(validation loss {result.best_validation:.6f})")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    split = split_meta_sets(config.require("split_manifest"))
    bundles = _load_bundles(config, split.test)
    # run_protocol rejects a checkpoint method that has no model here.
    models = {m: load_checkpoint(path) for m, path in config.checkpoints.items()
              if m in config.methods}
    records = run_protocol(
        bundles,
        config.methods,
        config.k,
        config.k_prime,
        config.tasks_per_dataset,
        config.seed,
        config.out_dir,
        models=models,
        finetune=config.finetune,
        scratch_spec=config.arch,
        dtw_config=config.dtw,
    )
    n_records = len(bundles) * config.tasks_per_dataset * len(config.methods)
    print(f"{n_records} records ({len(bundles)} datasets x {config.tasks_per_dataset} tasks "
          f"x {len(config.methods)} methods) -> {records}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    records = config.records
    if records is None:
        records = Path(config.out_dir) / "records.jsonl"
    paths = report_from_records(records, config.out_dir)
    summary = json.loads(paths["summary"].read_text())
    ranks = ", ".join(f"{m}={summary['mean_ranks'][m]:.3f}" for m in summary["methods"])
    print(f"mean ranks: {ranks}")
    print(f"friedman chi2 {summary['friedman_chi2']:.4f}, "
          f"CD {summary['critical_difference']:.4f} at alpha {summary['alpha']}")
    print(f"report -> {paths['table']}, {paths['summary']}, {paths['cd_plot']}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    error = gradient_check(h=args.step, seed=args.seed if args.seed is not None else 0)
    print(f"max relative gradient error: {error:.3e}")
    return 0 if error < GRADCHECK_THRESHOLD else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewts",
        description="Few-shot time series classification toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_mode(sub, "meta-train", cmd_meta_train, "train an embedding initialization",
              "data_root", "split_manifest", "out_dir", "seed", "variant")
    _add_mode(sub, "evaluate", cmd_evaluate, "run the shared-task protocol",
              "data_root", "split_manifest", "out_dir", "seed", "k", "k_prime",
              "tasks_per_dataset", "methods")
    _add_mode(sub, "report", cmd_report, "aggregate records into a report",
              "out_dir", "records")

    p = sub.add_parser("gradcheck", help="finite-difference self-test")
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FewtsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
