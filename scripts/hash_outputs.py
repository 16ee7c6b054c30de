"""sha256 prefixes of what training and evaluation write, for a bitwise
comparison of two source trees.

For each architecture it hashes:

* the checkpoint of a freshly built model, ``build_model`` at seed 8, which
  the meta-trainers start from;
* the fs1 and fs2 meta-training artifacts: every checkpoint, the
  model-selection manifest, and the training log with ``wall_time_s``
  dropped;
* the fs1 model fine-tuned at ``frozen_layers`` 0, 1 and 2: the tuned
  checkpoint and the infer-mode embeddings of a task's test split;
* one train-mode step of the fs1 model: the embeddings and the parameter
  gradient of the triplet loss;
* ``run_protocol`` over two synthetic datasets with fs1, fs2, resnet, ed and
  dtw: the records with ``wall_time_s`` dropped, ``tasks.jsonl``,
  ``run_config.json`` and the three report files.

Under ``synthetic`` it hashes the three generated bundles (sine, square,
AR) at two shapes, T = 37 with 3 classes and T = 128 with 5: both splits'
values and labels, whatever architectures run. Under ``dtw``, for a task of
each family at T = 37, 64 and 128, it holds the window ``dtw_loocv_window``
selects on the train split, under the default 50-fraction grid and under
the three-fraction grid (0.05, 0.25, 0.75), and the hash of the
``dtw_1nn`` labels of the test split at that window. Under ``ucr`` it
writes TRAIN and TEST files of two datasets under tab, comma and space
delimiters, loads each with ``load_dataset``, and holds the hash of both
splits' values and labels and the label names. The two files' label
tokens differ: in the numeric dataset ``"3"`` is only in TEST and TRAIN's
``"1"`` is TEST's ``"1.0"``; in the other, the tokens are text and ``"c"``
is only in TEST.

``tiny`` and ``3x1`` run all of it at T = 32. ``default`` (the 2.03M
parameter network) runs one fs1 meta-iteration of two one-step tasks at
T = 64 and the fine-tune and train-mode parts, and skips fs2 and the
protocol. Prints one JSON object, architecture (or ``synthetic``, ``dtw``
or ``ucr``) -> output -> the first 16 hex digits of its sha256, the
selected window, or the label names. Equal objects from two trees on the
same machine mean the outputs are bitwise equal.

Run it against any checkout's sources:

    PYTHONPATH=src python scripts/hash_outputs.py --arch tiny --arch 3x1 --arch default

BLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from fewts.baselines import DTWConfig, dtw_1nn, dtw_loocv_window  # noqa: E402
from fewts.data import load_dataset  # noqa: E402
from fewts.network import (  # noqa: E402
    ArchSpec, backward_batch, build_model, checkpoint_bytes, embed_batch,
)
from fewts.protocol import report_from_records, run_protocol  # noqa: E402
from fewts.synthetic import (  # noqa: E402
    ar_coefficient_domain, sine_frequency_domain, square_duty_domain,
)
from fewts.training import (  # noqa: E402
    FineTuneConfig, MetaConfig, finetune, fixed_task_pool, fs1_train, fs2_train,
    make_validation_hook, meta_task_stream,
)
from fewts.triplet import (  # noqa: E402
    enumerate_valid_triplets, triplet_loss_grad,
)

_SMALL = dict(filter_lengths=(8, 5), filters_per_length=4)
ARCHS = {
    "tiny": ArchSpec(blocks=2, convs_per_block=2, **_SMALL),
    "3x1": ArchSpec(blocks=3, convs_per_block=1, **_SMALL),
    "default": ArchSpec(),
}
FROZEN_LAYERS = (0, 1, 2)
DOMAINS = {"sine": sine_frequency_domain, "square": square_duty_domain,
           "ar": ar_coefficient_domain}
SHAPES = {
    "T37": dict(n_classes=3, length=37, train_per_class=2, test_per_class=3),
    "T128": dict(n_classes=5, length=128, train_per_class=30, test_per_class=30),
}
DTW_LENGTHS = (37, 64, 128)
DTW_GRIDS = {"default": DTWConfig(), "three": DTWConfig(fractions=(0.05, 0.25, 0.75))}
# Each dataset's TRAIN and TEST row label tokens.
UCR_TOKENS = {
    "numeric": (["2", "1", "2", "1", "2"], ["1.0", "3", "2", "1.0", "3", "2"]),
    "text": (["b", "a", "b", "a"], ["c", "a", "b", "c", "b"]),
}
UCR_DELIMITERS = {"tab": "\t", "comma": ",", "space": " "}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def without_wall_times(path: Path) -> bytes:
    """A JSON-lines log with each record's ``wall_time_s`` dropped."""
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("wall_time_s", None)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines).encode()


def hash_run_dir(run_dir: Path, prefix: str, out: dict) -> None:
    for ckpt in sorted((run_dir / "checkpoints").iterdir()):
        out[f"{prefix}/{ckpt.name}"] = digest(ckpt.read_bytes())
    out[f"{prefix}/model_selection.json"] = digest((run_dir / "model_selection.json").read_bytes())
    out[f"{prefix}/train_log.jsonl"] = digest(without_wall_times(run_dir / "train_log.jsonl"))


def hash_synthetic() -> dict:
    out = {}
    for family, domain in DOMAINS.items():
        for shape, kwargs in SHAPES.items():
            bundle = domain(4, **kwargs)
            arrays = (bundle.train.values, bundle.train.labels,
                      bundle.test.values, bundle.test.labels)
            out[f"{family}/{shape}"] = digest(b"".join(a.tobytes() for a in arrays))
    return out


def hash_dtw() -> dict:
    out = {}
    for family, domain in DOMAINS.items():
        for t in DTW_LENGTHS:
            bundle = domain(t, n_classes=4, length=t, train_per_class=4, test_per_class=3)
            for grid, config in DTW_GRIDS.items():
                window = dtw_loocv_window(bundle.train, config)
                labels = dtw_1nn(bundle.train, bundle.test.values, window)
                out[f"{family}/T{t}/{grid}/window"] = window
                out[f"{family}/T{t}/{grid}/labels"] = digest(labels.tobytes())
    return out


def hash_ucr(workdir: Path) -> dict:
    out = {}
    rng = np.random.default_rng(6)
    for dataset, splits in UCR_TOKENS.items():
        rows = {tag: rng.standard_normal((len(tokens), 24)) * rng.uniform(0.01, 100.0)
                for tag, tokens in zip(("TRAIN", "TEST"), splits)}
        for delim_name, delim in UCR_DELIMITERS.items():
            root = workdir / delim_name
            (root / dataset).mkdir(parents=True)
            for (tag, values), tokens in zip(rows.items(), splits):
                lines = [delim.join([token] + [f"{v:.17g}" for v in row])
                         for token, row in zip(tokens, values)]
                (root / dataset / f"{dataset}_{tag}.txt").write_text("\n".join(lines) + "\n")
            bundle = load_dataset(root, dataset)
            arrays = (bundle.train.values, bundle.train.labels,
                      bundle.test.values, bundle.test.labels)
            out[f"{dataset}/{delim_name}/splits"] = digest(b"".join(a.tobytes() for a in arrays))
            # Trees whose bundles do not hold the label names keep them on
            # each split.
            names = getattr(bundle, "label_names", None) or bundle.train.label_names
            out[f"{dataset}/{delim_name}/label_names"] = list(names)
    return out


def hash_arch(name: str, workdir: Path) -> dict:
    spec = ARCHS[name]
    full = name != "default"
    length = 32 if full else 64
    bundles = [
        square_duty_domain(1, n_classes=4, length=length, train_per_class=6, test_per_class=4),
        ar_coefficient_domain(2, n_classes=4, length=length, train_per_class=6, test_per_class=4),
    ]
    config = MetaConfig(
        meta_iterations=3 if full else 1, meta_batch=2, batch_size=6, epochs=1,
        k_train=4 if full else 2, checkpoint_every=2, validation_tasks=2, seed=5,
    )
    hook = make_validation_hook(fixed_task_pool(bundles, 2, 0, config.seed, 2))
    init = build_model(spec, np.random.default_rng(8))
    out: dict[str, str] = {"fresh.ckpt": digest(checkpoint_bytes(init))}
    models = {}
    for variant, train in (("fs1", fs1_train), ("fs2", fs2_train))[: 2 if full else 1]:
        run_dir = workdir / variant
        stream = meta_task_stream(bundles, config.k_train, 0, config.seed)
        models[variant] = train(init, config, stream, hook, run_dir).model
        hash_run_dir(run_dir, variant, out)

    task = next(meta_task_stream(bundles, 2, 2, 9))
    for frozen in FROZEN_LAYERS:
        tuned = finetune(models["fs1"], task.train,
                         FineTuneConfig(epochs=1, batch_size=6, frozen_layers=frozen),
                         rng=np.random.default_rng(9))
        out[f"finetune/frozen{frozen}.ckpt"] = digest(checkpoint_bytes(tuned))
        z = embed_batch(tuned, task.test.values, mode="infer")
        out[f"finetune/frozen{frozen}.infer_z"] = digest(z.tobytes())

    work = models["fs1"].copy()
    z, cache = embed_batch(work, task.train.values, mode="train", return_cache=True)
    upstream = triplet_loss_grad(z, enumerate_valid_triplets(task.train.labels))
    out["train/z"] = digest(z.tobytes())
    out["train/grads"] = digest(backward_batch(work, cache, upstream).values.tobytes())

    if full:
        short = FineTuneConfig(epochs=1, batch_size=6)
        protocol_dir = workdir / "protocol"
        records = run_protocol(
            bundles, ("fs1", "fs2", "resnet", "ed", "dtw"), k=2, k_prime=2,
            tasks_per_dataset=2, run_seed=3, out_dir=protocol_dir, models=models,
            finetune={"fs1": short, "fs2": short, "resnet": short},
        )
        out["protocol/records.jsonl"] = digest(without_wall_times(records))
        for log in ("tasks.jsonl", "run_config.json"):
            out[f"protocol/{log}"] = digest((protocol_dir / log).read_bytes())
        for path in report_from_records(records, workdir / "report").values():
            out[f"report/{path.name}"] = digest(path.read_bytes())
    return out


def hash_outputs(arch_names) -> dict:
    result = {"synthetic": hash_synthetic(), "dtw": hash_dtw()}
    with tempfile.TemporaryDirectory() as tmp:
        result["ucr"] = hash_ucr(Path(tmp))
    for name in arch_names:
        with tempfile.TemporaryDirectory() as tmp:
            result[name] = hash_arch(name, Path(tmp))
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--arch", action="append", choices=tuple(ARCHS),
                        help="architecture to run (repeatable; default: all three)")
    args = parser.parse_args()
    print(json.dumps(hash_outputs(args.arch or tuple(ARCHS)), sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
