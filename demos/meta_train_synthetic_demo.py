"""Meta-train an embedding initialization on synthetic domains.

Runs a short batched (FS-1 style) meta-training loop over two synthetic
domains, with model selection against a fixed pool of validation tasks from a
third, and prints the training trace. The run directory afterwards holds the
training log, periodic checkpoints and the model-selection manifest; pass
--sequential to use the FS-2 style loop instead (one running parameter
vector, fresh optimizer per task).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from fewts.network import ArchSpec, build_model
from fewts.synthetic import ar_coefficient_domain, sine_frequency_domain, square_duty_domain
from fewts.training import (
    MetaConfig,
    fixed_task_pool,
    fs1_train,
    fs2_train,
    make_validation_hook,
    meta_task_stream,
)

ARCH = ArchSpec(blocks=2, convs_per_block=2, filter_lengths=(8, 5), filters_per_length=4)

DOMAIN_BUILDERS = {
    "sine-frequency": sine_frequency_domain,
    "square-duty": square_duty_domain,
    "ar-coefficient": ar_coefficient_domain,
}


def synthetic_domains(seed: int) -> dict:
    """All three domains keyed by family name, each from a distinct stream
    of the seed."""
    return {key: builder(seed + 1000 * i)
            for i, (key, builder) in enumerate(DOMAIN_BUILDERS.items())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--out-dir", type=Path, default=Path("runs/synthetic-demo"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sequential", action="store_true")
    args = parser.parse_args()

    domains = synthetic_domains(args.seed)
    names = sorted(domains)
    train_bundles = [domains[n] for n in names[:2]]
    validation_bundle = domains[names[2]]
    print(f"meta-train on {names[:2]}, validate on {names[2]!r}")

    config = MetaConfig(meta_iterations=args.iterations, meta_batch=5, seed=args.seed,
                        checkpoint_every=10, validation_tasks=20)
    model = build_model(ARCH, np.random.default_rng(config.seed))
    stream = meta_task_stream(train_bundles, config.k_train, 0, config.seed)
    pool = fixed_task_pool([validation_bundle], config.k_train, 0, config.seed,
                           config.validation_tasks)
    hook = make_validation_hook(pool, margin=config.margin)

    train = fs2_train if args.sequential else fs1_train
    result = train(model, config, stream, validation_hook=hook, run_dir=args.out_dir)

    for record in result.history:
        line = f"iter {record['iteration']:4d}  task loss {record['mean_task_loss']:10.3f}"
        if "validation_loss" in record:
            line += f"  validation {record['validation_loss']:10.3f}"
        print(line)
    print(f"total inner steps: {result.total_inner_steps}")
    if result.best_iteration is not None:
        print(f"selected iteration {result.best_iteration} "
              f"(validation loss {result.best_validation:.3f})")
    manifest = json.loads((args.out_dir / "model_selection.json").read_text())
    print(f"selection manifest: {manifest}")


if __name__ == "__main__":
    main()
