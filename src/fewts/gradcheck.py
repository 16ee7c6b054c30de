"""Self-contained finite-difference check of the embedding gradients.

Runs the full pipeline (convolutions, batch normalization with pooled
statistics, residual shortcuts, GAP, triplet loss) on a small architecture
and compares the analytic parameter gradient against central differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .network import ArchSpec, backward_batch, build_model, embed_batch
from .params import ParamSet
from .triplet import enumerate_valid_triplets, triplet_loss, triplet_loss_grad

CHECK_SPEC = ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(2, 3), filters_per_length=2)


def gradient_check(
    spec: ArchSpec = CHECK_SPEC,
    batch_size: int = 4,
    length: int = 8,
    h: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max over parameter records of the relative error between analytic
    and numeric gradients of the batch-all triplet loss; NaN when either
    gradient holds a non-finite entry, so the check fails."""
    if not 0.0 < h < float("inf"):
        raise ConfigError(f"finite-difference step must be finite and > 0, got {h!r}")
    rng = np.random.default_rng(seed)
    model = build_model(spec, rng)
    series = [rng.standard_normal(length) for _ in range(batch_size)]
    labels = np.array([i % 2 for i in range(batch_size)])
    triplets = enumerate_valid_triplets(labels)

    def loss_at(values: np.ndarray) -> float:
        probe = model.copy()
        probe.set_params(ParamSet(probe.params.layout, values.copy()))
        z = embed_batch(probe, series, mode="train", update_buffers=False)
        return triplet_loss(z, triplets)[0]

    z, cache = embed_batch(model, series, mode="train", return_cache=True,
                           update_buffers=False)
    analytic = backward_batch(model, cache, triplet_loss_grad(z, triplets)).values

    base = model.params.values
    numeric = np.empty_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        down = base.copy()
        down[i] -= h
        numeric[i] = (loss_at(up) - loss_at(down)) / (2.0 * h)

    # The max below would drop a NaN (Python's max keeps a number over it),
    # and a NaN result passes no threshold.
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        return float("nan")

    # Normalize by each record's gradient scale, not per coordinate: a
    # central difference carries a roundoff error of about eps * |loss| / h
    # (eps the float64 machine epsilon) on every entry, so where the true
    # gradient is near zero a per-coordinate ratio would measure that noise
    # instead. One scale for all records would let the largest gradient
    # (b0.proj.w's, about 100x the conv filters') hide an error elsewhere.
    worst = 0.0
    for rec in model.params.layout.records:
        a, n = (v[rec.offset : rec.offset + rec.size] for v in (analytic, numeric))
        scale = max(np.abs(a).max(), np.abs(n).max(), 1e-8)
        worst = max(worst, float(np.abs(a - n).max() / scale))
    return worst
