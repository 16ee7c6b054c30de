"""Synthetic domains for exercising the meta-learning pipeline end to end.

Three families with qualitatively different class structure, each exposed as
a regular :class:`~fewts.data.DatasetBundle` so samplers, trainers and
baselines treat them exactly like archive data:

* sine waves whose class is the oscillation frequency,
* square waves whose class is the duty cycle,
* AR(1) processes whose class is the autoregressive coefficient.

Series are z-normalized like ingested data. Everything derives from the
given seed.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, DatasetBundle, znormalize
from .errors import ConfigError

# Square waves run this many periods over the window.
SQUARE_CYCLES = 2
# AR(1) samples discard this many leading steps, so the start value fades.
AR_BURN_IN = 32


def _bundle(name: str, make_one, n_classes: int, length: int,
            train_per_class: int, test_per_class: int,
            rng: np.random.Generator) -> DatasetBundle:
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    label_names = tuple(str(c) for c in range(n_classes))

    def pool(split: str, per_class: int) -> Dataset:
        rows, labels = [], []
        for c in range(n_classes):
            for _ in range(per_class):
                rows.append(znormalize(make_one(c, rng)))
                labels.append(c)
        return Dataset(np.vstack(rows), np.array(labels), name=name, split=split,
                       label_names=label_names)

    return DatasetBundle(name, pool("train", train_per_class), pool("test", test_per_class))


def sine_frequency_domain(seed: int, n_classes: int = 8, length: int = 64,
                          train_per_class: int = 30, test_per_class: int = 30,
                          noise: float = 0.3) -> DatasetBundle:
    """Classes are sinusoid frequencies (c+1 cycles over the window); phase
    is uniform per sample."""
    rng = np.random.default_rng(seed)
    t = np.arange(length) / length

    def make_one(c, rng):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return np.sin(2.0 * np.pi * (c + 1) * t + phase) + noise * rng.standard_normal(length)

    return _bundle("synthetic-sine-frequency", make_one, n_classes, length,
                   train_per_class, test_per_class, rng)


def square_duty_domain(seed: int, n_classes: int = 8, length: int = 64,
                       train_per_class: int = 30, test_per_class: int = 30,
                       noise: float = 0.3) -> DatasetBundle:
    """Classes are square-wave duty cycles at a fixed base frequency; phase
    is uniform per sample."""
    rng = np.random.default_rng(seed)
    t = np.arange(length) / length
    duties = np.linspace(0.15, 0.75, n_classes)

    def make_one(c, rng):
        phase = rng.uniform(0.0, 1.0)
        frac = (t * SQUARE_CYCLES + phase) % 1.0
        wave = np.where(frac < duties[c], 1.0, -1.0)
        return wave + noise * rng.standard_normal(length)

    return _bundle("synthetic-square-duty", make_one, n_classes, length,
                   train_per_class, test_per_class, rng)


def ar_coefficient_domain(seed: int, n_classes: int = 8, length: int = 64,
                          train_per_class: int = 30, test_per_class: int = 30) -> DatasetBundle:
    """Classes are AR(1) coefficients spread over (-0.9, 0.9); innovations
    are unit gaussian."""
    rng = np.random.default_rng(seed)
    coeffs = np.linspace(-0.85, 0.9, n_classes)

    def make_one(c, rng):
        a = coeffs[c]
        x = np.empty(length + AR_BURN_IN)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(length + AR_BURN_IN)
        for i in range(1, length + AR_BURN_IN):
            x[i] = a * x[i - 1] + eps[i]
        return x[AR_BURN_IN:]

    return _bundle("synthetic-ar-coefficient", make_one, n_classes, length,
                   train_per_class, test_per_class, rng)
