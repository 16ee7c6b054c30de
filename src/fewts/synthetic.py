"""Synthetic domains for exercising the meta-learning pipeline end to end.

Three families with qualitatively different class structure, each exposed as
a regular :class:`~fewts.data.DatasetBundle` so samplers, trainers and
baselines treat them exactly like archive data:

* sine waves whose class is the oscillation frequency,
* square waves whose class is the duty cycle,
* AR(1) processes whose class is the autoregressive coefficient.

Series are z-normalized like ingested data. Everything derives from the
given seed: each series takes its draws in turn (train split first, class by
class), and the arithmetic then runs over the whole split at once.
"""

from __future__ import annotations

import numpy as np

from .data import MAX_LENGTH, MIN_LENGTH, DatasetBundle, LabeledSet, znormalize
from .errors import ConfigError

# Square waves run this many periods over the window.
SQUARE_CYCLES = 2
# AR(1) samples discard this many leading steps, so the start value fades.
AR_BURN_IN = 32


def _check(n_classes: int, length: int, train_per_class: int, test_per_class: int) -> None:
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    if not (MIN_LENGTH <= length <= MAX_LENGTH):
        raise ConfigError(f"length {length} outside [{MIN_LENGTH}, {MAX_LENGTH}]")
    for name, count in (("train_per_class", train_per_class), ("test_per_class", test_per_class)):
        if count < 1:
            raise ConfigError(f"{name} must be at least 1, got {count}")


def _phase_and_noise(rng: np.random.Generator, n: int, length: int, high: float):
    """Per series in turn, what ``rng.uniform(0.0, high)`` and then
    ``rng.standard_normal(length)`` draw. Returns ``([n], [n, length])``.

    ``uniform(0.0, high)`` is ``0.0 + high * random()``, and adding 0.0 to
    that product changes no bit, so the phases are scaled after the loop."""
    unit = np.empty(n)
    noise = np.empty((n, length))
    for i in range(n):
        unit[i] = rng.random()
        rng.standard_normal(out=noise[i])
    return high * unit, noise


def _bundle(name: str, make_split, n_classes: int, train_per_class: int,
            test_per_class: int) -> DatasetBundle:
    """``make_split(labels)`` returns the raw ``[n, T]`` series of one split."""

    def pool(per_class: int) -> LabeledSet:
        labels = np.repeat(np.arange(n_classes), per_class)
        return LabeledSet(znormalize(make_split(labels)), labels)

    return DatasetBundle(name, pool(train_per_class), pool(test_per_class),
                         tuple(str(c) for c in range(n_classes)))


def sine_frequency_domain(seed: int, n_classes: int = 8, length: int = 64,
                          train_per_class: int = 30, test_per_class: int = 30,
                          noise: float = 0.3) -> DatasetBundle:
    """Classes are sinusoid frequencies (c+1 cycles over the window); phase
    is uniform per sample."""
    _check(n_classes, length, train_per_class, test_per_class)
    rng = np.random.default_rng(seed)
    t = np.arange(length) / length

    def make_split(labels):
        phase, eps = _phase_and_noise(rng, labels.size, length, 2.0 * np.pi)
        freq = 2.0 * np.pi * (labels + 1)
        return np.sin(freq[:, None] * t + phase[:, None]) + noise * eps

    return _bundle("synthetic-sine-frequency", make_split, n_classes,
                   train_per_class, test_per_class)


def square_duty_domain(seed: int, n_classes: int = 8, length: int = 64,
                       train_per_class: int = 30, test_per_class: int = 30,
                       noise: float = 0.3) -> DatasetBundle:
    """Classes are square-wave duty cycles at a fixed base frequency; phase
    is uniform per sample."""
    _check(n_classes, length, train_per_class, test_per_class)
    rng = np.random.default_rng(seed)
    t = np.arange(length) / length
    duties = np.linspace(0.15, 0.75, n_classes)

    def make_split(labels):
        phase, eps = _phase_and_noise(rng, labels.size, length, 1.0)
        frac = (t * SQUARE_CYCLES + phase[:, None]) % 1.0
        wave = np.where(frac < duties[labels, None], 1.0, -1.0)
        return wave + noise * eps

    return _bundle("synthetic-square-duty", make_split, n_classes,
                   train_per_class, test_per_class)


def ar_coefficient_domain(seed: int, n_classes: int = 8, length: int = 64,
                          train_per_class: int = 30, test_per_class: int = 30) -> DatasetBundle:
    """Classes are AR(1) coefficients spread over (-0.9, 0.9); innovations
    are unit gaussian."""
    _check(n_classes, length, train_per_class, test_per_class)
    rng = np.random.default_rng(seed)
    coeffs = np.linspace(-0.85, 0.9, n_classes)

    def make_split(labels):
        # Each series draws its start value, then one innovation per step,
        # the first of them unused. All are standard normals, so one call
        # draws the split in that order.
        draws = rng.standard_normal((labels.size, 1 + length + AR_BURN_IN))
        a = coeffs[labels]
        x = draws[:, 1:]  # innovations, overwritten step by step with the series
        x[:, 0] = draws[:, 0]
        for i in range(1, length + AR_BURN_IN):
            x[:, i] = a * x[:, i - 1] + x[:, i]
        return x[:, AR_BURN_IN:]

    return _bundle("synthetic-ar-coefficient", make_split, n_classes,
                   train_per_class, test_per_class)
