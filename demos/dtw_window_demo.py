"""Pick a DTW warping window by leave-one-out accuracy on one task.

Builds a small task whose two classes are a narrow and a wide bump placed at
a random position in each series. Euclidean 1NN compares misaligned bumps
pointwise and falls apart; DTW with a wide enough band slides them onto each
other and reads off the width. The script sweeps the window grid, prints the
LOOCV accuracy per candidate width, and classifies a fresh query set with the
selected window.
"""

from __future__ import annotations

import numpy as np

from fewts.baselines import DTWConfig, band_width, dtw_1nn, dtw_loocv_window, euclidean_1nn
from fewts.data import LabeledSet, znormalize


def bump_task(rng: np.random.Generator, per_class: int = 6, t: int = 40):
    grid = np.arange(t, dtype=np.float64)
    widths = (2.0, 6.0)
    values, labels = [], []
    for label, width in enumerate(widths):
        for _ in range(per_class):
            center = float(rng.integers(10, t - 10))
            series = np.exp(-((grid - center) ** 2) / (2.0 * width ** 2))
            values.append(znormalize(series + 0.05 * rng.standard_normal(t)))
            labels.append(label)
    return LabeledSet(values, np.array(labels))


def main() -> None:
    rng = np.random.default_rng(0)
    train = bump_task(rng)
    queries = bump_task(rng)

    config = DTWConfig(fractions=tuple((i + 1) / 10 for i in range(10)))
    t = train.values[0].shape[0]
    print("fraction  width  loocv accuracy")
    for fraction in config.fractions:
        w = band_width(fraction, t)
        correct = 0
        for i in range(train.n):
            rest = LabeledSet([v for j, v in enumerate(train.values) if j != i],
                              np.delete(train.labels, i))
            correct += int(dtw_1nn(rest, train.values[i : i + 1], fraction)[0] == train.labels[i])
        print(f"{fraction:8.2f}  {w:5d}  {correct / train.n:.3f}")

    window = dtw_loocv_window(train, config)
    print(f"\nselected window fraction: {window:.2f} "
          f"(width {band_width(window, t)} of T={t})")

    ed_acc = float(np.mean(euclidean_1nn(train, queries.values) == queries.labels))
    dtw_acc = float(np.mean(dtw_1nn(train, queries.values, window) == queries.labels))
    print(f"query accuracy: euclidean {ed_acc:.3f}, dtw {dtw_acc:.3f}")


if __name__ == "__main__":
    main()
