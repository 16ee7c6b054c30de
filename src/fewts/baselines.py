"""Classical 1NN baselines: squared Euclidean distance and banded dynamic
time warping with leave-one-out window selection.

The DTW cost is the squared pointwise difference and no final square root is
taken. 1NN argmin is invariant to the monotone square root, so predictions
match the conventional definition, and the w=0 band then reduces exactly to
squared Euclidean distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .data import LabeledSet
from .errors import ConfigError

DEFAULT_WINDOW_GRID = tuple((i + 1) / 50 for i in range(50))


@dataclass(frozen=True)
class DTWConfig:
    """Warping-window search grid, as fractions of the series length."""

    fractions: tuple[float, ...] = DEFAULT_WINDOW_GRID

    def __post_init__(self):
        if not self.fractions:
            raise ConfigError("window grid is empty")
        prev = 0.0
        for f in self.fractions:
            if not prev < f <= 1.0:
                raise ConfigError("window fractions must increase strictly within (0, 1]")
            prev = f


def band_width(fraction: float, length: int) -> int:
    """Sakoe-Chiba width in steps for a window fraction of the length."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("window fraction must lie in [0, 1]")
    return int(ceil(fraction * length))


def _dtw_band(x: np.ndarray, y: np.ndarray, w: int) -> float:
    # Two-row DP over the |i-j| <= w diagonal band; cells outside start as
    # +inf so insert/delete moves cannot leave it.
    tx = x.shape[0]
    ty = y.shape[0]
    prev = np.full(ty + 1, np.inf)
    curr = np.full(ty + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, tx + 1):
        curr[:] = np.inf
        lo = i - w if i - w > 1 else 1
        hi = i + w if i + w < ty else ty
        for j in range(lo, hi + 1):
            d = x[i - 1] - y[j - 1]
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if curr[j - 1] < best:
                best = curr[j - 1]
            curr[j] = d * d + best
        prev, curr = curr, prev
    return prev[ty]


def dtw_distance(x: np.ndarray, y: np.ndarray, w: int) -> float:
    """Banded DTW cost between two series, O(T*w) time and O(T) memory.

    Steps are match, insert and delete; the band must admit the corner cell,
    so |len(x) - len(y)| <= w.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size == 0 or y.size == 0:
        raise ConfigError("DTW operates on nonempty 1-D series")
    if w < 0:
        raise ConfigError("band width must be >= 0")
    if abs(x.shape[0] - y.shape[0]) > w:
        raise ConfigError(
            f"band width {w} cannot align lengths {x.shape[0]} and {y.shape[0]}"
        )
    return float(_dtw_band(x, y, w))


def _as_queries(queries) -> tuple[np.ndarray, bool]:
    q = np.asarray(queries, dtype=np.float64)
    return (q[None], True) if q.ndim == 1 else (q, False)


def euclidean_1nn(train_set: LabeledSet, queries) -> np.ndarray:
    """Label an [n, T] array of queries by the nearest train series under
    squared Euclidean distance. Ties resolve to the smallest train index; a
    single 1-D query returns a scalar label."""
    if train_set.n == 0:
        raise ConfigError("1NN needs a nonempty train set")
    qs, single = _as_queries(queries)
    t = train_set.values.shape[1]
    if qs.shape[1] != t:
        raise ConfigError(f"query length {qs.shape[1]} does not match train length {t}")
    out = np.empty(len(qs), dtype=train_set.labels.dtype)
    for qi, q in enumerate(qs):
        d2 = ((train_set.values - q[None, :]) ** 2).sum(axis=1)
        out[qi] = train_set.labels[int(np.argmin(d2))]
    return out[0] if single else out


def dtw_1nn(train_set: LabeledSet, queries, window: float) -> np.ndarray:
    """Label an [n, T] array of queries by the nearest train series under
    banded DTW. ``window`` is a fraction of the larger of the query and train
    lengths; ties resolve to the smallest train index; a single 1-D query
    returns a scalar label."""
    if train_set.n == 0:
        raise ConfigError("1NN needs a nonempty train set")
    qs, single = _as_queries(queries)
    w = band_width(window, max(qs.shape[1], train_set.values.shape[1]))
    out = np.empty(len(qs), dtype=train_set.labels.dtype)
    for qi, q in enumerate(qs):
        best = np.inf
        pick = 0
        for i, v in enumerate(train_set.values):
            d = dtw_distance(q, v, w)
            if d < best:
                best = d
                pick = i
        out[qi] = train_set.labels[pick]
    return out[0] if single else out


def _pairwise_dtw(values: np.ndarray, w: int) -> np.ndarray:
    n = len(values)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = dtw_distance(values[i], values[j], w)
            dist[i, j] = d
            dist[j, i] = d
    return dist


def dtw_loocv_window(train_set: LabeledSet, config: DTWConfig = DTWConfig()) -> float:
    """Pick the warping window by leave-one-out 1NN accuracy on the train
    set; ties break toward the smallest fraction.

    Fractions that round to the same integer band share one evaluation, so
    short series cost far fewer than 50 distance matrices.
    """
    if train_set.n < 2:
        raise ConfigError("LOOCV needs at least 2 train series")
    t = train_set.values.shape[1]
    groups: dict[int, list[float]] = {}
    for f in config.fractions:
        groups.setdefault(band_width(f, t), []).append(f)

    best_fraction = None
    best_accuracy = -1.0
    for w in sorted(groups):
        dist = _pairwise_dtw(train_set.values, w)
        np.fill_diagonal(dist, np.inf)
        neighbors = np.argmin(dist, axis=1)
        accuracy = float(np.mean(train_set.labels[neighbors] == train_set.labels))
        if accuracy > best_accuracy:
            best_accuracy = accuracy
            best_fraction = min(groups[w])
    return best_fraction
