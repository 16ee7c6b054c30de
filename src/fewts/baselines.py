"""Classical 1NN baselines: squared Euclidean distance and banded dynamic
time warping with leave-one-out window selection.

The DTW cost is the squared pointwise difference and no final square root is
taken. 1NN argmin is invariant to the monotone square root, so predictions
match the conventional definition, and the w=0 band then reduces exactly to
squared Euclidean distance.

The LOOCV window search costs every train pair at the bands up to half the
series length plus the full band, and the wider bands only for the pairs
whose cost at the half-length band is still above their full-band cost. A
banded cost is the minimum, over the paths inside the band, of a float sum
fixed by the path, and fl(c + x) is monotone in x, so it cannot rise as the
band widens; a pair that reaches its full-band cost keeps it bit for bit at
every wider band, and the pruned search picks the window a full sweep does.
"""

from __future__ import annotations

import functools
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
        object.__setattr__(self, "fractions", tuple(self.fractions))
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


# Pairs per wavefront chunk are sized so each of the three diagonal buffers
# holds about this many cells (512 KB), which bounds memory for any number of
# pairs and keeps the buffers in a core's L2 cache: on a 2-vCPU x86 host,
# LOOCV over 300 pairs at T=128 ran 2x faster than with 2^20-cell buffers.
_CHUNK_CELLS = 1 << 16


@functools.lru_cache(maxsize=64)
def _wavefront_plan(tx: int, ty: int, widths: tuple[int, ...]) -> tuple:
    # Per anti-diagonal k: the rows lo..hi inside the widest band, and the
    # (width, offset) cells just outside each narrower band, |i - j| = w + 1.
    # Those are the only out-of-band cells with a finite neighbor, so setting
    # them to +inf keeps every cell outside each band at +inf. Cached, so
    # its arrays are read-only.
    widths = np.array(widths)
    w_max = int(widths.max())
    k = np.arange(2, tx + ty + 1)
    lo = np.maximum(np.maximum(1, k - ty), (k - w_max + 1) // 2)
    hi = np.minimum(np.minimum(tx, k - 1), (k + w_max) // 2)
    two_i = np.concatenate([k[:, None] - widths - 1, k[:, None] + widths + 1], axis=1)
    edge = (two_i % 2 == 0) & (two_i >= 2 * lo[:, None]) & (two_i <= 2 * hi[:, None])
    rows, cols = np.nonzero(edge)
    per_k = np.cumsum(edge.sum(axis=1))[:-1]
    edge_w = np.split(cols % len(widths), per_k)
    edge_i = np.split(two_i[rows, cols] // 2 - lo[rows], per_k)
    for a in edge_w + edge_i:
        a.flags.writeable = False
    return tuple(zip(k.tolist(), lo.tolist(), hi.tolist(), edge_w, edge_i))


def _dtw_wavefront(x: np.ndarray, y: np.ndarray, widths: np.ndarray) -> np.ndarray:
    # Banded DTW cost of every pair (x[p], y[p]) at every width: [P, W].
    # The DP sweeps one anti-diagonal k = i + j at a time; row i of a
    # diagonal buffer [tx + 1, pairs, W] holds cell (i, k - i), so each
    # diagonal's cells are one contiguous block. Each cell is d*d +
    # min(diagonal, up, left) and cells with |i - j| > w stay +inf, as in the
    # scalar two-row recurrence. A min of non-negative floats is exact in any
    # order, so for finite inputs the costs equal that recurrence's bit for
    # bit. Callers keep |tx - ty| <= max(widths).
    p_all, tx = x.shape
    ty = y.shape[1]
    plan = _wavefront_plan(tx, ty, tuple(widths.tolist()))
    out = np.empty((p_all, len(widths)))
    chunk = max(1, _CHUNK_CELLS // (len(widths) * (tx + 1)))
    chunk_bufs = np.empty((3, tx + 1, min(chunk, p_all), len(widths)))
    for start in range(0, p_all, chunk):
        xs = np.ascontiguousarray(x[start:start + chunk].T)
        ys = np.ascontiguousarray(y[start:start + chunk, ::-1].T)
        bufs = chunk_bufs[:, :, :xs.shape[1]]
        bufs.fill(np.inf)
        bufs[0, 0] = 0.0
        two_back, one_back, cur = bufs
        for k, lo, hi, edge_w, edge_i in plan:
            d = xs[lo - 1:hi] - ys[ty - k + lo:ty - k + hi + 1]
            seg = cur[lo:hi + 1]
            np.minimum(two_back[lo - 1:hi], one_back[lo - 1:hi], out=seg)
            np.minimum(seg, one_back[lo:hi + 1], out=seg)
            seg += (d * d)[:, :, None]
            seg[edge_i, :, edge_w] = np.inf
            # Later diagonals read only rows lo-1..hi+1 of this one; the two
            # beside the segment must be +inf, not stale cells.
            cur[lo - 1] = np.inf
            if hi < tx:
                cur[hi + 1] = np.inf
            two_back, one_back, cur = one_back, cur, two_back
        out[start:start + chunk] = one_back[tx]
    return out


def dtw_distance(x: np.ndarray, y: np.ndarray, w: int) -> float:
    """Banded DTW cost between two series, O(T*w) time and O(T) memory.

    Steps are match, insert and delete; the band must admit the corner cell,
    so |len(x) - len(y)| <= w. Non-finite values raise ConfigError.
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
    _reject_non_finite("DTW", x[None], y[None])
    return float(_dtw_wavefront(x[None], y[None], np.array([w]))[0, 0])


def query_array(train_set: LabeledSet, queries) -> np.ndarray:
    """``queries`` as an [n, T] float64 array whose T is the nonempty train
    split's; any other shape, or an empty train split, raises ConfigError."""
    if train_set.n == 0:
        raise ConfigError("1NN needs a nonempty train set")
    q = np.asarray(queries, dtype=np.float64)
    t = train_set.values.shape[1]
    if q.ndim != 2 or q.shape[1] != t or t == 0:
        raise ConfigError(f"queries must be [n, {t}] like the train split, got shape {q.shape}")
    return q


def _reject_non_finite(method: str, queries: np.ndarray, train: np.ndarray) -> None:
    bad_q = int((~np.isfinite(queries).all(axis=1)).sum())
    bad_t = int((~np.isfinite(train).all(axis=1)).sum())
    if bad_q or bad_t:
        raise ConfigError(
            f"{method} over non-finite series: {bad_q} of {len(queries)} query rows and "
            f"{bad_t} of {len(train)} train rows"
        )


def euclidean_1nn(train_set: LabeledSet, queries) -> np.ndarray:
    """Label an [n, T] array of queries by the nearest train series under
    squared Euclidean distance. Ties resolve to the smallest train index.
    Non-finite rows raise ConfigError."""
    qs = query_array(train_set, queries)
    _reject_non_finite("ED 1NN", qs, train_set.values)
    out = np.empty(len(qs), dtype=train_set.labels.dtype)
    for qi, q in enumerate(qs):
        d2 = ((train_set.values - q[None, :]) ** 2).sum(axis=1)
        out[qi] = train_set.labels[int(np.argmin(d2))]
    return out


def dtw_1nn(train_set: LabeledSet, queries, window: float) -> np.ndarray:
    """Label an [n, T] array of queries by the nearest train series under
    banded DTW. ``window`` is a fraction of T; ties resolve to the smallest
    train index. Non-finite rows raise ConfigError."""
    qs = query_array(train_set, queries)
    train = train_set.values
    w = band_width(window, train.shape[1])
    _reject_non_finite("DTW 1NN", qs, train)
    n = len(train)
    costs = _dtw_wavefront(np.repeat(qs, n, axis=0), np.tile(train, (len(qs), 1)),
                           np.array([w]))
    return train_set.labels[np.argmin(costs.reshape(len(qs), n), axis=1)]


def dtw_loocv_window(train_set: LabeledSet, config: DTWConfig = DTWConfig()) -> float:
    """Pick the warping window by leave-one-out 1NN accuracy on the train
    set; ties break toward the smallest fraction. Non-finite rows raise
    ConfigError.

    Fractions that round to the same integer band share one evaluation. One
    wavefront call costs every train pair at the bands up to half the length
    plus the full band; a second costs, at the wider bands, only the pairs
    whose cost at the last of those bands is above their full-band cost.
    This is exact: a banded cost is the minimum, over the paths inside the
    band, of a float sum fixed by the path, and fl(c + x) is monotone in x,
    so the cost cannot rise as the band widens. A pair whose cost at the
    half-length band already equals its full-band cost therefore has that
    cost, bit for bit, at every band in between.
    """
    if train_set.n < 2:
        raise ConfigError("LOOCV needs at least 2 train series")
    t = train_set.values.shape[1]
    groups: dict[int, list[float]] = {}
    for f in config.fractions:
        groups.setdefault(band_width(f, t), []).append(f)

    widths = sorted(groups)
    values = train_set.values
    _reject_non_finite("DTW LOOCV", values, values)
    upper_i, upper_j = np.triu_indices(train_set.n, k=1)
    x, y = values[upper_i], values[upper_j]
    narrow = [w for w in widths if 2 * w <= t]
    if narrow == widths or not narrow:
        costs = _dtw_wavefront(x, y, np.array(widths))
    else:
        first = _dtw_wavefront(x, y, np.array(narrow + [t]))
        costs = np.empty((len(x), len(widths)))
        costs[:, :len(narrow)] = first[:, :-1]
        costs[:, len(narrow):] = first[:, -1:]
        wide = [w for w in widths[len(narrow):] if w < t]
        still_open = np.flatnonzero(first[:, -2] != first[:, -1])
        if wide and still_open.size:
            cols = slice(len(narrow), len(narrow) + len(wide))
            costs[still_open, cols] = _dtw_wavefront(x[still_open], y[still_open],
                                                     np.array(wide))

    best_fraction = None
    best_accuracy = -1.0
    for col, w in enumerate(widths):
        dist = np.full((train_set.n, train_set.n), np.inf)
        dist[upper_i, upper_j] = costs[:, col]
        dist[upper_j, upper_i] = costs[:, col]
        neighbors = np.argmin(dist, axis=1)
        accuracy = float(np.mean(train_set.labels[neighbors] == train_set.labels))
        if accuracy > best_accuracy:
            best_accuracy = accuracy
            best_fraction = min(groups[w])
    return best_fraction
