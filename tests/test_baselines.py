import tracemalloc

import numpy as np
import pytest

from fewts import baselines
from fewts.baselines import (
    DTWConfig,
    band_width,
    dtw_1nn,
    dtw_distance,
    dtw_loocv_window,
    euclidean_1nn,
)
from fewts.data import LabeledSet
from fewts.errors import ConfigError

from helpers import banded_dtw_reference, brute_force_dtw, sequential_squared_ed


def random_pairs(count, max_t=32, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tx = int(rng.integers(4, max_t + 1))
        ty = int(rng.integers(4, max_t + 1))
        yield rng.standard_normal(tx), rng.standard_normal(ty)


# ---------------------------------------------------------------------------
# DTW distance
# ---------------------------------------------------------------------------


def test_dtw_hand_example():
    # D(1,1)=1, D(2,1)=1, D(1,2)=5, D(2,2)=1+min(1,5,1)=2.
    assert dtw_distance(np.array([1.0, 2.0]), np.array([2.0, 3.0]), 2) == 2.0


def test_dtw_identity_is_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20)
    for w in (0, 1, 5, 20):
        assert dtw_distance(x, x, w) == 0.0


def test_dtw_banded_equals_brute_force_when_band_covers():
    for x, y in random_pairs(120, seed=2):
        w = max(x.shape[0], y.shape[0])
        assert dtw_distance(x, y, w) == brute_force_dtw(x, y)


def test_dtw_zero_band_is_sequential_squared_ed():
    rng = np.random.default_rng(3)
    for _ in range(30):
        t = int(rng.integers(4, 40))
        x, y = rng.standard_normal(t), rng.standard_normal(t)
        assert dtw_distance(x, y, 0) == sequential_squared_ed(x, y)


def test_dtw_symmetry():
    for x, y in random_pairs(50, seed=4):
        w = max(x.shape[0], y.shape[0])
        assert abs(dtw_distance(x, y, w) - dtw_distance(y, x, w)) < 1e-12


def test_dtw_monotone_in_band_width():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = int(rng.integers(8, 24))
        x, y = rng.standard_normal(t), rng.standard_normal(t)
        costs = [dtw_distance(x, y, w) for w in range(t + 1)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_dtw_band_narrower_than_cost_of_full():
    # A narrow band is a constrained minimum, so it cannot beat the full DP.
    for x, y in random_pairs(30, seed=6):
        if x.shape[0] != y.shape[0]:
            continue
        assert dtw_distance(x, y, 1) >= brute_force_dtw(x, y) - 1e-12


def test_dtw_rejects_bad_inputs():
    x = np.arange(5.0)
    with pytest.raises(ConfigError):
        dtw_distance(x, np.arange(10.0), 2)  # infeasible band
    with pytest.raises(ConfigError):
        dtw_distance(x, x, -1)
    with pytest.raises(ConfigError):
        dtw_distance(x, np.empty(0), 5)
    with pytest.raises(ConfigError):
        dtw_distance(np.zeros((2, 2)), x, 5)


def test_dtw_matches_scalar_reference_bytewise():
    rng = np.random.default_rng(13)
    for _ in range(120):
        tx, ty = (int(v) for v in rng.integers(1, 41, size=2))
        x, y = rng.standard_normal(tx), rng.standard_normal(ty)
        for w in range(abs(tx - ty), max(tx, ty) + 1):
            got = np.float64(dtw_distance(x, y, w)).tobytes()
            assert got == np.float64(banded_dtw_reference(x, y, w)).tobytes(), (tx, ty, w)


def test_dtw_rejects_non_finite_series():
    x = np.arange(6.0)
    y = x.copy()
    y[2] = np.nan
    with pytest.raises(ConfigError, match="0 of 1 query rows and 1 of 1 train rows"):
        dtw_distance(x, y, 2)
    with pytest.raises(ConfigError, match="1 of 1 query rows and 0 of 1 train rows"):
        dtw_distance(np.full(6, np.inf), x, 2)


def test_band_width_examples():
    assert band_width(0.02, 100) == 2
    assert band_width(0.02, 10) == 1
    assert band_width(1.0, 77) == 77
    assert band_width(0.0, 50) == 0
    with pytest.raises(ConfigError):
        band_width(1.5, 10)


# ---------------------------------------------------------------------------
# Euclidean 1NN
# ---------------------------------------------------------------------------


def test_euclidean_1nn_hand_example():
    train = LabeledSet([np.array([0.0, 0.0]), np.array([1.0, 1.0])], np.array([0, 1]))
    assert np.array_equal(euclidean_1nn(train, np.array([[0.4, 0.4], [0.6, 0.6]])), [0, 1])


def test_euclidean_1nn_self_and_tie():
    train = LabeledSet([np.array([0.0, 1.0]), np.array([2.0, 3.0])], np.array([1, 0]))
    assert np.array_equal(euclidean_1nn(train, train.values[1:2]), [0])
    # Equidistant query: picks the smaller index.
    tie = LabeledSet([np.array([0.0]), np.array([2.0])], np.array([5, 9]))
    assert np.array_equal(euclidean_1nn(tie, np.array([[1.0]])), [5])


def test_euclidean_1nn_batch_and_errors():
    train = LabeledSet([np.zeros(4), np.ones(4)], np.array([0, 1]))
    out = euclidean_1nn(train, [np.full(4, 0.1), np.full(4, 0.9)])
    assert np.array_equal(out, [0, 1])
    for bad in (np.zeros(4), np.zeros((1, 5)), np.zeros((1, 2, 4))):
        with pytest.raises(ConfigError, match=r"queries must be \[n, 4\]"):
            euclidean_1nn(train, bad)
    with pytest.raises(ConfigError, match="nonempty train set"):
        euclidean_1nn(LabeledSet(np.empty((0, 4)), np.array([], dtype=np.int64)),
                      np.zeros((1, 4)))
    with pytest.raises(ConfigError, match=r"queries must be \[n, 0\]"):
        euclidean_1nn(LabeledSet(np.empty((2, 0)), np.array([0, 1])), np.empty((1, 0)))


def test_euclidean_1nn_rejects_non_finite_rows():
    train = LabeledSet(np.zeros((3, 4)), np.array([0, 1, 2]))
    queries = np.ones((2, 4))
    queries[1, 0] = np.inf
    with pytest.raises(ConfigError, match="1 of 2 query rows and 0 of 3 train rows"):
        euclidean_1nn(train, queries)
    train.values[2, 3] = np.nan
    with pytest.raises(ConfigError, match="0 of 1 query rows and 1 of 3 train rows"):
        euclidean_1nn(train, np.ones((1, 4)))


# ---------------------------------------------------------------------------
# DTW 1NN
# ---------------------------------------------------------------------------


def test_dtw_1nn_zero_window_matches_euclidean():
    rng = np.random.default_rng(8)
    train = LabeledSet([rng.standard_normal(12) for _ in range(8)],
                       np.array([0, 1] * 4))
    queries = [rng.standard_normal(12) for _ in range(10)]
    assert np.array_equal(dtw_1nn(train, queries, 0.0), euclidean_1nn(train, queries))


def test_dtw_1nn_lagged_twin_fixture():
    # The query's class-0 neighbor is the same bump delayed by 8 samples;
    # the class-1 neighbor is the undelayed bump plus noise. Euclidean
    # distance punishes the delay, full-window DTW absorbs it along the
    # flat tails.
    t = np.arange(64, dtype=float)
    rng = np.random.default_rng(9)
    query = np.exp(-((t - 28.0) ** 2) / 18.0)
    lagged_twin = np.exp(-((t - 36.0) ** 2) / 18.0)
    noisy_near = query + 0.15 * rng.standard_normal(64)
    train = LabeledSet([lagged_twin, noisy_near, np.cos(4.0 * np.pi * t / 64) * 2.0],
                       np.array([0, 1, 2]))

    full = train.values[0].shape[0]
    d_twin = brute_force_dtw(query, lagged_twin)
    d_near = brute_force_dtw(query, noisy_near)
    assert d_twin < d_near
    assert dtw_distance(query, lagged_twin, full) == d_twin
    assert np.sum((query - lagged_twin) ** 2) > np.sum((query - noisy_near) ** 2)

    assert np.array_equal(dtw_1nn(train, query[None], 1.0), [0])
    assert np.array_equal(euclidean_1nn(train, query[None]), [1])


def test_dtw_1nn_self_match():
    rng = np.random.default_rng(10)
    train = LabeledSet([rng.standard_normal(10) for _ in range(5)],
                       np.array([3, 1, 4, 1, 5]))
    assert np.array_equal(dtw_1nn(train, train.values[2:3], 0.5), [4])


def test_dtw_1nn_rejects_non_finite_rows():
    train = LabeledSet(np.zeros((4, 6)), np.array([0, 1, 0, 1]))
    train.values[1, 0] = np.nan
    train.values[3, 5] = -np.inf
    with pytest.raises(ConfigError, match="0 of 2 query rows and 2 of 4 train rows"):
        dtw_1nn(train, np.ones((2, 6)), 0.5)


def test_dtw_1nn_refuses_other_query_shapes():
    train = LabeledSet(np.zeros((2, 6)), np.array([0, 1]))
    for bad in (np.zeros(6), np.zeros((1, 5)), np.zeros((1, 7))):
        with pytest.raises(ConfigError, match=r"queries must be \[n, 6\]"):
            dtw_1nn(train, bad, 1.0)


# ---------------------------------------------------------------------------
# LOOCV window selection
# ---------------------------------------------------------------------------


def test_window_grid_is_fifty_points():
    grid = DTWConfig().fractions
    assert len(grid) == 50
    assert grid[0] == 0.02
    assert grid[-1] == 1.0
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_dtw_config_rejects_bad_grids():
    with pytest.raises(ConfigError):
        DTWConfig(fractions=())
    with pytest.raises(ConfigError):
        DTWConfig(fractions=(0.5, 0.5))
    with pytest.raises(ConfigError):
        DTWConfig(fractions=(0.5, 1.5))
    with pytest.raises(ConfigError):
        DTWConfig(fractions=(0.0, 0.5))


def test_loocv_all_windows_tie_returns_smallest():
    # Two far-apart constant levels: every window classifies perfectly.
    train = LabeledSet(
        [np.full(16, v) for v in (-5.0, -5.1, 5.0, 5.1)],
        np.array([0, 0, 1, 1]),
    )
    assert dtw_loocv_window(train) == 0.02


def loocv_accuracy_naive(train, fraction):
    t = max(v.shape[0] for v in train.values)
    w = band_width(fraction, t)
    correct = 0
    for i in range(train.n):
        rest_values = [v for j, v in enumerate(train.values) if j != i]
        rest_labels = np.delete(train.labels, i)
        best, pick = np.inf, 0
        for j, v in enumerate(rest_values):
            d = dtw_distance(train.values[i], v, w)
            if d < best:
                best, pick = d, j
        correct += int(rest_labels[pick] == train.labels[i])
    return correct / train.n


def test_loocv_matches_naive_grid_sweep():
    rng = np.random.default_rng(11)
    values = []
    labels = []
    for c in range(2):
        base = np.sin(2.0 * np.pi * (c + 1) * np.arange(12) / 12)
        for _ in range(3):
            shift = int(rng.integers(0, 4))
            values.append(np.roll(base, shift) + 0.2 * rng.standard_normal(12))
            labels.append(c)
    train = LabeledSet(values, np.array(labels))

    chosen = dtw_loocv_window(train)
    grid = DTWConfig().fractions
    accs = [loocv_accuracy_naive(train, f) for f in grid]
    best = max(accs)
    expected = min(f for f, a in zip(grid, accs) if a == best)
    assert chosen == expected


def test_loocv_prefers_wide_window_for_shifted_classes():
    # Within-class instances are time-shifted copies; narrow bands cannot
    # align them, so wider windows win the cross-validation.
    rng = np.random.default_rng(12)
    values, labels = [], []
    t = np.arange(40)
    for c, freq in enumerate((1.0, 3.0)):
        for shift in (0, 7, 14):
            series = np.sin(2.0 * np.pi * freq * (t + shift) / 40)
            values.append(series + 0.05 * rng.standard_normal(40))
            labels.append(c)
    train = LabeledSet(values, np.array(labels))
    narrow_acc = loocv_accuracy_naive(train, 0.02)
    wide_acc = loocv_accuracy_naive(train, dtw_loocv_window(train))
    assert dtw_loocv_window(train) > 0.02
    assert wide_acc > narrow_acc


def test_loocv_needs_two_series():
    with pytest.raises(ConfigError):
        dtw_loocv_window(LabeledSet([np.zeros(8)], np.array([0])))


def test_loocv_rejects_non_finite_rows():
    values = np.random.default_rng(14).standard_normal((5, 10))
    values[4, 7] = np.nan
    with pytest.raises(ConfigError, match="1 of 5 train rows"):
        dtw_loocv_window(LabeledSet(values, np.array([0, 0, 1, 1, 1])))


def reference_dtw_1nn(train, queries, w):
    labels = []
    for q in queries:
        costs = [banded_dtw_reference(q, v, w) for v in train.values]
        labels.append(train.labels[min(range(train.n), key=lambda i: (costs[i], i))])
    return np.array(labels)


def reference_loocv_window(train, grid):
    t = train.values.shape[1]
    best_fraction, best_accuracy = None, -1.0
    for f in grid:
        w = band_width(f, t)
        correct = 0
        for i in range(train.n):
            costs = [np.inf if j == i else banded_dtw_reference(train.values[i], v, w)
                     for j, v in enumerate(train.values)]
            pick = min(range(train.n), key=lambda j: (costs[j], j))
            correct += int(train.labels[pick] == train.labels[i])
        if correct / train.n > best_accuracy:
            best_fraction, best_accuracy = f, correct / train.n
    return best_fraction


def test_1nn_and_loocv_match_scalar_reference_loop():
    # Duplicated train series tie exactly, so the smallest-index rule is
    # exercised for both the query neighbours and the held-out ones.
    rng = np.random.default_rng(15)
    grid = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)
    for trial in range(6):
        n, t = int(rng.integers(4, 9)), int(rng.integers(5, 24))
        values = rng.standard_normal((n, t))
        values[n - 1] = values[0]
        values[n - 2] = values[1]
        train = LabeledSet(values, rng.integers(0, 3, size=n))
        queries = rng.standard_normal((4, t))
        queries[0] = values[1]
        window = dtw_loocv_window(train, DTWConfig(fractions=grid))
        assert window == reference_loocv_window(train, grid)
        for fraction in (0.0, window, 1.0):
            w = band_width(fraction, t)
            assert np.array_equal(dtw_1nn(train, queries, fraction),
                                  reference_dtw_1nn(train, queries, w))


def test_wavefront_chunks_are_bitwise_equal_to_one_pass(monkeypatch):
    rng = np.random.default_rng(16)
    train = LabeledSet(rng.standard_normal((7, 20)), np.array([0, 1, 2, 0, 1, 2, 0]))
    upper_i, upper_j = np.triu_indices(train.n, k=1)
    widths = np.array(sorted({band_width(f, 20) for f in DTWConfig().fractions}))

    def costs_and_window():
        x, y = train.values[upper_i], train.values[upper_j]
        return baselines._dtw_wavefront(x, y, widths), dtw_loocv_window(train)

    monkeypatch.setattr(baselines, "_CHUNK_CELLS", 1 << 40)
    whole, window = costs_and_window()
    # 21 pairs in chunks of 4: five full chunks and one partial one.
    monkeypatch.setattr(baselines, "_CHUNK_CELLS", 4 * len(widths) * 21)
    chunked, chunked_window = costs_and_window()
    assert whole.shape == (21, len(widths))
    assert chunked.tobytes() == whole.tobytes()
    assert chunked_window == window


def test_loocv_memory_is_bounded():
    rng = np.random.default_rng(17)
    train = LabeledSet(rng.standard_normal((25, 128)), np.repeat(np.arange(5), 5))
    tracemalloc.start()
    try:
        dtw_loocv_window(train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# Pruned LOOCV: wide bands only for pairs whose cost can still change
# ---------------------------------------------------------------------------


def record_wavefront_calls(monkeypatch):
    calls = []
    kernel = baselines._dtw_wavefront

    def recording(x, y, widths):
        costs = kernel(x, y, widths)
        calls.append((x.copy(), y.copy(), widths.tolist(), costs))
        return costs

    monkeypatch.setattr(baselines, "_dtw_wavefront", recording)
    return calls


def split_bands(grid, t):
    widths = sorted({band_width(f, t) for f in grid})
    return [w for w in widths if 2 * w <= t], [w for w in widths if 2 * w > t and w < t]


def constant_levels():
    # Every path between two constant series adds the same squared gap per
    # cell, so the diagonal is optimal and every pair closes at once.
    return LabeledSet([np.full(16, v) for v in (-5.0, -5.1, 5.0, 5.1, 0.3)],
                      np.array([0, 0, 1, 1, 2]))


def far_lagged_bumps():
    # Class 0 bumps early and class 1 late, within class a few samples
    # apart: within-class pairs align inside half the length, but aligning
    # an early bump with a late one takes a wider band, so those pairs stay
    # open.
    t = np.arange(40, dtype=float)
    rng = np.random.default_rng(20)
    values = [np.exp(-((t - c) ** 2) / 4.0) + 0.01 * rng.standard_normal(40)
              for c in (5.0, 8.0, 11.0, 29.0, 32.0, 35.0)]
    return LabeledSet(values, np.repeat([0, 1], 3))


def duplicated_rows():
    rng = np.random.default_rng(18)
    values = rng.standard_normal((6, 14))
    values[4] = values[0]
    values[5] = values[2]
    return LabeledSet(values, np.array([0, 1, 0, 1, 1, 0]))


def test_pruned_loocv_closes_every_pair_in_one_call(monkeypatch):
    train = constant_levels()
    calls = record_wavefront_calls(monkeypatch)
    window = dtw_loocv_window(train)
    narrow, _ = split_bands(DTWConfig().fractions, 16)
    assert [widths for _, _, widths, _ in calls] == [narrow + [16]]
    assert window == reference_loocv_window(train, DTWConfig().fractions)


def test_pruned_loocv_costs_only_open_pairs_at_the_remaining_bands(monkeypatch):
    train = far_lagged_bumps()
    calls = record_wavefront_calls(monkeypatch)
    window = dtw_loocv_window(train)
    narrow, wide = split_bands(DTWConfig().fractions, 40)
    assert len(calls) == 2
    (x1, y1, widths1, costs1), (x2, y2, widths2, _) = calls
    upper_i, upper_j = np.triu_indices(train.n, k=1)
    assert widths1 == narrow + [40]
    assert np.array_equal(x1, train.values[upper_i]) and np.array_equal(y1, train.values[upper_j])
    still_open = costs1[:, -2] != costs1[:, -1]
    assert 0 < still_open.sum() < len(upper_i)
    assert widths2 == wide
    assert np.array_equal(x2, x1[still_open]) and np.array_equal(y2, y1[still_open])
    assert window == reference_loocv_window(train, DTWConfig().fractions)


@pytest.mark.parametrize("make", [constant_levels, far_lagged_bumps, duplicated_rows])
def test_pruned_loocv_matches_reference_on_the_default_grid(make):
    train = make()
    assert dtw_loocv_window(train) == reference_loocv_window(train, DTWConfig().fractions)


@pytest.mark.parametrize("grid", [(0.3,), (1.0,), (0.1, 0.9), (0.2, 0.4), (0.6, 0.9),
                                  (0.25, 1.0)])
def test_pruned_loocv_matches_reference_on_short_grids(grid):
    for make in (far_lagged_bumps, duplicated_rows):
        train = make()
        assert dtw_loocv_window(train, DTWConfig(fractions=grid)) == \
            reference_loocv_window(train, grid)


def test_pruned_loocv_matches_reference_on_short_series():
    # At T <= 8 the 50 fractions collapse to at most 8 bands.
    rng = np.random.default_rng(19)
    for t in range(1, 9):
        for _ in range(3):
            values = rng.standard_normal((5, t))
            values[3] = values[1]
            train = LabeledSet(values, rng.integers(0, 2, size=5))
            assert dtw_loocv_window(train) == reference_loocv_window(train, DTWConfig().fractions)
