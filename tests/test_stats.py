import numpy as np
import pytest

from fewts.errors import ConfigError
from fewts.stats import (
    NEMENYI_Q_05,
    RankTable,
    aggregate,
    average_ranks,
    cd_cliques,
    friedman_statistic,
    nemenyi_cd,
    rank_accuracies,
    wtl_counts,
)


def table_from(acc, methods=None, datasets=None):
    acc = np.asarray(acc, dtype=float)
    n, k = acc.shape
    methods = methods or [f"m{j}" for j in range(k)]
    datasets = datasets or [f"d{i}" for i in range(n)]
    return rank_accuracies(datasets, methods, acc)


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def test_rank_hand_examples():
    t = table_from([[0.9, 0.8, 0.7]])
    assert np.array_equal(t.ranks[0], [1.0, 2.0, 3.0])
    tied = table_from([[0.8, 0.8, 0.5]])
    assert np.array_equal(tied.ranks[0], [1.5, 1.5, 3.0])


def test_rank_rows_sum_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, k = int(rng.integers(1, 8)), int(rng.integers(2, 9))
        acc = np.round(rng.random((n, k)), 2)  # rounding forces ties
        t = table_from(acc)
        target = k * (k + 1) / 2
        assert all(row.sum() == target for row in t.ranks)


def brute_force_ranks(x):
    """Rank of x_i: 1 + #{j : x_j < x_i} + #{j != i : x_j == x_i} / 2."""
    return np.array([1 + np.sum(x < v) + (np.sum(x == v) - 1) / 2 for v in x])


@pytest.mark.parametrize("ties", [True, False], ids=["ties", "distinct"])
def test_average_ranks_match_brute_force(ties):
    rng = np.random.default_rng(7)
    for k in range(2, 11):
        for _ in range(40):
            x = rng.integers(0, 5, k) * 0.25 if ties else rng.permutation(k) + rng.random()
            got = average_ranks(x)
            assert got.dtype == np.float64
            assert got.tobytes() == brute_force_ranks(x).tobytes(), x


def test_average_ranks_all_tied_and_signed_zero():
    assert np.array_equal(average_ranks(np.full(4, 0.5)), [2.5] * 4)
    x = np.array([0.0, 0.3, -0.0, -0.2])
    assert np.array_equal(average_ranks(x), [2.5, 4.0, 2.5, 1.0])
    # rank_accuracies negates each row, so 0.0 and -0.0 must tie there too.
    assert np.array_equal(table_from([[0.0, -0.0, 0.5]]).ranks[0], [2.5, 2.5, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_rank_rejects_non_finite_accuracy(bad):
    acc = np.array([[0.5, 0.6, 0.7], [0.9, bad, 0.1]])
    with pytest.raises(ConfigError, match="method 'm1' on dataset 'd1' is not finite"):
        table_from(acc)


def test_rank_rejects_bad_shapes_and_duplicates():
    with pytest.raises(ConfigError):
        rank_accuracies(["d0"], ["a", "b"], np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        rank_accuracies(["d0"], ["a"], np.zeros((1, 1)))
    with pytest.raises(ConfigError):
        rank_accuracies(["d0", "d0"], ["a", "b"], np.zeros((2, 2)))


def test_aggregate_means_and_order():
    records = []
    for dataset, method, accs in [
        ("beta", "ed", [0.5, 0.7]),
        ("beta", "fs1", [0.9, 0.9]),
        ("alpha", "ed", [0.2, 0.4]),
        ("alpha", "fs1", [0.6, 0.8]),
    ]:
        records.extend({"dataset": dataset, "method": method, "accuracy": a} for a in accs)
    t = aggregate(records)
    assert t.datasets == ("alpha", "beta")
    assert t.methods == ("ed", "fs1")
    assert np.allclose(t.accuracies, [[0.3, 0.7], [0.6, 0.9]])
    assert np.allclose(t.mean_ranks, [2.0, 1.0])


def test_aggregate_names_a_missing_field():
    records = [
        {"dataset": "a", "method": "x", "accuracy": 0.5},
        {"dataset": "a", "accuracy": 0.6},
    ]
    with pytest.raises(ConfigError, match="record 2 has no 'method' field"):
        aggregate(records)


@pytest.mark.parametrize("field, value", [("dataset", 3), ("dataset", ["a"]), ("method", None)],
                         ids=["int-dataset", "list-dataset", "null-method"])
def test_aggregate_names_a_non_string_field(field, value):
    records = [
        {"dataset": "x", "method": "ed", "accuracy": 0.5},
        {"dataset": "y", "method": "ed", "accuracy": 0.5, field: value},
    ]
    with pytest.raises(ConfigError, match=f"record 2 field '{field}' is not a string"):
        aggregate(records)


def test_aggregate_rejects_ragged_cells():
    records = [
        {"dataset": "a", "method": "x", "accuracy": 0.5},
        {"dataset": "a", "method": "x", "accuracy": 0.6},
        {"dataset": "a", "method": "y", "accuracy": 0.5},
    ]
    with pytest.raises(ConfigError):
        aggregate(records)
    with pytest.raises(ConfigError):
        aggregate([])
    # Missing cell entirely is also ragged.
    with pytest.raises(ConfigError):
        aggregate([
            {"dataset": "a", "method": "x", "accuracy": 0.5},
            {"dataset": "b", "method": "y", "accuracy": 0.5},
        ])


# ---------------------------------------------------------------------------
# Friedman statistic
# ---------------------------------------------------------------------------


def test_friedman_zero_when_identical():
    t = table_from(np.full((5, 4), 0.75))
    stat, k, n = friedman_statistic(t)
    assert stat == 0.0 and (k, n) == (4, 5)


def test_friedman_matches_hand_formula():
    acc = np.array([
        [0.9, 0.6, 0.3],
        [0.8, 0.5, 0.6],
        [0.7, 0.4, 0.2],
        [0.9, 0.8, 0.7],
    ])
    t = table_from(acc)
    stat, k, n = friedman_statistic(t)
    mean_ranks = t.ranks.mean(axis=0)
    by_hand = 12 * 4 / (3 * 4) * (np.sum(mean_ranks ** 2) - 3 * 16 / 4)
    assert abs(stat - by_hand) < 1e-12


def test_friedman_invariant_to_method_relabeling():
    rng = np.random.default_rng(1)
    acc = rng.random((6, 4))
    base, _, _ = friedman_statistic(table_from(acc))
    perm = rng.permutation(4)
    shuffled, _, _ = friedman_statistic(table_from(acc[:, perm]))
    assert abs(base - shuffled) < 1e-12


def test_friedman_degenerate():
    with pytest.raises(ConfigError):
        friedman_statistic(table_from(np.random.default_rng(0).random((1, 3))))


# ---------------------------------------------------------------------------
# Nemenyi critical difference
# ---------------------------------------------------------------------------


def test_nemenyi_two_methods_reduces():
    n = 30
    assert abs(nemenyi_cd(2, n) - 1.960 * np.sqrt(1.0 / n)) < 1e-12


def test_nemenyi_shrinks_with_more_datasets():
    assert nemenyi_cd(5, 100) < nemenyi_cd(5, 10)


def test_nemenyi_k6_n41():
    expected = NEMENYI_Q_05[6] * np.sqrt(6 * 7 / (6.0 * 41))
    assert abs(nemenyi_cd(6, 41) - expected) < 1e-12
    assert abs(nemenyi_cd(6, 41) - 1.17761) < 1e-4


def test_nemenyi_out_of_table():
    with pytest.raises(ConfigError):
        nemenyi_cd(11, 10)
    with pytest.raises(ConfigError):
        nemenyi_cd(1, 10)


# ---------------------------------------------------------------------------
# Win / tie / loss
# ---------------------------------------------------------------------------


def test_wtl_self_is_all_ties():
    t = table_from(np.random.default_rng(2).random((7, 3)))
    assert wtl_counts(t, "m0", "m0") == (0, 7, 0)


def test_wtl_tolerance_and_mirror():
    t = table_from([[0.5001, 0.5000], [0.9, 0.3], [0.2, 0.8]], methods=["a", "b"])
    assert wtl_counts(t, "a", "b") == (1, 1, 1)
    w, ties, losses = wtl_counts(t, "a", "b")
    assert wtl_counts(t, "b", "a") == (losses, ties, w)


def test_wtl_sums_to_dataset_count():
    t = table_from(np.random.default_rng(3).random((11, 4)))
    w, ties, losses = wtl_counts(t, "m1", "m3")
    assert w + ties + losses == 11


def test_wtl_unknown_method():
    t = table_from([[0.5, 0.6]])
    with pytest.raises(ConfigError):
        wtl_counts(t, "m0", "nope")


# ---------------------------------------------------------------------------
# Critical-difference cliques
# ---------------------------------------------------------------------------


def test_cliques_hand_example():
    t = RankTable(
        datasets=("d",),
        methods=("a", "b", "c"),
        accuracies=np.zeros((1, 3)),
        ranks=np.array([[1.0, 1.5, 3.0]]),
        mean_ranks=np.array([1.0, 1.5, 3.0]),
    )
    assert cd_cliques(t, 1.0) == [["a", "b"]]
    assert cd_cliques(t, 2.0) == [["a", "b", "c"]]
    assert cd_cliques(t, 0.1) == []


def test_cliques_drop_nested_groups():
    t = RankTable(
        datasets=("d",),
        methods=("a", "b", "c", "e"),
        accuracies=np.zeros((1, 4)),
        ranks=np.zeros((1, 4)),
        mean_ranks=np.array([1.0, 1.8, 2.4, 4.0]),
    )
    groups = cd_cliques(t, 1.0)
    assert groups == [["a", "b"], ["b", "c"]]
