"""Rank statistics for comparing classifiers across many datasets: the
Friedman chi-square statistic over mean ranks, the Nemenyi critical
difference, and per-dataset win/tie/loss counts.

Everything is plain numpy: the Friedman statistic is the plain mean-rank
formula, with no tie correction, and tied accuracies share the average of
the ranks they span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError

# The one significance level of the Friedman/Nemenyi comparison.
ALPHA = 0.05
# Accuracies closer than this compare as a tie; matches 3-decimal reporting.
WTL_TOLERANCE = 5e-4

# Two-tailed Nemenyi critical values at alpha = 0.05 for k = 2..10 methods:
# the studentized range quantile divided by sqrt(2), per Demsar (2006),
# "Statistical Comparisons of Classifiers over Multiple Data Sets", Table 5(a).
NEMENYI_Q_05 = {
    2: 1.960,
    3: 2.343,
    4: 2.569,
    5: 2.728,
    6: 2.850,
    7: 2.949,
    8: 3.031,
    9: 3.102,
    10: 3.164,
}


@dataclass(frozen=True)
class RankTable:
    """Per-dataset mean accuracies with their derived ranks.

    Rank 1 is best; ties get the average rank, so each row of ``ranks`` sums
    to k(k+1)/2 exactly.
    """

    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    accuracies: np.ndarray
    ranks: np.ndarray
    mean_ranks: np.ndarray

    def method_index(self, name: str) -> int:
        try:
            return self.methods.index(name)
        except ValueError:
            raise ConfigError(f"unknown method {name!r}") from None


def average_ranks(row: np.ndarray) -> np.ndarray:
    """Ranks 1..k of a 1-D array in ascending order, each run of equal
    values sharing the mean of the ranks it spans (every rank is a multiple
    of 0.5, so exact). ``0.0`` and ``-0.0`` tie; callers reject NaN."""
    order = np.argsort(row, kind="stable")
    ordered = row[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], row.size]
    ranks = np.empty(row.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def rank_accuracies(
    datasets: Sequence[str],
    methods: Sequence[str],
    accuracies: np.ndarray,
) -> RankTable:
    """Build a RankTable from a [datasets x methods] accuracy matrix."""
    acc = np.asarray(accuracies, dtype=np.float64)
    if acc.shape != (len(datasets), len(methods)):
        raise ConfigError("accuracy matrix shape does not match the labels")
    if len(datasets) < 1 or len(methods) < 2:
        raise ConfigError("ranking needs at least 1 dataset and 2 methods")
    if len(set(datasets)) != len(datasets) or len(set(methods)) != len(methods):
        raise ConfigError("dataset and method names must be unique")
    bad = np.argwhere(~np.isfinite(acc))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"accuracy of method {methods[j]!r} on dataset {datasets[i]!r} "
                          f"is not finite: {float(acc[i, j])!r}")
    ranks = np.vstack([average_ranks(-row) for row in acc])
    return RankTable(
        datasets=tuple(datasets),
        methods=tuple(methods),
        accuracies=acc,
        ranks=ranks,
        mean_ranks=ranks.mean(axis=0),
    )


def aggregate(records: Iterable[Mapping]) -> RankTable:
    """Fold per-task records into a RankTable of per-dataset mean accuracies.

    Records need ``dataset``, ``method`` and ``accuracy`` fields. Every
    (dataset, method) cell must hold the same number of tasks; datasets sort
    alphabetically and methods keep first-appearance order.
    """
    cells: dict[tuple[str, str], list[float]] = {}
    methods: list[str] = []
    for i, rec in enumerate(records, start=1):
        missing = [f for f in ("dataset", "method", "accuracy") if f not in rec]
        if missing:
            raise ConfigError(f"record {i} has no {missing[0]!r} field")
        dataset, method, value = rec["dataset"], rec["method"], rec["accuracy"]
        for field, name in (("dataset", dataset), ("method", method)):
            if not isinstance(name, str):
                raise ConfigError(f"record {i} field {field!r} is not a string: {name!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
            raise ConfigError(f"record {i} field 'accuracy' is not a finite number: {value!r}")
        if method not in methods:
            methods.append(method)
        cells.setdefault((dataset, method), []).append(float(value))
    if not cells:
        raise ConfigError("no records to aggregate")
    datasets = sorted({d for d, _ in cells})
    counts = {len(v) for v in cells.values()}
    if len(counts) != 1 or len(cells) != len(datasets) * len(methods):
        raise ConfigError("ragged cells: every (dataset, method) needs the same task count")
    acc = np.array([[np.mean(cells[(d, m)]) for m in methods] for d in datasets])
    return rank_accuracies(datasets, methods, acc)


def friedman_statistic(table: RankTable) -> tuple[float, int, int]:
    """Friedman chi-square over mean ranks: 12n/(k(k+1)) * [sum R_j^2 - k(k+1)^2/4].

    Returns (statistic, k methods, n datasets)."""
    n, k = table.ranks.shape
    if n < 2 or k < 2:
        raise ConfigError("Friedman test needs >= 2 datasets and >= 2 methods")
    mean_ranks = table.mean_ranks
    stat = 12.0 * n / (k * (k + 1)) * (float(np.sum(mean_ranks ** 2)) - k * (k + 1) ** 2 / 4.0)
    return stat, k, n


def nemenyi_cd(k: int, n: int) -> float:
    """Critical mean-rank difference at ``ALPHA``: q_alpha * sqrt(k(k+1)/(6n)).

    Two methods differ significantly iff their mean-rank gap exceeds this."""
    if k not in NEMENYI_Q_05:
        raise ConfigError(f"no critical value for k={k}; table covers k=2..10")
    if n < 1:
        raise ConfigError("need at least one dataset")
    return NEMENYI_Q_05[k] * np.sqrt(k * (k + 1) / (6.0 * n))


def wtl_counts(table: RankTable, method_a: str, method_b: str) -> tuple[int, int, int]:
    """Per-dataset (wins, ties, losses) of method_a against method_b.

    Accuracies within ``WTL_TOLERANCE`` count as ties."""
    a = table.accuracies[:, table.method_index(method_a)]
    b = table.accuracies[:, table.method_index(method_b)]
    diff = a - b
    wins = int(np.sum(diff > WTL_TOLERANCE))
    losses = int(np.sum(diff < -WTL_TOLERANCE))
    ties = table.accuracies.shape[0] - wins - losses
    return wins, ties, losses


def cd_cliques(table: RankTable, cd: float) -> list[list[str]]:
    """Maximal groups of methods whose mean ranks all sit within the
    critical difference, ordered by rank. Used to draw the connecting bars
    of a critical-difference diagram; singleton groups are omitted."""
    order = np.argsort(table.mean_ranks, kind="stable")
    ranks = table.mean_ranks[order]
    cliques: list[list[int]] = []
    for i in range(len(order)):
        j = i
        while j + 1 < len(order) and ranks[j + 1] - ranks[i] <= cd:
            j += 1
        if j > i:
            group = list(range(i, j + 1))
            if not any(set(group) <= set(g) for g in cliques):
                cliques.append(group)
    return [[table.methods[order[i]] for i in group] for group in cliques]
