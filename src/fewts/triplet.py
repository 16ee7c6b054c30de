"""Batch-all triplet loss on embedding rows.

A triplet (a, p, n) is valid when a != p, label(a) == label(p) and
label(n) != label(a). The loss is the SUM of hinged terms

    [ ||z_a - z_p||^2 - ||z_a - z_n||^2 + margin ]_+

over the given triplets; it is intentionally not averaged.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def enumerate_valid_triplets(labels: np.ndarray) -> np.ndarray:
    """All valid (anchor, positive, negative) index triplets.

    Returns an ``[n_triplets, 3]`` int array in lexicographic (a, p, n)
    order. Count equals sum_i c_i * (c_i - 1) * (n - c_i) over class sizes.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ConfigError("labels must be a 1-D vector")
    b = labels.shape[0]
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(b, dtype=bool)  # a != p, same class
    mask = pos[:, :, None] & ~same[:, None, :]  # n in another class
    return np.argwhere(mask)


def _hinge_terms(
    embeddings: np.ndarray, triplets: np.ndarray, margin: float
) -> np.ndarray:
    if margin < 0.0:
        raise ConfigError(f"margin must be >= 0, got {margin}")
    z = np.asarray(embeddings, dtype=np.float64)
    if z.ndim != 2:
        raise ConfigError("embeddings must be [batch, dim]")
    triplets = np.asarray(triplets)
    if triplets.size == 0:
        return np.zeros(0)
    if triplets.ndim != 2 or triplets.shape[1] != 3:
        raise ConfigError("triplets must be [n, 3] index rows")
    a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    d_ap = ((z[a] - z[p]) ** 2).sum(axis=1)
    d_an = ((z[a] - z[n]) ** 2).sum(axis=1)
    return d_ap - d_an + margin


def triplet_loss(
    embeddings: np.ndarray,
    triplets: np.ndarray,
    margin: float = 0.5,
) -> tuple[float, int]:
    """Returns (loss, violations). Violations are triplets with a positive
    pre-hinge term; an empty triplet list gives (0.0, 0)."""
    terms = _hinge_terms(embeddings, triplets, margin)
    if terms.size == 0:
        return 0.0, 0
    hinged = np.maximum(terms, 0.0)
    return float(hinged.sum()), int((terms > 0).sum())


def triplet_loss_grad(
    embeddings: np.ndarray,
    triplets: np.ndarray,
    margin: float = 0.5,
) -> np.ndarray:
    """Exact gradient of :func:`triplet_loss` w.r.t. the embedding rows.

    Only violating triplets contribute; a term exactly on the hinge boundary
    contributes zero (subgradient convention). Duplicate triplets accumulate.
    """
    z = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(z)
    terms = _hinge_terms(z, triplets, margin)
    if terms.size == 0:
        return grad
    active = terms > 0
    if active.any():
        t = np.asarray(triplets)[active]
        a, p, n = t[:, 0], t[:, 1], t[:, 2]
        # d/da [d_ap - d_an] = 2(n - p); d/dp = -2(a - p); d/dn = 2(a - n)
        np.add.at(grad, a, 2.0 * (z[n] - z[p]))
        np.add.at(grad, p, -2.0 * (z[a] - z[p]))
        np.add.at(grad, n, 2.0 * (z[a] - z[n]))
    return grad

