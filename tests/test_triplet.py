import numpy as np
import pytest

from fewts.errors import ConfigError
from fewts.kernels import orthonormalize
from fewts.triplet import (
    enumerate_valid_triplets,
    triplet_loss,
    triplet_loss_grad,
)

from helpers import brute_force_triplets, max_rel_err, numeric_grad, triplet_count_by_class


def test_two_class_hand_example():
    # Labels [A, A, B, B] admit exactly 8 valid triplets.
    trips = enumerate_valid_triplets(np.array([0, 0, 1, 1]))
    assert trips.shape == (8, 3)
    assert [tuple(t) for t in trips] == brute_force_triplets([0, 0, 1, 1])


def test_enumeration_matches_brute_force_and_formula():
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 4, size=n)
        trips = enumerate_valid_triplets(labels)
        assert [tuple(t) for t in trips] == brute_force_triplets(labels)
        _, counts = np.unique(labels, return_counts=True)
        assert len(trips) == triplet_count_by_class(counts)


def test_single_class_has_no_triplets():
    trips = enumerate_valid_triplets(np.zeros(5, dtype=int))
    assert len(trips) == 0
    loss, violations = triplet_loss(np.zeros((5, 3)), trips)
    assert loss == 0.0 and violations == 0
    assert np.array_equal(triplet_loss_grad(np.zeros((5, 3)), trips), np.zeros((5, 3)))


def test_loss_hand_computed():
    # z0=(0,0) z1=(1,0) same class, z2=(0,2) other class, margin 0.5.
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    labels = np.array([0, 0, 1])
    trips = enumerate_valid_triplets(labels)  # (0,1,2) and (1,0,2)
    assert [tuple(t) for t in trips] == [(0, 1, 2), (1, 0, 2)]
    # (0,1,2): 1 - 4 + 0.5 = -2.5 -> 0 ; (1,0,2): 1 - 5 + 0.5 = -3.5 -> 0
    loss, violations = triplet_loss(z, trips, 0.5)
    assert loss == 0.0 and violations == 0
    # Margin large enough to activate both hinges.
    loss, violations = triplet_loss(z, trips, 5.0)
    assert np.isclose(loss, (1 - 4 + 5) + (1 - 5 + 5))
    assert violations == 2


def test_loss_nonnegative_and_bounded():
    rng = np.random.default_rng(7)
    margin = 0.5
    for _ in range(25):
        n = int(rng.integers(3, 10))
        labels = rng.integers(0, 3, size=n)
        z = rng.standard_normal((n, 4))
        trips = enumerate_valid_triplets(labels)
        loss, violations = triplet_loss(z, trips, margin)
        assert loss >= 0.0
        assert 0 <= violations <= len(trips)
        if len(trips):
            d = ((z[:, None, :] - z[None, :, :]) ** 2).sum(-1)
            assert loss <= len(trips) * (margin + d.max()) + 1e-9


def test_rotation_invariance():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 3, size=8)
    z = rng.standard_normal((8, 6))
    q = rng.standard_normal((6, 6))
    orthonormalize(q)
    trips = enumerate_valid_triplets(labels)
    a, _ = triplet_loss(z, trips)
    b, _ = triplet_loss(z @ q, trips)
    assert abs(a - b) < 1e-9


def test_gradient_finite_difference():
    rng = np.random.default_rng(19)
    labels = np.array([0, 0, 1, 1, 2])
    z = rng.standard_normal((5, 3))
    trips = enumerate_valid_triplets(labels)
    margin = 0.5
    analytic = triplet_loss_grad(z, trips, margin)

    def loss_from(flat):
        return triplet_loss(flat.reshape(5, 3), trips, margin)[0]

    assert max_rel_err(analytic.ravel(), numeric_grad(loss_from, z.ravel())) < 1e-5


def test_hinge_boundary_contributes_zero():
    # d_ap = 1, d_an = 2, margin = 1: the term is exactly 0, so no gradient
    # and no violation.
    z = np.array([[0.0], [1.0], [np.sqrt(2.0)]])
    trips = np.array([[0, 1, 2]])
    loss, violations = triplet_loss(z, trips, 1.0)
    assert loss == 0.0 and violations == 0
    grad = triplet_loss_grad(z, trips, 1.0)
    assert np.array_equal(grad, np.zeros((3, 1)))


def test_duplicate_triplet_doubles_gradient():
    z = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.1]])
    one = np.array([[0, 1, 2]])
    two = np.array([[0, 1, 2], [0, 1, 2]])
    margin = 2.0
    g1 = triplet_loss_grad(z, one, margin)
    g2 = triplet_loss_grad(z, two, margin)
    assert np.allclose(g2, 2.0 * g1, atol=1e-15)


def test_negative_margin_rejected():
    # Every margin is checked, also where no triplet is there to hinge.
    z = np.zeros((4, 2))
    for trips in (enumerate_valid_triplets(np.array([0, 0, 1, 1])), np.zeros((0, 3), int)):
        for loss_fn in (triplet_loss, triplet_loss_grad):
            with pytest.raises(ConfigError, match="margin"):
                loss_fn(z, trips, margin=-0.1)


def test_labels_must_be_vector():
    with pytest.raises(ConfigError):
        enumerate_valid_triplets(np.zeros((2, 2)))
