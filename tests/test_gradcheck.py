"""Full-pipeline finite-difference self-test."""

import math

import numpy as np
import pytest

from fewts import gradcheck
from fewts.errors import ConfigError
from fewts.gradcheck import CHECK_SPEC, gradient_check


def test_default_check_is_well_below_threshold():
    assert gradient_check() < 1e-4


def test_other_seeds_and_steps():
    for seed in (1, 2, 3):
        assert gradient_check(h=1e-5, seed=seed) < 1e-4


def test_check_spec_is_tiny():
    assert CHECK_SPEC.blocks == 1
    assert CHECK_SPEC.filter_lengths == (2, 3)
    assert CHECK_SPEC.filters_per_length == 2


@pytest.mark.parametrize("side", ["analytic", "numeric"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_gradient_fails_the_check(monkeypatch, side, bad):
    if side == "analytic":
        real_backward = gradcheck.backward_batch

        def backward(*args, **kwargs):
            grad = real_backward(*args, **kwargs)
            grad.values[0] = bad
            return grad

        monkeypatch.setattr(gradcheck, "backward_batch", backward)
    else:
        real_loss = gradcheck.triplet_loss
        calls = []

        def loss(*args, **kwargs):
            calls.append(None)
            value, violations = real_loss(*args, **kwargs)
            return (bad if len(calls) == 1 else value), violations

        monkeypatch.setattr(gradcheck, "triplet_loss", loss)
    error = gradient_check()
    assert not np.isfinite(error)
    assert not error < 1e-4


@pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf])
def test_step_must_be_finite_and_positive(h):
    with pytest.raises(ConfigError, match="step must be finite and > 0"):
        gradient_check(h=h)
