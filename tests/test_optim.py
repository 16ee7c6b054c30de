import numpy as np
import pytest

from fewts.errors import ConfigError
from fewts.optim import AdamState, adam_step, sgd_step
from fewts.params import Layout, ParamSet


def flat_params(values):
    values = np.asarray(values, dtype=np.float64)
    layout = Layout.from_shapes([("p", values.shape)])
    return ParamSet(layout, values.copy())


def test_first_step_is_signed_lr():
    params = flat_params([0.0])
    grads = flat_params([3.7])
    state = AdamState.fresh(1, lr=1e-4)
    new, state = adam_step(params, grads, state)
    # mhat = g, vhat = g^2 at t=1, so the step is lr * g / (|g| + eps).
    assert np.isclose(new.values[0], -1e-4, rtol=1e-6)
    assert state.t == 1


def test_two_steps_match_reference_loop():
    # Independent oracle: the update recurrence written out longhand.
    rng = np.random.default_rng(0)
    p = rng.standard_normal(4)
    g1 = rng.standard_normal(4)
    g2 = rng.standard_normal(4)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8

    m = np.zeros(4)
    v = np.zeros(4)
    ref = p.copy()
    for t, g in [(1, g1), (2, g2)]:
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    params = flat_params(p)
    state = AdamState.fresh(4, lr=lr, beta1=b1, beta2=b2, eps_hat=eps)
    params, state = adam_step(params, flat_params(g1), state)
    params, state = adam_step(params, flat_params(g2), state)
    assert np.allclose(params.values, ref, atol=1e-15)


def test_step_is_functional():
    params = flat_params([1.0, 2.0])
    grads = flat_params([0.5, -0.5])
    state = AdamState.fresh(2)
    before = params.values.copy()
    m_before = state.m.copy()
    adam_step(params, grads, state)
    assert np.array_equal(params.values, before)
    assert np.array_equal(state.m, m_before)
    assert state.t == 0


def test_layout_mismatch_rejected():
    params = flat_params([1.0])
    other = ParamSet(Layout.from_shapes([("q", (1,))]), np.array([1.0]))
    with pytest.raises(ConfigError):
        adam_step(params, other, AdamState.fresh(1))


def test_state_size_mismatch_rejected():
    params = flat_params([1.0, 2.0])
    with pytest.raises(ConfigError):
        adam_step(params, params.copy(), AdamState.fresh(3))


def test_bad_hyperparameters_rejected():
    with pytest.raises(ConfigError):
        AdamState.fresh(1, lr=-1e-4)
    with pytest.raises(ConfigError):
        AdamState.fresh(1, beta1=1.0)
    with pytest.raises(ConfigError):
        AdamState.fresh(1, eps_hat=0.0)


def test_sgd_step():
    params = flat_params([1.0, 1.0])
    grads = flat_params([2.0, 4.0])
    new = sgd_step(params, grads, lr=0.5)
    assert np.array_equal(new.values, [0.0, -1.0])
