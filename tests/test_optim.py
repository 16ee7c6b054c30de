import tracemalloc

import numpy as np
import pytest

from fewts.errors import ConfigError
from fewts.optim import AdamState, adam_step, sgd_step
from fewts.params import CACHE_BLOCK, Layout, ParamSet

from helpers import adam_step_reference


def flat_params(values):
    values = np.asarray(values, dtype=np.float64)
    layout = Layout([("p", values.shape)])
    return ParamSet(layout, values.copy())


def test_first_step_is_signed_lr():
    params = flat_params([0.0])
    grads = flat_params([3.7])
    state = AdamState.fresh(1, lr=1e-4)
    new = adam_step(params, grads, state)
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
    state = AdamState.fresh(4, lr=lr)
    adam_step(params, flat_params(g1), state)
    adam_step(params, flat_params(g2), state)
    assert np.allclose(params.values, ref, atol=1e-15)


def test_step_updates_in_place():
    params = flat_params([1.0, 2.0, 0.0])
    grads = flat_params([0.5, -0.5, 0.0])
    state = AdamState.fresh(3, lr=1e-3)
    arrays = (params.values, state.m, state.v)
    g_before = grads.values.copy()
    want_p, want_m, want_v = adam_step_reference(
        params.values.copy(), g_before, state.m.copy(), state.v.copy(), 1, 1e-3)
    result = adam_step(params, grads, state)
    assert result is params
    assert all(a is b for a, b in zip((params.values, state.m, state.v), arrays))
    assert params.values.tobytes() == want_p.tobytes()
    assert state.m.tobytes() == want_m.tobytes()
    assert state.v.tobytes() == want_v.tobytes()
    assert state.t == 1
    assert grads.values.tobytes() == g_before.tobytes()


def test_step_matches_reference_expression_bitwise():
    rng = np.random.default_rng(7)
    n = CACHE_BLOCK + 1000
    p = rng.standard_normal(n)
    p[:50] = 0.0
    p[50:100] = -0.0
    params = flat_params(p)
    state = AdamState.fresh(n, lr=1e-3)
    m, v = state.m.copy(), state.v.copy()
    for t in (1, 2, 3):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
        g[rng.integers(0, n, 1000)] = 0.0
        g[rng.integers(0, n, 1000)] = -0.0
        grads = flat_params(g)
        g_before = grads.values.tobytes()
        adam_step(params, grads, state)
        p, m, v = adam_step_reference(p, g, m, v, t, 1e-3)
        assert grads.values.tobytes() == g_before
        assert params.values.tobytes() == p.tobytes()
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()
        assert state.t == t


def test_step_allocates_only_its_scratch_blocks():
    # Two scratch rows of one cache block each; m, v and the params are
    # written in place.
    n = 200_000
    params = flat_params(np.ones(n))
    grads = flat_params(np.full(n, 0.5))
    state = AdamState.fresh(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        adam_step(params, grads, state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert state.t == 1
    assert peak <= 2 * 8 * CACHE_BLOCK + 4096


def test_layout_mismatch_rejected():
    params = flat_params([1.0])
    other = ParamSet(Layout([("q", (1,))]), np.array([1.0]))
    with pytest.raises(ConfigError):
        adam_step(params, other, AdamState.fresh(1))


def test_state_size_mismatch_rejected():
    params = flat_params([1.0, 2.0])
    with pytest.raises(ConfigError):
        adam_step(params, params.copy(), AdamState.fresh(3))


def test_bad_hyperparameters_rejected():
    with pytest.raises(ConfigError):
        AdamState.fresh(1, lr=-1e-4)


def test_sgd_step():
    params = flat_params([1.0, 1.0])
    grads = flat_params([2.0, 4.0])
    new = sgd_step(params, grads, lr=0.5)
    assert np.array_equal(new.values, [0.0, -1.0])
