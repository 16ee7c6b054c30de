import re
import sys

import numpy as np
import pytest

from fewts import kernels
from fewts.errors import ConfigError, UsageError
from fewts.kernels import (
    BN_EPS,
    batchnorm_backward,
    batchnorm_forward,
    conv1d_backward,
    conv1d_forward,
    conv_padding,
    gap_backward,
    gap_forward,
    multiscale_conv_backward,
    multiscale_conv_forward,
    orthonormalize,
    relu_backward,
    relu_forward,
)
from fewts.network import ArchSpec, build_layout, build_model, embed_batch

from helpers import (
    FD_STEP,
    max_rel_err,
    multiscale_conv_reference,
    numeric_grad,
    orthogonal_reference,
    tap_buffer_filter_grads_reference,
)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def test_conv_padding_split():
    # Even lengths put the extra zero on the left.
    assert conv_padding(1) == (0, 0)
    assert conv_padding(2) == (1, 0)
    assert conv_padding(3) == (1, 1)
    assert conv_padding(4) == (2, 1)
    assert conv_padding(8) == (4, 3)


def test_conv_hand_example():
    # Ones input, filter [1, 1]: left zero-pad of one gives [1, 2, 2].
    x = np.ones((1, 1, 3))
    filters = np.array([[[1.0, 1.0]]])
    out = conv1d_forward(x, filters)
    assert np.array_equal(out, np.array([[[1.0, 2.0, 2.0]]]))


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("t", [1, 2, 5, 9])
def test_conv_preserves_length(f, t):
    rng = np.random.default_rng(f * 100 + t)
    x = rng.standard_normal((1, 3, t))
    filters = rng.standard_normal((4, 3, f))
    out = conv1d_forward(x, filters)
    assert out.shape == (1, 4, t)


def test_conv_matches_direct_sum():
    # Independent oracle: explicit loops over the definition.
    rng = np.random.default_rng(7)
    c, t, o, f = 2, 6, 3, 4
    x = rng.standard_normal((c, t))
    w = rng.standard_normal((o, c, f))
    pad_l, pad_r = conv_padding(f)
    xp = np.pad(x, ((0, 0), (pad_l, pad_r)))
    expected = np.zeros((o, t))
    for oi in range(o):
        for ti in range(t):
            acc = 0.0
            for ci in range(c):
                for d in range(f):
                    acc += w[oi, ci, d] * xp[ci, ti + d]
            expected[oi, ti] = acc
    out = conv1d_forward(x[None], w)
    assert np.allclose(out[0], expected, atol=1e-12)


def test_conv_batched_matches_single():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 2, 9))
    w = rng.standard_normal((4, 2, 3))
    batched = conv1d_forward(x, w)
    for i in range(5):
        assert np.allclose(batched[i], conv1d_forward(x[i : i + 1], w)[0], atol=1e-12)


def test_conv_shape_errors():
    with pytest.raises(ConfigError, match="input has 2 channels, filters expect 4"):
        conv1d_forward(np.zeros((1, 2, 5)), np.zeros((3, 4, 2)))


def test_conv_backward_shape_errors_match_forward():
    x = np.zeros((1, 2, 5))
    with pytest.raises(ConfigError, match="input has 2 channels, filters expect 4"):
        conv1d_backward(x, np.zeros((3, 4, 2)), np.zeros((1, 3, 5)))
    with pytest.raises(ConfigError, match="filters must be"):
        conv1d_backward(x, np.zeros((3, 2)), np.zeros((1, 3, 5)))
    with pytest.raises(ConfigError, match="upstream must be"):
        conv1d_backward(x, np.zeros((3, 2, 2)), np.zeros((1, 4, 5)))
    with pytest.raises(ConfigError, match="filters must be"):
        conv1d_forward(x, np.zeros((3, 2)))


def test_multiscale_conv_shape_errors():
    x = np.zeros((2, 3, 6))
    banks = [np.zeros((2, 3, 4)), np.zeros((2, 3, 1))]
    with pytest.raises(ConfigError, match="at least one filter bank"):
        multiscale_conv_forward(x, [])
    with pytest.raises(ConfigError, match="input has 3 channels, filters expect 2"):
        multiscale_conv_backward(x, banks + [np.zeros((2, 2, 3))], np.zeros((2, 6, 6)))
    want = "upstream must be [2, 4, 6], got shape (2, 4, 5)"
    with pytest.raises(ConfigError, match=re.escape(want)):
        multiscale_conv_backward(x, banks, np.zeros((2, 4, 5)))


@pytest.mark.parametrize("lengths", [(4, 8, 16, 32, 64), (8, 5), (8, 4, 16), (1, 2, 7)])
@pytest.mark.parametrize("in_ch", [1, 3])
@pytest.mark.parametrize("batch", [1, 4])
def test_multiscale_conv_matches_per_bank_reference(lengths, in_ch, batch):
    # T=11 is shorter than the widest bank of the first length set.
    rng = np.random.default_rng(sum(lengths) * 10 + in_ch + batch)
    for t in (11, 70):
        banks = [rng.standard_normal((3, in_ch, f)) for f in lengths]
        out_ch = 3 * len(lengths)
        x = rng.standard_normal((batch, in_ch, t))
        upstream = rng.standard_normal((batch, out_ch, t))
        out, dx, dbanks = multiscale_conv_reference(x, banks, upstream)
        assert np.abs(multiscale_conv_forward(x, banks) - out).max() < 1e-12
        got_dx, got_dbanks = multiscale_conv_backward(x, banks, upstream)
        assert np.abs(got_dx - dx).max() < 1e-12
        assert len(got_dbanks) == len(banks)
        for got, want in zip(got_dbanks, dbanks):
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12


def test_default_inner_layer_matches_per_bank_reference():
    # The default arch's 165 -> 165 layer at b = 3, T = 128. Its forward runs
    # one-tap GEMMs on views and stacked groups, summing rings into the
    # output; its backward stacks taps and runs them in several chunks of
    # the shared store. The shapes alone would not say so; the plans do.
    rng = np.random.default_rng(16)
    banks = [rng.standard_normal((33, 165, f)) for f in (4, 8, 16, 32, 64)]
    x = rng.standard_normal((3, 165, 128))
    upstream = rng.standard_normal((3, 165, 128))
    _, _, plan, parts = kernels._conv_inputs(x, banks)
    groups, _, _ = kernels._forward_groups(plan.shapes, 165, 128)
    assert {g for _, g, _ in groups} == {1, 4} and max(a for _, _, a in groups) > 0
    backward = kernels._backward_plan(plan.shapes, 165, 3, 128, parts)
    assert min(g for _, g, _ in backward.groups) > 1 and len(backward.chunks) > 3

    out, dx, dbanks = multiscale_conv_reference(x, banks, upstream)
    got_dx, got_dbanks = multiscale_conv_backward(x, banks, upstream)
    # The sums run in another order than the reference's: 2e-15 relative.
    for got, want in zip([multiscale_conv_forward(x, banks), got_dx, *got_dbanks],
                         [out, dx, *dbanks]):
        assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


# Each takes the forward plan (groups, series per copy, zero flag), the
# backward plan and T, and says whether they are of its family.
def _one_tap_backward(fwd, bwd, t):
    return all(g == 1 for _, g, _ in bwd.groups)


def _shorter_than_taps(fwd, bwd, t):
    return all(g > t for _, g, _ in fwd[0]) and max(g for _, g, _ in bwd.groups) > t


def _stacked_zero_filled(fwd, bwd, t):
    return fwd[2] and bwd.zero and min(g for _, g, _ in fwd[0] + bwd.groups) > 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lengths, in_ch, per_length, b, t, family", [
    ((4, 8, 16, 32, 64), 1, 33, 10, 128, _one_tap_backward),  # the default arch's first layer
    ((4, 8, 16, 32, 64), 3, 3, 4, 11, _shorter_than_taps),
    ((8, 5), 8, 4, 10, 64, _stacked_zero_filled),  # an inner layer of the tiny arch
], ids=["one-tap-backward", "shorter-than-taps", "stacked-zero-filled"])
def test_conv_plan_families_match_per_bank_reference(monkeypatch, workers, lengths, in_ch,
                                                     per_length, b, t, family):
    # The plan, not the shape, says which family a case runs. With two
    # workers every layer is cut into parts.
    if workers > 1:
        monkeypatch.setattr(kernels, "_SPLIT_MACS", 0)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    rng = np.random.default_rng(b * 1000 + t + in_ch)
    banks = [rng.standard_normal((per_length, in_ch, f)) for f in lengths]
    x = rng.standard_normal((b, in_ch, t))
    upstream = rng.standard_normal((b, per_length * len(lengths), t))
    _, _, plan, parts = kernels._conv_inputs(x, banks)
    assert parts == workers
    assert family(kernels._forward_groups(plan.shapes, in_ch, t),
                  kernels._backward_plan(plan.shapes, in_ch, b, t, parts), t)

    want = multiscale_conv_reference(x, banks, upstream)
    for got, ref in zip(conv_outputs(x, banks, upstream), [want[0], want[1], *want[2]]):
        assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("lengths, in_ch", [((4, 8, 16, 32, 64), 1), ((8, 5), 6),
                                            ((8, 4, 16), 40), ((1,), 3)])
def test_multiscale_conv_backward_writes_filter_grads_in_place(lengths, in_ch):
    rng = np.random.default_rng(len(lengths) * 100 + in_ch)
    banks = [rng.standard_normal((5, in_ch, f)) for f in lengths]
    x = rng.standard_normal((3, in_ch, 30))
    upstream = rng.standard_normal((3, 5 * len(lengths), 30))
    want = tap_buffer_filter_grads_reference(x, banks, upstream)
    dx, fresh = multiscale_conv_backward(x, banks, upstream)
    # Views into one flat gradient vector, as backward_batch passes them.
    flat = np.zeros(sum(w.size for w in banks))
    ends = np.cumsum([w.size for w in banks])
    views = [flat[e - w.size : e].reshape(w.shape) for e, w in zip(ends, banks)]
    got_dx, got = multiscale_conv_backward(x, banks, upstream, views, False)
    assert got_dx is None
    assert all(g is v for g, v in zip(got, views))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert [g.tobytes() for g in fresh] == [w.tobytes() for w in want]
    assert dx.tobytes() == multiscale_conv_backward(x, banks, upstream, views)[0].tobytes()
    with pytest.raises(ConfigError, match="filter gradient buffers"):
        multiscale_conv_backward(x, banks, upstream, views[:-1] + [np.zeros(3)])


def test_multiscale_conv_rows_independent_of_batch():
    # Batched infer relies on this: a row's output is bitwise the same alone
    # or in any batch. The last four are the efficacy arch's layers.
    rng = np.random.default_rng(12)
    for lengths, per_length, in_ch, b, t in [((6, 3, 9), 5, 1, 6, 50), ((6, 3, 9), 5, 7, 6, 50),
                                             ((6, 3, 9), 5, 40, 6, 50), ((8, 5), 4, 1, 10, 64),
                                             ((8, 5), 4, 8, 10, 64), ((8, 5), 4, 1, 10, 128),
                                             ((8, 5), 4, 8, 10, 128)]:
        banks = [rng.standard_normal((per_length, in_ch, f)) for f in lengths]
        x = rng.standard_normal((b, in_ch, t))
        batched = multiscale_conv_forward(x, banks)
        for i in range(len(x)):
            alone = multiscale_conv_forward(x[i : i + 1], banks)
            assert alone.tobytes() == batched[i : i + 1].tobytes()


def conv_outputs(x, banks, upstream):
    out = multiscale_conv_forward(x, banks)
    dx, dbanks = multiscale_conv_backward(x, banks, upstream)
    return [out, dx, *dbanks]


@pytest.mark.parametrize("b", [1, 3, 10])
@pytest.mark.parametrize("t", [11, 128])
@pytest.mark.parametrize("lengths, in_ch, per_length", [
    ((4, 8, 16, 32, 64), 165, 33),  # an inner layer of the default arch
    ((9, 2, 5), 6, 4),  # unsorted lengths, in_ch != out_ch
])
def test_multiscale_conv_bitwise_independent_of_worker_count(monkeypatch, b, t, lengths,
                                                             in_ch, per_length):
    assert_same_on_1_and_3_workers(monkeypatch, b, t, lengths, in_ch, per_length)


@pytest.mark.parametrize("t", [64, 128])
@pytest.mark.parametrize("in_ch", [1, 8])
def test_efficacy_arch_layers_bitwise_independent_of_worker_count(monkeypatch, t, in_ch):
    assert_same_on_1_and_3_workers(monkeypatch, 10, t, (8, 5), in_ch, 4)


def assert_same_on_1_and_3_workers(monkeypatch, b, t, lengths, in_ch, per_length):
    # Every layer is cut into parts here; 3 workers may outnumber the cores
    # and b = 1 is fewer series than workers. A short switch interval makes
    # the parts interleave.
    rng = np.random.default_rng(b * 1000 + t)
    banks = [rng.standard_normal((per_length, in_ch, f)) for f in lengths]
    x = rng.standard_normal((b, in_ch, t))
    upstream = rng.standard_normal((b, per_length * len(lengths), t))
    monkeypatch.setattr(kernels, "_SPLIT_MACS", 0)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        outputs = {}
        for workers in (1, 3):
            monkeypatch.setattr(kernels, "_WORKERS", workers)
            outputs[workers] = conv_outputs(x, banks, upstream)
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs[1]) == len(outputs[3]) == len(lengths) + 2
    for one, three in zip(outputs[1], outputs[3]):
        assert one.shape == three.shape and one.tobytes() == three.tobytes()


@pytest.mark.parametrize("in_ch, t", [(1, 128), (1, 512), (165, 128), (165, 512)])
@pytest.mark.parametrize("workers", [1, 2])
def test_stacked_copies_stay_within_the_cell_budget(monkeypatch, in_ch, t, workers):
    # The default arch's layers at b = 10: a full im2col would be far
    # larger than the budget, and no stacked copy of either pass exceeds it.
    spec_lengths, per_length, b = (4, 8, 16, 32, 64), 33, 10
    if in_ch > 1:
        assert kernels._STACK_CELLS < b * in_ch * t * max(spec_lengths)
    sizes = []
    copy_taps = kernels._copy_taps

    def recording(*args):
        block = copy_taps(*args)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(kernels, "_copy_taps", recording)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    rng = np.random.default_rng(in_ch + t)
    banks = [rng.standard_normal((per_length, in_ch, f)) for f in spec_lengths]
    x = rng.standard_normal((b, in_ch, t))
    conv_outputs(x, banks, rng.standard_normal((b, per_length * len(spec_lengths), t)))
    assert sizes and max(sizes) <= kernels._STACK_CELLS


class _NoPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("a layer below the split threshold used the worker pool")


@pytest.mark.parametrize("lengths, in_ch, per_length", [
    ((8, 5), 8, 4),  # an inner layer of the tiny arch
    ((4, 8, 16, 32, 64), 1, 33),  # the first layer of the default arch
])
def test_small_layers_never_use_the_pool(monkeypatch, lengths, in_ch, per_length):
    rng = np.random.default_rng(3)
    banks = [rng.standard_normal((per_length, in_ch, f)) for f in lengths]
    x = rng.standard_normal((10, in_ch, 128))
    upstream = rng.standard_normal((10, per_length * len(lengths), 128))
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    monkeypatch.setattr(kernels, "_POOL", _NoPool())
    conv_outputs(x, banks, upstream)


def test_multiscale_conv_gradients_finite_difference_unsorted():
    rng = np.random.default_rng(41)
    lengths = (4, 1, 6)
    b, c, t, o = 2, 2, 7, 2
    x = rng.standard_normal((b, c, t))
    banks = [rng.standard_normal((o, c, f)) for f in lengths]
    proj = rng.standard_normal((b, o * len(lengths), t))
    sizes = [w.size for w in banks]

    def loss_from(xv, wv):
        parts = np.split(wv, np.cumsum(sizes)[:-1])
        ws = [p.reshape(w.shape) for p, w in zip(parts, banks)]
        return float((multiscale_conv_forward(xv.reshape(x.shape), ws) * proj).sum())

    w_flat = np.concatenate([w.ravel() for w in banks])
    dx, dbanks = multiscale_conv_backward(x, banks, proj)
    num_dx = numeric_grad(lambda v: loss_from(v, w_flat), x.ravel())
    num_dw = numeric_grad(lambda v: loss_from(x.ravel(), v), w_flat)
    assert max_rel_err(dx.ravel(), num_dx) < 1e-5
    assert max_rel_err(np.concatenate([d.ravel() for d in dbanks]), num_dw) < 1e-5


def test_conv_and_bn_take_batched_input_only():
    x = np.zeros((2, 5))
    w = np.zeros((3, 2, 2))
    with pytest.raises(ConfigError):
        conv1d_forward(x, w)
    with pytest.raises(ConfigError):
        conv1d_backward(x, w, np.zeros((3, 5)))
    with pytest.raises(ConfigError):
        batchnorm_forward(x, np.ones(2), np.zeros(2))
    _, _, cache = batchnorm_forward(x[None], np.ones(2), np.zeros(2))
    with pytest.raises(ConfigError):
        batchnorm_backward(x, np.ones(2), cache)


@pytest.mark.parametrize("f", [1, 2, 3, 5])
def test_conv_gradients_finite_difference(f):
    rng = np.random.default_rng(20 + f)
    c, t, o = 2, 7, 3
    x = rng.standard_normal((1, c, t))
    w = rng.standard_normal((o, c, f))
    proj = rng.standard_normal((1, o, t))  # random scalarization

    def loss_from(xv, wv):
        out = conv1d_forward(xv.reshape(1, c, t), wv.reshape(o, c, f))
        return float((out * proj).sum())

    dx, dw = conv1d_backward(x, w, proj)
    num_dx = numeric_grad(lambda v: loss_from(v, w.ravel()), x.ravel())
    num_dw = numeric_grad(lambda v: loss_from(x.ravel(), v), w.ravel())
    assert max_rel_err(dx.ravel(), num_dx) < 1e-5
    assert max_rel_err(dw.ravel(), num_dw) < 1e-5


def test_conv_gradients_batched_finite_difference():
    rng = np.random.default_rng(31)
    b, c, t, o, f = 3, 2, 5, 2, 4
    x = rng.standard_normal((b, c, t))
    w = rng.standard_normal((o, c, f))
    proj = rng.standard_normal((b, o, t))

    def loss_from(wv):
        out = conv1d_forward(x, wv.reshape(o, c, f))
        return float((out * proj).sum())

    _, dw = conv1d_backward(x, w, proj)
    assert max_rel_err(dw.ravel(), numeric_grad(loss_from, w.ravel())) < 1e-5


# ---------------------------------------------------------------------------
# Batch norm
# ---------------------------------------------------------------------------


def test_bn_train_hand_example():
    # One channel holding {0, 2}: outputs approach -1 and +1.
    x = np.array([[[0.0]], [[2.0]]])  # batch 2, channel 1, T 1
    # Train mode returns the batch's [2, ch] mean and variance.
    y, stats, _ = batchnorm_forward(x, np.ones(1), np.zeros(1))
    assert abs(y[0, 0, 0] + 1.0) < 1e-3
    assert abs(y[1, 0, 0] - 1.0) < 1e-3
    assert stats.shape == (2, 1)
    assert np.allclose(stats, [[1.0], [1.0]])


def test_bn_infer_uses_running_stats():
    x = np.array([[[1.0, 3.0]]])
    running = np.array([[1.0], [4.0]])  # mean, variance
    y, _, _ = batchnorm_forward(x, np.array([2.0]), np.array([0.5]), running)
    expected = 2.0 * (x - 1.0) / np.sqrt(4.0 + BN_EPS) + 0.5
    assert np.allclose(y, expected, atol=1e-12)


@pytest.mark.parametrize("shape", [(10, 8, 128), (3, 165, 128)])
def test_bn_infer_matches_normalize_then_scale_and_shift(shape):
    # Infer folds the statistics into one per-channel scale and shift; each
    # row still depends on itself alone, bit for bit.
    rng = np.random.default_rng(shape[1])
    x = 3.0 * rng.standard_normal(shape) + 1.0
    gamma, beta, mean = rng.standard_normal((3, shape[1]))
    var = 4.0 * rng.random(shape[1]) + 0.01
    running = np.stack([mean, var])
    y, kept, cache = batchnorm_forward(x, gamma, beta, running)
    want = (x - mean[:, None]) / np.sqrt(var[:, None] + BN_EPS) * gamma[:, None] + beta[:, None]
    assert np.abs(y - want).max() < 1e-12
    assert kept is running and cache is None
    for i in range(shape[0]):
        row = batchnorm_forward(x[i : i + 1], gamma, beta, running)[0]
        assert row.tobytes() == y[i : i + 1].tobytes()


def test_bn_infer_before_update_errors():
    # The kernel takes running statistics as an argument and counts no
    # updates; infer on statistics no train forward has written is refused by
    # the model that holds them, its copies included, until one update lands.
    spec = ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(2, 3), filters_per_length=2)
    model = build_model(spec, np.random.default_rng(0))
    for fresh in (model, model.copy()):
        with pytest.raises(UsageError):
            embed_batch(fresh, np.ones((2, 8)))
    embed_batch(model, np.random.default_rng(1).standard_normal((4, 8)), mode="train")
    assert np.isfinite(embed_batch(model, np.ones((2, 8)))).all()


def test_bn_train_needs_two_elements():
    with pytest.raises(ConfigError):
        batchnorm_forward(np.ones((1, 2, 1)), np.ones(2), np.zeros(2))


def test_bn_gradients_finite_difference():
    rng = np.random.default_rng(11)
    b, c, t = 3, 2, 4
    x = rng.standard_normal((b, c, t))
    gamma = rng.standard_normal(c) + 1.5
    beta = rng.standard_normal(c)
    proj = rng.standard_normal((b, c, t))

    def loss_from(xv, gv, bv):
        y, _, _ = batchnorm_forward(xv.reshape(b, c, t), gv, bv)
        return float((y * proj).sum())

    y, _, cache = batchnorm_forward(x, gamma, beta)
    dx, dgamma, dbeta = batchnorm_backward(proj, gamma, cache)
    assert max_rel_err(dx.ravel(), numeric_grad(lambda v: loss_from(v, gamma, beta), x.ravel())) < 1e-5
    assert max_rel_err(dgamma, numeric_grad(lambda v: loss_from(x.ravel(), v, beta), gamma)) < 1e-5
    assert max_rel_err(dbeta, numeric_grad(lambda v: loss_from(x.ravel(), gamma, v), beta)) < 1e-5


# ---------------------------------------------------------------------------
# ReLU / GAP
# ---------------------------------------------------------------------------


def test_relu_forward_and_subgradient():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(relu_forward(x), [0.0, 0.0, 3.0])
    g = relu_backward(x, np.array([1.0, 1.0, 1.0]))
    # Exactly zero input contributes zero.
    assert np.array_equal(g, [0.0, 0.0, 1.0])


def test_gap_hand_example():
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(gap_forward(x), [2.0, 5.0])


def test_gap_backward_spreads_evenly():
    g = gap_backward(np.array([3.0, 6.0]), 3)
    assert np.allclose(g, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])


def test_gap_finite_difference():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 5))
    proj = rng.standard_normal(3)

    def loss_from(v):
        return float((gap_forward(v.reshape(3, 5)) * proj).sum())

    analytic = gap_backward(proj, 5)
    assert max_rel_err(analytic.ravel(), numeric_grad(loss_from, x.ravel())) < 1e-5


# ---------------------------------------------------------------------------
# Orthogonal init
# ---------------------------------------------------------------------------


def _orthogonal(shape, rng):
    """One standard-normal draw of ``shape``, orthonormalized as a
    (shape[0], fan_in) matrix, as ``build_model`` treats each bank."""
    w = rng.standard_normal(shape)
    orthonormalize(w.reshape(shape[0], -1))
    return w


def test_orthogonal_rows_when_wide():
    w = _orthogonal((4, 3, 5), np.random.default_rng(0))  # 4 x 15
    flat = w.reshape(4, 15)
    assert np.abs(flat @ flat.T - np.eye(4)).max() < 1e-10


def test_orthogonal_columns_when_tall():
    w = _orthogonal((8, 1, 3), np.random.default_rng(1))  # 8 x 3
    flat = w.reshape(8, 3)
    assert np.abs(flat.T @ flat - np.eye(3)).max() < 1e-10


def test_orthogonal_deterministic_by_seed():
    a = _orthogonal((5, 2, 3), np.random.default_rng(42))
    b = _orthogonal((5, 2, 3), np.random.default_rng(42))
    assert a.tobytes() == b.tobytes()
    c = _orthogonal((5, 2, 3), np.random.default_rng(43))
    assert a.tobytes() != c.tobytes()


def test_orthogonal_one_by_one_is_sign():
    for seed in range(20):
        w = _orthogonal((1, 1, 1), np.random.default_rng(seed))
        assert w.shape == (1, 1, 1)
        assert abs(abs(w[0, 0, 0]) - 1.0) < 1e-12


_SMALL = dict(filter_lengths=(8, 5), filters_per_length=4)
_INIT_ARCHS = (ArchSpec(), ArchSpec(**_SMALL), ArchSpec(blocks=3, convs_per_block=1, **_SMALL))


def _bank_shapes(spec):
    return sorted({r.shape for r in build_layout(spec).records if len(r.shape) == 3})


def test_bank_shapes_cover_projections_and_tall_first_layer():
    shapes = _bank_shapes(ArchSpec())
    assert (165, 1, 1) in shapes
    assert {(33, 1, f) for f in (4, 8, 16, 32, 64)} <= set(shapes)
    assert (33, 165, 64) in shapes


@pytest.mark.parametrize("spec", _INIT_ARCHS, ids=("default", "tiny", "3x1"))
def test_orthogonal_init_matches_householder_reference(spec):
    # Shifted Cholesky QR and sign-fixed Householder QR give the same
    # factor; they differ only in rounding.
    for shape in _bank_shapes(spec):
        for seed in range(3):
            w = _orthogonal(shape, np.random.default_rng(seed))
            ref = orthogonal_reference(shape, np.random.default_rng(seed))
            assert w.shape == shape and w.flags.c_contiguous
            assert np.abs(w - ref).max() <= 1e-13, (shape, seed)


def _conditioned(rows, cols, kappa, seed):
    """A [rows, cols] matrix with singular values log-spaced from 1 down to
    1 / kappa."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return (u * np.logspace(0, -np.log10(kappa), k)) @ v.T


# [32, 33] is the wide orientation of the worst-conditioned default bank,
# [33, 1, 32]; [33, 10560] is the largest, [33, 165, 64]. Past about
# 1 / (u sqrt(11 m k)), 4e12 at the largest, the shifted pass leaves the
# plain passes a factor too ill-conditioned to factor.
@pytest.mark.parametrize("rows, cols, kappa", [
    *((32, 33, kappa) for kappa in (1e2, 1e8, 1e14)),
    *((33, 32, kappa) for kappa in (1e2, 1e8, 1e14)),
    *((33, 10560, kappa) for kappa in (1e2, 1e8, 1e12)),
])
def test_orthonormalize_ill_conditioned(rows, cols, kappa):
    for seed in range(3):
        a = _conditioned(rows, cols, kappa, seed)
        w = a.copy()
        orthonormalize(w)
        if rows > cols:
            a, w = a.T, w.T
        assert np.abs(w @ w.T - np.eye(w.shape[0])).max() <= 1e-13
        # a = L @ w with L lower triangular with a positive diagonal.
        lower = a @ w.T
        assert np.abs(np.triu(lower, 1)).max() <= 1e-13
        assert (np.diag(lower) > 0).all()

