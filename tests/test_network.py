import json
import re
import tracemalloc

import numpy as np
import pytest

from fewts import kernels, network
from fewts.errors import CheckpointError, ConfigError, UsageError
from fewts.network import (
    ArchSpec,
    ResNetModel,
    backward_batch,
    bn_site_names,
    build_layout,
    build_model,
    checkpoint_bytes,
    embed_batch,
    load_checkpoint,
    save_checkpoint,
)
from fewts.params import ParamSet
from fewts.triplet import enumerate_valid_triplets, triplet_loss, triplet_loss_grad

from helpers import (
    bn_sites_reference,
    freeze_mask_reference,
    max_rel_err,
    numeric_grad,
    orthogonal_reference,
    version_1_checkpoint,
)

TINY = ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(2, 3), filters_per_length=2)


def tiny_model(seed=0):
    return build_model(TINY, np.random.default_rng(seed))


def set_bn_passthrough(model):
    """Initialized buffers with mean 0 / var 1, so infer-mode BN is a fixed
    near-identity rescaling."""
    model.bn[:, 0], model.bn[:, 1] = 0.0, 1.0
    model.bn_updates = 1


# ---------------------------------------------------------------------------
# Architecture bookkeeping
# ---------------------------------------------------------------------------


def test_arch_spec_rejects_repeated_filter_lengths():
    with pytest.raises(ConfigError, match="filter_lengths repeats length 4"):
        ArchSpec(filter_lengths=(4, 4))
    with pytest.raises(ConfigError, match="repeats length 8"):
        ArchSpec(filter_lengths=(8, 5, 8))
    # The smallest repeated length is named, in one pass over a long list,
    # and the message gives the list's size, not the list.
    with pytest.raises(ConfigError, match="repeats length 7 in a list of 40002$") as err:
        ArchSpec(filter_lengths=tuple(range(40_000, 0, -1)) + (9, 7))
    assert len(str(err.value)) < 80


def test_default_spec_matches_training_scale():
    spec = ArchSpec()
    assert spec.channels == 165
    assert spec.conv_layers == 4


def test_param_count_tiny_spec_hand_counted():
    # Layer 0: (2x1x2 + 2x1x3) weights + 4 gamma + 4 beta = 18
    # Layer 1: (2x4x2 + 2x4x3) weights + 4 gamma + 4 beta = 48
    # Projection: 4x1x1 weights + 4 gamma + 4 beta = 12
    assert build_layout(TINY).total_size == 78


def test_param_count_single_filter_closed_form():
    # One block, one length f, one filter: m = 1 = input channels, so no
    # projection. Count = 2 * (f + 2).
    for f in (1, 3, 5):
        spec = ArchSpec(blocks=1, convs_per_block=2, filter_lengths=(f,), filters_per_length=1)
        assert build_layout(spec).total_size == 2 * (f + 2)
        assert bn_site_names(spec) == ["b0.c0", "b0.c1"]


def test_projection_exists_only_on_channel_change():
    layout = build_layout(ArchSpec(blocks=2, convs_per_block=2, filter_lengths=(2,),
                                   filters_per_length=3))
    names = [r.name for r in layout.records]
    assert "b0.proj.w" in names
    assert "b1.proj.w" not in names


def test_build_model_deterministic_by_seed():
    a = build_model(TINY, np.random.default_rng(5))
    b = build_model(TINY, np.random.default_rng(5))
    assert a.params.values.tobytes() == b.params.values.tobytes()
    c = build_model(TINY, np.random.default_rng(6))
    assert a.params.values.tobytes() != c.params.values.tobytes()


def record_values(params, name):
    rec = next(r for r in params.layout.records if r.name == name)
    return params.values[rec.offset : rec.offset + rec.size].reshape(rec.shape)


@pytest.mark.parametrize("spec", [ArchSpec(), TINY], ids=["default", "tiny"])
def test_build_model_draws_each_bank_as_orthogonal_init_does(spec):
    # Banks drawn in record order from one stream, each within rounding of
    # the sign-fixed Householder factor; gamma 1, beta 0.
    model = build_model(spec, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    for rec in model.params.layout.records:
        got = record_values(model.params, rec.name)
        if len(rec.shape) == 3:
            assert np.abs(got - orthogonal_reference(rec.shape, rng)).max() <= 1e-13, rec.name
        else:
            assert np.array_equal(got, np.full(rec.shape, rec.name.endswith("gamma") * 1.0))


def test_build_model_init_structure():
    model = tiny_model()
    assert np.array_equal(record_values(model.params, "b0.c0.gamma"), np.ones(4))
    assert np.array_equal(record_values(model.params, "b0.c0.beta"), np.zeros(4))
    w = record_values(model.params, "b0.c1.w2").reshape(2, 8)
    assert np.abs(w @ w.T - np.eye(2)).max() < 1e-10
    # Uninitialized BN buffers: mean 0 and variance 1 at each of the 3 sites.
    assert model.bn_updates == 0
    assert np.array_equal(model.bn, np.stack([np.zeros((3, 4)), np.ones((3, 4))], axis=1))


def test_model_rejects_bn_buffers_of_another_shape():
    model = tiny_model()
    with pytest.raises(ConfigError, match=re.escape("BN buffers must be [3, 2, 4], got [2, 2, 4]")):
        ResNetModel(TINY, model.params, model.bn[1:])


# ---------------------------------------------------------------------------
# Forward contracts
# ---------------------------------------------------------------------------


def test_zero_weights_give_zero_embedding():
    model = tiny_model()
    model.set_params(ParamSet(model.params.layout))  # all zero, incl. gamma
    x = np.random.default_rng(0).standard_normal((3, 10))
    z = embed_batch(model, x, mode="train")
    assert np.allclose(z, 0.0, atol=1e-12)
    # Buffers got estimated during the train pass, so infer works too.
    assert np.allclose(embed_batch(model, x[:1])[0], 0.0, atol=1e-12)


def test_embedding_shape_and_batch_consistency():
    model = tiny_model(1)
    rng = np.random.default_rng(2)
    series = [rng.standard_normal(9) for _ in range(3)]
    embed_batch(model, series, mode="train")  # initialize buffers
    batched = embed_batch(model, series, mode="infer")
    assert batched.shape == (3, 4)
    for i, s in enumerate(series):
        assert batched[i].tobytes() == embed_batch(model, s[None])[0].tobytes()


def test_infer_chunks_match_single_rows_bitwise(monkeypatch):
    # 7 rows of T=20 in chunks of 3 rows: two full chunks and a partial one.
    model = tiny_model(4)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((7, 20))
    embed_batch(model, x, mode="train")
    monkeypatch.setattr(network, "_INFER_CHUNK_CELLS", 3 * 20)
    batched = embed_batch(model, x, mode="infer")
    assert batched.shape == (7, 4)
    for i, s in enumerate(x):
        assert batched[i].tobytes() == embed_batch(model, s[None])[0].tobytes()


def test_split_infer_chunks_match_single_rows_bitwise(monkeypatch):
    # As above, with every conv layer cut into parts over 3 workers.
    monkeypatch.setattr(kernels, "_SPLIT_MACS", 0)
    monkeypatch.setattr(kernels, "_WORKERS", 3)
    test_infer_chunks_match_single_rows_bitwise(monkeypatch)


def test_train_mode_rejects_mixed_lengths():
    model = tiny_model(3)
    rng = np.random.default_rng(4)
    series = [rng.standard_normal(7), rng.standard_normal(12), rng.standard_normal(7)]
    with pytest.raises(ValueError):
        embed_batch(model, series, mode="train")
    assert model.bn_updates == 0


def test_train_mode_duplicated_series_identical_rows():
    model = tiny_model(5)
    rng = np.random.default_rng(6)
    s = rng.standard_normal(8)
    other = rng.standard_normal(8)
    z = embed_batch(model, [s, other, s.copy()], mode="train")
    assert z[0].tobytes() == z[2].tobytes()


def test_positive_homogeneity_with_passthrough_bn():
    # Bias-free ReLU network with BN fixed at mean 0 / var 1 is positively
    # homogeneous in its input.
    model = tiny_model(7)
    set_bn_passthrough(model)
    x = np.random.default_rng(8).standard_normal(11)
    za = embed_batch(model, x[None])[0]
    zb = embed_batch(model, 3.5 * x[None])[0]
    assert np.allclose(zb, 3.5 * za, rtol=1e-10, atol=1e-12)


def test_time_reversal_changes_embedding():
    model = tiny_model(9)
    x = np.random.default_rng(10).standard_normal(16)
    embed_batch(model, [x, x[::-1]], mode="train")
    za = embed_batch(model, x[None])[0]
    zb = embed_batch(model, x[None, ::-1])[0]
    assert not np.allclose(za, zb, atol=1e-6)


def test_infer_before_buffer_init_errors():
    model = tiny_model()
    with pytest.raises(UsageError, match="infer mode before any BN running-stat update"):
        embed_batch(model, np.ones((1, 8)))
    # A train forward that keeps the buffers does not initialize them.
    embed_batch(model, np.random.default_rng(1).standard_normal((4, 8)), mode="train",
                update_buffers=False)
    with pytest.raises(UsageError, match="infer mode before any BN running-stat update"):
        embed_batch(model, np.ones((1, 8)))


def test_train_mode_needs_two_series():
    model = tiny_model()
    with pytest.raises(ConfigError):
        embed_batch(model, [np.ones(8)], mode="train")


def test_update_buffers_flag():
    model = tiny_model(11)
    rng = np.random.default_rng(12)
    series = [rng.standard_normal(8) for _ in range(4)]
    fresh = model.bn.tobytes()
    embed_batch(model, series, mode="train", update_buffers=False)
    assert model.bn.tobytes() == fresh and model.bn_updates == 0
    embed_batch(model, series, mode="train")
    assert model.bn.tobytes() != fresh and model.bn_updates == 1
    once = model.bn.tobytes()
    embed_batch(model, series[::-1], mode="train", update_buffers=False)
    assert model.bn.tobytes() == once and model.bn_updates == 1


def test_bn_running_stat_momentum(monkeypatch):
    # Each train forward folds every site's batch statistics into the
    # buffers at once: the first adopts them, later ones blend 0.9 / 0.1.
    model = tiny_model(13)
    rng = np.random.default_rng(14)
    seen = []

    real = kernels.batchnorm_forward

    def spy(*args):
        out = real(*args)
        seen.append(out[1].copy())
        return out

    monkeypatch.setattr(kernels, "batchnorm_forward", spy)
    embed_batch(model, rng.standard_normal((4, 8)), mode="train")
    assert model.bn.tobytes() == np.stack(seen).tobytes() and model.bn_updates == 1
    first, seen[:] = model.bn.copy(), []
    embed_batch(model, rng.standard_normal((4, 8)), mode="train")
    # The batch's weight is 1 - 0.9 as a float, which is not 0.1.
    assert model.bn.tobytes() == (0.9 * first + (1.0 - 0.9) * np.stack(seen)).tobytes()
    assert model.bn_updates == 2
    assert not np.array_equal(model.bn, first)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def embedding_loss_for_fd(model, series, labels, margin):
    def loss_from(flat):
        probe = model.copy()
        probe.set_params(ParamSet(model.params.layout, flat.copy()))
        z = embed_batch(probe, series, mode="train", update_buffers=False)
        trips = enumerate_valid_triplets(labels)
        return triplet_loss(z, trips, margin)[0]

    return loss_from


def analytic_grad(model, series, labels, margin):
    probe = model.copy()
    z, cache = embed_batch(probe, series, mode="train", return_cache=True,
                           update_buffers=False)
    trips = enumerate_valid_triplets(labels)
    dz = triplet_loss_grad(z, trips, margin)
    return backward_batch(probe, cache, dz)


def test_end_to_end_gradient_uniform_lengths():
    rng = np.random.default_rng(21)
    model = tiny_model(20)
    series = [rng.standard_normal(8) for _ in range(4)]
    labels = np.array([0, 0, 1, 1])
    margin = 0.5
    g = analytic_grad(model, series, labels, margin)
    num = numeric_grad(embedding_loss_for_fd(model, series, labels, margin),
                       model.params.values)
    assert max_rel_err(g.values, num) < 1e-4


def test_end_to_end_gradient_two_blocks():
    spec = ArchSpec(blocks=2, convs_per_block=2, filter_lengths=(2, 3), filters_per_length=1)
    model = build_model(spec, np.random.default_rng(30))
    rng = np.random.default_rng(31)
    series = [rng.standard_normal(7) for _ in range(4)]
    labels = np.array([0, 0, 1, 1])
    margin = 2.0
    g = analytic_grad(model, series, labels, margin)
    num = numeric_grad(embedding_loss_for_fd(model, series, labels, margin),
                       model.params.values)
    assert max_rel_err(g.values, num) < 1e-4


def test_default_arch_directional_derivative():
    # The default arch runs the wide conv plans (one-tap and stacked GEMMs,
    # per-ring sums, a chunked backward), BN and the 1 -> 165 projection,
    # which the small archs above never reach. Compare (L(p + hv) -
    # L(p - hv)) / 2h with g.v for one seeded unit direction v. Roundoff
    # alone gives about eps * |L| / h, 1e-8 relative here; at h = 1e-4 or
    # 1e-3 a ReLU or hinge kink falls inside the step and the error reads
    # 1e-3, so h stays at 1e-5, where the error read 4e-9.
    rng = np.random.default_rng(5)
    model = build_model(ArchSpec(), rng)
    series = rng.standard_normal((6, 128))
    labels = np.array([0, 0, 1, 1, 2, 2])
    margin = 0.5
    slope = analytic_grad(model, series, labels, margin).values
    v = rng.standard_normal(slope.size)
    v /= np.linalg.norm(v)
    loss, h = embedding_loss_for_fd(model, series, labels, margin), 1e-5
    numeric = (loss(model.params.values + h * v) - loss(model.params.values - h * v)) / (2 * h)
    assert abs(numeric - slope @ v) < 1e-6 * abs(slope @ v)


def test_stale_cache_rejected():
    model = tiny_model(24)
    rng = np.random.default_rng(25)
    series = [rng.standard_normal(8) for _ in range(3)]
    z, cache = embed_batch(model, series, mode="train", return_cache=True)
    model.set_params(model.params.copy())
    with pytest.raises(UsageError):
        backward_batch(model, cache, np.zeros_like(z))


def test_backward_consumes_its_cache():
    model = tiny_model(29)
    series = np.random.default_rng(30).standard_normal((4, 8))
    z, cache = embed_batch(model, series, mode="train", return_cache=True)
    first = backward_batch(model, cache, np.ones_like(z)).values
    with pytest.raises(UsageError, match="consumed"):
        backward_batch(model, cache, np.ones_like(z))
    # A fresh forward gives a cache whose backward matches the first.
    z, cache = embed_batch(model, series, mode="train", return_cache=True, update_buffers=False)
    assert backward_batch(model, cache, np.ones_like(z)).values.tobytes() == first.tobytes()


def test_backward_checks_the_upstream_shape():
    model = tiny_model(31)
    series = np.random.default_rng(32).standard_normal((4, 8))
    z, cache = embed_batch(model, series, mode="train", return_cache=True)
    assert z.shape == (4, TINY.channels)
    for shape in ((4, TINY.channels + 1), (3, TINY.channels), (4,)):
        with pytest.raises(ConfigError, match=re.escape(f"upstream must be [4, {TINY.channels}]")):
            backward_batch(model, cache, np.ones(shape))
    # A refused upstream leaves the cache for a correct one.
    backward_batch(model, cache, np.ones_like(z))
    with pytest.raises(UsageError, match="consumed"):
        backward_batch(model, cache, np.ones_like(z))


def test_cache_not_transferable_between_models():
    model = tiny_model(26)
    rng = np.random.default_rng(27)
    series = [rng.standard_normal(8) for _ in range(3)]
    z, cache = embed_batch(model, series, mode="train", return_cache=True)
    with pytest.raises(UsageError):
        backward_batch(model.copy(), cache, np.zeros_like(z))


def test_infer_mode_has_no_cache():
    model = tiny_model(28)
    series = [np.ones(8), np.zeros(8)]
    embed_batch(model, series, mode="train")
    with pytest.raises(UsageError):
        embed_batch(model, series, mode="infer", return_cache=True)


# ---------------------------------------------------------------------------
# Freezing
# ---------------------------------------------------------------------------


def with_frozen(model, frozen_layers):
    return ResNetModel(model.spec, model.params.copy(), frozen_layers=frozen_layers)


def triplet_grads(model, series):
    """backward_batch of the margin-5 triplet loss over a 2+2-labelled batch."""
    z, cache = embed_batch(model, series, mode="train", return_cache=True)
    triplets = enumerate_valid_triplets(np.array([0, 0, 1, 1]))
    dz = triplet_loss_grad(z, triplets, 5.0)
    return backward_batch(model, cache, dz).values


def assert_frozen_exactly(grads, mask, layout):
    """Zero gradient under the mask, and some nonzero entry in every record
    outside it."""
    assert not grads[mask].any()
    for rec in layout.records:
        part = slice(rec.offset, rec.offset + rec.size)
        if not mask[part].any():
            assert grads[part].any(), rec.name


def test_freeze_mask_layer_counts():
    layout = build_layout(TINY)
    model = tiny_model(30)
    series = np.random.default_rng(31).standard_normal((4, 8))
    # First conv layer only: weights (4 + 6) + gamma 4 + beta 4 = 18;
    # freezing the whole block pulls in the projection.
    for frozen, count in ((0, 0), (1, 18), (2, layout.total_size)):
        mask = freeze_mask_reference(TINY, layout, frozen)
        assert mask.sum() == count
        assert_frozen_exactly(triplet_grads(with_frozen(model, frozen), series), mask, layout)


def test_freeze_mask_projection_joins_at_block_boundary():
    spec = ArchSpec(blocks=2, convs_per_block=2, filter_lengths=(2,), filters_per_length=2)
    model = build_model(spec, np.random.default_rng(32))
    series = np.random.default_rng(33).standard_normal((4, 8))
    rec = next(r for r in build_layout(spec).records if r.name == "b0.proj.w")
    proj = slice(rec.offset, rec.offset + rec.size)
    assert triplet_grads(with_frozen(model, 1), series)[proj].any()
    assert not triplet_grads(with_frozen(model, 2), series)[proj].any()
    assert not triplet_grads(with_frozen(model, 4), series).any()


# Every (blocks, convs_per_block) in 1..3 x 1..3: the BN sites with each of
# these filter lengths and filters per length, and the frozen gradient
# entries at every frozen_layers.
ORACLE_LENGTHS = ((1,), (2, 3), (8, 5), (8, 4, 16), (4, 8, 16, 32, 64))
ORACLE_FILTERS = (1, 2, 33)


@pytest.mark.parametrize("blocks", (1, 2, 3))
@pytest.mark.parametrize("convs_per_block", (1, 2, 3))
def test_layout_derived_sites_and_masks_match_walks(blocks, convs_per_block):
    for lengths in ORACLE_LENGTHS:
        for filters in ORACLE_FILTERS:
            spec = ArchSpec(blocks=blocks, convs_per_block=convs_per_block,
                            filter_lengths=lengths, filters_per_length=filters)
            assert bn_site_names(spec) == bn_sites_reference(spec)
            assert_plan_covers_layout(spec)
    # The backward stops below the lowest unfrozen layer; what it returns
    # must be the full backward's gradient with the walk's entries zeroed.
    spec = ArchSpec(blocks=blocks, convs_per_block=convs_per_block,
                    filter_lengths=(1, 3), filters_per_length=2)
    layout = build_layout(spec)
    model = build_model(spec, np.random.default_rng(36))
    series = np.random.default_rng(37).standard_normal((4, 9))
    full = triplet_grads(model, series)
    for frozen in range(spec.conv_layers + 1):
        want = full.copy()
        want[freeze_mask_reference(spec, layout, frozen)] = 0.0
        got = triplet_grads(with_frozen(model, frozen), series)
        assert got.tobytes() == want.tobytes(), frozen


def assert_plan_covers_layout(spec):
    """The plan's layers cut every layout record once, in record order: each
    layer's banks in filter_lengths order with the records' shapes, then its
    gamma and beta; a projection sits exactly where the walk puts one."""
    plan = network._step_plan(spec)
    cuts = []
    for layer in plan.layers:
        lengths = [shape[2] for _, shape in layer.banks]
        assert lengths == ([1] if layer.site.endswith(".proj") else list(spec.filter_lengths))
        cuts += [*layer.banks, (layer.gamma, (spec.channels,)), (layer.beta, (spec.channels,))]
    assert cuts == [(slice(r.offset, r.offset + r.size), r.shape) for r in plan.layout.records]
    walked = [layer.site for convs, proj in plan.blocks
              for layer in (*convs, *([proj] if proj else []))]
    assert walked == [layer.site for layer in plan.layers] == bn_sites_reference(spec)
    assert [proj is not None for _, proj in plan.blocks] == [
        f"b{bi}.proj" in bn_sites_reference(spec) for bi in range(spec.blocks)]


def test_freeze_out_of_range_rejected():
    params = tiny_model().params
    for frozen in (3, -1):
        message = re.escape(f"frozen_layers must be in [0, 2], got {frozen}")
        with pytest.raises(ConfigError, match=message):
            ResNetModel(TINY, params, frozen_layers=frozen)


def test_copy_keeps_frozen_layers():
    model = with_frozen(tiny_model(38), 1)
    assert model.copy().frozen_layers == 1
    assert tiny_model(38).frozen_layers == 0


def test_frozen_gradients_are_zero():
    model = with_frozen(tiny_model(32), 1)
    mask = freeze_mask_reference(TINY, build_layout(TINY), 1)
    g = triplet_grads(model, np.random.default_rng(33).standard_normal((4, 8)))
    assert np.array_equal(g[mask], np.zeros(int(mask.sum())))
    assert np.abs(g[~mask]).max() > 0


@pytest.mark.parametrize("frozen_layers", range(5))
def test_frozen_backward_matches_masked_full_backward_bitwise(frozen_layers):
    # The backward stops at the lowest unfrozen layer; what it returns must
    # be the full backward's gradient with the frozen entries zeroed.
    spec = ArchSpec(blocks=2, convs_per_block=2, filter_lengths=(3, 2), filters_per_length=2)
    model = build_model(spec, np.random.default_rng(34))
    series = np.random.default_rng(35).standard_normal((4, 9))
    want = triplet_grads(model, series)
    got = triplet_grads(with_frozen(model, frozen_layers), series)
    want[freeze_mask_reference(spec, build_layout(spec), frozen_layers)] = 0.0
    assert got.tobytes() == want.tobytes()
    assert frozen_layers == spec.conv_layers or np.abs(got).max() > 0


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = tiny_model(40)
    rng = np.random.default_rng(41)
    embed_batch(model, [rng.standard_normal(8) for _ in range(4)], mode="train")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.spec == model.spec
    assert loaded.params.values.tobytes() == model.params.values.tobytes()
    assert loaded.bn.tobytes() == model.bn.tobytes()
    assert loaded.bn_updates == model.bn_updates == 1
    # Saving the loaded model reproduces the file byte for byte.
    assert checkpoint_bytes(loaded) == path.read_bytes()


def test_checkpoint_body_is_params_then_bn_buffers_with_one_copy():
    # The body is the flat parameter vector, then each BN site's running
    # mean and variance in site order, all little-endian float64; building
    # it allocates little beyond the result itself.
    spec = ArchSpec(blocks=2, convs_per_block=2, filter_lengths=(8, 5), filters_per_length=16)
    model = build_model(spec, np.random.default_rng(46))
    rng = np.random.default_rng(47)
    embed_batch(model, [rng.standard_normal(32) for _ in range(4)], mode="train")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        blob = checkpoint_bytes(model)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    head, body = blob.split(b"\n", 1)
    sites = bn_site_names(spec)
    assert [(entry["name"], entry["updates"]) for entry in json.loads(head)["bn"]] == [
        (name, 1) for name in sites]
    assert model.bn.shape == (len(sites), 2, spec.channels)
    want = model.params.values.tobytes() + model.bn.tobytes()
    assert body == want
    assert peak <= len(blob) + 64 * 1024


def test_checkpoint_refuses_format_version_1(tmp_path):
    # Format 1 stored a bias record per conv layer; there is no mapping.
    path = tmp_path / "old.ckpt"
    path.write_bytes(version_1_checkpoint(tiny_model(46)))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: unsupported format version 1")):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\n\x00\x01")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("edit", [
    lambda h: _without(h, "arch"),
    lambda h: [h],
    lambda h: {**h, "arch": {**h["arch"], "filter_lengths": "x"}},
    lambda h: {**h, "bn": [_without(b, "updates") for b in h["bn"]]},
    lambda h: {**h, "arch": {**h["arch"], "blocks": 0}},
    lambda h: {**h, "arch": {**h["arch"], "blocks": float("inf")}},
    lambda h: {**h, "bn": [{**b, "updates": -1} for b in h["bn"]]},
    lambda h: {**h, "bn": [{**b, "updates": True} for b in h["bn"]]},
    lambda h: {**h, "bn": [{**b, "updates": 1.5} for b in h["bn"]]},
    lambda h: {**h, "extra": 1},
    lambda h: {**h, "dtype": "<f4"},
    lambda h: {**h, "bn": [{**b, "channels": b["channels"] + 1} for b in h["bn"]]},
    lambda h: {**h, "bn": h["bn"][:-1]},
    lambda h: {**h, "param_count": h["param_count"] + 1},
    lambda h: {**h, "layout": h["layout"][::-1]},
], ids=["no-arch", "json-list", "filter-lengths-string", "bn-without-updates", "zero-blocks",
        "infinite-blocks", "negative-updates", "boolean-updates", "fractional-updates",
        "extra-key", "wrong-dtype", "wrong-bn-channels", "missing-bn-site", "wrong-param-count",
        "reordered-layout"])
def test_checkpoint_malformed_header_names_path(tmp_path, edit):
    head, body = checkpoint_bytes(tiny_model(44)).split(b"\n", 1)
    path = tmp_path / "malformed.ckpt"
    path.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + body)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: {**h, "arch": {**h["arch"], "blocks": float(h["arch"]["blocks"])}},
    lambda h: {**h, "layout": [{**h["layout"][0], "offset": 0.0}, *h["layout"][1:]]},
], ids=["float-blocks", "float-offset"])
def test_checkpoint_refuses_a_header_in_another_form(tmp_path, edit):
    # Equal values written another way would load and re-save to other
    # bytes; only the form saving writes loads.
    model = tiny_model(50)
    embed_batch(model, np.random.default_rng(51).standard_normal((4, 8)), mode="train")
    blob = checkpoint_bytes(model)
    head, body = blob.split(b"\n", 1)
    path = tmp_path / "model.ckpt"
    path.write_bytes(json.dumps(json.loads(head), sort_keys=True).encode() + b"\n" + body)
    assert checkpoint_bytes(load_checkpoint(path)) == blob
    path.write_bytes(json.dumps(edit(json.loads(head)), sort_keys=True).encode() + b"\n" + body)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: header does not match")):
        load_checkpoint(path)


def test_checkpoint_refuses_disagreeing_bn_update_counts(tmp_path):
    # The model holds one update count; a header whose sites disagree on it
    # has no model to load into.
    model = tiny_model(52)
    embed_batch(model, np.random.default_rng(53).standard_normal((4, 8)), mode="train")
    head, body = checkpoint_bytes(model).split(b"\n", 1)
    header = json.loads(head)
    header["bn"][-1]["updates"] = 2
    path = tmp_path / "model.ckpt"
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: header does not match")):
        load_checkpoint(path)


# 40,000 distinct filter lengths would be 80,000 filter banks in the tiny
# arch's two layers, against its 11 stored records.
@pytest.mark.parametrize("key,value", [("blocks", 10 ** 9), ("convs_per_block", 10 ** 9),
                                       ("filter_lengths", list(range(1, 40_001)))],
                         ids=["blocks", "convs_per_block", "filter_lengths"])
def test_checkpoint_rejects_oversized_arch_before_layout(tmp_path, monkeypatch, key, value):
    head, body = checkpoint_bytes(tiny_model(45)).split(b"\n", 1)
    header = json.loads(head)
    header["arch"][key] = value
    path = tmp_path / "huge.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)

    def refuse(spec):
        raise AssertionError("laid out an oversized arch")

    # Laying out 10^9 layers would exhaust memory; the check must come first.
    monkeypatch.setattr(network, "_step_plan", refuse)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("stat,value", [("var", -1.0), ("var", np.nan), ("var", np.inf),
                                        ("mean", np.nan)],
                         ids=["negative-var", "nan-var", "inf-var", "nan-mean"])
def test_checkpoint_refuses_bad_bn_statistics(tmp_path, stat, value):
    # Edited on the model before saving, so only the statistics are wrong.
    model = tiny_model(48)
    rng = np.random.default_rng(49)
    embed_batch(model, rng.standard_normal((4, 8)), mode="train")
    site = bn_site_names(model.spec)[0]
    model.bn[0, ("mean", "var").index(stat), 0] = value
    path = tmp_path / "bad_bn.ckpt"
    path.write_bytes(checkpoint_bytes(model))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: BN site {site!r}")):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_non_finite_parameters(tmp_path, value):
    model = tiny_model(50)
    records = model.params.layout.records
    # One bad entry in the second bank and a later one: the error names the first.
    model.params.values[records[1].offset + 1] = value
    model.params.values[records[-1].offset] = np.nan
    path = tmp_path / "bad_param.ckpt"
    path.write_bytes(checkpoint_bytes(model))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: parameter record {records[1].name!r}")):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    model = tiny_model(42)
    blob = checkpoint_bytes(model)
    path = tmp_path / "short.ckpt"
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    model = tiny_model(43)
    path = tmp_path / "iter_1.ckpt"
    save_checkpoint(model, path)
    before = path.read_bytes()

    def fail(_model):
        raise OSError("disk full")

    monkeypatch.setattr(network, "checkpoint_bytes", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert load_checkpoint(path).params.values.tobytes() == model.params.values.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["iter_1.ckpt"]
