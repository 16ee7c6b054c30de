"""Shared test oracles: finite differences, brute-force DTW, triplet
enumeration by exhaustive loops. These deliberately avoid the library's own
code paths so they can act as independent references."""

import json

import numpy as np

FD_STEP = 1e-5


def numeric_grad(f, x, h=FD_STEP):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric):
    """Max-norm relative disagreement between two gradient vectors."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def brute_force_dtw(x, y):
    """Unbanded DTW with squared pointwise cost, full O(Tx*Ty) table."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    tx, ty = len(x), len(y)
    d = np.full((tx + 1, ty + 1), np.inf)
    d[0, 0] = 0.0
    for i in range(1, tx + 1):
        for j in range(1, ty + 1):
            # Multiply rather than ** 2: scalar pow can be off by one ulp,
            # and the equivalence contract is bitwise.
            diff = x[i - 1] - y[j - 1]
            d[i, j] = diff * diff + min(d[i - 1, j - 1], d[i - 1, j], d[i, j - 1])
    return float(d[tx, ty])


def banded_dtw_reference(x: np.ndarray, y: np.ndarray, w: int) -> float:
    """Scalar two-row banded DTW, the loop the library's wavefront kernel
    replaced; the kernel must match it byte for byte on finite inputs."""
    # Two-row DP over the |i-j| <= w diagonal band; cells outside start as
    # +inf so insert/delete moves cannot leave it.
    tx = x.shape[0]
    ty = y.shape[0]
    prev = np.full(ty + 1, np.inf)
    curr = np.full(ty + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, tx + 1):
        curr[:] = np.inf
        lo = i - w if i - w > 1 else 1
        hi = i + w if i + w < ty else ty
        for j in range(lo, hi + 1):
            d = x[i - 1] - y[j - 1]
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if curr[j - 1] < best:
                best = curr[j - 1]
            curr[j] = d * d + best
        prev, curr = curr, prev
    return prev[ty]


def brute_force_triplets(labels):
    """Exhaustive valid-triplet enumeration in lexicographic order."""
    labels = list(labels)
    n = len(labels)
    out = []
    for a in range(n):
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            for neg in range(n):
                if labels[neg] != labels[a]:
                    out.append((a, p, neg))
    return out


def triplet_count_by_class(class_sizes) -> int:
    """Closed-form valid-triplet count from per-class sizes."""
    c = np.asarray(class_sizes, dtype=np.int64)
    total = int(c.sum())
    return int((c * (c - 1) * (total - c)).sum())


def sequential_squared_ed(x, y):
    """Squared Euclidean distance accumulated strictly left to right, matching
    the order a width-0 DTW band adds its diagonal costs."""
    total = 0.0
    for xi, yi in zip(x, y):
        diff = xi - yi
        total += diff * diff
    return total


def write_ucr(bundle, root, name=None):
    """Write a DatasetBundle as <root>/<name>/<name>_{TRAIN,TEST}.tsv in the
    label-first tab-separated archive layout."""
    name = name or bundle.name
    directory = root / name
    directory.mkdir(parents=True, exist_ok=True)
    for tag, ds in (("TRAIN", bundle.train), ("TEST", bundle.test)):
        lines = []
        for row, label in zip(ds.values, ds.labels):
            lines.append("\t".join([ds.label_names[label]] + [f"{v:.8f}" for v in row]))
        (directory / f"{name}_{tag}.tsv").write_text("\n".join(lines) + "\n")
    return directory


def multiscale_conv_reference(x, banks, upstream):
    """Per-bank im2col convolution, the loop the library's multi-bank tap
    kernel replaced. Returns ``(out, dx, [dbank_i])`` for ``x [b, c, T]``,
    banks ``[o_i, c, f_i]`` and an ``upstream`` gradient of the output's
    shape."""
    from numpy.lib.stride_tricks import sliding_window_view

    def windows(v, f, pad_l, pad_r):
        # [b, c, T] -> [b, T', c*f] windows of the zero-padded signal.
        vp = np.pad(v, ((0, 0), (0, 0), (pad_l, pad_r)))
        win = sliding_window_view(vp, f, axis=2)
        nb, nc, nt, _ = win.shape
        return win.transpose(0, 2, 1, 3).reshape(nb, nt, nc * f)

    x = np.asarray(x, dtype=np.float64)
    b, c, t = x.shape
    outs, dws = [], []
    dx = np.zeros_like(x)
    ofs = 0
    for w in banks:
        o, _, f = w.shape
        pad_l, pad_r = (f - 1 + 1) // 2, (f - 1) // 2
        g = upstream[:, ofs : ofs + o, :]
        win = windows(x, f, pad_l, pad_r)
        outs.append((win @ w.reshape(o, c * f).T).transpose(0, 2, 1))
        g2 = g.transpose(1, 0, 2).reshape(o, b * t)
        dws.append((g2 @ win.reshape(b * t, c * f)).reshape(o, c, f))
        # dx: full correlation of the upstream with the flipped filters.
        gwin = windows(g, f, f - 1, f - 1)
        wf = w[:, :, ::-1].transpose(1, 0, 2).reshape(c, o * f)
        dx += (gwin @ wf.T).transpose(0, 2, 1)[:, :, pad_l : pad_l + t]
        ofs += o
    return np.concatenate(outs, axis=1), dx, dws


def bn_sites_reference(spec):
    """BN site names by walking the architecture: every conv layer has one,
    and a block whose input channel count differs from ``spec.channels``
    (only block 0, fed one channel) adds its projection's."""
    names = []
    for bi in range(spec.blocks):
        for j in range(spec.convs_per_block):
            names.append(f"b{bi}.c{j}")
        if (1 if bi == 0 else spec.channels) != spec.channels:
            names.append(f"b{bi}.proj")
    return names


def freeze_mask_reference(spec, layout, frozen_layers):
    """Freeze mask by marking records one by one: the filters, gamma and
    beta of each of the lowest ``frozen_layers`` conv layers, and a
    block's projection once all of that block's layers are frozen."""
    mask = np.zeros(layout.total_size, dtype=bool)
    records = {r.name: r for r in layout.records}
    for bi in range(spec.blocks):
        for j in range(spec.convs_per_block):
            if bi * spec.convs_per_block + j >= frozen_layers:
                continue
            for f in spec.filter_lengths:
                rec = records[f"b{bi}.c{j}.w{f}"]
                mask[rec.offset : rec.offset + rec.size] = True
            for leaf in ("gamma", "beta"):
                rec = records[f"b{bi}.c{j}.{leaf}"]
                mask[rec.offset : rec.offset + rec.size] = True
        if f"b{bi}.proj.w" in records and frozen_layers >= (bi + 1) * spec.convs_per_block:
            for leaf in ("w", "gamma", "beta"):
                rec = records[f"b{bi}.proj.{leaf}"]
                mask[rec.offset : rec.offset + rec.size] = True
    return mask


def adam_step_reference(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam step ``t`` as one numpy expression per quantity, the form the
    library's scratch-vector step replaced; it must match byte for byte.
    Returns ``(p, m, v)``."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    mhat = m / (1.0 - b1 ** t)
    vhat = v / (1.0 - b2 ** t)
    return p - lr * mhat / (np.sqrt(vhat) + eps), m, v


def inner_solve_reference(model, train_set, k, batch_size, inner_lr, margin, rng):
    """``training.inner_solve`` with Adam, step for step: the same batches,
    train-mode forward, batch-all triplet loss and backward, but each Adam
    step is ``adam_step_reference`` on copies, and the model gets a fresh
    ``ParamSet`` per step: the functional step that the in-place one
    replaced; it must match byte for byte. Returns the adapted model and
    ``(violations, loss)``."""
    from fewts.network import backward_batch, embed_batch
    from fewts.params import ParamSet
    from fewts.training import stratified_batch
    from fewts.triplet import enumerate_valid_triplets, triplet_loss, triplet_loss_grad

    work = model.copy()
    m = np.zeros(work.params.values.size)
    v = np.zeros_like(m)
    violations, loss = [], 0.0
    for t in range(1, k + 1):
        idx = stratified_batch(train_set.labels, batch_size, rng)
        z, cache = embed_batch(work, train_set.values[idx], mode="train", return_cache=True)
        triplets = enumerate_valid_triplets(train_set.labels[idx])
        loss, nviol = triplet_loss(z, triplets, margin)
        grads = backward_batch(work, cache, triplet_loss_grad(z, triplets, margin))
        p, m, v = adam_step_reference(work.params.values.copy(), grads.values.copy(),
                                      m.copy(), v.copy(), t, inner_lr)
        work.set_params(ParamSet(work.params.layout, p))
        violations.append(nviol)
    return work, (violations, float(loss))


def meta_update_reference(p, adapted, epsilon):
    """``p + epsilon * mean(adapted - p)`` with each column of deltas summed
    after ``np.sort``: the strided sort the library's sorting network
    replaced; it must match byte for byte."""
    deltas = np.array([a - p for a in adapted])
    deltas.sort(axis=0)
    return p + epsilon * (deltas.sum(axis=0) / len(adapted))


def tap_buffer_filter_grads_reference(x, banks, upstream):
    """Filter gradients of ``kernels.multiscale_conv_backward``, each
    group's GEMM result copied out tap by tap and bank by bank into zeros.
    It walks the kernel's own backward plan and stacks each group's upstream
    block [g, n, T, b] with ``np.stack`` of shifted slices, so it checks the
    blocks and the write-out, not the GEMMs, and must match byte for byte."""
    from fewts.kernels import _backward_plan, _conv_inputs

    x, banks, plan, parts = _conv_inputs(x, banks)
    b, c, t = x.shape
    taps = plan.pad_l + plan.pad_r + 1
    cols = plan.cols
    x0 = np.ascontiguousarray(x.transpose(1, 2, 0)).reshape(c, t * b)
    # Upstream by sorted channel, padded: flipped tap u reads gq[:, u : u + t].
    starts = np.cumsum([0] + [w.shape[0] for w in banks])
    sorted_up = np.concatenate([upstream[:, starts[i] : starts[i + 1]] for i in plan.order], axis=1)
    gq = np.pad(sorted_up.transpose(1, 2, 0), ((0, 0), (plan.pad_r, plan.pad_l), (0, 0)))
    out = [np.zeros(w.shape) for w in banks]
    for u, g, a in _backward_plan(plan.shapes, c, b, t, parts).groups:
        n = cols[-1] - cols[a]
        block = np.stack([gq[cols[a] :, u + k : u + k + t] for k in range(g)])
        dw = (x0 @ block.reshape(g * n, t * b).T).reshape(c, g, n)
        for k in range(g):
            s = taps - 1 - u - k  # the forward's buffer tap
            for j in range(a, len(plan.order)):
                d = s - plan.first[j]
                if 0 <= d < banks[plan.order[j]].shape[2]:
                    out[plan.order[j]][:, :, d] += dw[:, k, cols[j] - cols[a] : cols[j + 1] - cols[a]].T
    return out


def version_1_checkpoint(model) -> bytes:
    """``model`` as a format-1 checkpoint file: the conv layers then carried
    a ``b{i}.c{j}.bias`` record before their BN gamma, stored here as
    zeros."""
    from fewts.network import checkpoint_bytes

    head, body = checkpoint_bytes(model).split(b"\n", 1)
    header = json.loads(head)
    values = model.params.values
    records, chunks, offset = [], [], 0
    for rec in header["layout"]:
        size = int(np.prod(rec["shape"]))
        if ".c" in rec["name"] and rec["name"].endswith(".gamma"):
            records.append({"name": rec["name"][: -len("gamma")] + "bias",
                            "shape": rec["shape"], "offset": offset})
            chunks.append(np.zeros(size))
            offset += size
        records.append({**rec, "offset": offset})
        chunks.append(values[rec["offset"] : rec["offset"] + size])
        offset += size
    header.update(format_version=1, layout=records, param_count=offset)
    params = np.concatenate(chunks).astype("<f8").tobytes()
    return json.dumps(header, sort_keys=True).encode() + b"\n" + params + body[values.size * 8 :]


def znormalize_reference(x):
    """One series z-normalized with a scalar mean and std, as the library did
    before ``znormalize`` took a whole ``[n, T]`` split."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean()
    std = np.sqrt(((x - mean) ** 2).mean())
    if std < 1e-12:
        return np.zeros_like(x)
    return (x - mean) / std


def synthetic_reference(family, seed, n_classes, length, train_per_class, test_per_class,
                        noise=0.3):
    """A synthetic domain's splits built one series at a time, the loop the
    library's one-pass split builders replaced: ``family`` is ``"sine"``,
    ``"square"`` or ``"ar"`` (which ignores ``noise``). Returns
    ``(train_values, train_labels, test_values, test_labels)``."""
    from fewts.synthetic import AR_BURN_IN, SQUARE_CYCLES

    rng = np.random.default_rng(seed)
    t = np.arange(length) / length
    duties = np.linspace(0.15, 0.75, n_classes)
    coeffs = np.linspace(-0.85, 0.9, n_classes)

    def sine(c):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return np.sin(2.0 * np.pi * (c + 1) * t + phase) + noise * rng.standard_normal(length)

    def square(c):
        phase = rng.uniform(0.0, 1.0)
        frac = (t * SQUARE_CYCLES + phase) % 1.0
        wave = np.where(frac < duties[c], 1.0, -1.0)
        return wave + noise * rng.standard_normal(length)

    def ar(c):
        a = coeffs[c]
        x = np.empty(length + AR_BURN_IN)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(length + AR_BURN_IN)
        for i in range(1, length + AR_BURN_IN):
            x[i] = a * x[i - 1] + eps[i]
        return x[AR_BURN_IN:]

    make_one = {"sine": sine, "square": square, "ar": ar}[family]
    out = []
    for per_class in (train_per_class, test_per_class):
        rows, labels = [], []
        for c in range(n_classes):
            for _ in range(per_class):
                rows.append(znormalize_reference(make_one(c)))
                labels.append(c)
        out += [np.vstack(rows), np.array(labels, dtype=np.int64)]
    return tuple(out)


def orthogonal_reference(shape, rng):
    """The orthogonal init of one ``build_model`` bank by LAPACK Householder
    QR, as the library did before it used shifted Cholesky QR: the shorter
    side of the (out_ch, fan_in) draw made orthonormal, with the signs of
    R's diagonal folded into Q so that R's diagonal is positive."""
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    a = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a.T if rows <= cols else a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    w = q * d
    return np.ascontiguousarray((w.T if rows <= cols else w).reshape(shape))
