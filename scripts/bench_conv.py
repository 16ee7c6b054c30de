"""Per-layer timing of the multi-scale conv at the default architecture.

Times one conv layer's forward and backward for the first layer
(in_ch = 1) and an inner layer (in_ch = channels), at T in {128, 512} and
b = 10, and prints one JSON object with the figures and the machine. Each
figure is the minimum over ``--repeats`` runs, in milliseconds.

Run it against any checkout's sources:

    PYTHONPATH=src python scripts/bench_conv.py --repeats 5

A checkout whose ``fewts.kernels`` has no ``multiscale_conv_forward`` is
timed through a per-bank loop over ``conv1d_forward``/``conv1d_backward``,
which is how such a checkout's network ran a layer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from fewts import kernels  # noqa: E402
from fewts.network import ArchSpec  # noqa: E402


def _per_bank_forward(x, banks, bias):
    outs = [kernels.conv1d_forward(x, w, np.zeros(w.shape[0])) for w in banks]
    return np.concatenate(outs, axis=1) + bias[None, :, None]


def _per_bank_backward(x, banks, upstream):
    dx = np.zeros_like(x)
    dws = []
    ofs = 0
    for w in banks:
        dxi, dwi, _ = kernels.conv1d_backward(x, w, upstream[:, ofs : ofs + w.shape[0]])
        dx += dxi
        dws.append(dwi)
        ofs += w.shape[0]
    return dx, dws, upstream.sum(axis=(0, 2))


LAYER_FORWARD = getattr(kernels, "multiscale_conv_forward", _per_bank_forward)
LAYER_BACKWARD = getattr(kernels, "multiscale_conv_backward", _per_bank_backward)


def _min_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 2)


def time_layer(in_ch: int, t: int, batch: int, repeats: int, seed: int = 0) -> dict:
    spec = ArchSpec()
    rng = np.random.default_rng(seed)
    banks = [rng.standard_normal((spec.filters_per_length, in_ch, f)) for f in spec.filter_lengths]
    x = rng.standard_normal((batch, in_ch, t))
    bias = rng.standard_normal(spec.channels)
    upstream = rng.standard_normal((batch, spec.channels, t))
    return {
        "in_ch": in_ch,
        "T": t,
        "b": batch,
        "fwd_ms": _min_ms(lambda: LAYER_FORWARD(x, banks, bias), repeats),
        "bwd_ms": _min_ms(lambda: LAYER_BACKWARD(x, banks, upstream), repeats),
    }


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--batch", type=int, default=10)
    args = parser.parse_args(argv)
    channels = ArchSpec().channels
    layers = [
        time_layer(in_ch, t, args.batch, args.repeats)
        for t in (128, 512)
        for in_ch in (1, channels)
    ]
    print(json.dumps({"machine": machine(), "layers": layers}, indent=2))


if __name__ == "__main__":
    main()
