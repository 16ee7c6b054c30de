"""Per-layer timing of the multi-scale conv and its batch norm.

Times one conv layer's forward and backward, and the batch norm that
follows it (train-mode forward and backward on the layer's output), for
the default architecture's first layer (in_ch = 1) and inner layer
(in_ch = channels) at T in {128, 512}, the tiny architecture's two layer
shapes (filter lengths (8, 5), 4 per length, in_ch 1 and 8) at T = 128,
and the 1x1 shortcut projection of both architectures at T = 128; b = 10.
Each runs on one worker and on as many workers as the process has CPUs.
It also times whole training steps, one train-mode ``embed_batch`` plus
``backward_batch``, of the tiny architecture at T = 64 and the default one
at T = 128, on the library's own worker count, and ``build_model`` at both
architectures. One JSON object with the
figures and the machine is printed. Each figure is the minimum over
``--repeats`` samples, in milliseconds, of one call, a sample averaging as
many calls as fill about a millisecond; the two worker counts alternate
sample by sample.

Run it against any checkout's sources:

    PYTHONPATH=src python scripts/bench_conv.py --repeats 5

BLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from fewts import kernels  # noqa: E402
from fewts.network import ArchSpec, backward_batch, build_model, embed_batch  # noqa: E402


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


_DEFAULT = ArchSpec()
_TINY = ArchSpec(filter_lengths=(8, 5), filters_per_length=4)
# (name, filter lengths, filters per length, in_ch, T)
LAYERS = [
    *((f"default in_ch={c} T={t}", _DEFAULT.filter_lengths, _DEFAULT.filters_per_length, c, t)
      for t in (128, 512) for c in (1, _DEFAULT.channels)),
    *((f"tiny in_ch={c}", _TINY.filter_lengths, _TINY.filters_per_length, c, 128)
      for c in (1, _TINY.channels)),
    ("default proj", (1,), _DEFAULT.channels, 1, 128),
    ("tiny proj", (1,), _TINY.channels, 1, 128),
]
# (name, arch, T) of the whole-step rows.
STEPS = [("tiny step", _TINY, 64), ("default step", _DEFAULT, 128)]
# (name, arch) of the model-build rows.
BUILDS = [("tiny build", _TINY), ("default build", _DEFAULT)]


def _sample(fn) -> float:
    """Seconds per call of ``fn``, averaged over enough calls to fill about
    a millisecond."""
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(1e-3 / max(time.perf_counter() - t0, 1e-6)))
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def time_layer(lengths, per_length: int, in_ch: int, t: int, batch: int, repeats: int,
               seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    banks = [rng.standard_normal((per_length, in_ch, f)) for f in lengths]
    channels = per_length * len(lengths)
    x = rng.standard_normal((batch, in_ch, t))
    upstream = rng.standard_normal((batch, channels, t))
    gamma, beta = rng.standard_normal(channels), rng.standard_normal(channels)
    _, _, cache = kernels.batchnorm_forward(upstream, gamma, beta)
    ops = {
        "fwd": lambda: kernels.multiscale_conv_forward(x, banks),
        "bwd": lambda: kernels.multiscale_conv_backward(x, banks, upstream),
        "bn_fwd": lambda: kernels.batchnorm_forward(upstream, gamma, beta),
        "bn_bwd": lambda: kernels.batchnorm_backward(upstream, gamma, cache),
    }
    counts = sorted({1, CPUS})
    best = {(n, op): float("inf") for n in counts for op in ops}
    for _ in range(repeats):
        for n in counts:
            kernels._WORKERS = n
            for op, fn in ops.items():
                best[n, op] = min(best[n, op], _sample(fn))
    row = {"lengths": list(lengths), "per_length": per_length, "in_ch": in_ch, "T": t, "b": batch}
    for (n, op), s in best.items():
        row[f"{op}_ms_{n}w"] = round(s * 1e3, 4)
    return row


def time_step(spec: ArchSpec, t: int, batch: int, repeats: int, seed: int = 0) -> dict:
    """One train-mode forward plus backward of ``batch`` series through a
    fresh model of ``spec``, through the public network API only."""
    rng = np.random.default_rng(seed)
    model = build_model(spec, rng)
    series = rng.standard_normal((batch, t))
    upstream = rng.standard_normal((batch, spec.channels))

    def step():
        _, cache = embed_batch(model, series, mode="train", return_cache=True)
        backward_batch(model, cache, upstream)

    best = min(_sample(step) for _ in range(repeats))
    return {"arch": spec.to_dict(), "T": t, "b": batch, "step_ms": round(best * 1e3, 4)}


def time_build(spec: ArchSpec, repeats: int, seed: int = 0) -> dict:
    """One ``build_model`` of ``spec`` from a fresh generator."""
    best = min(_sample(lambda: build_model(spec, np.random.default_rng(seed)))
               for _ in range(repeats))
    return {"arch": spec.to_dict(), "build_ms": round(best * 1e3, 4)}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity": CPUS,
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
    steps = [{"step": name, **time_step(spec, t, args.batch, args.repeats)}
             for name, spec, t in STEPS]
    layers = [
        {"layer": name, **time_layer(lengths, per, in_ch, t, args.batch, args.repeats)}
        for name, lengths, per, in_ch, t in LAYERS
    ]
    build = [{"build": name, **time_build(spec, args.repeats)} for name, spec in BUILDS]
    print(json.dumps({"machine": machine(), "layers": layers, "steps": steps, "build": build},
                     indent=2))


if __name__ == "__main__":
    main()
