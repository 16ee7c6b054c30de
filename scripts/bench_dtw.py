"""Per-phase timing of the DTW baseline: LOOCV window search and 1NN.

For each seeded synthetic task, one train and one test split from each of
the sine-frequency, square-duty and AR-coefficient generators at (train
series, T) = (6, 64), (25, 128) and (25, 256), it times
``dtw_loocv_window`` on the train split under the default 50-fraction grid,
then ``dtw_1nn`` of the test split at the window LOOCV picked. One JSON
object with the figures and the machine is printed. Each figure is the
minimum over ``--repeats`` calls, in milliseconds.

Run it against any checkout's sources:

    PYTHONPATH=src python scripts/bench_dtw.py --repeats 5

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

from fewts.baselines import dtw_1nn, dtw_loocv_window  # noqa: E402
from fewts.synthetic import (  # noqa: E402
    ar_coefficient_domain, sine_frequency_domain, square_duty_domain,
)

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

FAMILIES = {"sine": sine_frequency_domain, "square": square_duty_domain,
            "ar": ar_coefficient_domain}
# (classes, train series per class, T); the test split has 2 per class.
SIZES = [(3, 2, 64), (5, 5, 128), (5, 5, 256)]


def _best_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 4)


def time_task(family: str, n_classes: int, per_class: int, t: int, repeats: int) -> dict:
    bundle = FAMILIES[family](0, n_classes=n_classes, length=t,
                              train_per_class=per_class, test_per_class=2)
    window = dtw_loocv_window(bundle.train)
    return {
        "family": family, "series": bundle.train.n, "T": t, "window": window,
        "loocv_ms": _best_ms(lambda: dtw_loocv_window(bundle.train), repeats),
        "dtw_1nn_ms": _best_ms(lambda: dtw_1nn(bundle.train, bundle.test.values, window),
                               repeats),
    }


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
    args = parser.parse_args(argv)
    tasks = [time_task(family, c, per, t, args.repeats)
             for c, per, t in SIZES for family in FAMILIES]
    print(json.dumps({"machine": machine(), "tasks": tasks}, indent=2))


if __name__ == "__main__":
    main()
