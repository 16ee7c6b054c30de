"""Traced memory of one FS-1 meta-iteration at the default architecture,
split by phase.

Runs ``fs1_train`` for one meta-iteration of ``--meta-batch`` tasks, each
one inner step on a b=10 batch at T=128 (the perfbench meta-train pass
without its validation hook and checkpoint), under ``tracemalloc``. The
embed, backward, Adam and meta-update calls are wrapped where
``fewts.training`` looks them up; for each phase it reports the traced
memory live when the call starts and the peak inside it, in MB, and the
peak of the whole pass.

Next to the traced figures it prints how far each phase's calls raised the
process's ``ru_maxrss`` (``rss_raised_mb``, summed over the calls), and the
``ru_maxrss`` at three points: after the imports and before any set-up
(``import_maxrss_mb``: the script imports ``fewts.cli``, as every ``fewts``
process does, so this is what loading the package costs), before the pass,
and after it (the high-water mark perfbench's ``peak_rss_mb`` reads).
tracemalloc counts what numpy asked for, including calloc'd pages never
touched, and misses what the allocator keeps after a free; ``ru_maxrss``
sees only resident pages. ``ru_maxrss`` is the process's lifetime peak, so
a phase that stays under an earlier high-water mark reads 0. It also counts
the minor page faults each phase's calls took (``minflt``, the
``ru_minflt`` delta summed over the calls) and those of the whole pass
(``pass_minflt``): pages touched for the first time since they were mapped,
including those the allocator gave back to the system and a later phase
took again. ``rss_peak_call`` names the phase call during which
``ru_maxrss`` last rose (``"backward 2"`` is the second backward), so the
call that set the pass's high-water mark. numpy loads ``numpy.random`` and
``numpy.ma`` on first use; the script imports both before tracing starts,
so no module is first imported inside the traced set-up and pass. Prints
one JSON object.

Run it against any checkout's sources:

    PYTHONPATH=src python scripts/bench_step_memory.py --meta-batch 2
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import numpy.ma  # noqa: E402, F401  (first used by np.unique in the pass)
import numpy.random  # noqa: E402, F401  (first used by the set-up)

import fewts.cli  # noqa: E402, F401  (every fewts process loads it)
from fewts import training  # noqa: E402
from fewts.network import ArchSpec, build_model  # noqa: E402
from fewts.synthetic import ar_coefficient_domain, square_duty_domain  # noqa: E402

PHASES = {
    "embed": "embed_batch",
    "backward": "backward_batch",
    "adam": "adam_step",
    "meta_update": "meta_update",
}
MB = 1 << 20


def usage() -> tuple[float, int]:
    """The process's peak resident set so far, in MB (Linux reports KiB),
    and its minor page faults so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_maxrss / 1024, ru.ru_minflt


IMPORT_MAXRSS_MB = usage()[0]


def measure(meta_batch: int, seed: int) -> dict:
    tracemalloc.start()
    try:
        return _measure(meta_batch, seed)
    finally:
        tracemalloc.stop()


def _measure(meta_batch: int, seed: int) -> dict:
    length, n_classes = 128, 5
    train = [square_duty_domain(seed + 1, n_classes=n_classes, length=length, noise=1.0),
             ar_coefficient_domain(seed + 2, n_classes=n_classes, length=length)]
    model = build_model(ArchSpec(), np.random.default_rng(seed))
    config = training.MetaConfig(meta_iterations=1, meta_batch=meta_batch, batch_size=10,
                                 epochs=1, k_train=2, seed=seed)
    stream = training.meta_task_stream(train, config.k_train, 0, config.seed)
    phases = {name: {"calls": 0, "live_mb": 0.0, "peak_mb": 0.0, "added_mb": 0.0,
                     "rss_raised_mb": 0.0, "minflt": 0} for name in PHASES}
    overall = [0]
    high = {"mb": 0.0, "call": None}  # the call that last raised ru_maxrss, and to what

    def wrap(name, fn):
        def traced(*args, **kwargs):
            live, peak = tracemalloc.get_traced_memory()
            overall[0] = max(overall[0], peak)
            tracemalloc.reset_peak()
            rss, faults = usage()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                overall[0] = max(overall[0], peak)
                rss_after, faults_after = usage()
                rec = phases[name]
                rec["calls"] += 1
                rec["rss_raised_mb"] += rss_after - rss
                rec["minflt"] += faults_after - faults
                if rss_after > rss:
                    high.update(mb=rss_after, call=f"{name} {rec['calls']}")
                if peak / MB > rec["peak_mb"]:
                    rec["live_mb"], rec["peak_mb"] = live / MB, peak / MB
        return traced

    saved = {attr: getattr(training, attr) for attr in PHASES.values()}
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    start_rss, start_faults = usage()
    try:
        for name, attr in PHASES.items():
            setattr(training, attr, wrap(name, saved[attr]))
        training.fs1_train(model, config, stream)
        overall[0] = max(overall[0], tracemalloc.get_traced_memory()[1])
        end_rss, end_faults = usage()
    finally:
        for attr, fn in saved.items():
            setattr(training, attr, fn)
    for rec in phases.values():
        rec["added_mb"] = rec["peak_mb"] - rec["live_mb"]
        for key in ("live_mb", "peak_mb", "added_mb", "rss_raised_mb"):
            rec[key] = round(rec[key], 1)
    return {
        "params": model.params.values.size,
        "meta_batch": meta_batch,
        "setup_live_mb": round(base / MB, 1),
        "pass_peak_mb": round(overall[0] / MB, 1),
        "import_maxrss_mb": round(IMPORT_MAXRSS_MB, 1),
        "start_maxrss_mb": round(start_rss, 1),
        "pass_maxrss_mb": round(end_rss, 1),
        "pass_minflt": end_faults - start_faults,
        "rss_peak_call": ("outside the phases" if end_rss > max(high["mb"], start_rss)
                          else high["call"]),
        "phases": phases,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--meta-batch", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.meta_batch, args.seed), indent=1))


if __name__ == "__main__":
    main()
