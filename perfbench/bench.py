"""Benchmark runs: the untraced run that gives the end-to-end metrics and
the traced run that gives the per-layer ones. ``run.py`` is the entry point.

An operation is one inner step (meta-train) or one (task, method) record
(the evaluation workloads); a failed operation raised, produced a non-finite
loss or did not match ``reference.json``. End-to-end times are taken from
the fastest repeat of each timed part of a pass and scaled by a calibration
loop that runs between passes; the raw values are printed beside them.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import VARIANTS, WORKLOADS, PassResult

HERE = Path(__file__).resolve().parent

# A run makes at least this many passes and set-ups, however long they
# take, so that best-of and median have something to choose from.
MIN_PASSES = 3
SETUP_MIN_REPS = 5

# Median seconds of calibration() on a lightly loaded 2-vCPU Xeon (Sapphire
# Rapids, 2.1 GHz) KVM guest with one BLAS thread; reported times are scaled
# to it.
CALIBRATION_REFERENCE_S = 0.02
CALIBRATIONS_PER_PASS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("task_s.p50", "s"),
)


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def fingerprint() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = importlib.util.find_spec("numba") is not None
    return (
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"blas={blas.get('name')}-{blas.get('version')} blas_threads={blas_threads()} "
        f"numpy={np.__version__} python={platform.python_version()} "
        f"numba={'present' if numba else 'absent'}"
    )


def calibration() -> float:
    """Seconds for a fixed piece of work that uses no fewts code: an
    interpreted double loop, small-array numpy calls and a matmul, the three
    kinds of work the workloads spend their time in."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(96).tolist()
    a = rng.standard_normal((8, 64))
    m = rng.standard_normal((160, 160))
    t0 = time.perf_counter()
    acc = 0.0
    for xi in x:
        for xj in x:
            d = xi - xj
            acc += d * d
    for _ in range(500):
        a = np.maximum(np.pad(a, ((0, 0), (2, 2)))[:, 1:-3] * 0.9, 0.0)
    for _ in range(25):
        m = m @ m
        m /= np.abs(m).max()
    return time.perf_counter() - t0


def one_pass(workload, state, rec, reference) -> PassResult:
    """One pass, checked against the reference; a raised error fails all of
    the pass's operations and the run goes on."""
    t0 = time.perf_counter()
    try:
        result = workload.run_pass(state, rec)
        result.failed += workload.failures(result.outputs, reference)
    except Exception:
        traceback.print_exc()
        return PassResult(seconds=time.perf_counter() - t0, ops=workload.ops_per_pass,
                          failed=workload.ops_per_pass)
    result.failed = min(result.failed, result.ops)
    return result


def run_untraced(workload, variant, seconds, work_dir, reference):
    setup_s: list[float] = []
    calib_s: list[float] = []
    passes: list[PassResult] = []
    start = time.perf_counter()
    cycle = 0.0
    # Stop before a cycle that would likely end past the measured time.
    while len(passes) < MIN_PASSES or time.perf_counter() - start + cycle <= seconds:
        t0 = time.perf_counter()
        calib_s.extend(calibration() for _ in range(CALIBRATIONS_PER_PASS))
        t1 = time.perf_counter()
        state = workload.setup(variant, work_dir, spans.NULL)
        setup_s.append(time.perf_counter() - t1)
        passes.append(one_pass(workload, state, spans.NULL, reference))
        cycle = time.perf_counter() - t0
    while len(setup_s) < SETUP_MIN_REPS:
        t0 = time.perf_counter()
        workload.setup(variant, work_dir, spans.NULL)
        setup_s.append(time.perf_counter() - t0)

    ops = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    # Every pass repeats the same work, and load from other tenants of the
    # machine only ever adds time, in bursts often shorter than a pass. So
    # each timed part of a pass is taken from its fastest repeat, and pass
    # and task times are sums of those.
    part_s: dict[str, float] = {}
    for p in passes:
        for part, s in p.parts.items():
            part_s[part] = min(s, part_s.get(part, math.inf))
    best_pass = sum(part_s.values())
    task_s = workload.task_latencies(part_s) if part_s else {}
    # Slower stretches of a shared machine last minutes, longer than a run,
    # and slow the calibration as much as the workload; times are scaled to
    # the calibration's reference speed so that runs in slow and fast
    # stretches agree. Raw values are printed beside them.
    scale = CALIBRATION_REFERENCE_S / statistics.median(calib_s)
    raw = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": workload.ops_per_pass / best_pass * (1 - failed / ops) if best_pass else 0.0,
        # 0 when no pass completed; the run is then reported incorrect anyway.
        "task_s.p50": statistics.median(task_s.values()) if task_s else 0.0,
    }
    table = [
        ("setup_s", raw["setup_s"] * scale, "s", len(setup_s), "setups"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1,
         "process"),
        ("ops_per_s", raw["ops_per_s"] / scale, "1/s", len(passes),
         f"passes of {workload.ops_per_pass} ops"),
        ("task_s.p50", raw["task_s.p50"] * scale, "s", len(task_s),
         f"tasks x {len(passes)} repeats"),
        ("failed_frac", failed / ops, "ratio", ops, "ops"),
    ]
    completed = [p for p in passes if p.outputs]
    if completed:
        table += [(name, value, unit, n, "values")
                  for name, (value, unit, n) in workload.summary(completed[0]).items()]

    alias = "inner_steps_per_s" if workload.name == "meta-train" else "tasks_per_s"
    print(f"{'metric':<30} {'value':>12} {'raw':>12} {'unit':<9} samples")
    for name, value, unit, n, what in table:
        shown = f"{name} ({alias})" if name == "ops_per_s" else name
        print(f"{shown:<30} {value:>12.6g} {raw.get(name, value):>12.6g} {unit:<9} n={n} {what}")
    # Only reported where at least ten samples lie beyond it.
    print(f"{'task_s.p90':<30} {'-':>12} {'-':>12} {'s':<9} n={len(task_s)} tasks, "
          "fewer than 100")
    print(f"calibration: median {statistics.median(calib_s):.6f} s of n={len(calib_s)}, "
          f"reference {CALIBRATION_REFERENCE_S} s, time scale {scale:.4f}")
    print("pass seconds: " + " ".join(f"{p.seconds:.3f}" for p in passes))
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, *_ in table
               if name in dict(END_TO_END)}
    return ops, failed, metrics


def run_traced(workload, variant, seconds, work_dir, reference, seed):
    rec = spans.Recorder()
    plain_s: list[float] = []
    traced_s: list[float] = []
    passes: list[PassResult] = []

    def plain():
        t0 = time.perf_counter()
        state = workload.setup(variant, work_dir, spans.NULL)
        passes.append(one_pass(workload, state, spans.NULL, reference))
        plain_s.append(time.perf_counter() - t0)

    def traced():
        with rec.installed():
            t0 = time.perf_counter()
            with rec.span("bench.pass"):
                with rec.span("bench.setup"):
                    state = workload.setup(variant, work_dir, rec)
                passes.append(one_pass(workload, state, rec, reference))
            traced_s.append(time.perf_counter() - t0)

    start = time.perf_counter()
    pair = 0.0
    while not traced_s or time.perf_counter() - start + pair <= seconds:
        t0 = time.perf_counter()
        # Alternate which side runs first so warm-up favours neither.
        first, second = (plain, traced) if len(traced_s) % 2 == 0 else (traced, plain)
        first()
        second()
        pair = time.perf_counter() - t0

    n = len(traced_s)
    metrics = spans.layer_metrics(rec, n, sum(traced_s))
    metrics["trace.overhead_frac"] = min(traced_s) / min(plain_s) - 1.0
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    rec.write(out_dir / f"spans-{workload.name}-seed{seed}.json")

    print(f"passes={n} traced_s=" + " ".join(f"{s:.3f}" for s in traced_s)
          + " untraced_s=" + " ".join(f"{s:.3f}" for s in plain_s))
    print("self time by span, all traced passes:")
    breakdown = spans.layer_breakdown(rec)
    for name, s in breakdown:
        print(f"  {name:<32} {s:>10.4f} s {100 * s / sum(traced_s):6.2f}%")
    layers = sum(s for name, s in breakdown if not name.startswith("bench."))
    glue = sum(s for name, s in breakdown if name.startswith("bench."))
    print(f"layers {layers:.4f} s + glue {glue:.4f} s = {layers + glue:.4f} s "
          f"of {sum(traced_s):.4f} s traced wall time")
    units = dict(spans.per_layer_names())
    print("per pass:")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    ops = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    return ops, failed, {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}


def main(args) -> int:
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    reference = json.loads((HERE / "reference.json").read_text())[workload.name][str(variant)]
    print(f"fewts benchmark workload={workload.name} seed={args.seed} variant={variant} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {fingerprint()}")

    work_dir = HERE / "_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            ops, failed, metrics = run_traced(workload, variant, args.seconds, work_dir,
                                              reference, args.seed)
        else:
            ops, failed, metrics = run_untraced(workload, variant, args.seconds, work_dir,
                                                reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ok = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0

