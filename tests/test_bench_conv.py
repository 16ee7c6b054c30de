"""Smoke test of ``scripts/bench_conv.py``: one layer at a tiny size returns
a row with the figures of each timed op and worker count."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_conv.py"


def test_time_layer_reports_every_op_and_worker_count(monkeypatch):
    # The script pins the BLAS thread variables on import; keep that out of
    # the environment later tests see.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_conv", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # time_layer sets the worker count it times; restore the library's.
    monkeypatch.setattr(module.kernels, "_WORKERS", module.kernels._WORKERS)

    row = module.time_layer(in_ch=1, t=16, batch=2, repeats=1)

    timed = {f"{op}_ms_{n}w" for op in ("fwd", "bwd") for n in sorted({1, module.CPUS})}
    assert set(row) == {"in_ch", "T", "b"} | timed
    assert (row["in_ch"], row["T"], row["b"]) == (1, 16, 2)
    assert all(row[key] >= 0.0 for key in timed)
