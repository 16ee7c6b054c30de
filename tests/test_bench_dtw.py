"""Smoke test of ``scripts/bench_dtw.py``: at a tiny size it prints the
machine and, per task, the LOOCV and 1NN times, and it times the three
generator families at the three benchmark sizes."""

import importlib.util
from pathlib import Path

import pytest

from fewts.baselines import DTWConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_dtw.py"


@pytest.fixture
def bench(monkeypatch):
    # The script pins the BLAS thread variables on import; keep that out of
    # the environment later tests see.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_dtw", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sizes_and_families(bench):
    assert set(bench.FAMILIES) == {"sine", "square", "ar"}
    assert [(c * per, t) for c, per, t in bench.SIZES] == [(6, 64), (25, 128), (25, 256)]


def test_main_prints_machine_and_task_times(bench, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SIZES", [(2, 2, 12)])
    bench.main(["--repeats", "2"])
    out = bench.json.loads(capsys.readouterr().out)

    assert {"cores", "affinity", "cpu", "numpy", "blas", "blas_threads"} <= set(out["machine"])
    assert [row["family"] for row in out["tasks"]] == ["sine", "square", "ar"]
    for row in out["tasks"]:
        assert set(row) == {"family", "series", "T", "window", "loocv_ms", "dtw_1nn_ms"}
        assert (row["series"], row["T"]) == (4, 12)
        assert row["window"] in DTWConfig().fractions
        assert row["loocv_ms"] > 0.0 and row["dtw_1nn_ms"] > 0.0
