"""Smoke test of ``scripts/bench_step_memory.py``: one meta-iteration of one
task at the default architecture reports every phase's traced and resident
figures and its minor page faults, and the resident peak after the imports."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_step_memory.py"
PHASE_KEYS = {"calls", "live_mb", "peak_mb", "added_mb", "rss_raised_mb", "minflt"}


def test_measure_reports_traced_and_resident_figures(monkeypatch):
    # The script pins the BLAS thread variables on import; keep that out of
    # the environment later tests see.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_step_memory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    result = module.measure(1, 0)

    assert set(result) == {"params", "meta_batch", "setup_live_mb", "pass_peak_mb",
                           "import_maxrss_mb", "start_maxrss_mb", "pass_maxrss_mb",
                           "pass_minflt", "phases"}
    assert result["meta_batch"] == 1
    assert set(result["phases"]) == {"embed", "backward", "adam", "meta_update"}
    for rec in result["phases"].values():
        assert set(rec) == PHASE_KEYS
        assert rec["calls"] == 1
        assert rec["rss_raised_mb"] >= 0.0
        assert 0 <= rec["minflt"] <= result["pass_minflt"]
    assert 0.0 < result["import_maxrss_mb"] <= result["start_maxrss_mb"]
    assert result["pass_maxrss_mb"] >= result["start_maxrss_mb"]
