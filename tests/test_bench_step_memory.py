"""Smoke test of ``scripts/bench_step_memory.py``: one meta-iteration of one
task at the default architecture reports every phase's traced and resident
figures and its minor page faults, the resident peak after the imports and
the call that set the pass's resident peak, and it imports no module inside
the traced part."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "bench_step_memory.py"
PHASE_KEYS = {"calls", "live_mb", "peak_mb", "added_mb", "rss_raised_mb", "minflt"}

# A fresh process, so a module some other test imported first cannot hide
# one that the script would first import inside measure().
PROBE = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_step_memory", {str(SCRIPT)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
before = set(sys.modules)
result = module.measure(1, 0)
print(json.dumps({{"result": result, "imported": sorted(set(sys.modules) - before)}}))
"""


def test_measure_reports_traced_and_resident_figures():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    out = json.loads(proc.stdout)
    result = out["result"]

    assert out["imported"] == []
    assert set(result) == {"params", "meta_batch", "setup_live_mb", "pass_peak_mb",
                           "import_maxrss_mb", "start_maxrss_mb", "pass_maxrss_mb",
                           "pass_minflt", "rss_peak_call", "phases"}
    assert result["meta_batch"] == 1
    assert set(result["phases"]) == {"embed", "backward", "adam", "meta_update"}
    for rec in result["phases"].values():
        assert set(rec) == PHASE_KEYS
        assert rec["calls"] == 1
        assert rec["rss_raised_mb"] >= 0.0
        assert 0 <= rec["minflt"] <= result["pass_minflt"]
    assert 0.0 < result["import_maxrss_mb"] <= result["start_maxrss_mb"]
    assert result["pass_maxrss_mb"] >= result["start_maxrss_mb"]
    # A fresh process starts the pass below its high-water mark, so some
    # call, or the work between calls, raises it.
    peak = result["rss_peak_call"]
    assert peak == "outside the phases" or (
        peak.split()[0] in result["phases"] and peak.split()[1] == "1"
    )
