"""Each benchmark workload runs one short traced pass against the current
sources: its work functions read arguments that exist, its outputs match
``perfbench/reference.json``, and it reports every per-layer metric that
``BENCHMARK.json`` names.

The benchmark writes under its own directory, so it runs from a copy of
``perfbench/`` with ``src/`` linked beside it, and the checkout stays clean.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("workload", ["meta-train", "embed-eval", "baseline-eval"])
def test_workload_runs_a_traced_pass_correctly(tmp_path, workload):
    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench,
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    missing = [name for name in PER_LAYER if name not in result["metrics"]]
    assert not missing
