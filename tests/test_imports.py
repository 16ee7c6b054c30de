"""fewts imports numpy and the standard library only: importing every
submodule in a fresh process loads no ``scipy`` module."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = """
import importlib, json, pkgutil, sys
import fewts, fewts.cli
names = [m.name for m in pkgutil.iter_modules(fewts.__path__, "fewts.")]
for name in names:
    importlib.import_module(name)
scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print(json.dumps({"imported": sorted(names), "scipy": sorted(scipy)}))
"""


def test_no_scipy_module_is_loaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    modules = {f"fewts.{p.stem}" for p in (SRC / "fewts").glob("*.py") if p.stem != "__init__"}
    assert set(result["imported"]) == modules
    assert result["scipy"] == []
