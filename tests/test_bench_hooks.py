"""The traced benchmark run (``perfbench/spans.py``) wraps fewts functions at
the module attribute their callers look them up through. Every hook it names
must exist, or the traced run fails when it installs its wrappers."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _, _ in module.PATCHES]


@pytest.mark.parametrize("module_name, attr", _patches())
def test_benchmark_hook_resolves_to_a_fewts_callable(module_name, attr):
    assert module_name.split(".")[0] == "fewts"
    assert callable(getattr(importlib.import_module(module_name), attr, None))
