"""Every demo script imports cleanly, so a demo that names a removed API
fails here instead of at its first run. The demos that finish in about a
second also run ``main()``, so an API whose behaviour changed breaks them
here too."""

import importlib.util
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
QUICK_DEMOS = ("dtw_window_demo", "gradient_check_demo", "inner_adaptation_demo")


def load_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_exist():
    assert DEMOS
    assert set(QUICK_DEMOS) <= {p.stem for p in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    assert callable(load_demo(path).main)


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name, monkeypatch, capsys):
    module = load_demo(next(p for p in DEMOS if p.stem == name))
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    module.main()
    assert capsys.readouterr().out
