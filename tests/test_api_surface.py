"""Public API is what the system runs. Every public module-level function and
class of ``src/fewts`` must be named in code of the library, the benchmark,
the scripts, the demos or the acceptance tests: as a name, an attribute or
an import. A docstring mention does not count, nor does a unit test, so a
definition only the unit tests reach fails here."""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fewts"
USER_DIRS = ("src", "perfbench", "scripts", "demos")


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


@cache
def _used_names() -> frozenset[str]:
    paths = [p for d in USER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    used = set()
    for path in [*paths, ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return frozenset(used)


@pytest.mark.parametrize("module, name", _public_definitions())
def test_public_definition_is_used_outside_the_unit_tests(module, name):
    assert name in _used_names(), f"fewts.{module}.{name} is public but nothing uses it"
