"""The package imports nothing outside the standard library at runtime.

mpmath, sympy and hypothesis serve the tests as oracles and generators only.
"""

import ast
import sys
from pathlib import Path

import ratiocert

SOURCES = sorted(Path(ratiocert.__file__).parent.glob("*.py"))


def _foreign_imports(path: Path) -> list[str]:
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside ratiocert
        foreign += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    return foreign


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "compare.py", "numerics.py"}


def test_runtime_imports_are_stdlib_or_relative():
    assert {p.name: _foreign_imports(p) for p in SOURCES} == {p.name: [] for p in SOURCES}
