"""numpy is the package's only runtime dependency: every other import is stdlib.
The tests need only what the ``test`` extra of ``pyproject.toml`` lists."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "chdml"


def absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_only_stdlib_and_numpy_are_imported():
    files = sorted(SRC.rglob("*.py"))
    assert files
    foreign = {
        f"{path.relative_to(SRC)}: {name}"
        for path in files
        for name in absolute_imports(path)
        if name != "numpy" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    extra = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["project"]["optional-dependencies"]["test"]
    }
    files = sorted(Path(__file__).parent.glob("*.py"))
    assert files
    undeclared = {
        f"{path.name}: {name}"
        for path in files
        for name in absolute_imports(path)
        if name not in {"chdml", "numpy", *extra} and name not in sys.stdlib_module_names
    }
    assert not undeclared
