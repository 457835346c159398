"""numpy is the package's only runtime dependency: every other import is stdlib."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "chdml"


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
