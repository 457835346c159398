"""Every name a module imports is used, re-exported or marked as deliberate,
and every module-level definition is used or documented."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "chdml"
README = SRC.parent.parent / "README.md"

MARKER = "# noqa: F401"

#: The only import statements ``MARKER`` may mark, as (file, module): each keeps
#: names bound that nothing in the package uses, only because
#: ``perfbench/spans.py`` ``PLAN`` looks them up in that module to wrap them.
TRACER_IMPORTS = {("cli.py", ".pipeline"), ("pipeline.py", ".eval")}


def exported(tree):
    """Names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path):
    """(line, name) of each imported name the module never uses."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if MARKER in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = used | exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in keep)


def test_no_unused_imports():
    files = sorted(SRC.rglob("*.py"))
    assert files
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path)
    ]
    assert not unused


def test_marker_only_on_the_tracer_imports():
    """``MARKER`` is on the first line of each of :data:`TRACER_IMPORTS` and on
    no other line of the package, so no other unused import can hide behind it."""
    marked = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        starts = {
            node.lineno: "." * node.level + (node.module or "")
            for node in ast.walk(ast.parse(text, str(path)))
            if isinstance(node, ast.ImportFrom)
        }
        for number, line in enumerate(text.splitlines(), start=1):
            if MARKER in line:
                marked.add((str(path.relative_to(SRC)), starts.get(number, number)))
    assert marked == TRACER_IMPORTS


def test_no_dead_definitions():
    """Each module-level function or class is loaded somewhere in the package
    (as a name or an attribute; imports and ``__all__`` do not count) or is
    named in README."""
    defined, loaded = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.relative_to(SRC)}:{node.lineno}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    readme = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    dead = sorted(
        f"{where}: {name}"
        for name, where in defined
        if name not in loaded and name not in readme
    )
    assert not dead


FAMILIES = {"ConfigError", "DataError"}


def raises(node, scope=""):
    """(qualified scope, Raise node) of each ``raise`` with an exception under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from raises(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            yield scope, child
        yield from raises(child, scope)


def test_raises_use_the_two_families():
    """Every ``raise`` in the package names ConfigError or DataError.  A bare
    re-raise is allowed, and so is ``Schema.column``'s KeyError, which is part
    of the mapping protocol."""
    allowed = {"ingest.py:Schema.column: KeyError"}
    other = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for scope, node in raises(tree):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            found = f"{path.relative_to(SRC)}:{scope}: {name}"
            if name not in FAMILIES and found not in allowed:
                other.append(found)
    assert not other
