"""The README documents the config format and the public names that the
code defines."""

import importlib
import re
from dataclasses import fields
from pathlib import Path

import chdml
from chdml.models.base import DEFAULT_HYPERPARAMETERS, HYPERPARAMETER_BOUNDS
from chdml.pipeline import PipelineConfig

README = Path(__file__).parent.parent / "README.md"


def test_readme_config_table_names_every_field():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert keys == [f.name for f in fields(PipelineConfig)]


def test_readme_bounds_paragraph_names_every_bounded_hyperparameter():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("\nHyperparameter values must be", 1)[1].split("\n\n", 1)[0]
    every = {name for defaults in DEFAULT_HYPERPARAMETERS.values() for name in defaults}
    named = set(re.findall(r"`(\w+)`", paragraph)) & every
    assert named == set(HYPERPARAMETER_BOUNDS)


def test_readme_public_names_are_chdml_all():
    text = README.read_text(encoding="utf-8")
    bullets = text.split("\n`import chdml` exposes exactly these names:\n\n", 1)[1]
    bullets = bullets.split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(chdml.__all__)


def resolves(dotted):
    """Whether ``a.b.c`` names a module or an attribute reached from one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
    return True


def test_readme_chdml_names_resolve():
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"`(chdml(?:\.\w+)+)", text))
    assert names  # the pattern still finds the README's names
    assert sorted(n for n in names if not resolves(n)) == []
