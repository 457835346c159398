"""The README documents the config format that the code defines."""

import re
from dataclasses import fields
from pathlib import Path

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
