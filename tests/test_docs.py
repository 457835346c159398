"""The README documents the config format that the code defines."""

import re
from dataclasses import fields
from pathlib import Path

from chdml.pipeline import PipelineConfig

README = Path(__file__).parent.parent / "README.md"


def test_readme_config_table_names_every_field():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert keys == [f.name for f in fields(PipelineConfig)]
