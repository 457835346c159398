"""The scripts under ``tools/`` still import and parse their arguments."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_paper_size_help_runs():
    done = subprocess.run(
        [sys.executable, "tools/paper_size.py", "--help"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: paper_size.py" in done.stdout
