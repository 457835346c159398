"""Run the shipped default pipeline on a paper-size synthetic cohort.

Writes the 4240-row cohort of ``perfbench/cohort.py`` for SEED to a
temporary directory, runs ``run_pipeline`` with ``DEFAULT_CONFIG`` on it,
and prints each algorithm's fit and score seconds, the peak RSS, the CV
mean AUCs and the SHA-256 of every report file.  It gates nothing; compare
two checkouts by running it from each.

Run from a checkout root: ``python3 tools/paper_size.py SEED``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import cohort  # noqa: E402
from chdml import models  # noqa: E402
from chdml.pipeline import DEFAULT_CONFIG, PipelineConfig, run_pipeline  # noqa: E402

#: Rows of the paper's Framingham cohort.
PAPER_ROWS = 4240


def timed_models() -> dict[str, dict[str, float]]:
    """Wrap ``models.fit`` and ``models.score_many`` (the names ``eval``
    calls) so they add their seconds per algorithm to the returned table."""
    seconds: dict[str, dict[str, float]] = defaultdict(lambda: {"fit": 0.0, "score": 0.0})
    fit, score_many = models.fit, models.score_many

    def timed_fit(spec, train):
        t0 = time.perf_counter()
        try:
            return fit(spec, train)
        finally:
            seconds[spec.algorithm]["fit"] += time.perf_counter() - t0

    def timed_score_many(model, X):
        t0 = time.perf_counter()
        try:
            return score_many(model, X)
        finally:
            seconds[model.spec.algorithm]["score"] += time.perf_counter() - t0

    models.fit, models.score_many = timed_fit, timed_score_many
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int, help="cohort seed")
    args = parser.parse_args(argv)

    seconds = timed_models()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # report.json echoes the config's paths: relative ones keep its
        # digest independent of the temporary directory's name
        os.chdir(tmp)
        try:
            cohort.write("cohort.csv", PAPER_ROWS, args.seed)
            config = PipelineConfig.from_dict(
                {**DEFAULT_CONFIG, "input_path": "cohort.csv", "output_dir": "out"}
            )
            t0 = time.perf_counter()
            report = run_pipeline(config)
            run_s = time.perf_counter() - t0
            digests = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path("out").iterdir())
            }
        finally:
            os.chdir(cwd)

    print(f"cohort: {PAPER_ROWS} rows, seed {args.seed}; run_pipeline {run_s:.2f} s")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.2f}")
    for algorithm, spent in seconds.items():
        print(f"{algorithm:<5} fit {spent['fit']:8.2f} s  score {spent['score']:7.2f} s")
    for arm, by_key in report.cv.items():
        cells = "  ".join(f"{key} {s.mean:.6f}" for key, s in by_key.items())
        print(f"cv mean auc [{arm}]: {cells}")
    for name, digest in digests.items():
        print(f"sha256 {digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
