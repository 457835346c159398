"""The benchmark's workloads: cohort size, entry point and settings.

Each workload runs on a cohort from :mod:`cohort` written as
``cohort.csv`` in a scratch directory that is the working directory of
the call, with reports going to ``out``; relative paths keep the config
echoed in ``report.json`` the same on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

INPUT = "cohort.csv"
OUTPUT = "out"

EVALUATION_REPORTS = ("report.json", "cv_original.csv", "cv_smote.csv", "holdout.csv",
                      "boxplot_stats.csv", "feature_scores.txt")
COHORT_REPORTS = ("cleaned.csv", "missing_report.json", "outlier_report.json",
                  "class_balance.json", "feature_scores.json", "feature_scores.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    #: "pipeline" calls chdml.pipeline.run_pipeline; "cli" calls
    #: chdml.cli.main once per command.
    entry: str
    config: dict[str, Any]
    #: The report files whose SHA-256 is pinned; a call that does not
    #: write one of them fails.  Other files in ``out`` are not checked.
    reports: tuple[str, ...]
    commands: tuple[str, ...] = ()

    def raw_config(self) -> dict[str, Any]:
        return {**self.config, "input_path": INPUT, "output_dir": OUTPUT}

    def argv(self, command: str) -> list[str]:
        return [command, "--input", INPUT, "--output", OUTPUT]


WORKLOADS = {
    w.name: w
    for w in (
        # DEFAULT_CONFIG unchanged: paper-faithful SMOTE, six algorithms,
        # 10-fold CV plus hold-out, both arms.  Tree building dominates.
        # 500 rows is the largest cohort whose call (about 24 s on 2 vCPUs)
        # fits a 30 s window; 800 rows takes 40-45 s.
        Workload("paper-default", 500, "pipeline", {}, EVALUATION_REPORTS),
        # No trees: SVM, LR and the KNN/SVM distance code carry the run, and
        # SMOTE runs on every per-fold training side.
        Workload(
            "kernels-leakage-free", 2000, "pipeline",
            {"smote_mode": "leakage-free", "algorithms": ["LR", "KNN", "NB", "SVM"]},
            EVALUATION_REPORTS,
        ),
        # CSV parsing and writing, the clean stages and MI scoring; no model.
        Workload("cohort-io", 200_000, "cli", {}, COHORT_REPORTS, ("clean", "score-features")),
    )
}
