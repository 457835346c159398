"""Configuration-driven end-to-end runner.

:func:`run_pipeline` calls the stages in order, and the CLI subcommands
call the same functions:

1. :func:`clean_stage` -- ingest, drop rows, impute, remove outliers;
2. :func:`feature_stage` -- mutual-information scoring and selection;
3. :func:`evaluate_arm` -- CV and hold-out per algorithm, once per arm
   (as-is and oversampled);
4. :func:`emit_tables` -- the report files.

Re-running with an identical config produces byte-identical report files;
every number in them is a pure function of (config, input file).
Wall-clock timings go to the log only, never into the report, so that
guarantee holds.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, UnknownColumn
from .eval import EvalSummary, SmoteMode, cross_validate, holdout_evaluate
from .features import FeatureScores, SelectionResult, score_features, select_k_best
from .ingest import (
    FRAMINGHAM,
    CohortTable,
    MissingReport,
    Schema,
    class_balance,
    load_csv,
    missing_report,
    schema_from_json,
)
from .models import ClassifierSpec
from .preprocess import (
    Dataset,
    OutlierReport,
    column_stats,
    drop_rows_missing,
    feature_kinds,
    impute_mean,
    normalize_method,
    remove_outliers,
    select_features,
    to_dataset,
)
from .resample import SmoteParams, smote

__all__ = ["PipelineConfig", "RunReport", "DEFAULT_CONFIG", "run_pipeline", "emit_tables"]

log = logging.getLogger(__name__)

#: Environment variable consulted when the config names no input file.
DATA_ENV_VAR = "CHD_DATA"

#: Shipped defaults.  Where the underlying workflow left a choice open,
#: the decision is recorded here next to the value it fixes.
DEFAULT_CONFIG: Mapping[str, Any] = {
    "input_path": None,          # falls back to the CHD_DATA environment variable
    "schema_path": None,         # null = built-in 16-column cohort schema
    "seed": 0,
    # rows with gaps in the two categorical-ish columns are dropped
    # (a column mean is meaningless there) ...
    "drop_columns": ["BPMeds", "education"],
    # ... while gaps in wide-range measurements take the column mean
    "impute_columns": ["cigsPerDay", "totChol", "BMI", "heartRate", "glucose"],
    # the three-sigma rule on the seven wide-range measurement columns
    "outlier_method": "Sigma",
    "outlier_columns": [
        "cigsPerDay", "totChol", "sysBP", "diaBP", "BMI", "heartRate", "glucose",
    ],
    "mi_bins": 10,
    "select_k": None,            # null = keep every predictor
    # full-dataset resampling before folding mirrors the workflow this
    # package reproduces; switch to "leakage-free" for honest estimates
    "smote_mode": "paper-faithful",
    "smote": {"k_neighbors": 5, "target_ratio": 1.0},
    "algorithms": ["LR", "KNN", "CART", "NB", "SVM", "RF"],
    "cv_k": 10,
    "test_fraction": 0.2,
    "output_dir": "chdml-out",
}

ARM_ORIGINAL = "original"
ARM_SMOTE = "smote"


@dataclass(frozen=True)
class PipelineConfig:
    """Validated run settings; see :data:`DEFAULT_CONFIG` for defaults."""

    input_path: str | None = None
    schema_path: str | None = None
    seed: int = 0
    drop_columns: tuple[str, ...] = ()
    impute_columns: tuple[str, ...] = ()
    outlier_method: str = "Sigma"
    outlier_columns: tuple[str, ...] = ()
    mi_bins: int = 10
    select_k: int | None = None
    smote_mode: SmoteMode = SmoteMode.PAPER_FAITHFUL
    smote: SmoteParams = field(default_factory=SmoteParams)
    algorithms: tuple[ClassifierSpec, ...] = ()
    cv_k: int = 10
    test_fraction: float = 0.2
    output_dir: str = "chdml-out"

    def __post_init__(self) -> None:
        if self.cv_k < 2:
            raise ConfigError("cv_k must be at least 2")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be strictly between 0 and 1")
        if self.mi_bins < 1:
            raise ConfigError("mi_bins must be at least 1")
        if not self.algorithms:
            raise ConfigError("algorithms must name at least one classifier")
        object.__setattr__(self, "outlier_method", normalize_method(self.outlier_method))

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "PipelineConfig":
        merged = dict(DEFAULT_CONFIG)
        unknown = set(raw) - set(merged)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(raw)

        smote_raw = dict(merged["smote"] or {})
        smote_raw.setdefault("seed", merged["seed"])
        if "nominal_columns" in smote_raw:
            smote_raw["nominal_columns"] = tuple(smote_raw["nominal_columns"])
        try:
            smote_params = SmoteParams(**smote_raw)
        except TypeError as exc:
            raise ConfigError(f"bad smote settings: {exc}") from None

        specs = []
        for position, entry in enumerate(merged["algorithms"]):
            if isinstance(entry, str):
                specs.append(ClassifierSpec(algorithm=entry, seed=merged["seed"]))
            elif not isinstance(entry, Mapping) or "algorithm" not in entry:
                raise ConfigError(
                    f"algorithms[{position}] must be a name or an object with an "
                    f"'algorithm' key, not {entry!r}"
                )
            else:
                specs.append(
                    ClassifierSpec(
                        algorithm=entry["algorithm"],
                        hyperparameters=dict(entry.get("hyperparameters", {})),
                        seed=int(entry.get("seed", merged["seed"])),
                    )
                )

        return cls(
            input_path=merged["input_path"],
            schema_path=merged["schema_path"],
            seed=int(merged["seed"]),
            drop_columns=tuple(merged["drop_columns"]),
            impute_columns=tuple(merged["impute_columns"]),
            outlier_method=str(merged["outlier_method"]),
            outlier_columns=tuple(merged["outlier_columns"]),
            mi_bins=int(merged["mi_bins"]),
            select_k=None if merged["select_k"] is None else int(merged["select_k"]),
            smote_mode=SmoteMode.from_string(merged["smote_mode"]),
            smote=smote_params,
            algorithms=tuple(specs),
            cv_k=int(merged["cv_k"]),
            test_fraction=float(merged["test_fraction"]),
            output_dir=str(merged["output_dir"]),
        )

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict[str, Any]:
        """Echo sufficient to re-run: feeding this back reproduces the run."""
        return {
            "input_path": self.input_path,
            "schema_path": self.schema_path,
            "seed": int(self.seed),
            "drop_columns": list(self.drop_columns),
            "impute_columns": list(self.impute_columns),
            "outlier_method": self.outlier_method,
            "outlier_columns": list(self.outlier_columns),
            "mi_bins": int(self.mi_bins),
            "select_k": self.select_k,
            "smote_mode": self.smote_mode.value,
            "smote": {
                "k_neighbors": int(self.smote.k_neighbors),
                "target_ratio": float(self.smote.target_ratio),
                "seed": int(self.smote.seed),
                "round_nominal": bool(self.smote.round_nominal),
                "nominal_columns": list(self.smote.nominal_columns),
            },
            "algorithms": [s.to_doc() for s in self.algorithms],
            "cv_k": int(self.cv_k),
            "test_fraction": float(self.test_fraction),
            "output_dir": self.output_dir,
        }

    def resolve_input(self) -> str:
        if self.input_path:
            return self.input_path
        from_env = os.environ.get(DATA_ENV_VAR)
        if from_env:
            return from_env
        raise ConfigError(
            f"no input file: set input_path in the config or the {DATA_ENV_VAR} "
            "environment variable"
        )

    def load_schema(self) -> Schema:
        return schema_from_json(self.schema_path) if self.schema_path else FRAMINGHAM

    def validate_columns(self, schema: Schema) -> None:
        for name in (*self.drop_columns, *self.impute_columns, *self.outlier_columns):
            if name not in schema.names:
                raise UnknownColumn(name)
        d = len(schema.predictor_names)
        if self.select_k is not None and not 1 <= self.select_k <= d:
            raise ConfigError(f"select_k must be in [1, {d}]")


@dataclass
class RunReport:
    """Everything a run produced.

    ``timings`` exists in memory for logging but is deliberately excluded
    from the JSON serialization: report files must be byte-identical
    across reruns and every number in them recomputable from (config,
    input file).
    """

    config: dict[str, Any]
    missing: MissingReport
    class_balance_raw: tuple[int, int]
    rows_loaded: int
    rows_after_drop: int
    outliers: OutlierReport
    rows_after_outlier_removal: int
    class_balance_clean: tuple[int, int]
    class_balance_resampled: tuple[int, int] | None
    feature_scores: FeatureScores
    selection: SelectionResult
    cv: dict[str, dict[str, EvalSummary]]        # arm -> algorithm -> summary
    holdout: dict[str, dict[str, float]]         # arm -> algorithm -> AUC
    boxplot: dict[str, dict[str, tuple[float, float, float, float, float]]]
    timings: dict[str, float] = field(default_factory=dict)

    def to_doc(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "rows": {
                "loaded": self.rows_loaded,
                "after_drop": self.rows_after_drop,
                "after_outlier_removal": self.rows_after_outlier_removal,
            },
            "missing": {
                "method": "missing",
                "columns": {k: int(v) for k, v in self.missing.counts.items()},
                "total": self.missing.total,
            },
            "class_balance": {
                "raw": list(self.class_balance_raw),
                "clean": list(self.class_balance_clean),
                "resampled": None
                if self.class_balance_resampled is None
                else list(self.class_balance_resampled),
            },
            "outliers": {
                "method": self.outliers.method,
                "columns": {k: int(v) for k, v in self.outliers.columns.items()},
                "total": int(self.outliers.total),
            },
            "feature_scores": [
                {"index": i, "name": n, "score": float(s)}
                for i, (n, s) in enumerate(
                    zip(self.feature_scores.names, self.feature_scores.scores)
                )
            ],
            "selection": {
                "k": self.selection.k,
                "selected": list(self.selection.selected),
            },
            "cv": {
                arm: {algo: summary.to_doc() for algo, summary in by_algo.items()}
                for arm, by_algo in self.cv.items()
            },
            "holdout": {
                arm: {algo: float(a) for algo, a in by_algo.items()}
                for arm, by_algo in self.holdout.items()
            },
            "boxplot": {
                arm: {algo: list(map(float, five)) for algo, five in by_algo.items()}
                for arm, by_algo in self.boxplot.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2)


def _five_number(values: Sequence[float]) -> tuple[float, float, float, float, float]:
    stats = column_stats(np.asarray(values, dtype=np.float64))
    return (stats.min, stats.q1, stats.median, stats.q3, stats.max)


def _algo_key(spec: ClassifierSpec, seen: dict[str, int]) -> str:
    """Column name for a configured algorithm; duplicates get a suffix."""
    count = seen.get(spec.algorithm, 0)
    seen[spec.algorithm] = count + 1
    return spec.algorithm if count == 0 else f"{spec.algorithm}#{count + 1}"


@dataclass(frozen=True)
class CleanedCohort:
    """What :func:`clean_stage` produced: the cleaned table and its reports."""

    table: CohortTable
    rows_loaded: int
    rows_after_drop: int
    missing: MissingReport
    outliers: OutlierReport
    balance_raw: tuple[int, int]
    balance_clean: tuple[int, int]


def clean_stage(config: PipelineConfig) -> CleanedCohort:
    """Load the input, then drop rows, impute and remove outliers."""
    schema = config.load_schema()
    config.validate_columns(schema)
    table = load_csv(config.resolve_input(), schema)
    missing = missing_report(table)
    balance_raw = class_balance(table)
    dropped = drop_rows_missing(table, config.drop_columns)
    imputed = impute_mean(dropped, config.impute_columns)
    cleaned, outliers = remove_outliers(
        imputed, config.outlier_method, config.outlier_columns
    )
    return CleanedCohort(
        table=cleaned,
        rows_loaded=table.row_count,
        rows_after_drop=dropped.row_count,
        missing=missing,
        outliers=outliers,
        balance_raw=balance_raw,
        balance_clean=class_balance(cleaned),
    )


def feature_stage(
    config: PipelineConfig, cleaned: CohortTable
) -> tuple[Dataset, FeatureScores, SelectionResult]:
    """Score every predictor; return the dataset cut to the ``select_k``
    best, all scores, and the selection."""
    dataset = to_dataset(cleaned)
    scores = score_features(dataset, bins=config.mi_bins, kinds=feature_kinds(cleaned))
    k = config.select_k if config.select_k is not None else dataset.n_features
    selection = select_k_best(scores, k)
    if len(selection.selected) < dataset.n_features:
        dataset = select_features(dataset, selection.selected)
    return dataset, scores, selection


def evaluate_arm(
    config: PipelineConfig, dataset: Dataset, mode: SmoteMode
) -> dict[str, EvalSummary]:
    """Cross-validate and hold-out test every configured algorithm, keyed
    as in ``report.json`` (``CART#2`` for a repeat); each summary carries
    its hold-out AUC."""
    results: dict[str, EvalSummary] = {}
    seen: dict[str, int] = {}
    for spec in config.algorithms:
        key = _algo_key(spec, seen)
        summary = cross_validate(
            spec, dataset, config.cv_k, config.seed, mode, config.smote
        )
        auc = holdout_evaluate(
            spec, dataset, config.seed, mode, config.smote, config.test_fraction
        )
        results[key] = dataclasses.replace(summary, holdout_auc=auc)
        log.info("%s/%s: cv mean %.6f, holdout %.6f", mode.value, key, summary.mean, auc)
    return results


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Execute every stage and write the report files to ``output_dir``."""
    timings: dict[str, float] = {}

    def tick(stage: str, started: float) -> None:
        timings[stage] = time.perf_counter() - started
        log.info("stage %-16s %.2fs", stage, timings[stage])

    t0 = time.perf_counter()
    cohort = clean_stage(config)
    tick("clean", t0)

    t0 = time.perf_counter()
    dataset, scores, selection = feature_stage(config, cohort.table)
    tick("features", t0)

    smote_arm_mode = config.smote_mode
    balance_resampled = None
    if smote_arm_mode is not SmoteMode.NONE:
        balance_resampled = smote(dataset, config.smote).class_counts()

    t0 = time.perf_counter()
    cv = {ARM_ORIGINAL: evaluate_arm(config, dataset, SmoteMode.NONE)}
    tick(f"evaluate[{ARM_ORIGINAL}]", t0)
    if smote_arm_mode is SmoteMode.NONE:
        cv[ARM_SMOTE] = dict(cv[ARM_ORIGINAL])  # reuse the original arm's numbers
    else:
        t0 = time.perf_counter()
        cv[ARM_SMOTE] = evaluate_arm(config, dataset, smote_arm_mode)
        tick(f"evaluate[{ARM_SMOTE}]", t0)

    report = RunReport(
        config=config.to_dict(),
        missing=cohort.missing,
        class_balance_raw=cohort.balance_raw,
        rows_loaded=cohort.rows_loaded,
        rows_after_drop=cohort.rows_after_drop,
        outliers=cohort.outliers,
        rows_after_outlier_removal=cohort.table.row_count,
        class_balance_clean=cohort.balance_clean,
        class_balance_resampled=balance_resampled,
        feature_scores=scores,
        selection=selection,
        cv=cv,
        holdout={
            arm: {algo: s.holdout_auc for algo, s in by_algo.items()}
            for arm, by_algo in cv.items()
        },
        boxplot={
            arm: {algo: _five_number(s.fold_aucs) for algo, s in by_algo.items()}
            for arm, by_algo in cv.items()
        },
        timings=timings,
    )
    emit_tables(report, config.output_dir)
    return report


def _table_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                cell if isinstance(cell, str) else f"{cell:.6f}" for cell in row
            )
        )
    return "\n".join(lines) + "\n"


def emit_tables(report: RunReport, out_dir: str) -> None:
    """Write the six report files; numbers in CSVs carry 6 decimals."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    algo_keys = list(report.cv[ARM_ORIGINAL])
    for arm, filename in ((ARM_ORIGINAL, "cv_original.csv"), (ARM_SMOTE, "cv_smote.csv")):
        summaries = report.cv[arm]
        csv_text = _table_csv(
            ["stat", *algo_keys],
            [
                ["Mean", *(summaries[a].mean for a in algo_keys)],
                ["Std", *(summaries[a].std for a in algo_keys)],
            ],
        )
        (out / filename).write_text(csv_text, encoding="utf-8")

    (out / "holdout.csv").write_text(
        _table_csv(
            ["arm", *algo_keys],
            [
                [arm, *(report.holdout[arm][a] for a in algo_keys)]
                for arm in (ARM_ORIGINAL, ARM_SMOTE)
            ],
        ),
        encoding="utf-8",
    )

    box_rows = []
    for arm in (ARM_ORIGINAL, ARM_SMOTE):
        for algo in algo_keys:
            box_rows.append([arm, algo, *report.boxplot[arm][algo]])
    (out / "boxplot_stats.csv").write_text(
        _table_csv(["arm", "algorithm", "min", "q1", "median", "q3", "max"], box_rows),
        encoding="utf-8",
    )

    (out / "feature_scores.txt").write_text(
        report.feature_scores.as_text(), encoding="utf-8"
    )
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
