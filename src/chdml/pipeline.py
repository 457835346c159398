"""Configuration-driven end-to-end runner.

:func:`run_pipeline` calls the stages in order, and the CLI subcommands
call the same functions:

1. :func:`clean_stage` -- ingest, drop rows, impute, remove outliers;
2. :func:`feature_stage` -- mutual-information scoring and selection;
3. :func:`evaluate_arm` -- CV and hold-out of every algorithm on the same
   folds and split, once per arm (as-is and oversampled);
4. :func:`emit_tables` -- the report files.

Re-running with an identical config produces byte-identical report files;
every number in them is a pure function of (config, input file).
Wall-clock timings go to the log only, never into the report, so that
guarantee holds.
"""

from __future__ import annotations

import json
import logging
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, check_integer
from .eval import EvalSummary, SmoteMode, score_folds
# perfbench/spans.py wraps these by their names in this module (see cli.py);
# nothing here calls them.
from .eval import cross_validate, holdout_evaluate, smote  # noqa: F401
from .features import FeatureScores, SelectionResult, score_features, select_k_best
from .ingest import (
    FRAMINGHAM,
    CohortTable,
    MissingReport,
    Schema,
    class_balance,
    load_csv,
    missing_report,
    read_json,
    schema_from_json,
)
from .models import ALGORITHMS, ClassifierSpec
from .preprocess import (
    Dataset,
    check_columns,
    OutlierReport,
    drop_rows_missing,
    feature_kinds,
    impute_mean,
    normalize_method,
    remove_outliers,
    select_features,
    to_dataset,
)
from .resample import SmoteParams, smote_plan

__all__ = ["PipelineConfig", "RunReport", "DEFAULT_CONFIG", "run_pipeline", "emit_tables"]

log = logging.getLogger(__name__)

#: Environment variable consulted when the config names no input file.
DATA_ENV_VAR = "CHD_DATA"

ARM_ORIGINAL = "original"
ARM_SMOTE = "smote"


def _typed(
    kinds: Any, what: str, convert: Callable[[Any], Any] = lambda v: v
) -> Callable[[str, Any], Any]:
    """Converter that accepts only ``kinds`` (never a bool) and names the key."""
    def check(key: str, value: Any) -> Any:
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(f"{key} must be {what}, not {value!r}")
        return convert(value)
    return check


#: Column lists; ``validate_columns`` rejects an entry that names no column.
_NAMES = _typed((list, tuple), "a list of column names", tuple)

#: One converter per field: it checks the JSON type (and an integer's least
#: value) and turns it into the field's type; ``from_dict`` builds smote and
#: algorithms.
_CONVERTERS: Mapping[str, Callable[[str, Any], Any]] = {
    "input_path": _typed((str, type(None)), "a string or null"),
    "schema_path": _typed((str, type(None)), "a string or null"),
    "seed": check_integer,
    "drop_columns": _NAMES,
    "impute_columns": _NAMES,
    "outlier_method": _typed(str, "a string"),
    "outlier_columns": _NAMES,
    "mi_bins": lambda key, value: check_integer(key, value, 1),
    "select_k": lambda key, value: None if value is None else check_integer(key, value, 1),
    "smote_mode": _typed(str, "a string", SmoteMode.from_string),
    "smote": _typed(Mapping, "an object"),
    "algorithms": _typed((list, tuple), "a list"),
    "cv_k": lambda key, value: check_integer(key, value, 2),
    "test_fraction": _typed(numbers.Real, "a number", float),
    "output_dir": _typed(str, "a string"),
}


def _lists(doc: Mapping[str, Any]) -> dict[str, Any]:
    return {key: list(v) if isinstance(v, tuple) else v for key, v in doc.items()}


@dataclass(frozen=True)
class PipelineConfig:
    """Validated run settings.  Each default is the shipped default; where
    the underlying workflow left a choice open, the decision is recorded
    next to the value it fixes."""

    input_path: str | None = None  # None falls back to the CHD_DATA environment variable
    schema_path: str | None = None  # None = built-in 16-column cohort schema
    seed: int = 0  # also the seed of smote and of each algorithm that sets none
    # rows with gaps in the two categorical-ish columns are dropped
    # (a column mean is meaningless there) ...
    drop_columns: tuple[str, ...] = ("BPMeds", "education")
    # ... while gaps in wide-range measurements take the column mean
    impute_columns: tuple[str, ...] = ("cigsPerDay", "totChol", "BMI", "heartRate", "glucose")
    # the three-sigma rule on the seven wide-range measurement columns
    outlier_method: str = "Sigma"
    outlier_columns: tuple[str, ...] = (
        "cigsPerDay", "totChol", "sysBP", "diaBP", "BMI", "heartRate", "glucose",
    )
    mi_bins: int = 10
    select_k: int | None = None  # None = keep every predictor
    # full-dataset resampling before folding mirrors the workflow this
    # package reproduces; switch to "leakage-free" for honest estimates
    smote_mode: SmoteMode = SmoteMode.PAPER_FAITHFUL
    smote: SmoteParams = SmoteParams()
    algorithms: tuple[ClassifierSpec, ...] = tuple(map(ClassifierSpec, ALGORITHMS))
    cv_k: int = 10
    test_fraction: float = 0.2
    output_dir: str = "chdml-out"

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be strictly between 0 and 1")
        if not self.algorithms:
            raise ConfigError("algorithms must name at least one classifier")
        object.__setattr__(self, "outlier_method", normalize_method(self.outlier_method))

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "PipelineConfig":
        """Build from a JSON document; absent keys take the field defaults."""
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {key: _CONVERTERS[key](key, value) for key, value in raw.items()}
        seed = kwargs.get("seed", cls.seed)  # the default of every other seed
        try:
            kwargs["smote"] = SmoteParams(**{"seed": seed, **kwargs.get("smote", {})})
        except (ConfigError, TypeError) as exc:  # TypeError: an unknown key
            raise ConfigError(f"smote {exc}") from None
        specs = []
        for position, entry in enumerate(kwargs.get("algorithms", ALGORITHMS)):
            try:
                specs.append(ClassifierSpec.from_doc(entry, seed=seed))
            except ConfigError as exc:
                raise ConfigError(f"algorithms[{position}] {exc}") from None
        return cls(**{**kwargs, "algorithms": tuple(specs)})

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict[str, Any]:
        """Echo sufficient to re-run: feeding this back reproduces the run."""
        return _lists({
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "smote_mode": self.smote_mode.value,
            "smote": _lists(asdict(self.smote)),
            "algorithms": [spec.to_doc() for spec in self.algorithms],
        })

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
        named = (*self.drop_columns, *self.impute_columns, *self.outlier_columns)
        check_columns(schema, named)
        d = len(schema.predictor_names)
        if self.select_k is not None and not 1 <= self.select_k <= d:
            raise ConfigError(f"select_k must be in [1, {d}]")


#: The shipped defaults as a config document: the echo of ``PipelineConfig()``.
DEFAULT_CONFIG: Mapping[str, Any] = PipelineConfig().to_dict()


@dataclass
class RunReport:
    """Everything a run produced.

    ``timings`` exists in memory for logging but is deliberately excluded
    from the JSON serialization: report files must be byte-identical
    across reruns and every number in them recomputable from (config,
    input file).
    """

    config: PipelineConfig
    cohort: CleanedCohort
    class_balance_resampled: tuple[int, int] | None
    feature_scores: FeatureScores
    selection: SelectionResult
    cv: dict[str, dict[str, EvalSummary]]        # arm -> algorithm -> summary
    timings: dict[str, float] = field(default_factory=dict)

    def to_doc(self) -> dict[str, Any]:
        cohort = self.cohort
        return {
            "config": self.config.to_dict(),
            "rows": {
                "loaded": cohort.rows_loaded,
                "after_drop": cohort.rows_after_drop,
                "after_outlier_removal": cohort.table.row_count,
            },
            "missing": cohort.missing.to_doc(),
            "class_balance": {
                "raw": list(cohort.balance_raw),
                "clean": list(cohort.balance_clean),
                "resampled": None
                if self.class_balance_resampled is None
                else list(self.class_balance_resampled),
            },
            "outliers": cohort.outliers.to_doc(),
            "feature_scores": self.feature_scores.to_doc(),
            "selection": {
                "k": self.selection.k,
                "selected": list(self.selection.selected),
            },
            "cv": {
                arm: {algo: summary.to_doc() for algo, summary in by_algo.items()}
                for arm, by_algo in self.cv.items()
            },
            "holdout": {
                arm: {algo: float(s.holdout_auc) for algo, s in by_algo.items()}
                for arm, by_algo in self.cv.items()
            },
            "boxplot": {
                arm: {
                    algo: list(map(float, _five_number(s.fold_aucs)))
                    for algo, s in by_algo.items()
                }
                for arm, by_algo in self.cv.items()
            },
        }


def _five_number(values: Sequence[float]) -> tuple[float, float, float, float, float]:
    """Minimum, quartiles (linear interpolation) and maximum of ``values``."""
    v = np.asarray(values, dtype=np.float64)
    q1, median, q3 = np.quantile(v, (0.25, 0.5, 0.75))
    return (v.min(), q1, median, q3, v.max())


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
    """Cross-validate and hold-out test every configured algorithm on the
    same folds and split, keyed as in ``report.json`` (``CART#2`` for a
    repeat); each summary carries its hold-out AUC."""
    summaries = score_folds(config.algorithms, dataset, config.cv_k, config.seed, mode,
                            config.smote, config.test_fraction)
    seen: dict[str, int] = {}
    results = {_algo_key(s.spec, seen): s for s in summaries}
    for key, s in results.items():
        log.info("%s/%s: cv mean %.6f, holdout %.6f", mode.value, key, s.mean, s.holdout_auc)
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
    if smote_arm_mode is not SmoteMode.NONE:  # SMOTE's errors come before the folds'
        minority_label, n_new = smote_plan(dataset, config.smote)
        counts = list(dataset.class_counts())
        counts[minority_label] += n_new
        balance_resampled = (counts[0], counts[1])

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
        config=config,
        cohort=cohort,
        class_balance_resampled=balance_resampled,
        feature_scores=scores,
        selection=selection,
        cv=cv,
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
    """Write the six report files, every table read from the one
    :meth:`RunReport.to_doc` document; numbers in CSVs carry 6 decimals."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = report.to_doc()

    algo_keys = list(doc["cv"][ARM_ORIGINAL])
    for arm, filename in ((ARM_ORIGINAL, "cv_original.csv"), (ARM_SMOTE, "cv_smote.csv")):
        summaries = doc["cv"][arm]
        csv_text = _table_csv(
            ["stat", *algo_keys],
            [
                ["Mean", *(summaries[a]["mean"] for a in algo_keys)],
                ["Std", *(summaries[a]["std"] for a in algo_keys)],
            ],
        )
        (out / filename).write_text(csv_text, encoding="utf-8")

    (out / "holdout.csv").write_text(
        _table_csv(
            ["arm", *algo_keys],
            [
                [arm, *(doc["holdout"][arm][a] for a in algo_keys)]
                for arm in (ARM_ORIGINAL, ARM_SMOTE)
            ],
        ),
        encoding="utf-8",
    )

    box_rows = []
    for arm in (ARM_ORIGINAL, ARM_SMOTE):
        for algo in algo_keys:
            box_rows.append([arm, algo, *doc["boxplot"][arm][algo]])
    (out / "boxplot_stats.csv").write_text(
        _table_csv(["arm", "algorithm", "min", "q1", "median", "q3", "max"], box_rows),
        encoding="utf-8",
    )

    (out / "feature_scores.txt").write_text(
        report.feature_scores.as_text(), encoding="utf-8"
    )
    write_json(out / "report.json", doc)


def write_json(path: Path, doc: Any) -> None:
    """Write ``doc`` as a JSON report file: 2-space indent, final newline, UTF-8."""
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
