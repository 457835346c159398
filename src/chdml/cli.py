"""Command-line entry point.

Subcommands::

    chdml run             full pipeline, all report files
    chdml clean           stop after cleaning; write the cleaned CSV + reports
    chdml score-features  stop after feature scoring
    chdml evaluate        cross-validation + hold-out for one mode only

All subcommands accept --config PATH (JSON; missing keys take the shipped
defaults), --output DIR, --seed N, and --mode none|paper-faithful|leakage-free,
the flags overriding the config file.  Exit codes: 0 success, 2 bad
configuration, 3 bad data, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .errors import ChdmlError, ConfigError, DataError
from .eval import SmoteMode
from .ingest import write_csv
from .pipeline import (
    ARM_ORIGINAL,
    ARM_SMOTE,
    PipelineConfig,
    clean_stage,
    evaluate_arm,
    feature_stage,
    run_pipeline,
)

# perfbench/spans.py wraps these stage functions by looking them up in this
# module as well as in chdml.pipeline; they stay bound here until it stops.
from .pipeline import (  # noqa: F401
    class_balance, cross_validate, drop_rows_missing, feature_kinds, holdout_evaluate,
    impute_mean, load_csv, missing_report, remove_outliers, score_features,
    select_features, select_k_best, to_dataset,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chdml",
        description="Cohort cleaning, feature scoring, oversampling, and "
        "classifier evaluation with reproducible reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute every stage and write all report files"),
        ("clean", "stop after cleaning; write cleaned.csv and the reports"),
        ("score-features", "stop after feature scoring"),
        ("evaluate", "cross-validate and hold-out test a single mode"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="JSON config file")
        cmd.add_argument("--output", metavar="DIR", help="output directory")
        cmd.add_argument("--seed", type=int, metavar="N", help="master seed")
        cmd.add_argument(
            "--mode",
            choices=[m.value for m in SmoteMode],
            help="oversampling placement for the resampled arm",
        )
        cmd.add_argument(
            "--input", metavar="PATH", help="input CSV (overrides the config)"
        )
        cmd.add_argument("-v", "--verbose", action="store_true")
    return parser


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = (
        PipelineConfig.from_file(args.config)
        if args.config
        else PipelineConfig.from_dict({})
    )
    overrides = {}
    if args.output is not None:
        overrides["output_dir"] = args.output
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["smote_mode"] = SmoteMode.from_string(args.mode)
    if args.input is not None:
        overrides["input_path"] = args.input
    if not overrides:
        return config
    if "seed" in overrides:
        # the master seed feeds the resampler and the models too
        seed = overrides["seed"]
        overrides["smote"] = dataclasses.replace(config.smote, seed=seed)
        overrides["algorithms"] = tuple(
            s.replace(seed=seed) for s in config.algorithms
        )
    return dataclasses.replace(config, **overrides)


def _cmd_clean(config: PipelineConfig) -> int:
    cohort = clean_stage(config)
    missing, outliers = cohort.missing, cohort.outliers
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(cohort.table, str(out / "cleaned.csv"))
    (out / "missing_report.json").write_text(missing.to_json() + "\n", encoding="utf-8")
    (out / "outlier_report.json").write_text(outliers.to_json() + "\n", encoding="utf-8")
    (out / "class_balance.json").write_text(
        json.dumps(
            {"raw": list(cohort.balance_raw), "clean": list(cohort.balance_clean)},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"cleaned rows: {cohort.table.row_count} of {cohort.rows_loaded}")
    print(f"outliers removed ({outliers.method}): {outliers.total} flagged cells")
    return EXIT_OK


def _cmd_score_features(config: PipelineConfig) -> int:
    _, scores, _ = feature_stage(config, clean_stage(config).table)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "feature_scores.txt").write_text(scores.as_text(), encoding="utf-8")
    (out / "feature_scores.json").write_text(scores.to_json() + "\n", encoding="utf-8")
    print(scores.as_text(), end="")
    return EXIT_OK


def _cmd_evaluate(config: PipelineConfig) -> int:
    dataset, _, _ = feature_stage(config, clean_stage(config).table)
    mode = config.smote_mode
    results = {}
    for key, summary in evaluate_arm(config, dataset, mode).items():
        results[key] = {
            "cv_mean": summary.mean,
            "cv_std": summary.std,
            "holdout_auc": summary.holdout_auc,
        }
        print(
            f"{key:>4}  cv mean {summary.mean:.6f}  "
            f"std {summary.std:.6f}  holdout {summary.holdout_auc:.6f}"
        )
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval.json").write_text(
        json.dumps({"mode": mode.value, "results": results}, indent=2) + "\n",
        encoding="utf-8",
    )
    return EXIT_OK


def _cmd_run(config: PipelineConfig) -> int:
    report = run_pipeline(config)
    algo_keys = list(report.cv[ARM_ORIGINAL])
    print(f"rows: {report.rows_loaded} loaded -> {report.rows_after_outlier_removal} clean")
    for arm in (ARM_ORIGINAL, ARM_SMOTE):
        means = "  ".join(
            f"{a}={report.cv[arm][a].mean:.4f}" for a in algo_keys
        )
        print(f"cv[{arm}]: {means}")
    print(f"report files in {config.output_dir}/")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    commands = {
        "run": _cmd_run,
        "clean": _cmd_clean,
        "score-features": _cmd_score_features,
        "evaluate": _cmd_evaluate,
    }
    try:
        config = _load_config(args)
        return commands[args.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ChdmlError as exc:  # anything package-specific but uncategorized
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
