"""chdml — coronary-heart-disease risk modelling on tabular cohort data.

The package covers the full journey from a raw cohort CSV to evaluation
reports: typed ingestion, cleaning (row drops, mean imputation, outlier
removal), mutual-information feature selection, SMOTE oversampling, six
classifiers implemented from first principles on numpy, ROC-AUC evaluation
by stratified cross-validation and hold-out testing, and a reproducible,
configuration-driven pipeline with a CLI.

Everything stochastic is seeded; a pipeline run is a pure function of its
configuration and input file.

The top level exports the names README documents and the two error
families with their base; every other name lives in its submodule
(``chdml.eval.roc_auc``).
"""

from .errors import ChdmlError, ConfigError, DataError
from .eval import SmoteMode, cross_validate, grid_search
from .features import score_features
from .ingest import class_balance, load_csv, missing_report, write_csv
from .models import (
    ClassifierSpec,
    fit,
    load_model,
    model_from_json,
    model_to_json,
    predict,
    save_model,
    score,
)
from .pipeline import DEFAULT_CONFIG, PipelineConfig
from .preprocess import drop_rows_missing, impute_mean, remove_outliers, to_dataset
from .resample import SmoteParams

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ChdmlError",
    "ConfigError",
    "DataError",
    # ingest
    "class_balance",
    "load_csv",
    "missing_report",
    "write_csv",
    # preprocess
    "drop_rows_missing",
    "impute_mean",
    "remove_outliers",
    "to_dataset",
    # features
    "score_features",
    # resample
    "SmoteParams",
    # models
    "ClassifierSpec",
    "fit",
    "score",
    "predict",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
    # eval
    "SmoteMode",
    "cross_validate",
    "grid_search",
    # pipeline
    "DEFAULT_CONFIG",
    "PipelineConfig",
]
