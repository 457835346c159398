"""Evaluation: stratified splits, k-fold cross-validation, ROC-AUC,
hold-out testing, oversampling placement modes, and grid search.

Oversampling placement is a first-class choice because it changes results
dramatically on imbalanced data:

* ``NONE`` — evaluate the data as-is.
* ``PAPER_FAITHFUL`` — resample the full dataset to parity *before*
  folding or splitting.  Synthetic rows then land in evaluation folds,
  which inflates scores; provided because the workflow being reproduced
  behaves this way.
* ``LEAKAGE_FREE`` — resample only the training side inside each fold or
  split.  Held-out rows are always original rows.  This is the
  methodologically sound option.

Models that are sensitive to feature scale (LR, SVM, KNN) see z-scored
features, with statistics always taken from the (possibly resampled)
training side only.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from . import models
from .errors import ClassTooSmall, ConfigError, SingleClass
from .models import ClassifierSpec
from .preprocess import Dataset, standardize, take_rows
from .resample import SmoteParams, smote
from .rng import child_seed, generator

__all__ = [
    "SmoteMode",
    "EvalSummary",
    "RocCurve",
    "stratified_split",
    "stratified_kfold",
    "roc_auc",
    "roc_curve",
    "iter_cv_splits",
    "cross_validate",
    "holdout_evaluate",
    "grid_search",
]

#: Algorithms that train and score on z-scored features.
STANDARDIZED_ALGORITHMS = frozenset({"LR", "SVM", "KNN"})

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class SmoteMode(enum.Enum):
    NONE = "none"
    PAPER_FAITHFUL = "paper-faithful"
    LEAKAGE_FREE = "leakage-free"

    @classmethod
    def from_string(cls, text: str) -> "SmoteMode":
        key = str(text).strip().lower().replace("_", "-")
        for mode in cls:
            if key == mode.value:
                return mode
        raise ConfigError(
            f"unknown oversampling mode {text!r}; choose from "
            f"{[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class EvalSummary:
    """Per-fold ROC-AUCs with their mean and sample standard deviation."""

    spec: ClassifierSpec
    mode: SmoteMode
    fold_aucs: tuple[float, ...]
    mean: float
    std: float
    fold_accuracies: tuple[float, ...] = ()
    fold_converged: tuple[bool, ...] = ()
    holdout_auc: float | None = None

    def to_doc(self) -> dict[str, Any]:
        return {
            "algorithm": self.spec.to_doc(),
            "mode": self.mode.value,
            "fold_aucs": [float(a) for a in self.fold_aucs],
            "mean": float(self.mean),
            "std": float(self.std),
            "fold_accuracies": [float(a) for a in self.fold_accuracies],
            "fold_converged": [bool(c) for c in self.fold_converged],
            "holdout_auc": None if self.holdout_auc is None else float(self.holdout_auc),
        }


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over descending score thresholds."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    @property
    def area(self) -> float:
        return float(_trapezoid(self.tpr, self.fpr))

    def to_csv(self) -> str:
        lines = ["fpr,tpr"]
        lines += [f"{f!r},{t!r}" for f, t in zip(self.fpr, self.tpr)]
        return "\n".join(lines) + "\n"


def _class_indices(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)


def stratified_split(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Seeded train/test split preserving the class ratio.

    Per class, round(test_fraction * class count) rows go to the test
    side (round half up).  Raises :class:`ClassTooSmall` when a class has
    fewer than 2 rows or would end up entirely on one side.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be strictly between 0 and 1")
    rng = generator(seed)
    test_parts, train_parts = [], []
    for cls_idx in _class_indices(dataset.labels):
        n_c = cls_idx.size
        if n_c < 2:
            raise ClassTooSmall("each class needs at least 2 rows to split")
        n_test = int(np.floor(test_fraction * n_c + 0.5))
        if n_test == 0 or n_test == n_c:
            raise ClassTooSmall(
                f"test_fraction {test_fraction} leaves a class empty on one side"
            )
        shuffled = rng.permutation(cls_idx)
        test_parts.append(shuffled[:n_test])
        train_parts.append(shuffled[n_test:])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.sort(np.concatenate(train_parts))
    return take_rows(dataset, train_idx), take_rows(dataset, test_idx)


def stratified_kfold(dataset: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """Seeded k disjoint index folds with per-class round-robin dealing.

    Per class the fold sizes differ by at most one; folds partition all
    row indices.  Raises :class:`ClassTooSmall` when a class has fewer
    than k rows.
    """
    if k < 2:
        raise ConfigError("k must be at least 2")
    rng = generator(seed)
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls_idx in _class_indices(dataset.labels):
        if cls_idx.size < k:
            raise ClassTooSmall(f"each class needs at least {k} rows for {k} folds")
        shuffled = rng.permutation(cls_idx)
        for f in range(k):
            folds[f].append(shuffled[f::k])
    return [np.sort(np.concatenate(parts)) for parts in folds]


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing their average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based (Mann-Whitney) ROC-AUC with midranks for ties.

    Equals the probability that a random positive outscores a random
    negative, ties counted half, and the trapezoidal area under the ROC
    curve.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n1 = int((y == 1).sum())
    n0 = int((y == 0).sum())
    if n1 == 0 or n0 == 0:
        raise SingleClass("ROC-AUC needs both classes present")
    ranks = _midranks(s)
    r1 = float(ranks[y == 1].sum())
    return (r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> RocCurve:
    """Operating points at every distinct score, thresholds descending."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n1 = int((y == 1).sum())
    n0 = int((y == 0).sum())
    if n1 == 0 or n0 == 0:
        raise SingleClass("a ROC curve needs both classes present")
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    sorted_pos = (y[order] == 1).astype(np.float64)
    # last occurrence of each distinct score in descending order
    boundary = np.flatnonzero(
        np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    )
    tp = np.cumsum(sorted_pos)[boundary]
    fp = (boundary + 1) - tp
    tpr = np.concatenate([[0.0], tp / n1])
    fpr = np.concatenate([[0.0], fp / n0])
    thresholds = np.concatenate([[np.inf], sorted_scores[boundary]])
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def _apply_smote_mode(
    dataset: Dataset, mode: SmoteMode, params: SmoteParams | None
) -> Dataset:
    if mode is SmoteMode.PAPER_FAITHFUL:
        return smote(dataset, params or SmoteParams())
    return dataset


def iter_cv_splits(
    dataset: Dataset,
    k: int,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
) -> Iterator[tuple[Dataset, Dataset]]:
    """Yield (train, test) datasets per fold with the mode applied.

    PAPER_FAITHFUL resamples the whole dataset before folding, so
    synthetic rows appear on both sides.  LEAKAGE_FREE resamples each
    fold's training side only (with a per-fold derived seed); the test
    side is always original rows.
    """
    params = smote_params or SmoteParams()
    data = _apply_smote_mode(dataset, mode, params)
    folds = stratified_kfold(data, k, seed)
    all_idx = np.arange(data.n_rows)
    for f, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
        train = take_rows(data, train_idx)
        test = take_rows(data, test_idx)
        if mode is SmoteMode.LEAKAGE_FREE:
            fold_params = dataclasses.replace(params, seed=child_seed(params.seed, f))
            train = smote(train, fold_params)
        yield train, test


def _fit_and_score(
    spec: ClassifierSpec, train: Dataset, test: Dataset, fold: int
) -> tuple[float, float, bool]:
    """AUC, plain accuracy, and convergence of one fold."""
    if spec.algorithm in STANDARDIZED_ALGORITHMS:
        train, test = (
            standardize(train, train, keep_constant=True),
            standardize(train, test, keep_constant=True),
        )
    fold_spec = spec.replace(seed=child_seed(spec.seed, fold))
    model = models.fit(fold_spec, train)
    scores = models.score_many(model, test.features)
    auc = roc_auc(scores, test.labels)
    predicted = (scores > models.threshold_for(model)).astype(np.int64)
    accuracy = float((predicted == test.labels).mean())
    return auc, accuracy, bool(getattr(model, "converged", True))


def cross_validate(
    spec: ClassifierSpec,
    dataset: Dataset,
    k: int,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
) -> EvalSummary:
    """Stratified k-fold cross-validation summarized by mean/std ROC-AUC."""
    aucs, accs, flags = [], [], []
    for f, (train, test) in enumerate(
        iter_cv_splits(dataset, k, seed, mode, smote_params)
    ):
        auc, acc, ok = _fit_and_score(spec, train, test, f)
        aucs.append(auc)
        accs.append(acc)
        flags.append(ok)
    arr = np.asarray(aucs)
    return EvalSummary(
        spec=spec,
        mode=mode,
        fold_aucs=tuple(aucs),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if len(aucs) >= 2 else 0.0,
        fold_accuracies=tuple(accs),
        fold_converged=tuple(flags),
    )


def holdout_evaluate(
    spec: ClassifierSpec,
    dataset: Dataset,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
    test_fraction: float = 0.2,
) -> float:
    """Single stratified split, fit on train, ROC-AUC on the test side.

    PAPER_FAITHFUL resamples before the split (test side contaminated,
    by design); LEAKAGE_FREE resamples the training side after the split.
    """
    params = smote_params or SmoteParams()
    data = _apply_smote_mode(dataset, mode, params)
    train, test = stratified_split(data, test_fraction, seed)
    if mode is SmoteMode.LEAKAGE_FREE:
        train = smote(train, params)
    if spec.algorithm in STANDARDIZED_ALGORITHMS:
        train, test = (
            standardize(train, train, keep_constant=True),
            standardize(train, test, keep_constant=True),
        )
    model = models.fit(spec, train)
    return roc_auc(models.score_many(model, test.features), test.labels)


def grid_search(
    spec: ClassifierSpec,
    grid: Mapping[str, Sequence[float]],
    dataset: Dataset,
    k: int,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
) -> tuple[ClassifierSpec, float, list[dict[str, Any]]]:
    """Exhaustive hyperparameter sweep scored by CV mean ROC-AUC.

    Returns the best spec (ties keep the earlier grid cell), its mean
    AUC, and one table row per cell.  Unknown hyperparameter names fail
    at spec construction.
    """
    if not grid:
        raise ConfigError("grid must name at least one hyperparameter")
    names = list(grid)
    best_spec: ClassifierSpec | None = None
    best_mean = -np.inf
    table: list[dict[str, Any]] = []
    for values in itertools.product(*(grid[n] for n in names)):
        cell = dict(zip(names, (float(v) for v in values)))
        merged = dict(spec.hyperparameters)
        merged.update(cell)
        cell_spec = spec.replace(hyperparameters=merged)
        summary = cross_validate(cell_spec, dataset, k, seed, mode, smote_params)
        table.append(
            {"hyperparameters": cell, "mean": summary.mean, "std": summary.std}
        )
        if summary.mean > best_mean:
            best_mean = summary.mean
            best_spec = cell_spec
    assert best_spec is not None
    return best_spec, float(best_mean), table
