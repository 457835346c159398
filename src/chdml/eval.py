"""Evaluation: stratified splits, k-fold cross-validation, ROC-AUC,
hold-out testing, oversampling placement modes, and grid search.

Oversampling placement is a first-class choice because it changes results
dramatically on imbalanced data.  Both :func:`iter_cv_splits` and
:func:`holdout_split` place it by these rules:

* ``NONE`` — evaluate the data as-is.
* ``PAPER_FAITHFUL`` — resample the full dataset to parity *before*
  folding or splitting.  Synthetic rows then land in evaluation folds,
  which inflates scores; provided because the workflow being reproduced
  behaves this way.
* ``LEAKAGE_FREE`` — resample only the training side of each fold (fold
  ``f`` seeded by ``child_seed(params.seed, f)``) or of the split.
  Held-out rows are always original rows.  The sound option.

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
from .errors import ConfigError, DataError
from .models import ClassifierSpec
from .preprocess import Dataset, standardize, take_rows
from .resample import SmoteParams, smote
from .rng import child_seed, generator

__all__ = [
    "SmoteMode",
    "EvalSummary",
    "stratified_split",
    "stratified_kfold",
    "roc_auc",
    "iter_cv_splits",
    "holdout_split",
    "score_folds",
    "cross_validate",
    "holdout_evaluate",
    "grid_search",
]

#: Algorithms that train and score on z-scored features.
STANDARDIZED_ALGORITHMS = frozenset({"LR", "SVM", "KNN"})


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
    fold_accuracies: tuple[float, ...]
    fold_converged: tuple[bool, ...]
    holdout_auc: float | None

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


def _class_indices(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)


def stratified_split(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Seeded train/test split preserving the class ratio.

    Per class, round(test_fraction * class count) rows go to the test
    side (round half up).  Raises :class:`DataError` when a class has
    fewer than 2 rows or would end up entirely on one side.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be strictly between 0 and 1")
    rng = generator(seed)
    test_parts, train_parts = [], []
    for cls_idx in _class_indices(dataset.labels):
        n_c = cls_idx.size
        if n_c < 2:
            raise DataError("each class needs at least 2 rows to split")
        n_test = int(np.floor(test_fraction * n_c + 0.5))
        if n_test == 0 or n_test == n_c:
            raise DataError(
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
    row indices.  Raises :class:`DataError` when a class has fewer
    than k rows.
    """
    if k < 2:
        raise ConfigError("k must be at least 2")
    classes = _class_indices(dataset.labels)
    if min(cls_idx.size for cls_idx in classes) < k:  # before k lists are built
        raise DataError(f"each class needs at least {k} rows for {k} folds")
    rng = generator(seed)
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls_idx in classes:
        shuffled = rng.permutation(cls_idx)
        for f in range(k):
            folds[f].append(shuffled[f::k])
    return [np.sort(np.concatenate(parts)) for parts in folds]


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing their average rank; ``values``
    must hold no NaN."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + (counts - 1) / 2.0 + 1.0)[inverse]


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based (Mann-Whitney) ROC-AUC with midranks for ties.

    Equals the probability that a random positive outscores a random
    negative, ties counted half, and the trapezoidal area under the ROC
    curve.  A NaN score raises :class:`DataError`.
    """
    s = np.asarray(scores, dtype=np.float64)
    if np.isnan(s).any():
        raise DataError("ROC-AUC scores contain NaN")
    y = np.asarray(labels)
    n1 = int((y == 1).sum())
    n0 = int((y == 0).sum())
    if n1 == 0 or n0 == 0:
        raise DataError("ROC-AUC needs both classes present")
    ranks = _midranks(s)
    r1 = float(ranks[y == 1].sum())
    return (r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def iter_cv_splits(
    dataset: Dataset,
    k: int,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
) -> Iterator[tuple[Dataset, Dataset]]:
    """Yield (train, test) datasets per fold, placed as the module docstring says."""
    params = smote_params or SmoteParams()
    data = smote(dataset, params) if mode is SmoteMode.PAPER_FAITHFUL else dataset
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


def holdout_split(
    dataset: Dataset,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
    test_fraction: float = 0.2,
) -> tuple[Dataset, Dataset]:
    """The stratified hold-out (train, test) pair, placed as the module docstring says."""
    params = smote_params or SmoteParams()
    data = smote(dataset, params) if mode is SmoteMode.PAPER_FAITHFUL else dataset
    train, test = stratified_split(data, test_fraction, seed)
    return (smote(train, params) if mode is SmoteMode.LEAKAGE_FREE else train), test


def _fit_and_score(
    specs: Sequence[ClassifierSpec], train: Dataset, test: Dataset
) -> list[tuple[float, float, bool]]:
    """AUC, plain accuracy, and convergence of each spec fitted on ``train``
    and scored on ``test``; the caller sets the specs' seeds.  The pair is
    z-scored once, by ``train``'s statistics, for the specs that need it."""
    scaled = None
    if any(s.algorithm in STANDARDIZED_ALGORITHMS for s in specs):
        scaled = standardize(train, train), standardize(train, test)
    results = []
    for spec in specs:
        fit_on, score_on = scaled if spec.algorithm in STANDARDIZED_ALGORITHMS else (train, test)
        model = models.fit(spec, fit_on)
        scores = models.score_many(model, score_on.features)
        auc = roc_auc(scores, score_on.labels)
        predicted = (scores > models.threshold_for(model)).astype(np.int64)
        accuracy = float((predicted == score_on.labels).mean())
        results.append((auc, accuracy, bool(getattr(model, "converged", True))))
    return results


def score_folds(
    specs: Sequence[ClassifierSpec],
    dataset: Dataset,
    k: int,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
    test_fraction: float | None = None,
) -> list[EvalSummary]:
    """Cross-validate every spec on the same folds, built one at a time;
    fold ``f`` fits each spec with ``child_seed(spec.seed, f)``.  With a
    ``test_fraction`` each spec is then fitted with its own seed on
    :func:`holdout_split`, built after the last fold, for ``holdout_auc``.
    Paper-faithful oversampling runs once, for the folds and the hold-out."""
    split_mode = mode
    if mode is SmoteMode.PAPER_FAITHFUL:
        dataset, split_mode = smote(dataset, smote_params or SmoteParams()), SmoteMode.NONE
    fits = []  # fits[f][i]: (AUC, accuracy, converged) of specs[i] on fold f
    for f, (train, test) in enumerate(iter_cv_splits(dataset, k, seed, split_mode, smote_params)):
        fits.append(_fit_and_score(
            [s.replace(seed=child_seed(s.seed, f)) for s in specs], train, test))
    holdout_aucs = [None] * len(specs)
    if test_fraction is not None:
        holdout = holdout_split(dataset, seed, split_mode, smote_params, test_fraction)
        holdout_aucs = [auc for auc, _, _ in _fit_and_score(specs, *holdout)]
    summaries = []
    for spec, per_fold, holdout_auc in zip(specs, zip(*fits), holdout_aucs):
        aucs, accs, flags = zip(*per_fold)
        summaries.append(EvalSummary(
            spec=spec, mode=mode, fold_aucs=aucs, mean=float(np.mean(aucs)),
            std=float(np.std(aucs, ddof=1)), fold_accuracies=accs, fold_converged=flags,
            holdout_auc=holdout_auc,
        ))
    return summaries


def cross_validate(
    spec: ClassifierSpec,
    dataset: Dataset,
    k: int,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
) -> EvalSummary:
    """Stratified k-fold cross-validation summarized by mean/std ROC-AUC."""
    return score_folds([spec], dataset, k, seed, mode, smote_params)[0]


def holdout_evaluate(
    spec: ClassifierSpec,
    dataset: Dataset,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
    test_fraction: float = 0.2,
) -> float:
    """ROC-AUC of ``spec`` fitted with its own seed on :func:`holdout_split`."""
    train, test = holdout_split(dataset, seed, mode, smote_params, test_fraction)
    return _fit_and_score([spec], train, test)[0][0]


def grid_search(
    spec: ClassifierSpec,
    grid: Mapping[str, Sequence[float]],
    dataset: Dataset,
    k: int,
    seed: int,
    mode: SmoteMode = SmoteMode.NONE,
    smote_params: SmoteParams | None = None,
) -> tuple[ClassifierSpec, float, list[dict[str, Any]]]:
    """Exhaustive hyperparameter sweep scored by CV mean ROC-AUC, every
    cell on the same folds.

    Returns the best spec (ties keep the earlier grid cell), its mean
    AUC, and one table row per cell.  Unknown hyperparameter names fail
    at spec construction.
    """
    if not grid:
        raise ConfigError("grid must name at least one hyperparameter")
    cells = [dict(zip(grid, map(float, values))) for values in itertools.product(*grid.values())]
    specs = [spec.replace(hyperparameters={**spec.hyperparameters, **cell}) for cell in cells]
    summaries = score_folds(specs, dataset, k, seed, mode, smote_params)
    table = [{"hyperparameters": c, "mean": s.mean, "std": s.std} for c, s in zip(cells, summaries)]
    best = max(summaries, key=lambda s: s.mean)  # the first of equal means
    return best.spec, best.mean, table
