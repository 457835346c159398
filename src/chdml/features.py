"""Mutual-information feature scoring and top-k selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ingest import FeatureKind
from .preprocess import Dataset

__all__ = [
    "FeatureScores",
    "SelectionResult",
    "discretize",
    "mutual_information",
    "score_features",
    "select_k_best",
]


@dataclass(frozen=True)
class FeatureScores:
    """Per-predictor dependence scores (nats), index-aligned with the schema."""

    scores: tuple[float, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.scores) != len(self.names):
            raise DataError("scores and names must pair up")

    def as_text(self) -> str:
        lines = [f"Feature {i}: {s:.6f}" for i, s in enumerate(self.scores)]
        return "\n".join(lines) + "\n"

    def to_doc(self) -> list[dict[str, Any]]:
        return [
            {"index": i, "name": n, "score": float(s)}
            for i, (n, s) in enumerate(zip(self.names, self.scores))
        ]


@dataclass(frozen=True)
class SelectionResult:
    """Indices of the retained predictors, best first."""

    selected: tuple[int, ...]
    k: int


def discretize(values: Sequence[float], bins: int) -> np.ndarray:
    """Equal-frequency bin codes with identical values always sharing a bin.

    With b = min(bins, number of distinct values): when every distinct
    value can have its own bin (distinct <= bins) codes are simply the
    rank of the value among the distinct values, which keeps binary and
    ordinal columns intact.  Otherwise cut points are placed at the
    j/b quantiles of the data and a value's code is the number of cut
    points strictly below it.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise DataError("cannot discretize an empty column")
    if bins < 1:
        raise ConfigError("bins must be at least 1")
    distinct = np.unique(v)
    b = min(int(bins), distinct.size)
    if distinct.size <= bins:
        return np.searchsorted(distinct, v).astype(np.int64)
    edges = np.quantile(v, np.arange(1, b) / b)
    return np.searchsorted(edges, v, side="left").astype(np.int64)


def mutual_information(x_codes: Sequence[int], y: Sequence[int]) -> float:
    """Plug-in mutual information (nats) of two discrete vectors.

    MI = sum over cells of p(x,y) * ln[p(x,y) / (p(x)p(y))], with empty
    cells contributing nothing (0 * ln 0 = 0).
    """
    x = np.asarray(x_codes)
    yv = np.asarray(y)
    if x.shape != yv.shape:
        raise DataError("x and y must have equal length")
    n = x.size
    if n == 0:
        raise DataError("mutual information of empty vectors")
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(yv, return_inverse=True)
    joint = np.zeros((xi.max() + 1, yi.max() + 1), dtype=np.float64)
    np.add.at(joint, (xi, yi), 1.0)
    joint /= n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / np.outer(px, py)[nz]
    total = float(np.sum(joint[nz] * np.log(ratio)))
    return max(total, 0.0)


def score_features(
    dataset: Dataset,
    bins: int = 10,
    kinds: Sequence[FeatureKind] | None = None,
) -> FeatureScores:
    """Score every predictor against the labels.

    Continuous columns are discretized first; binary/ordinal columns (when
    ``kinds`` is given) go to :func:`mutual_information` as they are, since
    it codes each distinct value itself.  Without ``kinds`` every column
    goes through :func:`discretize`, which leaves low-arity columns intact
    anyway whenever ``bins`` covers their distinct values.
    """
    if dataset.n_rows == 0:
        raise DataError("cannot score an empty dataset")
    if kinds is not None and len(kinds) != dataset.n_features:
        raise DataError("kinds must have one entry per feature")
    scores = []
    for j in range(dataset.n_features):
        column = dataset.features[:, j]
        if kinds is None or kinds[j] is FeatureKind.CONTINUOUS:
            column = discretize(column, bins)
        scores.append(mutual_information(column, dataset.labels))
    return FeatureScores(scores=tuple(scores), names=tuple(dataset.feature_names))


def select_k_best(scores: FeatureScores, k: int) -> SelectionResult:
    """Top-k predictor indices by descending score, ties by ascending index."""
    d = len(scores.scores)
    if not 1 <= k <= d:
        raise ConfigError(f"k must be in [1, {d}], got {k}")
    order = sorted(range(d), key=lambda i: (-scores.scores[i], i))
    return SelectionResult(selected=tuple(order[:k]), k=k)
