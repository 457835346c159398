"""k-nearest-neighbors scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..preprocess import Dataset, nearest_columns, sq_distance_chunks
from .base import ClassifierSpec

__all__ = ["KnnModel", "fit"]


@dataclass(frozen=True)
class KnnModel:
    spec: ClassifierSpec
    k: int
    train_features: np.ndarray
    train_labels: np.ndarray

    @property
    def n_features(self) -> int:
        return self.train_features.shape[1]

    def score_many(self, X: np.ndarray) -> np.ndarray:
        """Positive fraction among the k nearest training rows.

        Distances are squared Euclidean (:func:`sq_distance_chunks`); exact
        ties resolve to the lower training-row index, as a stable sort
        would (:func:`nearest_columns`).  Queries go chunk by chunk to
        bound memory.
        """
        k = min(self.k, self.train_features.shape[0])
        out = np.empty(X.shape[0], dtype=np.float64)
        for rows, d2 in sq_distance_chunks(X, self.train_features):
            out[rows] = self.train_labels[nearest_columns(d2, k)].mean(axis=1)
        return out


def fit(spec: ClassifierSpec, train: Dataset) -> KnnModel:
    """Store the training data; all work happens at scoring time."""
    return KnnModel(
        spec=spec,
        train_features=train.features,
        train_labels=train.labels,
        k=spec.resolved()["k"],
    )
