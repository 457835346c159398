"""k-nearest-neighbors scoring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..preprocess import Dataset, sq_distance_chunks
from .base import ClassifierSpec, check_matrix, check_train

__all__ = ["KnnModel", "fit"]


@dataclass(frozen=True)
class KnnModel:
    spec: ClassifierSpec
    train_features: np.ndarray
    train_labels: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.train_features.shape[1]

    def score_many(self, X: np.ndarray) -> np.ndarray:
        """Positive fraction among the k nearest training rows.

        Distances are squared Euclidean (:func:`sq_distance_chunks`); exact
        ties resolve to the lower training-row index (stable sort).  Queries
        go chunk by chunk to bound memory.
        """
        X = check_matrix(X, self.n_features)
        k = min(self.k, self.train_features.shape[0])
        out = np.empty(X.shape[0], dtype=np.float64)
        for rows, d2 in sq_distance_chunks(X, self.train_features):
            order = np.argsort(d2, axis=1, kind="stable")[:, :k]
            out[rows] = self.train_labels[order].mean(axis=1)
        return out

    def parameters_doc(self) -> dict[str, Any]:
        return {
            "k": int(self.k),
            "train_features": [[float(v) for v in row] for row in self.train_features],
            "train_labels": [int(v) for v in self.train_labels],
        }

    @classmethod
    def from_parameters_doc(
        cls, spec: ClassifierSpec, doc: Mapping[str, Any]
    ) -> "KnnModel":
        return cls(
            spec=spec,
            train_features=np.asarray(doc["train_features"], dtype=np.float64),
            train_labels=np.asarray(doc["train_labels"], dtype=np.int64),
            k=int(doc["k"]),
        )


def fit(spec: ClassifierSpec, train: Dataset) -> KnnModel:
    """Store the training data; all work happens at scoring time."""
    check_train(train, require_both_classes=False)
    k = int(round(spec.resolved()["k"]))
    if k < 1:
        k = 1
    return KnnModel(
        spec=spec,
        train_features=train.features,
        train_labels=train.labels,
        k=k,
    )
