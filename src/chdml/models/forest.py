"""Random forest: bagged Gini trees with per-split feature subsampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..preprocess import Dataset
from ..rng import generator
from .base import ClassifierSpec
from .tree import Tree, build_tree

__all__ = ["ForestModel", "fit"]


@dataclass(frozen=True)
class ForestModel:
    spec: ClassifierSpec
    n_features: int
    trees: tuple[Tree, ...]

    def score_many(self, X: np.ndarray) -> np.ndarray:
        """Mean of the per-tree leaf scores."""
        total = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            total += tree.score_many(X)
        return total / len(self.trees)


def fit(spec: ClassifierSpec, train: Dataset) -> ForestModel:
    """Train ``n_trees`` trees, each on its own bootstrap sample.

    Tree t draws all its randomness from a generator derived from
    (seed, t), so training is reproducible and could be parallelized
    without changing the result.  ``mtry`` 0 resolves to floor(sqrt(d));
    ``bootstrap`` 0 uses the training rows as-is (no resampling), which
    pins a single-tree forest to the plain tree exactly.
    """
    hp = spec.resolved()
    d = train.n_features
    mtry = min(hp["mtry"] or int(math.floor(math.sqrt(d))), d)

    X, y = train.features, train.labels
    n = train.n_rows
    trees = []
    for t in range(hp["n_trees"]):
        rng = generator(spec.seed, t)
        if hp["bootstrap"]:
            sample = rng.integers(0, n, size=n)
            Xt, yt = X[sample], y[sample]
        else:
            Xt, yt = X, y
        trees.append(
            build_tree(
                Xt,
                yt,
                min_samples_split=hp["min_samples_split"],
                max_depth=hp["max_depth"],
                rng=rng,
                mtry=mtry,
            )
        )
    return ForestModel(spec=spec, trees=tuple(trees), n_features=d)
