"""Six classifiers behind one fit/score contract.

========= ============================== =========================
algorithm model                          score
========= ============================== =========================
LR        logistic regression (GD)       probability in [0, 1]
KNN       k-nearest neighbors            probability in [0, 1]
CART      Gini decision tree             probability in [0, 1]
NB        Gaussian naive Bayes           probability in [0, 1]
SVM       RBF-kernel SVM (SMO)           unbounded decision value
RF        random forest                  probability in [0, 1]
========= ============================== =========================

Probability models predict label 1 strictly above 0.5; the SVM strictly
above 0, so a perfectly uninformative model predicts the negative class.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..preprocess import Dataset
from . import bayes, forest, linear, neighbors, svm, tree
from .base import (
    ALGORITHMS,
    DEFAULT_HYPERPARAMETERS,
    ClassifierSpec,
    check_matrix,
    check_train,
)
from .bayes import NaiveBayesModel
from .forest import ForestModel
from .linear import LogisticModel
from .neighbors import KnnModel
from .svm import SvmModel
from .tree import CartModel

__all__ = [
    "ALGORITHMS",
    "DEFAULT_HYPERPARAMETERS",
    "ClassifierSpec",
    "TrainedModel",
    "fit",
    "score_many",
    "threshold_for",
]

TrainedModel = Union[
    LogisticModel, NaiveBayesModel, KnnModel, CartModel, ForestModel, SvmModel
]

#: Each algorithm's fit function.
_ALGORITHM_TABLE = {
    "LR": linear.fit,
    "NB": bayes.fit,
    "KNN": neighbors.fit,
    "CART": tree.fit,
    "RF": forest.fit,
    "SVM": svm.fit,
}

#: Algorithms that cannot train on a single class.
_TWO_CLASS_ONLY = frozenset({"LR", "NB", "SVM"})


def fit(spec: ClassifierSpec, train: Dataset) -> TrainedModel:
    """Train ``spec`` on ``train``; equal inputs give identical models.  An
    empty ``train``, or a single-class one for LR, NB and SVM, is a :class:`DataError`."""
    check_train(train, require_both_classes=spec.algorithm in _TWO_CLASS_ONLY)
    return _ALGORITHM_TABLE[spec.algorithm](spec, train)


def threshold_for(model: TrainedModel) -> float:
    """Decision threshold: 0 for the SVM, 0.5 for probability models."""
    return 0.0 if isinstance(model, SvmModel) else 0.5


def score_many(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Score every row of ``X`` (a 1-D ``X`` is one row); :class:`DataError`
    when its width is not the model's."""
    return model.score_many(check_matrix(X, model.n_features))
