"""Gaussian naive Bayes with a variance floor."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..preprocess import Dataset
from .base import ClassifierSpec

__all__ = ["NaiveBayesModel", "fit"]


@dataclass(frozen=True)
class NaiveBayesModel:
    spec: ClassifierSpec
    log_priors: np.ndarray   # shape (2,)
    means: np.ndarray        # shape (2, d)
    variances: np.ndarray    # shape (2, d), floored, strictly positive

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def score_many(self, X: np.ndarray) -> np.ndarray:
        """Posterior P(y=1 | x), computed in log space."""
        log_post = np.empty((X.shape[0], 2), dtype=np.float64)
        for c in (0, 1):
            var = self.variances[c]
            log_lik = -0.5 * (
                np.log(2.0 * np.pi * var) + (X - self.means[c]) ** 2 / var
            ).sum(axis=1)
            log_post[:, c] = self.log_priors[c] + log_lik
        return np.exp(log_post[:, 1] - np.logaddexp(log_post[:, 0], log_post[:, 1]))


def fit(spec: ClassifierSpec, train: Dataset) -> NaiveBayesModel:
    """Per-class priors and per-feature Gaussians.

    Class variances are floored at ``var_floor_ratio`` times the largest
    per-feature variance of the whole training matrix, so constant
    within-class features cannot produce a zero variance.  A ratio so large
    that ``2 * pi`` times the floor is not finite, so that no score would
    be, is refused with a :class:`ConfigError`.
    """
    floor_ratio = spec.resolved()["var_floor_ratio"]

    X, y = train.features, train.labels
    n = len(y)
    floor = floor_ratio * float(X.var(axis=0).max())
    if not math.isfinite(2.0 * math.pi * floor):
        raise ConfigError(
            f"NB hyperparameter 'var_floor_ratio' {floor_ratio!r} is too large for "
            "this training data: the variance floor it sets is not finite"
        )
    means = np.empty((2, train.n_features))
    variances = np.empty((2, train.n_features))
    log_priors = np.empty(2)
    for c in (0, 1):
        rows = X[y == c]
        log_priors[c] = np.log(len(rows) / n)
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), floor)
    # keep strictly positive even when every feature is constant overall
    variances = np.maximum(variances, np.finfo(np.float64).tiny)
    return NaiveBayesModel(
        spec=spec, log_priors=log_priors, means=means, variances=variances
    )
