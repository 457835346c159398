"""Shared classifier contract: specs, defaults, and the scoring interface.

Every algorithm implements ``fit`` into a frozen dataclass exposing
``score_many`` and ``n_features``; its fields are what a model file holds
(see :mod:`chdml.models`, which checks the training set and the query
width for every algorithm).  Five of the six
produce probabilities in [0, 1] thresholded strictly above 0.5; the SVM
produces an unbounded decision value thresholded strictly above 0.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..errors import ConfigError, DataError, check_integer
from ..preprocess import Dataset

__all__ = [
    "ALGORITHMS",
    "DEFAULT_HYPERPARAMETERS",
    "ClassifierSpec",
    "Prediction",
    "FORMAT_VERSION",
]

ALGORITHMS = ("LR", "KNN", "CART", "NB", "SVM", "RF")

#: Fixed defaults; every report records the resolved values so results
#: are self-describing.
DEFAULT_HYPERPARAMETERS: Mapping[str, Mapping[str, float]] = {
    "LR": {"lambda": 1.0, "step": 0.1, "max_iter": 1000, "tol": 1e-6},
    "KNN": {"k": 5},
    "CART": {"min_samples_split": 2, "max_depth": 0},  # 0 = unrestricted
    "NB": {"var_floor_ratio": 1e-9},
    "SVM": {"C": 1.0, "gamma": 0.0, "tol": 1e-3},  # gamma 0 = 1/(d * mean var)
    "RF": {
        "n_trees": 100,
        "mtry": 0,  # 0 = floor(sqrt(d))
        "bootstrap": 1,  # 0 = identity sample (no resampling)
        "min_samples_split": 2,
        "max_depth": 0,
    },
}

#: Lower bound of each hyperparameter that has one; those with an integer
#: default are compared after rounding, as :meth:`ClassifierSpec.resolved` rounds them.
HYPERPARAMETER_BOUNDS: Mapping[str, tuple[str, float]] = {
    "step": ("above", 0), "tol": ("above", 0), "C": ("above", 0),
    "gamma": ("at least", 0), "lambda": ("at least", 0), "var_floor_ratio": ("at least", 0),
    "k": ("at least", 1), "n_trees": ("at least", 1), "max_iter": ("at least", 1),
    "min_samples_split": ("at least", 1), "max_depth": ("at least", 0),
    "mtry": ("at least", 0),
}

FORMAT_VERSION = 1


def _as_default_type(default: float, value: float) -> float:
    """``value`` rounded to an int when ``default`` is one, else a float."""
    return int(round(value)) if isinstance(default, int) else float(value)


@dataclass(frozen=True)
class ClassifierSpec:
    """Algorithm choice plus hyperparameter overrides and a seed.

    Unknown hyperparameter names are rejected at construction so a typo
    cannot silently fall back to a default, and so is a value that is not
    a finite number (a bool is not) or is out of HYPERPARAMETER_BOUNDS.
    """

    algorithm: str
    hyperparameters: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        algo = str(self.algorithm).upper()
        if algo not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        object.__setattr__(self, "algorithm", algo)
        defaults = DEFAULT_HYPERPARAMETERS[algo]
        for name, value in self.hyperparameters.items():
            if name not in defaults:
                raise ConfigError(f"{algo} has no hyperparameter named {name!r}")
            what = f"{algo} hyperparameter {name!r}"
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not real or not math.isfinite(value):
                raise ConfigError(f"{what} must be a finite number, not {value!r}")
            word, bound = HYPERPARAMETER_BOUNDS.get(name, ("at least", -math.inf))
            seen = _as_default_type(defaults[name], value)
            if not (seen > bound if word == "above" else seen >= bound):
                raise ConfigError(f"{what} must be {word} {bound}, not {value!r}")
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))
        object.__setattr__(self, "seed", check_integer("seed", self.seed))

    def resolved(self) -> dict[str, float]:
        """Defaults overlaid with this spec's overrides, each an ``int``
        (rounded) where the default is an integer and a ``float`` otherwise."""
        defaults = DEFAULT_HYPERPARAMETERS[self.algorithm]
        return {
            name: _as_default_type(default, self.hyperparameters.get(name, default))
            for name, default in defaults.items()
        }

    def replace(self, **changes: Any) -> "ClassifierSpec":
        return dataclasses.replace(self, **changes)

    def to_doc(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: Any, seed: int = 0) -> "ClassifierSpec":
        """Inverse of :meth:`to_doc`; a bare name stands for ``{"algorithm": name}``,
        and ``seed`` applies when the doc has none."""
        doc = {"algorithm": doc} if isinstance(doc, str) else doc
        if not isinstance(doc, Mapping) or "algorithm" not in doc:
            raise ConfigError(
                f"must be a name or an object with an 'algorithm' key, not {doc!r}"
            )
        hyperparameters = doc.get("hyperparameters", {})
        if not isinstance(hyperparameters, Mapping):
            raise ConfigError(f"hyperparameters must be an object, not {hyperparameters!r}")
        return cls(doc["algorithm"], hyperparameters, doc.get("seed", seed))


@dataclass(frozen=True)
class Prediction:
    """A raw score plus the thresholded hard label."""

    score: float
    label: int


def check_train(train: Dataset, require_both_classes: bool = True) -> None:
    if train.n_rows == 0:
        raise DataError("training data is empty")
    if require_both_classes:
        n0, n1 = train.class_counts()
        if n0 == 0 or n1 == 0:
            raise DataError("training data contains a single class")


def check_vector(x: np.ndarray, n_features: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n_features:
        raise DataError(
            f"expected a vector of length {n_features}, got shape {arr.shape}"
        )
    return arr


def check_matrix(X: np.ndarray, n_features: int) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n_features:
        raise DataError(
            f"expected a matrix with {n_features} columns, got shape {arr.shape}"
        )
    return arr
