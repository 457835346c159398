"""Synthetic minority oversampling (SMOTE).

New minority rows are interpolated between existing minority rows and
their nearest minority neighbors until the class counts reach the target
ratio.  Base rows are cycled round-robin in index order; per synthetic
row, one neighbor is drawn uniformly from the base's k nearest and one
gap u ~ U[0, 1) places the new point on the connecting segment.  All
randomness comes from a single generator seeded by ``SmoteParams.seed``,
so equal seeds give byte-identical output.  :func:`smote_plan` states the
count rule and every check made before a row is written, so a caller can
learn the resampled counts without oversampling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_integer
from .preprocess import Dataset, nearest_columns, sq_distance_chunks

__all__ = ["SmoteParams", "minority_neighbors", "smote_plan", "smote"]

_TOO_FEW = "need at least 2 minority rows"


@dataclass(frozen=True)
class SmoteParams:
    """Oversampling knobs.

    ``target_ratio`` is the desired minority/majority count ratio, in
    (0, 1] (1.0 = parity), so the minority never outgrows the majority.
    ``round_nominal`` optionally snaps the listed columns of synthetic rows
    to the nearest integer, for callers who cannot accept fractional values
    in nominal columns; it is off by default because interpolation is
    defined on the full feature matrix.
    """

    k_neighbors: int = 5
    target_ratio: float = 1.0
    seed: int = 0
    round_nominal: bool = False
    nominal_columns: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ratio, nominal = self.target_ratio, self.nominal_columns
        real = isinstance(ratio, numbers.Real) and not isinstance(ratio, bool)
        if not (real and 0 < ratio <= 1):
            raise ConfigError(f"target_ratio must be a number in (0, 1], not {ratio!r}")
        if self.round_nominal not in (False, True):
            raise ConfigError(f"round_nominal must be a bool, not {self.round_nominal!r}")
        if not isinstance(nominal, (list, tuple)):
            raise ConfigError(f"nominal_columns must be a list of indices, not {nominal!r}")
        for name, value in (
            ("k_neighbors", check_integer("k_neighbors", self.k_neighbors, 1)),
            ("target_ratio", float(ratio)),
            ("seed", check_integer("seed", self.seed)),
            ("round_nominal", bool(self.round_nominal)),
            ("nominal_columns", tuple(check_integer("nominal_columns", c) for c in nominal)),
        ):
            object.__setattr__(self, name, value)


def minority_neighbors(X_min: np.ndarray, k: int) -> np.ndarray:
    """Indices of each minority row's k nearest other minority rows.

    Self is excluded; k is clamped to n_min - 1; distance ties are broken
    by ascending row index.  Returns an (n_min, k_eff) integer array.
    """
    X = np.asarray(X_min, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise DataError(_TOO_FEW)
    k_eff = min(int(k), n - 1)
    neighbors = np.empty((n, k_eff), dtype=np.intp)
    for rows, d2 in sq_distance_chunks(X, X):
        self_index = np.arange(n)[rows]
        d2[np.arange(self_index.size), self_index] = np.inf
        neighbors[rows] = nearest_columns(d2, k_eff)  # ties to the lower row index
    return neighbors


def smote_plan(dataset: Dataset, params: SmoteParams) -> tuple[int, int]:
    """``(minority_label, rows_to_add)`` of :func:`smote`, raising what it raises
    before writing a row.  The minority (positives on equal counts) grows to
    ``floor(target_ratio * n_maj + 0.5)`` rows."""
    n0, n1 = dataset.class_counts()
    if n0 == 0 or n1 == 0:
        raise DataError("both classes must be present to oversample")
    minority_label = 1 if n1 <= n0 else 0
    n_min, n_maj = (n1, n0) if minority_label == 1 else (n0, n1)
    n_new = int(math.floor(params.target_ratio * n_maj + 0.5)) - n_min
    if n_new <= 0:
        return minority_label, 0
    if n_min < 2:
        raise DataError(_TOO_FEW)
    top = max(params.nominal_columns, default=-1)  # SmoteParams rejects a negative index
    if params.round_nominal and top >= dataset.n_features:
        raise ConfigError(f"nominal_columns index {top} is out of range")
    return minority_label, n_new


def smote(dataset: Dataset, params: SmoteParams) -> Dataset:
    """Append synthetic minority rows until counts reach the target ratio.

    Original rows are never touched and always precede the synthetics.
    Already-balanced input (at target_ratio 1.0) is returned unchanged.
    """
    minority_label, n_new = smote_plan(dataset, params)
    if n_new == 0:
        return dataset

    min_idx = np.flatnonzero(dataset.labels == minority_label)
    X_min = dataset.features[min_idx]
    n_min = len(min_idx)
    neighbors = minority_neighbors(X_min, params.k_neighbors)
    k_eff = neighbors.shape[1]

    rng = np.random.default_rng(params.seed)
    synth = np.empty((n_new, dataset.n_features), dtype=np.float64)
    for t in range(n_new):
        base = t % n_min
        pick = neighbors[base, rng.integers(0, k_eff)]
        gap = rng.random()
        synth[t] = X_min[base] + gap * (X_min[pick] - X_min[base])
    if params.round_nominal and params.nominal_columns:
        cols = list(params.nominal_columns)
        synth[:, cols] = np.rint(synth[:, cols])

    features = np.vstack([dataset.features, synth])
    labels = np.concatenate(
        [dataset.labels, np.full(n_new, minority_label, dtype=np.int64)]
    )
    return Dataset(features=features, labels=labels, feature_names=dataset.feature_names)
