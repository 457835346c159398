"""Cleaning and descriptive statistics for cohort tables.

Covers mean imputation, dropping rows with missing cells, two univariate outlier rules (IQR fence
and three-sigma), z-score standardization, and the
squared-distance kernel shared by SMOTE, KNN and the SVM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ingest import CellCounts, CohortTable, FeatureKind, Schema

__all__ = [
    "Dataset",
    "impute_mean",
    "drop_rows_missing",
    "iqr_outlier_mask",
    "sigma_outlier_mask",
    "remove_outliers",
    "standardize",
    "to_dataset",
    "select_features",
    "take_rows",
]

#: Most values the difference block of one distance chunk holds: 125,000
#: float64s, 1 MB.  The block is d times the distances it yields, and at 8 MB
#: it set ``paper-default``'s memory peak; over caps of 8, 4, 2, 1 and 0.5 MB
#: that peak fell until 1 MB and then held, so 1 MB is the knee.
_DISTANCE_CHUNK = 125_000


@dataclass(frozen=True, eq=False)
class Dataset:
    """A dense, fully observed feature matrix with binary labels."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        X = np.array(self.features, dtype=np.float64)
        y = np.array(self.labels, dtype=np.int64)
        if X.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if len(y) != X.shape[0]:
            raise DataError("labels length must equal the number of rows")
        if not np.isfinite(X).all():
            raise DataError("features contain NaN or infinity")
        if not np.isin(y, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        names = tuple(self.feature_names) or tuple(
            f"x{i}" for i in range(X.shape[1])
        )
        if len(names) != X.shape[1]:
            raise DataError("feature_names length must equal the number of columns")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        ones = int((self.labels == 1).sum())
        return len(self.labels) - ones, ones


def _present(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return v[~np.isnan(v)]


def check_columns(schema: Schema, columns: Sequence[str]) -> None:
    """A :class:`ConfigError` for the first of ``columns`` that is not a
    predictor of ``schema``: cleaning never touches the target."""
    for name in columns:
        if name not in schema.names:
            raise ConfigError(f"no column named {name!r} in the schema")
        if name == schema.target_name:
            raise ConfigError(f"{name!r} is the target column; only predictors can be cleaned")


def impute_mean(table: CohortTable, columns: Sequence[str]) -> CohortTable:
    """Replace missing cells in the named columns by the column mean.

    Present cells are never touched.  Raises :class:`DataError` when
    a named column has no present values to average.
    """
    check_columns(table.schema, columns)
    new: dict[str, np.ndarray] = {}
    for name in columns:
        vec = table.columns[name]
        missing = np.isnan(vec)
        if not missing.any():
            continue
        present = vec[~missing]
        if present.size == 0:
            raise DataError(f"column {name!r} has no present values to average")
        filled = vec.copy()
        filled[missing] = present.mean()
        new[name] = filled
    return table.replace_columns(new) if new else table


def drop_rows_missing(table: CohortTable, columns: Sequence[str]) -> CohortTable:
    """Remove every row with a missing cell in any named column."""
    check_columns(table.schema, columns)
    if not columns:
        return table
    bad = np.zeros(table.row_count, dtype=bool)
    for name in columns:
        bad |= np.isnan(table.columns[name])
    if not bad.any():
        return table
    return table.take_rows(~bad)


def iqr_outlier_mask(values: Sequence[float]) -> np.ndarray:
    """Flag values beyond 1.5 interquartile ranges outside [Q1, Q3].

    A value x is flagged when x > Q3 + 1.5*IQR or x < Q1 - 1.5*IQR
    (strict inequalities, IQR = Q3 - Q1).  Quartiles are ``np.quantile``'s
    default linear interpolation.  Missing cells are never flagged.  Requires at least 4 present values.
    """
    v = np.asarray(values, dtype=np.float64)
    present = _present(v)
    if present.size < 4:
        raise DataError("IQR rule needs at least 4 values")
    q1, q3 = np.quantile(present, (0.25, 0.75))
    spread = q3 - q1
    lo, hi = q1 - 1.5 * spread, q3 + 1.5 * spread
    with np.errstate(invalid="ignore"):
        return (v > hi) | (v < lo)


def sigma_outlier_mask(values: Sequence[float]) -> np.ndarray:
    """Flag values more than three sample standard deviations from the mean.

    A value x is flagged when |x - mean| > 3*s (strict), s the sample
    standard deviation.  Constant columns flag nothing.  Missing cells are
    never flagged.  Requires at least 2 present values.
    """
    v = np.asarray(values, dtype=np.float64)
    present = _present(v)
    if present.size < 2:
        raise DataError("sigma rule needs at least 2 values")
    mean = present.mean()
    s = present.std(ddof=1)
    with np.errstate(invalid="ignore"):
        return np.abs(v - mean) > 3.0 * s


_MASKS = {"IQR": iqr_outlier_mask, "Sigma": sigma_outlier_mask}
OUTLIER_METHODS = tuple(_MASKS)


def normalize_method(method: str) -> str:
    key = str(method).strip().lower()
    for canonical in OUTLIER_METHODS:
        if key == canonical.lower():
            return canonical
    raise ConfigError(f"unknown outlier method {method!r}; choose from {OUTLIER_METHODS}")


def remove_outliers(
    table: CohortTable, method: str, columns: Sequence[str]
) -> tuple[CohortTable, CellCounts]:
    """Drop rows containing flagged cells in the named columns.

    All masks are computed from the table as given (a single pass with
    pre-removal statistics); the report counts flagged cells per column
    before any row is dropped.
    """
    check_columns(table.schema, columns)
    method = normalize_method(method)
    mask_fn = _MASKS[method]
    counts: dict[str, int] = {}
    bad = np.zeros(table.row_count, dtype=bool)
    for name in columns:
        mask = mask_fn(table.columns[name])
        counts[name] = int(mask.sum())
        bad |= mask
    cleaned = table.take_rows(~bad) if bad.any() else table
    return cleaned, CellCounts(method, counts)


def standardize(train: Dataset, apply_to: Dataset) -> Dataset:
    """Z-score ``apply_to`` using mean and sample std taken from ``train``.

    The statistics always come from ``train`` only, so applying train
    statistics to unseen data leaks nothing.  A constant train column is
    centred and left unscaled (divisor 1), since resampled evaluation
    folds can legitimately contain one.
    """
    if train.n_features != apply_to.n_features:
        raise DataError("train and apply_to have different feature counts")
    mu = train.features.mean(axis=0)
    sigma = train.features.std(axis=0, ddof=1)
    sigma = np.where(sigma > 0.0, sigma, 1.0)
    return Dataset(
        features=(apply_to.features - mu) / sigma,
        labels=apply_to.labels,
        feature_names=apply_to.feature_names,
    )


def sq_distance_chunks(
    A: np.ndarray, B: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """Squared Euclidean distances of the rows of ``A`` to every row of
    ``B``, as ``(rows of A, distances)`` chunks covering ``A`` in order.

    Computed from literal coordinate differences (no norm expansion), so
    exact ties stay exact.  A chunk has at least one row and a difference
    block of at most ``_DISTANCE_CHUNK`` values (1 MB, d times the
    distances it yields), so callers that consume chunks one by one use
    bounded memory; the values do not depend on the chunk size.  The block
    holds the a - b of ``A[rows, None] - B[None]``, in the same C order, but
    is built by repeating each row of ``A`` and subtracting ``B`` in place,
    so numpy's inner loop runs over all of ``B`` rather than over one row's
    d features.
    """
    n, d = B.shape
    chunk = max(1, _DISTANCE_CHUNK // max(1, n * d))
    for start in range(0, A.shape[0], chunk):
        rows = slice(start, start + chunk)
        a_rows = A[rows]
        diff = np.repeat(a_rows, n, axis=0).reshape(len(a_rows), n, d)  # -1 fails when n is 0
        np.subtract(diff, B, out=diff)
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        del diff  # else it lives on while the next chunk's block is allocated
        yield rows, d2


def nearest_columns(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's ``k`` smallest entries, ordered by
    (value, column): the first ``k`` columns of a stable ``argsort`` of
    ``d2`` along its rows, for 1 <= k <= ``d2.shape[1]`` and no NaN.

    A partial selection finds each row's k-th smallest value; every entry
    below it is taken, and of the entries equal to it only the lowest
    columns, so exact ties still resolve to the lower index.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    take = d2 <= kth
    crowded = np.flatnonzero(take.sum(axis=1) > k)  # more ties at the k-th value than fit
    if crowded.size:
        d, t = d2[crowded], kth[crowded]
        below, tied = d < t, d == t
        room = k - below.sum(axis=1, keepdims=True)
        take[crowded] = below | (tied & (np.cumsum(tied, axis=1) <= room))
    cols = np.nonzero(take)[1].reshape(-1, k)  # ascending within each row
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def to_dataset(table: CohortTable) -> Dataset:
    """Convert a fully observed table into a feature matrix and labels.

    Predictors keep schema order; the target column supplies the labels.
    Raises :class:`DataError` if any predictor cell is still missing.
    """
    names = table.schema.predictor_names
    X = np.column_stack([table.columns[n] for n in names])
    if np.isnan(X).any():
        missing = [n for n in names if np.isnan(table.columns[n]).any()]
        raise DataError(f"columns still contain missing cells: {missing}")
    y = table.columns[table.schema.target_name].astype(np.int64)
    return Dataset(features=X, labels=y, feature_names=names)


def feature_kinds(table: CohortTable) -> tuple[FeatureKind, ...]:
    """Kinds of the predictor columns, in predictor order."""
    return tuple(
        table.schema.column(n).kind for n in table.schema.predictor_names
    )


def select_features(dataset: Dataset, indices: Sequence[int]) -> Dataset:
    """Keep only the named feature columns, in the order given."""
    idx = list(indices)
    return Dataset(
        features=dataset.features[:, idx],
        labels=dataset.labels,
        feature_names=tuple(dataset.feature_names[i] for i in idx),
    )


def take_rows(dataset: Dataset, indices: np.ndarray) -> Dataset:
    """Row subset of a dataset (indices may be a mask or index array)."""
    return Dataset(
        features=dataset.features[indices],
        labels=dataset.labels[indices],
        feature_names=dataset.feature_names,
    )
