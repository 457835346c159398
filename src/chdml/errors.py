"""Exception hierarchy shared across the package.

Three broad families matter to callers:

* :class:`ConfigError` — the caller asked for something invalid (bad column
  name, bad hyperparameter, malformed config).  The CLI maps these to exit
  code 2.
* :class:`DataError` — the input data cannot support the requested
  operation (unparseable cells, single-class labels, empty columns).
  Exit code 3.
* Plain :class:`OSError` from the filesystem is left alone and mapped to
  exit code 4 by the CLI.
"""

from __future__ import annotations

import numbers

__all__ = [
    "ChdmlError",
    "ConfigError",
    "DataError",
    "MissingColumn",
    "DuplicateColumn",
    "UnexpectedColumn",
    "UnparseableCell",
    "NonBinaryTarget",
    "EmptyColumn",
    "UnknownColumn",
    "AllMissingColumn",
    "TooFewValues",
    "LengthMismatch",
    "KOutOfRange",
    "TooFewMinority",
    "SingleClass",
    "NonFiniteFeature",
    "DimensionMismatch",
    "UnknownHyperparameter",
    "ClassTooSmall",
]


class ChdmlError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ChdmlError):
    """The request itself is invalid, independent of the data."""


class DataError(ChdmlError):
    """The data cannot support the requested operation."""


def check_integer(name: str, value: object, least: int = 0) -> int:
    """``value`` as an int of at least ``least``; else a ConfigError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, not {value!r}")
    return int(value)


# --- ingest ---------------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, name: str):
        super().__init__(f"required column {name!r} not found in header")
        self.name = name


class DuplicateColumn(DataError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} appears more than once in header")
        self.name = name


class UnexpectedColumn(DataError):
    def __init__(self, name: str):
        super().__init__(f"header contains unrecognized column {name!r}")
        self.name = name


class UnparseableCell(DataError):
    def __init__(self, row: int, column: str, text: str, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"row {row}, column {column!r}: cannot parse {text!r}{detail}"
        )
        self.row = row
        self.column = column
        self.text = text


class NonBinaryTarget(DataError):
    """Target column contains a value other than 0 or 1."""


# --- preprocess -----------------------------------------------------------

class EmptyColumn(DataError):
    """No usable (non-missing) values in the column."""


class UnknownColumn(ConfigError):
    def __init__(self, name: str):
        super().__init__(f"no column named {name!r} in the schema")
        self.name = name


class AllMissingColumn(DataError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} has no present values to average")
        self.name = name


class TooFewValues(DataError):
    """Not enough values to compute the requested statistic."""


# --- features -------------------------------------------------------------

class LengthMismatch(DataError):
    """Paired vectors have different lengths."""


class KOutOfRange(ConfigError):
    """Requested k is outside [1, number of features]."""


# --- resample -------------------------------------------------------------

class TooFewMinority(DataError):
    """Minority class has fewer than two members; no neighbors exist."""


# --- models ---------------------------------------------------------------

class SingleClass(DataError):
    """Training data contains only one class label."""


class NonFiniteFeature(DataError):
    """Feature matrix contains NaN or infinity."""


class DimensionMismatch(DataError):
    """Input vector length differs from the training dimensionality."""


class UnknownHyperparameter(ConfigError):
    def __init__(self, algorithm: str, name: str):
        super().__init__(f"{algorithm} has no hyperparameter named {name!r}")
        self.algorithm = algorithm
        self.name = name


# --- eval -----------------------------------------------------------------

class ClassTooSmall(DataError):
    """A class has too few members for the requested split or folding."""
