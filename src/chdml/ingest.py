"""Typed CSV ingestion for cohort data.

The expected input is a comma-delimited UTF-8 file with a header row, one
row per study participant, and one column per attribute.  Columns are
matched to a :class:`Schema` by name (order-insensitive, case-insensitive)
and reordered into schema order internally so that feature indices are
stable no matter how the file was exported.

Missing values are the empty string or the token ``NA`` (case-insensitive);
they are stored as ``NaN`` inside float64 column vectors.  Binary columns
must contain only 0/1, ordinal columns only integers inside their declared
range, and the single target column must be complete.
"""

from __future__ import annotations

import csv
import enum
import json
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    DuplicateColumn,
    MissingColumn,
    NonBinaryTarget,
    UnexpectedColumn,
    UnparseableCell,
)

__all__ = [
    "FeatureKind",
    "Column",
    "Schema",
    "FRAMINGHAM",
    "CohortTable",
    "MissingReport",
    "load_csv",
    "write_csv",
    "schema_from_json",
    "missing_report",
    "class_balance",
]

log = logging.getLogger(__name__)

#: Tokens (lowercased, stripped) that parse as a missing cell.
MISSING_TOKENS = frozenset({"", "na"})

#: Alternate header spellings seen in the wild, mapped to schema names.
#: Public exports of this cohort commonly name the sex column ``male``.
HEADER_ALIASES: Mapping[str, str] = {"male": "sex"}


class FeatureKind(enum.Enum):
    """How a column's values behave statistically."""

    BINARY = "binary"        # only {0, 1}
    ORDINAL = "ordinal"      # integers within a declared range
    CONTINUOUS = "continuous"

    @classmethod
    def from_string(cls, text: str) -> "FeatureKind":
        key = text.strip().lower()
        table = {
            "binary": cls.BINARY,
            "binarynominal": cls.BINARY,
            "nominal": cls.BINARY,
            "ordinal": cls.ORDINAL,
            "continuous": cls.CONTINUOUS,
            "real": cls.CONTINUOUS,
        }
        if key not in table:
            raise DataError(f"unknown feature kind {text!r}")
        return table[key]


@dataclass(frozen=True)
class Column:
    """One schema column: a name, a kind, and an optional ordinal range."""

    name: str
    kind: FeatureKind
    target: bool = False
    low: float | None = None   # inclusive ordinal bounds
    high: float | None = None


@dataclass(frozen=True)
class Schema:
    """Ordered column layout of a cohort file.

    Exactly one column must be flagged as the (binary) target.  Predictor
    indices — used everywhere a feature is referred to by number — are
    positions within :attr:`predictor_names`, i.e. schema order with the
    target removed.
    """

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        if len(self.columns) < 2:
            raise DataError("a schema needs at least one predictor and a target")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("schema column names must be unique")
        targets = [c for c in self.columns if c.target]
        if len(targets) != 1:
            raise DataError("schema must declare exactly one target column")
        if targets[0].kind is not FeatureKind.BINARY:
            raise DataError("the target column must be binary")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def target_name(self) -> str:
        return next(c.name for c in self.columns if c.target)

    @property
    def predictor_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if not c.target)

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)


def _col(name: str, kind: FeatureKind, **kw) -> Column:
    return Column(name, kind, **kw)


#: Built-in schema for the 16-column coronary-heart-disease cohort file.
FRAMINGHAM = Schema(
    columns=(
        _col("sex", FeatureKind.BINARY),
        _col("age", FeatureKind.CONTINUOUS),
        _col("education", FeatureKind.ORDINAL, low=1, high=4),
        _col("currentSmoker", FeatureKind.BINARY),
        _col("cigsPerDay", FeatureKind.CONTINUOUS),
        _col("BPMeds", FeatureKind.BINARY),
        _col("prevalentStroke", FeatureKind.BINARY),
        _col("prevalentHyp", FeatureKind.BINARY),
        _col("diabetes", FeatureKind.BINARY),
        _col("totChol", FeatureKind.CONTINUOUS),
        _col("sysBP", FeatureKind.CONTINUOUS),
        _col("diaBP", FeatureKind.CONTINUOUS),
        _col("BMI", FeatureKind.CONTINUOUS),
        _col("heartRate", FeatureKind.CONTINUOUS),
        _col("glucose", FeatureKind.CONTINUOUS),
        _col("TenYearCHD", FeatureKind.BINARY, target=True),
    )
)


@dataclass(frozen=True, eq=False)
class CohortTable:
    """An immutable, schema-ordered column store.

    Each column is a float64 vector of length :attr:`row_count`; missing
    cells are NaN.  The target column never contains NaN.  Column arrays
    are write-protected so tables can be shared freely.
    """

    schema: Schema
    columns: Mapping[str, np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        if set(self.columns) != set(self.schema.names):
            raise DataError("table columns do not match the schema")
        converted: dict[str, np.ndarray] = {}
        for name in self.schema.names:
            arr = np.array(self.columns[name], dtype=np.float64)  # private copy
            arr.setflags(write=False)
            converted[name] = arr
        if len({len(v) for v in converted.values()}) > 1:
            raise DataError("all columns must have the same length")
        object.__setattr__(self, "columns", converted)
        if np.isnan(converted[self.schema.target_name]).any():
            raise DataError("target column has missing cells")

    @property
    def row_count(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(name) from None

    def replace_columns(self, new: Mapping[str, np.ndarray]) -> "CohortTable":
        merged = {n: new.get(n, v) for n, v in self.columns.items()}
        return CohortTable(self.schema, merged)

    def take_rows(self, indices: np.ndarray) -> "CohortTable":
        return CohortTable(
            self.schema, {n: v[indices] for n, v in self.columns.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohortTable):
            return NotImplemented
        if self.schema != other.schema or self.row_count != other.row_count:
            return False
        for name in self.schema.names:
            a, b = self.columns[name], other.columns[name]
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            if not same.all():
                return False
        return True


@dataclass(frozen=True)
class MissingReport:
    """Per-column count of absent cells."""

    counts: Mapping[str, int]

    @property
    def total(self) -> int:
        return int(sum(self.counts.values()))

    def to_json(self) -> str:
        doc = {
            "method": "missing",
            "columns": {k: int(v) for k, v in self.counts.items()},
            "total": self.total,
        }
        return json.dumps(doc, indent=2)


def _parse_cell(text: str, col: Column, row_number: int) -> float:
    token = text.strip()
    if token.lower() in MISSING_TOKENS:
        if col.target:
            raise UnparseableCell(row_number, col.name, text, "target may not be missing")
        return float("nan")
    try:
        value = float(token)
    except ValueError:
        raise UnparseableCell(row_number, col.name, text) from None
    if col.kind is FeatureKind.BINARY and value not in (0.0, 1.0):
        raise UnparseableCell(row_number, col.name, text, "expected 0 or 1")
    if col.kind is FeatureKind.ORDINAL:
        if value != int(value):
            raise UnparseableCell(row_number, col.name, text, "expected an integer")
        if (col.low is not None and value < col.low) or (
            col.high is not None and value > col.high
        ):
            raise UnparseableCell(
                row_number, col.name, text, f"outside [{col.low}, {col.high}]"
            )
    return value


def _match_header(header: Sequence[str], schema: Schema) -> list[int]:
    """Map schema order to header positions, honoring aliases."""
    canonical = {name.lower(): name for name in schema.names}
    seen: dict[str, int] = {}
    for pos, raw in enumerate(header):
        key = raw.strip().lower()
        key = HEADER_ALIASES.get(key, key)
        if key not in canonical:
            raise UnexpectedColumn(raw.strip())
        name = canonical[key]
        if name in seen:
            raise DuplicateColumn(name)
        seen[name] = pos
    order = []
    for name in schema.names:
        if name not in seen:
            raise MissingColumn(name)
        order.append(seen[name])
    return order


def load_csv(path: str, schema: Schema = FRAMINGHAM) -> CohortTable:
    """Parse ``path`` into a :class:`CohortTable` laid out in schema order.

    Raises :class:`MissingColumn`, :class:`DuplicateColumn`,
    :class:`UnexpectedColumn` for header problems and
    :class:`UnparseableCell` for cell-level problems (with a 1-based data
    row number).
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty (no header row)") from None
        positions = _match_header(header, schema)
        cells: list[list[float]] = [[] for _ in schema.columns]
        for row_number, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue  # ignore blank lines
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_number} has {len(row)} fields, expected {len(header)}"
                )
            for col, pos, bucket in zip(schema.columns, positions, cells):
                bucket.append(_parse_cell(row[pos], col, row_number))
    columns = {
        col.name: np.asarray(bucket, dtype=np.float64)
        for col, bucket in zip(schema.columns, cells)
    }
    table = CohortTable(schema, columns)
    log.info("loaded %s: %d rows, %d columns", path, table.row_count, len(schema.columns))
    return table


def write_csv(table: CohortTable, path: str) -> None:
    """Write a table back to CSV; re-parsing yields an identical table.

    Missing cells are written as ``NA``; numbers use ``repr`` so values
    survive the round trip bit-for-bit.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.names)
        vectors = [table.columns[n] for n in table.schema.names]
        for i in range(table.row_count):
            writer.writerow(
                "NA" if np.isnan(v[i]) else repr(float(v[i])) for v in vectors
            )


def schema_from_json(path: str) -> Schema:
    """Load a schema from a JSON array of ``{name, kind, target}`` objects.

    Objects may carry optional ``low``/``high`` bounds for ordinal columns.
    """
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list):
        raise DataError("schema file must contain a JSON array")
    cols = []
    for entry in raw:
        cols.append(
            Column(
                name=str(entry["name"]),
                kind=FeatureKind.from_string(str(entry["kind"])),
                target=bool(entry.get("target", False)),
                low=entry.get("low"),
                high=entry.get("high"),
            )
        )
    return Schema(tuple(cols))


def missing_report(table: CohortTable) -> MissingReport:
    """Count absent cells per column."""
    counts = {
        name: int(np.isnan(table.columns[name]).sum()) for name in table.schema.names
    }
    return MissingReport(counts)


def class_balance(table: CohortTable) -> tuple[int, int]:
    """Return ``(count of label 0, count of label 1)`` for the target."""
    target = table.columns[table.schema.target_name]
    if not np.isin(target, (0.0, 1.0)).all():
        raise NonBinaryTarget("target column contains values other than 0/1")
    ones = int((target == 1.0).sum())
    return table.row_count - ones, ones
