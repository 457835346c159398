"""Typed CSV ingestion for cohort data.

The expected input is a comma-delimited UTF-8 file (a leading byte-order
mark is skipped) with a header row, one row per study participant, and
one column per attribute.  Columns are matched to a :class:`Schema` by
name (order-insensitive, case-insensitive) and reordered into schema
order internally so that feature indices are stable no matter how the
file was exported.

Missing values are the empty string or the token ``NA`` (case-insensitive,
surrounding whitespace ignored); they are stored as ``NaN`` inside float64
column vectors.  Each cell is checked against these rules, in this order,
and the first it breaks is the reason its error gives:

1. a missing cell in the target column: ``target may not be missing``;
2. text that ``float()`` rejects: no reason;
3. ``nan``, ``inf`` or a number too large for a float: ``not a finite number``;
4. a binary cell other than 0 or 1: ``expected 0 or 1``;
5. an ordinal cell with a fractional part: ``expected an integer``;
6. an ordinal cell below ``low`` or above ``high``: ``outside [low, high]``.

The error names the first bad cell of the file: its 1-based data row
(blank lines count) and, within that row, the first bad column in schema
order, which need not be the file's column order.  A field longer than
``csv``'s limit of 131,072 characters is refused with its row, and a row
holding bytes that are not UTF-8 as a whole, in its place in file order.
"""

from __future__ import annotations

import csv
import enum
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError

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

#: Alternate header spellings seen in the wild, mapped to schema names;
#: used only for a header that names no schema column itself.  Public
#: exports of this cohort commonly name the sex column ``male``.
HEADER_ALIASES: Mapping[str, str] = {"male": "sex"}

#: Rows that :func:`load_csv` parses, and :func:`write_csv` formats, at a time.
_BLOCK = 8192


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
        # headers match names ignoring case, so names must differ in more
        names = [c.name.lower() for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("schema column names must be unique, ignoring case")
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


#: Built-in schema for the 16-column coronary-heart-disease cohort file.
FRAMINGHAM = Schema(
    columns=(
        Column("sex", FeatureKind.BINARY),
        Column("age", FeatureKind.CONTINUOUS),
        Column("education", FeatureKind.ORDINAL, low=1, high=4),
        Column("currentSmoker", FeatureKind.BINARY),
        Column("cigsPerDay", FeatureKind.CONTINUOUS),
        Column("BPMeds", FeatureKind.BINARY),
        Column("prevalentStroke", FeatureKind.BINARY),
        Column("prevalentHyp", FeatureKind.BINARY),
        Column("diabetes", FeatureKind.BINARY),
        Column("totChol", FeatureKind.CONTINUOUS),
        Column("sysBP", FeatureKind.CONTINUOUS),
        Column("diaBP", FeatureKind.CONTINUOUS),
        Column("BMI", FeatureKind.CONTINUOUS),
        Column("heartRate", FeatureKind.CONTINUOUS),
        Column("glucose", FeatureKind.CONTINUOUS),
        Column("TenYearCHD", FeatureKind.BINARY, target=True),
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
        return self.columns[name]

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

    def to_doc(self) -> dict[str, Any]:
        return {
            "method": "missing",
            "columns": {k: int(v) for k, v in self.counts.items()},
            "total": self.total,
        }


def _match_header(header: Sequence[str], schema: Schema) -> list[int]:
    """Map schema order to header positions, honoring aliases."""
    canonical = {name.lower(): name for name in schema.names}
    seen: dict[str, int] = {}
    for pos, raw in enumerate(header):
        key = raw.strip().lower()
        if key not in canonical:
            key = HEADER_ALIASES.get(key, key)
        if key not in canonical:
            raise DataError(f"header contains unrecognized column {raw.strip()!r}")
        name = canonical[key]
        if name in seen:
            raise DataError(f"column {name!r} appears more than once in header")
        seen[name] = pos
    order = []
    for name in schema.names:
        if name not in seen:
            raise DataError(f"required column {name!r} not found in header")
        order.append(seen[name])
    return order


def _float_or_none(text: str) -> float | None:
    try:
        return float(text.strip())
    except ValueError:
        return None


def _column_values(texts: list[str], col: Column) -> tuple[np.ndarray, tuple[int, str] | None]:
    """One column of a block as float64, and the index and reason of its first
    cell that breaks a rule of the module docstring (``None`` if none does)."""
    cells = None  # parsed one by one only when float() rejects some text
    try:
        values = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:  # a missing token, or text float() rejects
        try:
            values = np.array(
                [math.nan if t.strip().lower() in MISSING_TOKENS else float(t) for t in texts]
            )
        except ValueError:
            cells = [_float_or_none(t) for t in texts]
            values = np.array(cells, dtype=np.float64)
    finite = np.isfinite(values)
    firsts = []  # (index, reason) of the first cell each rule rejects, in rule order
    for i in np.flatnonzero(~finite).tolist():  # rules 1-3
        if texts[i].strip().lower() not in MISSING_TOKENS:
            firsts.append((i, "" if cells and cells[i] is None else "not a finite number"))
            break
        if col.target:
            firsts.append((i, "target may not be missing"))
            break
    rules = []  # rules 4-6: (the finite cells each rejects, its reason)
    if col.kind is FeatureKind.BINARY:
        rules.append((finite & (values != 0.0) & (values != 1.0), "expected 0 or 1"))
    if col.kind is FeatureKind.ORDINAL:
        rules.append((finite & (values != np.trunc(values)), "expected an integer"))
        # Python comparisons: numpy would round an int bound above 2**53
        low = -math.inf if col.low is None else col.low
        high = math.inf if col.high is None else col.high
        present = values[finite]
        if present.size and (float(present.min()) < low or float(present.max()) > high):
            mask = finite & np.array([v < low or v > high for v in values.tolist()])
            rules.append((mask, f"outside [{col.low}, {col.high}]"))
    firsts += [(int(mask.argmax()), reason) for mask, reason in rules if mask.any()]
    return values, min(firsts, key=lambda first: first[0], default=None)


def _refuse_undecodable(row: list[str]) -> None:
    """Raise the ``UnicodeDecodeError`` of a row that holds bytes that are
    not UTF-8.  The file is decoded with ``errors="surrogateescape"``, which
    turns such bytes into lone surrogates; encoding them back and decoding
    strictly raises the error, with its reason."""
    ",".join(row).encode("utf-8", "surrogateescape").decode("utf-8")


def _parse_block(
    rows: list[list[str]], numbers: list[int], schema: Schema, positions: list[int]
) -> list[np.ndarray]:
    """Parse a block of rows into one float64 vector per schema column, or
    raise for its first bad cell: the first row that has one, and in it the
    first bad column in schema order.  ``float()`` rejects a cell with bytes
    that are not UTF-8, so that row is the first to hold any; it raises
    ``UnicodeDecodeError`` instead."""
    columns, problems = [], []
    for k, (col, pos) in enumerate(zip(schema.columns, positions)):
        values, problem = _column_values([row[pos] for row in rows], col)
        columns.append(values)
        if problem is not None:
            problems.append((problem[0], k, problem[1]))
    if problems:
        i, k, reason = min(problems)
        _refuse_undecodable(rows[i])
        detail = f" ({reason})" if reason else ""
        raise DataError(
            f"row {numbers[i]}, column {schema.columns[k].name!r}: "
            f"cannot parse {rows[i][positions[k]]!r}{detail}"
        )
    return columns


def _row_blocks(
    reader: Iterator[list[str]], width: int, path: str
) -> Iterator[tuple[list[list[str]], list[int]]]:
    """Yield ``(rows, row numbers)`` of up to :data:`_BLOCK` non-blank rows.

    A row with the wrong field count or an over-long field ends the current
    block early: the block is yielded, so that its cells are checked and an
    earlier bad cell is reported first, and then the error is raised (a
    ``UnicodeDecodeError`` if the short row holds bytes that are not UTF-8).
    Blocks may be empty.
    """
    rows: list[list[str]] = []
    numbers: list[int] = []
    number = 0
    try:
        for number, row in enumerate(reader, start=1):
            if not any(map(str.strip, row)):
                continue  # ignore blank lines
            if len(row) != width:
                yield rows, numbers
                _refuse_undecodable(row)
                raise DataError(f"{path}: row {number} has {len(row)} fields, expected {width}")
            rows.append(row)
            numbers.append(number)
            if len(rows) == _BLOCK:
                yield rows, numbers
                rows, numbers = [], []
    except csv.Error as exc:  # raised while reading the row after `number`
        yield rows, numbers
        raise DataError(f"{path}: row {number + 1}: {exc}") from None
    yield rows, numbers


def load_csv(path: str, schema: Schema = FRAMINGHAM) -> CohortTable:
    """Parse ``path`` into a :class:`CohortTable` laid out in schema order.

    Rows are parsed and checked a block at a time.  Raises
    :class:`DataError` for a header that is missing, repeats or adds a
    column, for a cell that breaks a rule of the module docstring (naming
    its 1-based data row and its column; the first such cell in the file),
    and, naming ``path``, for a row with the wrong field count or an
    over-long field, or for the first row (or header) that is not UTF-8
    text.
    """
    parts: list[list[np.ndarray]] = []
    try:
        with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty (no header row)") from None
            except csv.Error as exc:
                raise DataError(f"{path}: header row: {exc}") from None
            _refuse_undecodable(header)
            positions = _match_header(header, schema)
            for rows, numbers in _row_blocks(reader, len(header), path):
                if rows:
                    parts.append(_parse_block(rows, numbers, schema, positions))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    columns = {
        col.name: np.concatenate([p[i] for p in parts]) if parts else np.empty(0)
        for i, col in enumerate(schema.columns)
    }
    table = CohortTable(schema, columns)
    log.info("loaded %s: %d rows, %d columns", path, table.row_count, len(schema.columns))
    return table


def write_csv(table: CohortTable, path: str) -> None:
    """Write a table back to CSV; re-parsing yields an identical table.

    Missing cells are written as ``NA``; numbers use ``repr`` so values
    survive the round trip bit-for-bit.
    """
    vectors = [table.columns[n] for n in table.schema.names]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.names)
        for start in range(0, table.row_count, _BLOCK):
            cols = []
            for vector in vectors:
                block = vector[start : start + _BLOCK]
                cells = block.tolist()  # csv writes a float as its repr
                for i in np.flatnonzero(np.isnan(block)).tolist():
                    cells[i] = "NA"
                cols.append(cells)
            writer.writerows(zip(*cols))


def read_json(path: str) -> Any:
    """Parse a config or schema file; :class:`ConfigError` naming ``path``
    when it is not UTF-8 JSON or nests too deeply to parse."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            return json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None


def schema_from_json(path: str) -> Schema:
    """Load a schema from a JSON array of ``{name, kind, target}`` objects.

    Objects may carry optional ``low``/``high`` bounds for ordinal columns.
    A file that is not a JSON array, or an entry without a string name, a
    known kind, a boolean ``target`` or finite numeric bounds with ``low``
    at most ``high``, raises :class:`ConfigError` naming the path and the
    entry's index; a schema without exactly one
    binary target, or with a repeated name, raises it naming the path.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: schema must be a JSON array")
    cols = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise ConfigError(
                f'{path}: schema entry {i} must be an object with "name" and "kind"'
            )
        try:
            kind = FeatureKind.from_string(str(entry["kind"]))
        except DataError as exc:
            raise ConfigError(f"{path}: schema entry {i}: {exc}") from None
        if not isinstance(entry["name"], str) or entry.get("target", False) not in (False, True):
            raise ConfigError(
                f'{path}: schema entry {i}: "name" must be a string and "target" a boolean'
            )
        low, high = entry.get("low"), entry.get("high")
        if not all(
            b is None or type(b) is int or type(b) is float and math.isfinite(b)
            for b in (low, high)
        ):
            raise ConfigError(
                f'{path}: schema entry {i}: "low" and "high" must be finite numbers'
            )
        if low is not None and high is not None and low > high:
            raise ConfigError(
                f'{path}: schema entry {i}: "low" {low} is above "high" {high}'
            )
        cols.append(
            Column(
                name=entry["name"],
                kind=kind,
                target=bool(entry.get("target", False)),
                low=low,
                high=high,
            )
        )
    try:
        return Schema(tuple(cols))
    except DataError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
        raise DataError("target column contains values other than 0/1")
    ones = int((target == 1.0).sum())
    return table.row_count - ones, ones
