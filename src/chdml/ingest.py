"""Typed CSV ingestion for cohort data.

The expected input is a comma-delimited UTF-8 file (a leading byte-order
mark is skipped) with a header row, one row per study participant, and
one column per attribute.  Columns are matched to a :class:`Schema` by
name (order-insensitive, case-insensitive) and reordered into schema
order internally so that feature indices are stable no matter how the
file was exported.

Missing values are the empty string or the token ``NA`` (case-insensitive,
surrounding whitespace ignored); they are stored as ``NaN`` inside float64
column vectors.  Rows are read in blocks of lines.  A plain block is
parsed by numpy's C parser in one call, with no Python string per cell;
its ``NA`` cells and its empty cells are read as NaN (the rule is in the
docstring of :func:`_plain_values`).  From the first block that is not
plain or that may hold a cell breaking a rule below, the rest of the file
is read row by row by ``csv.reader``, with the same values and messages:
it alone reads quoted fields, bare carriage returns, whitespace-only cells
and non-ASCII text, and it alone writes an error for a cell.  Each cell is
checked against these rules, in this order, and the first it breaks is
the reason its error gives:

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
import io
import itertools
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
    "CellCounts",
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

#: The bytes a plain block's numbers, commas and line ends are made of.
_NUMBER_BYTES = b"0123456789.+-eE,\n \t"


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
        return len(next(iter(self.columns.values())))

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
        return self.schema == other.schema and all(
            np.array_equal(self.columns[name], other.columns[name], equal_nan=True)
            for name in self.schema.names
        )


@dataclass(frozen=True)
class CellCounts:
    """Per-column count of cells one cleaning step found: absent cells
    (``method`` "missing") or cells an outlier rule flagged.

    ``total`` counts cells, not rows: a row counted in two columns
    contributes twice, exactly as per-column tallies add up.
    """

    method: str
    columns: Mapping[str, int]

    @property
    def total(self) -> int:
        return int(sum(self.columns.values()))

    def to_doc(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "columns": {k: int(v) for k, v in self.columns.items()},
            "total": self.total,
        }


def _match_header(header: Sequence[str], schema: Schema) -> list[int]:
    """Map schema order to header positions, honoring aliases.  An accepted
    header names each schema column once and nothing else."""
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


def _parse_cell(text: str, col: Column) -> tuple[float, str | None]:
    """A cell's value, and the reason of the first rule of the module
    docstring that it breaks (``""`` for rule 2, which gives none), or
    ``None`` if it breaks none."""
    token = text.strip()
    if token.lower() in MISSING_TOKENS:
        return math.nan, "target may not be missing" if col.target else None
    try:
        value = float(token)
    except ValueError:
        return math.nan, ""
    if not math.isfinite(value):
        return value, "not a finite number"
    if col.kind is FeatureKind.BINARY and value not in (0.0, 1.0):
        return value, "expected 0 or 1"
    if col.kind is FeatureKind.ORDINAL:
        if value != int(value):
            return value, "expected an integer"
        # not a chained comparison: no value is outside a NaN bound
        if (col.low is not None and value < col.low) or (
            col.high is not None and value > col.high
        ):
            return value, f"outside [{col.low}, {col.high}]"
    return value, None


def _refuse_undecodable(row: list[str]) -> None:
    """Raise the ``UnicodeDecodeError`` of a row that holds bytes that are
    not UTF-8.  The file is decoded with ``errors="surrogateescape"``, which
    turns such bytes into lone surrogates; encoding them back and decoding
    strictly raises the error, with its reason."""
    ",".join(row).encode("utf-8", "surrogateescape").decode("utf-8")


def _loadtxt(text: str) -> np.ndarray:
    return np.loadtxt(
        io.StringIO(text), delimiter=",", dtype=np.float64, ndmin=2, comments=None
    )


def _fill_empty_cells(text: str) -> str:
    """``text`` with ``nan`` written into each empty cell: one between two
    commas, or between a comma and the start or end of a line."""
    text = "\n" + text + "\n"
    for _ in range(2):  # the second pass fills the cells the first overlapped
        text = text.replace(",,", ",nan,")
    return text.replace("\n,", "\nnan,").replace(",\n", ",nan\n")[1:-1]


def _plain_values(
    lines: list[str], schema: Schema, positions: list[int]
) -> np.ndarray | None:
    """Parse a block of lines into one float64 array with a row per line and
    its columns in schema order, in one call of numpy's C parser, with each
    ``NA`` cell and each empty cell read as NaN; or return ``None`` if the
    block is not plain, or if a cell may break rule 1, 3, 4, 5 or 6 of the
    module docstring (which cell, and why, is left to :func:`_read_rows`).
    Once ``\\r\\n`` is read as ``\\n``, a block is plain when all of these
    hold:

    1. its text is not all whitespace;
    2. it holds no ``+N`` or ``-N``;
    3. no line is longer than ``csv.field_size_limit()``;
    4. once each ``NA`` is read as ``nan``, deleting digits, ``.+-eE``,
       commas, line ends, spaces and tabs from its UTF-8 bytes leaves one
       ``nan`` per ``NA``;
    5. ``np.loadtxt`` raises nothing, or, if it raised, nothing once
       :func:`_fill_empty_cells` has written ``nan`` into each empty cell;
       and it returns one row of ``len(positions)`` values per line.

    By 4, the text holds no quote, no NUL, no bare ``\\r`` and nothing
    that is not ASCII, and its only letters are the ``NA`` cells' and
    ``e`` and ``E``; so each line is one row whose cells are what
    ``csv.reader`` gives.  numpy refuses an empty field, so a block without
    one is parsed once.  numpy skips empty lines (1 keeps it from warning
    of a block of them), which the fill leaves empty, and refuses a
    whitespace-only field or a changed field count, so by 5 no line is
    blank, but for a line of commas alone, and each has a cell per column.
    That line reads as a row of NaN, so its target is missing and the block
    is refused.  numpy reads a cell as NaN only if it spells ``nan``,
    perhaps padded or signed, so by 2 the NaN cells are the ``NA`` cells
    and the empty cells: the missing cells, which break no rule but 1.  Any
    other cell numpy reads as ``float()`` reads it stripped, bit for bit,
    or refuses (``1_0``), so a plain block holds the values a cell-by-cell
    read would give.
    """
    text = "".join(lines).replace("\r\n", "\n")
    if (
        text.isspace()
        or "+N" in text
        or "-N" in text
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    missing = text.count("NA")
    text = text.replace("NA", "nan")
    rest = text.encode("utf-8", "surrogateescape").translate(None, _NUMBER_BYTES)
    if rest != b"nan" * missing:
        return None
    try:
        values = _loadtxt(text)
    except ValueError:
        try:
            values = _loadtxt(_fill_empty_cells(text))
        except ValueError:
            return None
    if values.shape != (len(lines), len(positions)) or np.isinf(values).any():
        return None
    values = values[:, positions]
    for col, column in zip(schema.columns, values.T):
        present = column[~np.isnan(column)]
        if col.target and present.size < column.size:
            return None
        if col.kind is FeatureKind.BINARY and ((present != 0.0) & (present != 1.0)).any():
            return None
        if col.kind is FeatureKind.ORDINAL and present.size and (
            (present != np.trunc(present)).any()
            # Python comparisons: numpy would round an int bound above 2**53
            or (col.low is not None and float(present.min()) < col.low)
            or (col.high is not None and float(present.max()) > col.high)
        ):
            return None
    return values


def _read_rows(
    lines: Iterator[str], path: str, schema: Schema, positions: list[int], before: int
) -> Iterator[np.ndarray]:
    """Read ``lines`` with ``csv.reader``, numbering rows from ``before + 1``
    and skipping blank ones, and yield the cells of up to :data:`_BLOCK` rows
    at a time, as one array with its columns in schema order.  Raise for the
    first row with the wrong field count or an over-long field, or with a
    cell that breaks a rule of the module docstring (the row's first such
    cell in schema order).  A row refused for its field count or a cell
    raises ``UnicodeDecodeError`` instead if it holds bytes that are not
    UTF-8 (``float()`` rejects such a cell, so that row is the first to hold
    any)."""
    width = len(positions)  # the header's field count, by _match_header
    cells: list[float] = []
    number = before
    try:
        for number, row in enumerate(csv.reader(lines), start=before + 1):
            if not any(map(str.strip, row)):
                continue  # ignore blank lines
            if len(row) != width:
                _refuse_undecodable(row)
                raise DataError(f"{path}: row {number} has {len(row)} fields, expected {width}")
            for col, pos in zip(schema.columns, positions):
                value, reason = _parse_cell(row[pos], col)
                if reason is not None:
                    _refuse_undecodable(row)
                    detail = f" ({reason})" if reason else ""
                    raise DataError(
                        f"row {number}, column {col.name!r}: cannot parse {row[pos]!r}{detail}"
                    )
                cells.append(value)
            if len(cells) == _BLOCK * width:
                yield np.array(cells, dtype=np.float64).reshape(-1, width)
                cells = []
    except csv.Error as exc:  # raised while reading the row after `number`
        raise DataError(f"{path}: row {number + 1}: {exc}") from None
    yield np.array(cells, dtype=np.float64).reshape(-1, width)


def load_csv(path: str, schema: Schema = FRAMINGHAM) -> CohortTable:
    """Parse ``path`` into a :class:`CohortTable` laid out in schema order.

    Rows are parsed and checked a block of up to :data:`_BLOCK` lines at a
    time, each block into one array with its columns in schema order, and
    the table is built from one concatenate of the blocks.  Plain blocks
    whose cells break no rule are parsed by :func:`_plain_values`; from the
    first other block on, the lines are read by :func:`_read_rows`.  Raises
    :class:`DataError` for a header that is missing, repeats or adds a
    column, for a cell that breaks a rule of the module docstring (naming
    its 1-based data row and its column; the first such cell in the file),
    and, naming ``path``, for a row with the wrong field count or an
    over-long field, or for the first row (or header) that is not UTF-8
    text.
    """
    parts: list[np.ndarray] = []
    try:
        with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
            try:
                header = next(csv.reader(handle))
            except StopIteration:
                raise DataError(f"{path}: file is empty (no header row)") from None
            except csv.Error as exc:
                raise DataError(f"{path}: header row: {exc}") from None
            _refuse_undecodable(header)
            positions = _match_header(header, schema)
            number = 0  # rows read so far
            while lines := list(itertools.islice(handle, _BLOCK)):
                values = _plain_values(lines, schema, positions)
                if values is None:
                    rest = itertools.chain(lines, handle)
                    parts += _read_rows(rest, path, schema, positions, number)
                    break
                parts.append(values)
                number += len(lines)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values = np.concatenate(parts) if parts else np.empty((0, len(positions)))
    del parts  # free the blocks before the table copies each column out
    table = CohortTable(schema, dict(zip(schema.names, values.T)))
    log.info("loaded %s: %d rows, %d columns", path, table.row_count, len(schema.columns))
    return table


def _cell_texts(block: np.ndarray) -> list[str]:
    """The CSV text of each cell of a float64 block: its ``repr``, or ``NA``
    for any NaN.  Cells are grouped by their bits, so ``-0.0`` stays apart
    from ``0.0``, and each group's value is formatted once."""
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    texts = ["NA" if v != v else repr(v) for v in bits.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def write_csv(table: CohortTable, path: str) -> None:
    """Write a table back to CSV; re-parsing yields an identical table.

    Missing cells are written as ``NA``; numbers use ``repr`` so values
    survive the round trip bit-for-bit.  Each block of a column formats
    each of its distinct values once.  Only the header goes through
    ``csv.writer``: a data row is its cells joined by commas and ended by
    ``csv``'s ``\\r\\n``, the bytes ``csv.writer`` would write, since no
    ``repr`` of a float and no ``NA`` holds a character it would quote.
    """
    vectors = [table.columns[n] for n in table.schema.names]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(table.schema.names)
        for start in range(0, table.row_count, _BLOCK):
            cols = [_cell_texts(vector[start : start + _BLOCK]) for vector in vectors]
            handle.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


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
    at most ``high``, or with bounds on a column that is not ordinal, raises
    :class:`ConfigError` naming the path and the entry's index; a schema
    without exactly one binary target, or with a repeated name, raises it
    naming the path.
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
        if kind is not FeatureKind.ORDINAL and (low, high) != (None, None):
            raise ConfigError(
                f'{path}: schema entry {i}: "low" and "high" apply only to ordinal columns'
            )
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


def missing_report(table: CohortTable) -> CellCounts:
    """Count absent cells per column."""
    counts = {
        name: int(np.isnan(table.columns[name]).sum()) for name in table.schema.names
    }
    return CellCounts("missing", counts)


def class_balance(table: CohortTable) -> tuple[int, int]:
    """Return ``(count of label 0, count of label 1)`` for the target."""
    target = table.columns[table.schema.target_name]
    if not np.isin(target, (0.0, 1.0)).all():
        raise DataError("target column contains values other than 0/1")
    ones = int((target == 1.0).sum())
    return table.row_count - ones, ones
