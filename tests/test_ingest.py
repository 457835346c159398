"""CSV loading, schema validation, and the missing-value report.

``reference_write_csv`` below is the per-row writer that the blocked
``write_csv`` replaced, kept as the reference for its bytes.
``ref_load_csv`` (with ``ref_cannot_parse`` and ``ref_parse_cell``) is the
row-by-row reader that the blocked ``load_csv`` replaced, copied verbatim
but for its names, docstring and log line.  It checks each cell on its own,
and the blocked reader must return the same arrays bit for bit or raise
the same message.
"""

import contextlib
import csv
import functools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chdml
from chdml import ingest
from chdml.errors import ConfigError, DataError
from chdml.ingest import (
    _BLOCK,
    FRAMINGHAM,
    MISSING_TOKENS,
    CohortTable,
    Column,
    FeatureKind,
    Schema,
    schema_from_json,
)


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


MINI_HEADER = (
    "sex,age,education,currentSmoker,cigsPerDay,BPMeds,prevalentStroke,"
    "prevalentHyp,diabetes,totChol,sysBP,diaBP,BMI,heartRate,glucose,TenYearCHD\n"
)


def mini_csv(rows):
    return MINI_HEADER + "".join(rows)


ROW_A = "1,44,2,1,20,0,0,0,0,210,130.5,82,26.4,75,80,0\n"
ROW_B = "0,51,3,0,0,0,0,1,0,240,145,90,29.1,68,NA,1\n"
ROW_C = "0,39,1,0,0,0,0,0,0,185,118,76,22.8,80,90,0\n"
ROW_D = "0,60,,0,0,NA,0,1,0, na ,150,95,,70,100,1\n"  # other spellings of missing


def reference_write_csv(table, path):
    """The per-row writer that ``write_csv`` replaced."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.names)
        vectors = [table.columns[n] for n in table.schema.names]
        for i in range(table.row_count):
            writer.writerow(
                "NA" if np.isnan(v[i]) else repr(float(v[i])) for v in vectors
            )


def ref_cannot_parse(row: int, col: Column, text: str, reason: str = "") -> str:
    detail = f" ({reason})" if reason else ""
    return f"row {row}, column {col.name!r}: cannot parse {text!r}{detail}"


def ref_parse_cell(text: str, col: Column, row: int) -> float:
    token = text.strip()
    if token.lower() in MISSING_TOKENS:
        if col.target:
            raise DataError(ref_cannot_parse(row, col, text, "target may not be missing"))
        return float("nan")
    try:
        value = float(token)
    except ValueError:
        raise DataError(ref_cannot_parse(row, col, text)) from None
    if not math.isfinite(value):
        raise DataError(ref_cannot_parse(row, col, text, "not a finite number"))
    if col.kind is FeatureKind.BINARY and value not in (0.0, 1.0):
        raise DataError(ref_cannot_parse(row, col, text, "expected 0 or 1"))
    if col.kind is FeatureKind.ORDINAL:
        if value != int(value):
            raise DataError(ref_cannot_parse(row, col, text, "expected an integer"))
        if (col.low is not None and value < col.low) or (
            col.high is not None and value > col.high
        ):
            reason = f"outside [{col.low}, {col.high}]"
            raise DataError(ref_cannot_parse(row, col, text, reason))
    return value


def ref_load_csv(path: str, schema: Schema = FRAMINGHAM) -> CohortTable:
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty (no header row)") from None
            positions = ingest._match_header(header, schema)
            cells: list[list[float]] = [[] for _ in schema.columns]
            for row_number, row in enumerate(reader, start=1):
                if not row or all(not c.strip() for c in row):
                    continue  # ignore blank lines
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {row_number} has {len(row)} fields, "
                        f"expected {len(header)}"
                    )
                for col, pos, bucket in zip(schema.columns, positions, cells):
                    bucket.append(ref_parse_cell(row[pos], col, row_number))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    columns = {
        col.name: np.asarray(bucket, dtype=np.float64)
        for col, bucket in zip(schema.columns, cells)
    }
    return CohortTable(schema, columns)


def random_table(n, seed=0):
    """A FRAMINGHAM table of ``n`` rows, a tenth of its predictor cells missing."""
    rng = np.random.default_rng(seed)
    columns = {}
    for col in FRAMINGHAM.columns:
        if col.kind is FeatureKind.BINARY:
            values = rng.integers(0, 2, n).astype(float)
        elif col.kind is FeatureKind.ORDINAL:
            values = rng.integers(1, 5, n).astype(float)
        else:
            values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n)
        if not col.target:
            values[rng.random(n) < 0.1] = np.nan
        columns[col.name] = values
    return CohortTable(FRAMINGHAM, columns)


class TestSchema:
    def test_framingham_shape(self):
        assert len(FRAMINGHAM.columns) == 16
        assert FRAMINGHAM.target_name == "TenYearCHD"
        assert FRAMINGHAM.predictor_names[0] == "sex"
        assert FRAMINGHAM.column("education").kind is FeatureKind.ORDINAL

    def test_exactly_one_target_required(self):
        cols = (
            chdml.ingest.Column("a", FeatureKind.CONTINUOUS),
            chdml.ingest.Column("b", FeatureKind.CONTINUOUS),
        )
        with pytest.raises(DataError):
            Schema(cols)

    def test_from_json(self, tmp_path):
        path = write(
            tmp_path,
            '[{"name": "x", "kind": "continuous"},'
            ' {"name": "y", "kind": "binary", "target": true}]',
            "schema.json",
        )
        schema = schema_from_json(path)
        assert schema.names == ("x", "y")
        assert schema.target_name == "y"

    def test_from_json_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "schema.json"
        text = '[{"name": "x", "kind": "continuous"}, {"name": "y", "kind": "binary", "target": true}]'
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert schema_from_json(str(path)).names == ("x", "y")

    def test_names_differing_only_in_case_rejected(self, tmp_path):
        path = write(
            tmp_path,
            '[{"name": "Age", "kind": "continuous"}, {"name": "age", "kind": "continuous"},'
            ' {"name": "y", "kind": "binary", "target": true}]',
            "schema.json",
        )
        with pytest.raises(ConfigError, match=f"{path}: schema column names must be unique"):
            schema_from_json(path)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"name": "x", "kind": "continuous", "target": "no"}',
            '{"name": "x", "kind": "continuous", "target": "false"}',
            '{"name": "x", "kind": "continuous", "target": null}',
            '{"name": "x", "kind": "continuous", "target": 2}',
            '{"name": 5, "kind": "continuous"}',
        ],
        ids=["text-no", "text-false", "null", "two", "numeric-name"],
    )
    def test_target_flag_is_a_boolean_and_name_a_string(self, tmp_path, entry):
        path = write(
            tmp_path,
            f'[{{"name": "y", "kind": "binary", "target": true}}, {entry}]',
            "schema.json",
        )
        with pytest.raises(ConfigError, match=f"^{path}: schema entry 1: "):
            schema_from_json(path)

    def test_numeric_target_flags_are_booleans(self, tmp_path):
        path = write(
            tmp_path,
            '[{"name": "x", "kind": "continuous", "target": 0},'
            ' {"name": "y", "kind": "binary", "target": 1}]',
            "schema.json",
        )
        assert schema_from_json(path).target_name == "y"

    def test_kind_aliases(self):
        assert FeatureKind.from_string("BinaryNominal") is FeatureKind.BINARY
        assert FeatureKind.from_string("real") is FeatureKind.CONTINUOUS


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        table = chdml.load_csv(write(tmp_path, mini_csv([ROW_A, ROW_B])))
        assert table.row_count == 2
        assert table.column("age")[0] == 44.0
        assert math.isnan(table.column("glucose")[1])

    def test_male_header_alias(self, tmp_path):
        text = mini_csv([ROW_A]).replace("sex,", "male,", 1)
        table = chdml.load_csv(write(tmp_path, text))
        assert "sex" in table.columns
        assert "male" not in table.columns

    def test_schema_column_named_male_is_not_aliased(self, tmp_path):
        path = write(
            tmp_path,
            '[{"name": "male", "kind": "binary"}, {"name": "y", "kind": "binary", "target": true}]',
            "schema.json",
        )
        table = chdml.load_csv(write(tmp_path, "male,y\n1,0\n0,1\n"), schema_from_json(path))
        assert table.column("male").tolist() == [1.0, 0.0]
        assert table.column("y").tolist() == [0.0, 1.0]

    def test_byte_order_mark_skipped(self, tmp_path):
        text = mini_csv([ROW_A, ROW_B])
        plain = chdml.load_csv(write(tmp_path, text))
        marked = chdml.load_csv(write(tmp_path, "\ufeff" + text, "bom.csv"))
        assert marked == plain

    def test_header_case_insensitive(self, tmp_path):
        text = mini_csv([ROW_A]).replace("age", "AGE", 1)
        table = chdml.load_csv(write(tmp_path, text))
        assert table.column("age")[0] == 44.0

    def test_missing_column_rejected(self, tmp_path):
        text = mini_csv([ROW_A]).replace("glucose,", "", 1).replace(",80,0\n", ",0\n")
        with pytest.raises(DataError, match="required column 'glucose' not found"):
            chdml.load_csv(write(tmp_path, text))

    def test_unexpected_column_rejected(self, tmp_path):
        text = MINI_HEADER.rstrip("\n") + ",extra\n" + ROW_A.rstrip("\n") + ",1\n"
        with pytest.raises(DataError, match="unrecognized column 'extra'"):
            chdml.load_csv(write(tmp_path, text))

    def test_duplicate_column_rejected(self, tmp_path):
        text = mini_csv([ROW_A]).replace("sex,age", "sex,sex", 1)
        with pytest.raises(DataError, match="column 'sex' appears more than once"):
            chdml.load_csv(write(tmp_path, text))

    def test_non_numeric_cell(self, tmp_path):
        bad = ROW_A.replace("44", "forty-four")
        with pytest.raises(DataError, match="cannot parse 'forty-four'") as exc:
            chdml.load_csv(write(tmp_path, mini_csv([bad])))
        assert "row 1, column 'age'" in str(exc.value)

    def test_binary_out_of_domain(self, tmp_path):
        bad = ROW_A.replace("1,44", "2,44", 1)
        with pytest.raises(DataError, match=r"'sex': cannot parse '2' \(expected 0 or 1\)"):
            chdml.load_csv(write(tmp_path, mini_csv([bad])))

    def test_ordinal_range_enforced(self, tmp_path):
        bad = ROW_A.replace(",2,1,20,", ",7,1,20,", 1)
        with pytest.raises(DataError, match=r"cannot parse '7' \(outside \[1, 4\]\)"):
            chdml.load_csv(write(tmp_path, mini_csv([bad])))

    def test_missing_target_rejected(self, tmp_path):
        bad = ROW_A.replace(",80,0\n", ",80,NA\n")
        with pytest.raises(DataError):
            chdml.load_csv(write(tmp_path, mini_csv([bad])))

    def test_blank_lines_skipped(self, tmp_path):
        table = chdml.load_csv(write(tmp_path, mini_csv([ROW_A, "\n", ROW_B])))
        assert table.row_count == 2

    def test_round_trip(self, tmp_path):
        table = chdml.load_csv(write(tmp_path, mini_csv([ROW_A, ROW_B, ROW_C])))
        out = tmp_path / "echo.csv"
        chdml.write_csv(table, str(out))
        again = chdml.load_csv(str(out))
        assert again == table


class TestBlockedRead:
    """Errors name the same row and column as a row-by-row read would."""

    LONG = _BLOCK + 5  # data rows in a file longer than one block

    @pytest.mark.parametrize(
        "old, new, column, reason",
        [
            (",44,", ",forty,", "age", ""),
            (",44,", ",nan,", "age", "not a finite number"),
            (",44,", ",inf,", "age", "not a finite number"),
            (",44,", ",-inf,", "age", "not a finite number"),
            ("1,44,2,", "2,44,2,", "sex", "expected 0 or 1"),
            (",2,1,20,", ",2.5,1,20,", "education", "expected an integer"),
            (",2,1,20,", ",0,1,20,", "education", "outside [1, 4]"),
            (",80,0\n", ",80,NA\n", "TenYearCHD", "target may not be missing"),
        ],
    )
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_bad_cell_named_by_row_and_column(self, tmp_path, old, new, column, reason, where):
        bad = ROW_A.replace(old, new, 1)
        text = bad.split(",")[FRAMINGHAM.names.index(column)].strip()
        rows = [ROW_A] * self.LONG
        rows.insert(0 if where == "first" else self.LONG, bad)
        row = 1 if where == "first" else self.LONG + 1
        detail = f" ({reason})" if reason else ""
        message = f"row {row}, column {column!r}: cannot parse {text!r}{detail}"
        with pytest.raises(DataError) as exc:
            chdml.load_csv(write(tmp_path, mini_csv(rows)))
        assert str(exc.value) == message

    def test_row_numbers_count_blank_lines(self, tmp_path):
        rows = [ROW_A, "\n", ROW_B] + [ROW_C] * _BLOCK + [ROW_A.replace(",44,", ",x,")]
        with pytest.raises(DataError, match=f"^row {_BLOCK + 4}, column 'age'"):
            chdml.load_csv(write(tmp_path, mini_csv(rows)))

    def test_missing_target_after_the_first_row_of_a_block(self, tmp_path):
        rows = [ROW_A] * (_BLOCK + 3) + [ROW_B.replace(",NA,1\n", ",NA,\n")]
        with pytest.raises(DataError, match=f"^row {_BLOCK + 4}, column 'TenYearCHD'"):
            chdml.load_csv(write(tmp_path, mini_csv(rows)))

    def test_bad_cell_reported_before_a_later_field_count_error(self, tmp_path):
        rows = [ROW_A, ROW_A.replace(",44,", ",x,"), ROW_A, "1,2,3\n", ROW_B]
        with pytest.raises(DataError, match="^row 2, column 'age': cannot parse 'x'$"):
            chdml.load_csv(write(tmp_path, mini_csv(rows)))

    def test_field_count_error_reported_before_a_later_bad_cell(self, tmp_path):
        path = write(tmp_path, mini_csv([ROW_A, "1,2,3\n", ROW_A.replace(",44,", ",x,")]))
        with pytest.raises(DataError, match="row 2 has 3 fields, expected 16$"):
            chdml.load_csv(path)

    def test_bad_cell_reported_before_later_bytes_that_are_not_utf8(self, tmp_path):
        # more than one read-ahead chunk of text comes before the bad byte
        rows = [ROW_A.replace(",44,", ",x,")] + [ROW_A] * 400
        path = tmp_path / "t.csv"
        path.write_bytes(mini_csv(rows).encode() + b"\xff\n")
        with pytest.raises(DataError, match="^row 1, column 'age'"):
            chdml.load_csv(str(path))

    def test_bad_cell_reported_before_bytes_that_are_not_utf8_in_the_same_chunk(
        self, tmp_path
    ):
        rows = [ROW_A.replace(",44,", ",x,"), ROW_A, ROW_A.replace(",44,", ",5\udcff,")]
        path = tmp_path / "t.csv"
        path.write_bytes(mini_csv(rows).encode("utf-8", "surrogateescape"))
        with pytest.raises(DataError, match="^row 1, column 'age': cannot parse 'x'$"):
            chdml.load_csv(str(path))

    def test_first_row_that_is_not_utf8_is_refused_by_path(self, tmp_path):
        rows = [ROW_A, ROW_A.replace(",44,", ",5\udcff,"), ROW_A.replace(",44,", ",x,")]
        path = tmp_path / "t.csv"
        path.write_bytes(mini_csv(rows).encode("utf-8", "surrogateescape"))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text "
                           r"\(invalid start byte\)$"):
            chdml.load_csv(str(path))

    def test_missing_spellings_and_rejected_nan(self, tmp_path):
        table = chdml.load_csv(write(tmp_path, mini_csv([ROW_A, ROW_D])))
        for name in ("education", "BPMeds", "totChol", "BMI"):
            assert math.isnan(table.column(name)[1])
        with pytest.raises(DataError, match="cannot parse 'nan'"):
            chdml.load_csv(write(tmp_path, mini_csv([ROW_D.replace(" na ", "nan")])))

    def test_blank_lines_on_block_edges_skipped(self, tmp_path):
        blank = ["\n", " , ," + "," * 13 + "\n"]
        rows = [ROW_A, ROW_B, ROW_C, ROW_D] * (_BLOCK // 2)
        edged = blank + rows[: _BLOCK - 1] + blank + rows[_BLOCK - 1 :] + blank
        expected = chdml.load_csv(write(tmp_path, mini_csv(rows)))
        assert chdml.load_csv(write(tmp_path, mini_csv(edged), "edged.csv")) == expected


    def test_first_bad_cell_of_a_row_in_schema_order(self, tmp_path):
        header = MINI_HEADER.replace("sex,age,", "age,sex,", 1)
        row = ROW_A.replace("1,44,", "x,2,", 1)  # bad age, then bad sex, in file order
        with pytest.raises(DataError, match=r"^row 1, column 'sex': cannot parse '2' \("):
            chdml.load_csv(write(tmp_path, header + row))

    def test_over_long_field_names_path_and_row(self, tmp_path):
        long_cell = "4" * 200_000  # csv refuses fields over 131,072 characters
        path = write(tmp_path, mini_csv([ROW_A, ROW_B, ROW_A.replace("44", long_cell, 1)]))
        with pytest.raises(DataError, match=f"^{path}: row 3: field larger than field limit"):
            chdml.load_csv(path)
        path = write(tmp_path, MINI_HEADER.replace("age", long_cell, 1) + ROW_A, "head.csv")
        with pytest.raises(DataError, match=f"^{path}: header row: field larger than"):
            chdml.load_csv(path)

    def test_bad_cell_reported_before_a_later_over_long_field(self, tmp_path):
        rows = [ROW_A.replace(",44,", ",x,"), ROW_A.replace("44", "4" * 200_000, 1)]
        with pytest.raises(DataError, match="^row 1, column 'age': cannot parse 'x'$"):
            chdml.load_csv(write(tmp_path, mini_csv(rows)))


#: Cells that reach every rule: missing spellings, text float() rejects or
#: reads only once stripped, nan and inf, an overflow, an underscore, a
#: fraction, and integers either side of 2**53 + 3.
CELLS = [
    "NA", " na ", "", "nan", "inf", "-inf", "1e400", "1_0", " 1 ", "2.5", "-0.5", "x", "\x1c1",
    "9007199254740993", "9007199254740995", "-0", "0", "1", "3", "4.0", "5",
]

#: A schema whose ordinal bounds float64 cannot hold, are one-sided or NaN
#: (a JSON schema file may say NaN; no value compares outside it).
WIDE = Schema((
    Column("flag", FeatureKind.BINARY),
    Column("count", FeatureKind.ORDINAL, low=-1, high=2**53 + 3),
    Column("level", FeatureKind.ORDINAL, low=1),
    Column("grade", FeatureKind.ORDINAL, low=math.nan, high=3),
    Column("x", FeatureKind.CONTINUOUS),
    Column("y", FeatureKind.BINARY, target=True),
))

#: Two good cells of each kind, for every schema above.
VALID = {
    FeatureKind.BINARY: ("0", "1"),
    FeatureKind.ORDINAL: ("1", "2"),
    FeatureKind.CONTINUOUS: ("0.25", "-7"),
}


#: Cells numpy's parser might read otherwise than the row-by-row reader:
#: signed, doubled or lowercase missing tokens, nan and inf, an overflow and
#: an underflow, an underscore, control characters that strip() removes,
#: halves of a number, and empty, padded and whitespace-only cells.
NUMBER_CELLS = [
    "NA", " NA\t", "+NA", "-NA", " +NA", "+ NA", "NANA", "NAN", "N", "1NA", "nan", "NaN",
    "inf", "-inf", "1e400", "1e-400", "1_0", "\x0b1", "\x1c1", "1.", ".5", ".", "e5", "1e",
    "1e5e", "", " ", "\t", " na ", "Na", " 1\t", "-0", "+1", "1E5",
]


@st.composite
def cohort_files(draw, counts, block, cells=CELLS, odd_lines=True):
    """CSV text with a shuffled header, edits from ``cells`` near block
    edges, and, with ``odd_lines``, perhaps a blank line and a row with the
    wrong field count."""
    schema = draw(st.sampled_from([FRAMINGHAM, WIDE]))
    header = draw(st.permutations(schema.names))
    n = draw(counts)
    kinds = [schema.column(name).kind for name in header]
    grid = [[VALID[kind][(r + c) % 2] for c, kind in enumerate(kinds)] for r in range(n)]
    edges = range(0, n + block, block)
    near = sorted({0, n - 1} | {r for b in edges for r in range(b - 2, b + 2) if 0 <= r < n})
    columns = st.integers(0, len(header) - 1)
    edits = st.tuples(st.sampled_from(near), columns, st.sampled_from(cells))
    for r, c, cell in draw(st.lists(edits, max_size=6)):
        grid[r][c] = cell
    lines = [",".join(row) + "\n" for row in grid]
    for extra in ("\n", "1,2,3\n") if odd_lines else ():
        if draw(st.integers(0, 3)) == 0:
            lines.insert(draw(st.sampled_from(near)), extra)
    return schema, ",".join(header) + "\n" + "".join(lines)


#: Cells that only ``csv.reader`` reads: quoted (one of them across a line
#: end), holding a NUL, or not ASCII (float() reads the first two of those).
LINE_CELLS = ['"1"', '"0\n"', '" na "', '"x"""', "1\x00", "\u00a01", "\uff11", "\u00e9"]


@st.composite
def line_files(draw, counts, block):
    """cohort_files text with line-level edits near block edges: cells from
    LINE_CELLS, blank lines of commas and whitespace, CRLF or bare-CR line
    ends, and perhaps no final line end."""
    schema, text = draw(cohort_files(counts, block))
    width = len(schema.columns)
    lines = text.split("\n")[:-1]  # the header, then one line per data row
    edges = range(1, len(lines) + block, block)
    near = st.sampled_from(
        sorted({i for b in edges for i in range(b - 2, b + 2) if 1 <= i < len(lines)})
    )
    edits = st.tuples(near, st.integers(0, width - 1), st.sampled_from(LINE_CELLS))
    for i, c, cell in draw(st.lists(edits, max_size=2)):
        cells = lines[i].split(",")
        if len(cells) == width:
            cells[c] = cell
            lines[i] = ",".join(cells)
    blanks = st.tuples(near, st.sampled_from(["", " \t", "\u00a0"]), st.booleans())
    for i, space, every_cell in draw(st.lists(blanks, max_size=2)):
        lines.insert(i, ",".join([space] * width) if every_cell else space)
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    for i, end in draw(st.lists(st.tuples(near, st.sampled_from(["\r", "\r\n"])), max_size=2)):
        if i < len(ends):
            ends[i] = end
    if draw(st.booleans()):
        ends[-1] = ""
    return schema, "".join(map(str.__add__, lines, ends))


def outcome(load, path, schema):
    """The columns' bits, or the error message; a warning fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = load(path, schema)
            got = {name: table.column(name).view(np.int64).tolist() for name in schema.names}
        except DataError as exc:
            got = str(exc)
    assert [str(w.message) for w in caught] == []
    return got


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "t.csv"


def some_files(counts, block):
    """cohort_files with CELLS, or with NUMBER_CELLS in otherwise plain blocks."""
    return cohort_files(counts, block) | cohort_files(
        counts, block, cells=NUMBER_CELLS, odd_lines=False
    )


class TestSameAsRowByRowReader:
    """The blocked reader returns what the row-by-row reader did, whether
    numpy's parser or csv.reader reads a block."""

    @settings(max_examples=900)
    @given(some_files(st.integers(1, 14), block=4))
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,9007199254740993,1,-5,0,0\n"))  # to 2**53
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,9007199254740995,1,3,0,0\n"))  # 2**53 + 4
    # a column block with a missing token and a rejected cell, an inf, or both
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,1,1,1,NA,0\n1,1,1,1,x,0\n1,1,1,1,inf,0\n"))
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,1,1,1,NA,0\n1,1,1,1,inf,0\n1,1,1,1,x,0\n"))
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,1,1,1, na ,0\n1,1,1,1,\x1cNA,0\n"))
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,1,1,1,x,0\n1,1,1,1,NA,NA\n"))
    # numpy reads +nan and -nan as NaN; the row-by-row reader refuses +NA
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,1,1,1,+NA,0\n"))
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,1,1,1,-7,0\n1,1,1,1, -NA,0\n"))
    # numpy reads NaN, which holds no lowercase n, as NaN
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,1,1,1,NaN,0\n"))
    def test_small_blocks(self, csv_path, case):
        schema, text = case
        csv_path.write_text(text, encoding="utf-8")
        with mock.patch.object(ingest, "_BLOCK", 4):
            got = outcome(chdml.load_csv, str(csv_path), schema)
        assert got == outcome(ref_load_csv, str(csv_path), schema)

    @settings(max_examples=14)
    @given(some_files(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 3]), block=_BLOCK))
    def test_full_blocks(self, csv_path, case):
        schema, text = case
        csv_path.write_text(text, encoding="utf-8")
        got = outcome(chdml.load_csv, str(csv_path), schema)
        assert got == outcome(ref_load_csv, str(csv_path), schema)


WIDE_ROWS = "flag,count,level,grade,x,y\n" + "1,1,1,1,0,0\n" * 3


class TestLineLevelInput:
    """Line ends, quotes, blank lines, NULs and text that is not ASCII near
    block edges are read as the row-by-row reader read them."""

    @settings(max_examples=300)
    @given(line_files(st.integers(1, 14), block=4))
    # a quoted cell across the first block's edge, then a bare CR
    @example(case=(WIDE, WIDE_ROWS + '1,1,1,1,"0\n",0\n1,1,1,1,0,0\r1,1,1,1,x,0\n'))
    # a bare CR after the first block
    @example(case=(WIDE, WIDE_ROWS + "1,1,1,1,0,0\n1,1,1,1,0,0\r1,1,1,1,x,0\n"))
    # a blank line of commas and whitespace inside a block
    @example(case=(WIDE, WIDE_ROWS + " , ,\t, , ,\n1,1,1,1,x,0\n"))
    def test_small_blocks(self, csv_path, case):
        schema, text = case
        csv_path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(ingest, "_BLOCK", 4):
            got = outcome(chdml.load_csv, str(csv_path), schema)
        assert got == outcome(ref_load_csv, str(csv_path), schema)

    @settings(max_examples=8)
    @given(line_files(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 3]), block=_BLOCK))
    def test_full_blocks(self, csv_path, case):
        schema, text = case
        csv_path.write_bytes(text.encode("utf-8"))
        got = outcome(chdml.load_csv, str(csv_path), schema)
        assert got == outcome(ref_load_csv, str(csv_path), schema)

    @pytest.mark.parametrize("row", [1, 4, 5, 9])
    def test_over_long_field_near_block_edges(self, tmp_path, row):
        rows = [ROW_A] * 10
        rows[row - 1] = ROW_A.replace("44", "4" * 200_000, 1)
        path = write(tmp_path, mini_csv(rows))
        limit = csv.field_size_limit()
        with mock.patch.object(ingest, "_BLOCK", 4):
            with pytest.raises(DataError) as exc:
                chdml.load_csv(path)
        assert str(exc.value) == f"{path}: row {row}: field larger than field limit ({limit})"

    def test_over_long_line_of_short_fields(self, tmp_path):
        padded = ",".join(" " * 9000 + cell for cell in ROW_A.split(","))
        path = write(tmp_path, mini_csv([ROW_B] * 5 + [padded, ROW_C]))
        assert len(padded) > csv.field_size_limit()
        with mock.patch.object(ingest, "_BLOCK", 4):
            got = outcome(chdml.load_csv, path, FRAMINGHAM)
        assert got == outcome(ref_load_csv, path, FRAMINGHAM)


@contextlib.contextmanager
def counted_calls():
    """Count the calls of ``_row_blocks``, one per hand-over to csv.reader,
    and of ``_float_or_none``, one per cell parsed on its own."""
    calls = {"_row_blocks": 0, "_float_or_none": 0}

    def counted(name, real, *args):
        calls[name] += 1
        return real(*args)

    with contextlib.ExitStack() as stack:
        for name in calls:
            wrapper = functools.partial(counted, name, getattr(ingest, name))
            stack.enter_context(mock.patch.object(ingest, name, wrapper))
        yield calls


NO_CALLS = {"_row_blocks": 0, "_float_or_none": 0}

#: Decimals of the continuous columns that the benchmark's cohorts do not
#: write as integers.
DECIMALS = {"sysBP": 1, "diaBP": 1, "BMI": 2}


def cohort_shaped_text(n, seed):
    """CSV text laid out like the benchmark's cohorts: a ``male`` header, LF
    line ends, integer cells and one- or two-decimal ones, and ``NA`` cells
    in the predictors."""
    rng = np.random.default_rng(seed)
    columns = []
    for col in FRAMINGHAM.columns:
        if col.kind is FeatureKind.CONTINUOUS:
            spec = f".{DECIMALS.get(col.name, 0)}f"
            texts = [format(v, spec) for v in rng.normal(100.0, 30.0, n).tolist()]
        elif col.kind is FeatureKind.ORDINAL:
            texts = list(map(str, rng.integers(1, 5, n).tolist()))
        else:
            texts = list(map(str, rng.integers(0, 2, n).tolist()))
        if not col.target:
            for i in np.flatnonzero(rng.random(n) < 0.05).tolist():
                texts[i] = "NA"
        columns.append(texts)
    header = ("male",) + FRAMINGHAM.names[1:]
    return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*columns))


class TestPlainBlocks:
    """Plain blocks are parsed by numpy in one call: neither csv.reader nor
    the per-cell parse reads them."""

    def test_written_files_are_read_without_csv_reader(self, tmp_path):
        table = random_table(2 * _BLOCK + 5, seed=3)
        written = tmp_path / "crlf.csv"
        chdml.write_csv(table, str(written))
        crlf = written.read_bytes()
        assert b"\r\n" in crlf and b",NA," in crlf
        lf = tmp_path / "lf.csv"
        lf.write_bytes(crlf.replace(b"\r\n", b"\n"))
        for path in (written, lf):
            with counted_calls() as calls:
                assert chdml.load_csv(str(path)) == table
            assert calls == NO_CALLS

    def test_cohort_shaped_file_is_read_without_csv_reader(self, tmp_path):
        text = cohort_shaped_text(2 * _BLOCK + 5, seed=4)
        assert ",NA," in text
        path = write(tmp_path, text)
        with counted_calls() as calls:
            got = outcome(chdml.load_csv, path, FRAMINGHAM)
        assert calls == NO_CALLS
        assert got == outcome(ref_load_csv, path, FRAMINGHAM)

    def test_a_quote_in_a_late_row_hands_the_rest_to_csv_reader(self, tmp_path):
        table = random_table(2 * _BLOCK + 5, seed=3)
        path = tmp_path / "t.csv"
        chdml.write_csv(table, str(path))
        lines = path.read_bytes().split(b"\r\n")
        first, rest = lines[-2].split(b",", 1)
        lines[-2] = b'"' + first + b'",' + rest
        path.write_bytes(b"\r\n".join(lines))
        with counted_calls() as calls:
            assert chdml.load_csv(str(path)) == table
        assert calls["_row_blocks"] == 1

    @pytest.mark.parametrize("cell", ["+NA", "1_0", " na "])
    def test_a_cell_numpy_must_not_read_hands_the_rest_to_csv_reader(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        chdml.write_csv(random_table(2 * _BLOCK + 5, seed=3), str(path))
        lines = path.read_bytes().split(b"\r\n")
        cells = lines[-3].split(b",")
        cells[FRAMINGHAM.names.index("age")] = cell.encode()
        lines[-3] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        with counted_calls() as calls:
            got = outcome(chdml.load_csv, str(path), FRAMINGHAM)
        assert calls["_row_blocks"] == 1
        assert got == outcome(ref_load_csv, str(path), FRAMINGHAM)

    #: Lines after a first block of four plain rows that numpy's parse must
    #: not read, or must read as the row-by-row reader does, without a warning.
    SECOND_BLOCKS = {
        "blank-lines": b"\n\n\r\n",  # numpy would warn of a file with no data
        "whitespace-lines": b" \t\n\n \n",
        "comma-only-row": ROW_B.encode() + b"," * 15 + b"\n" + ROW_C.encode(),
        "row-one-field-short": ROW_B.encode() + ROW_C.rsplit(",", 1)[0].encode() + b"\n",
        "one-extra-field-in-every-row": ROW_B.replace("\n", ",1\n").encode() * 4,
        "nan-and-NA": ROW_B.encode() + ROW_C.replace(",39,", ",nan,").encode(),
        "arabic-indic-digit": ROW_B.encode() + ROW_C.replace("0,", "\u0661,", 1).encode(),
        "byte-ff": ROW_B.encode() + ROW_C.replace(",39,", ",3\xff,").encode("latin-1"),
    }

    @pytest.mark.parametrize("second", SECOND_BLOCKS.values(), ids=SECOND_BLOCKS.keys())
    def test_second_block_reads_as_row_by_row(self, tmp_path, second):
        path = tmp_path / "t.csv"
        path.write_bytes(mini_csv([ROW_A, ROW_B, ROW_C, ROW_A]).encode() + second)
        with mock.patch.object(ingest, "_BLOCK", 4):
            got = outcome(chdml.load_csv, str(path), FRAMINGHAM)
        assert got == outcome(ref_load_csv, str(path), FRAMINGHAM)

    @pytest.mark.parametrize("cell", [" " * 200_000 + "44", "0." + "0" * 200_000])
    def test_over_long_field_that_numpy_reads_is_refused(self, tmp_path, cell):
        path = write(tmp_path, mini_csv([ROW_A, ROW_A.replace("44", cell, 1)]))
        limit = csv.field_size_limit()
        with pytest.raises(DataError) as exc:
            chdml.load_csv(path)
        assert str(exc.value) == f"{path}: row 2: field larger than field limit ({limit})"


#: NaN with payloads other than numpy's default, and with the sign bit set.
NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64)

#: Values whose text is easy to get wrong: both zeros, the least subnormal,
#: the first that repr writes with an exponent, an inexact sum and an
#: integer above 2**53.
AWKWARD = np.array([0.0, -0.0, 5e-324, -5e-324, 1e16, 0.1 + 0.2, 1.0, 2.0**53 + 2])


def awkward_table(n, seed, infinite=False):
    """A FRAMINGHAM table of ``n`` rows mixing AWKWARD values, NaN payloads
    and, with ``infinite``, +-inf into its continuous columns; zeros of both
    signs in its binary ones; one column the same in every row and one whose
    rows all differ."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([AWKWARD, NAN_PAYLOADS, [np.inf, -np.inf] if infinite else []])
    columns = {}
    for col in FRAMINGHAM.columns:
        if col.kind is FeatureKind.BINARY:
            values = rng.choice([0.0, -0.0, 1.0], n)
        elif col.kind is FeatureKind.ORDINAL:
            values = rng.choice([1.0, 4.0, NAN_PAYLOADS[0]], n)
        else:
            values = rng.choice(pool, n)
        columns[col.name] = values
    columns["heartRate"] = np.full(n, 72.5)
    columns["totChol"] = np.arange(n) * 0.1 - 5.0
    columns["TenYearCHD"] = rng.choice([0.0, -0.0, 1.0], n)
    return CohortTable(FRAMINGHAM, columns)


def same_bits(a, b):
    """Equal bit for bit, any NaN equal to any other."""
    nan = np.isnan(a)
    return (nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes()


class TestWriteCsv:
    """``write_csv`` writes the bytes of the per-row writer."""

    def assert_same_bytes(self, tmp_path, table):
        chdml.write_csv(table, str(tmp_path / "new.csv"))
        reference_write_csv(table, str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def assert_reloads(self, tmp_path, table, schema=FRAMINGHAM):
        with counted_calls() as calls:
            again = chdml.load_csv(str(tmp_path / "new.csv"), schema)
        assert calls == NO_CALLS  # numpy's parser read every block
        for name in schema.names:
            assert same_bits(again.column(name), table.column(name))

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_same_bytes_as_the_row_writer_and_round_trip(self, tmp_path, n):
        table = random_table(n, seed=n)
        chdml.write_csv(table, str(tmp_path / "new.csv"))
        reference_write_csv(table, str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        again = chdml.load_csv(str(tmp_path / "new.csv"))
        assert again == table
        for name in FRAMINGHAM.names:
            assert again.column(name).tobytes() == table.column(name).tobytes()

    @pytest.mark.parametrize("block", [4, _BLOCK])
    @pytest.mark.parametrize("n", [1, 4, 9, _BLOCK + 1])
    def test_awkward_values(self, tmp_path, block, n):
        table = awkward_table(n, seed=n)
        if n > 4:
            bits = np.concatenate(list(table.columns.values())).view(np.uint64)
            assert np.isin(NAN_PAYLOADS.view(np.uint64), bits).all()
        with mock.patch.object(ingest, "_BLOCK", block):
            self.assert_same_bytes(tmp_path, table)
            self.assert_reloads(tmp_path, table)
            self.assert_same_bytes(tmp_path, awkward_table(n, seed=n, infinite=True))

    def test_both_zeros_in_one_block(self, tmp_path):
        table = awkward_table(4, seed=0)
        cells = [-0.0, 0.0, 0.0, -0.0]
        table = table.replace_columns({"age": np.array(cells), "sex": np.array(cells)})
        with mock.patch.object(ingest, "_BLOCK", 4):
            chdml.write_csv(table, str(tmp_path / "new.csv"))
        rows = (tmp_path / "new.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["-0.0", "-0.0"], ["0.0", "0.0"], ["0.0", "0.0"], ["-0.0", "-0.0"]
        ]

    def test_header_quoted_by_csv(self, tmp_path):
        schema = Schema((
            Column('dose, "mg"', FeatureKind.CONTINUOUS),
            Column("y", FeatureKind.BINARY, target=True),
        ))
        table = CohortTable(schema, {'dose, "mg"': [1.5, np.nan, -0.0], "y": [0.0, 1.0, 1.0]})
        self.assert_same_bytes(tmp_path, table)
        text = (tmp_path / "new.csv").read_bytes()
        assert text == b'"dose, ""mg""",y\r\n1.5,0.0\r\nNA,1.0\r\n-0.0,1.0\r\n'
        self.assert_reloads(tmp_path, table, schema)

    @settings(max_examples=60)
    @given(st.lists(
        st.floats(width=64) | st.sampled_from(AWKWARD.tolist() + NAN_PAYLOADS.tolist()),
        min_size=1, max_size=13,
    ))
    def test_any_floats(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("floats")
        schema = Schema((Column("x", FeatureKind.CONTINUOUS),
                         Column("y", FeatureKind.BINARY, target=True)))
        table = CohortTable(schema, {"x": values, "y": np.zeros(len(values))})
        with mock.patch.object(ingest, "_BLOCK", 4):
            self.assert_same_bytes(tmp_path, table)


class TestCohortTable:
    def test_columns_are_protected(self, tmp_path):
        table = chdml.load_csv(write(tmp_path, mini_csv([ROW_A])))
        with pytest.raises(ValueError):
            table.column("age")[0] = 99.0

    def test_take_rows(self, tmp_path):
        table = chdml.load_csv(write(tmp_path, mini_csv([ROW_A, ROW_B, ROW_C])))
        sub = table.take_rows(np.array([0, 2]))
        assert sub.row_count == 2
        assert sub.column("age").tolist() == [44.0, 39.0]

    def test_nan_aware_equality(self, tmp_path):
        table = chdml.load_csv(write(tmp_path, mini_csv([ROW_A, ROW_B])))
        same = chdml.load_csv(write(tmp_path, mini_csv([ROW_A, ROW_B]), "u.csv"))
        assert table == same


def test_missing_report_counts(tmp_path):
    table = chdml.load_csv(write(tmp_path, mini_csv([ROW_A, ROW_B, ROW_C])))
    report = chdml.missing_report(table)
    assert report.counts["glucose"] == 1
    assert report.counts["age"] == 0
    assert report.total == 1
    doc = report.to_doc()
    assert doc["method"] == "missing"
    assert doc["total"] == 1


def test_missing_report_on_fixture(fixture_table):
    report = chdml.missing_report(fixture_table)
    assert report.counts == {
        "sex": 0, "age": 0, "education": 2, "currentSmoker": 0,
        "cigsPerDay": 1, "BPMeds": 1, "prevalentStroke": 0, "prevalentHyp": 0,
        "diabetes": 0, "totChol": 1, "sysBP": 0, "diaBP": 0, "BMI": 1,
        "heartRate": 1, "glucose": 2, "TenYearCHD": 0,
    }
    assert report.total == 9


def test_class_balance(fixture_table):
    assert chdml.class_balance(fixture_table) == (40, 20)


def test_class_balance_rejects_non_binary(tmp_path):
    path = write(
        tmp_path,
        '[{"name": "x", "kind": "continuous"},'
        ' {"name": "TenYearCHD", "kind": "binary", "target": true}]',
        "schema.json",
    )
    arr = np.array([0.0, 1.0, 2.0])
    table = CohortTable(schema_from_json(path), {"x": arr, "TenYearCHD": arr})
    with pytest.raises(DataError, match="values other than 0/1"):
        chdml.class_balance(table)
