"""CSV loading, schema validation, and the missing-value report.

``reference_write_csv`` below is the per-row writer that the blocked
``write_csv`` replaced, kept as the reference for its bytes.
``ref_load_csv`` (with ``ref_cannot_parse`` and ``ref_parse_cell``) is the
row-by-row reader that the blocked ``load_csv`` replaced, copied verbatim
but for its names, docstring and log line.  It checks each cell on its own,
and the blocked reader must return the same arrays bit for bit or raise
the same message.
"""

import csv
import math
import re
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


@st.composite
def cohort_files(draw, counts, block):
    """CSV text with a shuffled header, edits from CELLS near block edges,
    and perhaps a blank line and a row with the wrong field count."""
    schema = draw(st.sampled_from([FRAMINGHAM, WIDE]))
    header = draw(st.permutations(schema.names))
    n = draw(counts)
    kinds = [schema.column(name).kind for name in header]
    grid = [[VALID[kind][(r + c) % 2] for c, kind in enumerate(kinds)] for r in range(n)]
    edges = range(0, n + block, block)
    near = sorted({0, n - 1} | {r for b in edges for r in range(b - 2, b + 2) if 0 <= r < n})
    columns = st.integers(0, len(header) - 1)
    edits = st.tuples(st.sampled_from(near), columns, st.sampled_from(CELLS))
    for r, c, cell in draw(st.lists(edits, max_size=6)):
        grid[r][c] = cell
    lines = [",".join(row) + "\n" for row in grid]
    for extra in ("\n", "1,2,3\n"):
        if draw(st.integers(0, 3)) == 0:
            lines.insert(draw(st.sampled_from(near)), extra)
    return schema, ",".join(header) + "\n" + "".join(lines)


def outcome(load, path, schema):
    """The columns' bits, or the error message."""
    try:
        table = load(path, schema)
    except DataError as exc:
        return str(exc)
    return {name: table.column(name).view(np.int64).tolist() for name in schema.names}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "t.csv"


class TestSameAsRowByRowReader:
    """The blocked reader returns what the row-by-row reader did."""

    @settings(max_examples=500)
    @given(cohort_files(st.integers(1, 14), block=4))
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,9007199254740993,1,-5,0,0\n"))  # to 2**53
    @example(case=(WIDE, "flag,count,level,grade,x,y\n1,9007199254740995,1,3,0,0\n"))  # 2**53 + 4
    def test_small_blocks(self, csv_path, case):
        schema, text = case
        csv_path.write_text(text, encoding="utf-8")
        with mock.patch.object(ingest, "_BLOCK", 4):
            got = outcome(chdml.load_csv, str(csv_path), schema)
        assert got == outcome(ref_load_csv, str(csv_path), schema)

    @settings(max_examples=8)
    @given(cohort_files(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 3]), block=_BLOCK))
    def test_full_blocks(self, csv_path, case):
        schema, text = case
        csv_path.write_text(text, encoding="utf-8")
        got = outcome(chdml.load_csv, str(csv_path), schema)
        assert got == outcome(ref_load_csv, str(csv_path), schema)


class TestWriteCsv:
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
