import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbdid import data
from cbdid.data import (
    CsvSchema,
    Dataset,
    ModelSpec,
    delta,
    design_matrix,
    load_csv,
    split_blocks,
    unvech,
    vech,
)
from cbdid.errors import DimensionError, EmptyDataError, ParseError, SchemaError, SpecError


def make_dataset(n=6, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        covariates=rng.normal(size=(n, k)),
        treated=np.arange(n) % 2 == 0,
        y_pre=rng.normal(size=n),
        y_post=rng.normal(size=n),
        covariate_names=tuple(f"c{i}" for i in range(k)),
    )


CSV = b"""treat,age,score,y0,y1
1,25,2.0,1.0,3.5
0,30,5.0,2.0,2.0
1,41,1.5,0.0,9930.05
"""

SCHEMA = CsvSchema(
    treat_col="treat",
    covariate_cols=("age", "score"),
    y_pre_col="y0",
    y_post_col="y1",
)


class TestLoadCsv:
    def test_three_row_readback(self):
        ds = load_csv(CSV, SCHEMA)
        assert ds.n == 3
        assert ds.treated.sum() == 2 and (~ds.treated).sum() == 1
        np.testing.assert_allclose(ds.covariates[:, 0], [25, 30, 41])
        np.testing.assert_allclose(ds.y_post, [3.5, 2.0, 9930.05])

    def test_delta_column_mode(self):
        raw = b"treat,age,score,dy\n1,25,2.0,2.5\n0,30,5.0,0.0\n"
        schema = CsvSchema(treat_col="treat", covariate_cols=("age", "score"), delta_col="dy")
        ds = load_csv(raw, schema)
        np.testing.assert_allclose(ds.y_pre, [0.0, 0.0])
        np.testing.assert_allclose(delta(ds), [2.5, 0.0])

    def test_missing_column_is_schema_error(self):
        bad = CsvSchema(treat_col="treat", covariate_cols=("age", "income"),
                        y_pre_col="y0", y_post_col="y1")
        with pytest.raises(SchemaError, match="income"):
            load_csv(CSV, bad)

    def test_blank_cell_names_row(self):
        raw = b"treat,age,score,y0,y1\n1,25,2.0,1.0,3.5\n0,30,5.0,2.0,\n"
        with pytest.raises(ParseError, match="row 2"):
            load_csv(raw, SCHEMA)

    def test_non_numeric_cell(self):
        raw = b"treat,age,score,y0,y1\n1,x,2.0,1.0,3.5\n"
        with pytest.raises(ParseError, match="age"):
            load_csv(raw, SCHEMA)

    def test_zero_rows(self):
        raw = b"treat,age,score,y0,y1\n"
        with pytest.raises(EmptyDataError):
            load_csv(raw, SCHEMA)

    def test_treat_must_be_binary(self):
        raw = b"treat,age,score,y0,y1\n2,25,2.0,1.0,3.5\n"
        with pytest.raises(ParseError, match="0 or 1"):
            load_csv(raw, SCHEMA)

    def test_stream_and_bytes_agree(self):
        a = load_csv(CSV, SCHEMA)
        b = load_csv(io.BytesIO(CSV), SCHEMA)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_both_outcome_forms_rejected(self):
        with pytest.raises(SchemaError):
            CsvSchema(treat_col="t", covariate_cols=("a",), y_pre_col="p",
                      y_post_col="q", delta_col="d")

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_bytes_name_the_offset(self, bom):
        raw = bom + b"treat,age,score,y0,y1\n1,\xff\xfe,2.0,1.0,3.5\n"
        offset = raw.index(b"\xff")
        with pytest.raises(ParseError, match=f"0xff at byte offset {offset}$"):
            load_csv(raw, SCHEMA)

    def test_covariate_named_twice_rejected(self):
        with pytest.raises(SchemaError, match="more than once.*'age'"):
            CsvSchema(treat_col="treat", covariate_cols=("age", "score", "age"),
                      y_pre_col="y0", y_post_col="y1")

    def test_treat_column_as_covariate_rejected(self):
        with pytest.raises(SchemaError, match="'treat' cannot also be a covariate"):
            CsvSchema(treat_col="treat", covariate_cols=("age", "treat"),
                      y_pre_col="y0", y_post_col="y1")

    @pytest.mark.parametrize("outcomes", [
        {"y_pre_col": "treat", "y_post_col": "y1"},
        {"y_pre_col": "y0", "y_post_col": "treat"},
        {"delta_col": "treat"},
    ], ids=["y_pre", "y_post", "delta"])
    def test_treat_column_as_outcome_rejected(self, outcomes):
        with pytest.raises(SchemaError, match="'treat' cannot also be an outcome column"):
            CsvSchema(treat_col="treat", covariate_cols=("age",), **outcomes)

    def test_one_column_as_both_outcomes_rejected(self):
        with pytest.raises(SchemaError, match="y_pre and y_post name the same column 'y0'"):
            CsvSchema(treat_col="treat", covariate_cols=("age",), y_pre_col="y0",
                      y_post_col="y0")

    def test_pre_outcome_may_be_a_covariate(self):
        schema = CsvSchema(treat_col="treat", covariate_cols=("age", "y0"),
                           y_pre_col="y0", y_post_col="y1")
        ds = load_csv(CSV, schema)
        np.testing.assert_array_equal(ds.covariates[:, 1], ds.y_pre)

    def test_path_object(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(CSV)
        ds = load_csv(path, SCHEMA)
        np.testing.assert_array_equal(ds.covariates, load_csv(CSV, SCHEMA).covariates)

    def test_repeated_schema_column_in_header_rejected(self):
        raw = b"t,a,y0,a,y1\n1,2,3,9,4\n0,1,1,1,1\n"
        with pytest.raises(SchemaError, match="'a' appears more than once"):
            load_csv(raw, CsvSchema("t", ("a",), "y0", "y1"))

    def test_repeated_unused_column_allowed(self):
        raw = b"t,a,z,y0,z,y1\n1,2,5,3,6,4\n0,1,5,1,6,1\n"
        ds = load_csv(raw, CsvSchema("t", ("a",), "y0", "y1"))
        np.testing.assert_array_equal(ds.covariates[:, 0], [2.0, 1.0])


def load_rows(raw: bytes, schema: CsvSchema) -> Dataset:
    """Row-by-row reference for :func:`load_csv` on ASCII input whose header
    names each column once: every cell is parsed as the row is read."""
    reader = csv.reader(io.StringIO(raw.decode()))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataError("no header row in CSV input") from None
    except csv.Error as err:
        raise ParseError(f"header: malformed CSV record: {err}") from None
    header = [h.strip() for h in header]
    positions = {}
    needed = [schema.treat_col, *schema.covariate_cols]
    needed += [c for c in (schema.y_pre_col, schema.y_post_col, schema.delta_col) if c]
    for col in needed:
        if col not in header:
            raise SchemaError(f"column {col!r} not found in header {header}")
        positions[col] = header.index(col)

    def cell(record, col, i):
        return data._parse_cell(record[positions[col]], col, i)

    def records():
        i = 0
        try:
            for i, record in enumerate(reader, start=1):
                yield i, record
        except csv.Error as err:
            raise ParseError(f"row {i + 1}: malformed CSV record: {err}") from None

    treated, y_pre, y_post, rows = [], [], [], []
    for i, record in records():
        if not record or all(c.strip() == "" for c in record):
            continue
        if len(record) != len(header):
            raise ParseError(f"row {i}: expected {len(header)} fields, got {len(record)}")
        t = cell(record, schema.treat_col, i)
        if t not in (0.0, 1.0):
            raise ParseError(f"row {i}: treat column must be 0 or 1, got {t}")
        treated.append(bool(t))
        if schema.delta_col is not None:
            y_pre.append(0.0)
            y_post.append(cell(record, schema.delta_col, i))
        else:
            y_pre.append(cell(record, schema.y_pre_col, i))
            y_post.append(cell(record, schema.y_post_col, i))
        rows.append([cell(record, c, i) for c in schema.covariate_cols])
    if not rows:
        raise EmptyDataError("CSV input contains no data rows")
    return Dataset(
        covariates=np.asarray(rows, dtype=float).reshape(len(rows), len(schema.covariate_cols)),
        treated=np.asarray(treated, dtype=bool),
        y_pre=np.asarray(y_pre, dtype=float),
        y_post=np.asarray(y_post, dtype=float),
        covariate_names=schema.covariate_cols,
    )


def outcome(load, raw, schema):
    """What ``load`` gives: the dataset's arrays as bytes, or the error."""
    try:
        ds = load(raw, schema)
    except Exception as err:
        return type(err), str(err)
    return tuple((a.dtype.str, a.shape, a.tobytes())
                 for a in (ds.covariates, ds.treated, ds.y_pre, ds.y_post)) + (ds.covariate_names,)


HEADER = ("t", "a", "b", "y0", "y1")
SCHEMAS = (
    CsvSchema("t", ("a", "b"), "y0", "y1"),
    CsvSchema("t", ("b", "a"), delta_col="y1"),
    CsvSchema("t", ("a", "y0"), "y0", "y1"),
    CsvSchema("t", (), delta_col="y0"),
)
# Besides bad cells, forms where numpy's C reader and ``float`` may disagree:
# the C reader refuses underscores and non-ASCII digits but strips "\x1c",
# and quoted cells keep a block off its path.
CELLS = st.sampled_from(["", " ", "x", "nan", "inf", "-1e400", "2", " 3.25 ", "1_0",
                         "1_000", "\u0661", "+.5", "1.", "\t2", "infinity", "-nan", "0x10",
                         '"2.5"', '"1,5"', "5\x1c", '"1\n2"'])
GOOD = st.sampled_from(["0", "1", "-0", "0.5", "1e-3", "-7.25"])
RECORDS = st.one_of(
    st.lists(st.one_of(GOOD, CELLS), min_size=5, max_size=5),
    st.lists(st.one_of(GOOD, CELLS), min_size=5, max_size=5),
    st.lists(GOOD, min_size=5, max_size=5),
    st.lists(st.one_of(GOOD, CELLS), min_size=1, max_size=4),
    st.lists(st.one_of(GOOD, CELLS), min_size=6, max_size=7),
    st.just([]),
    st.lists(st.sampled_from(["", " "]), min_size=5, max_size=5),
)


def table(records, eol="\n", end="\n") -> bytes:
    lines = [",".join(HEADER)] + [",".join(r) for r in records]
    return (eol.join(lines) + end).encode()


class ShortReads(io.RawIOBase):
    """Raw bytes whose every read returns at most ``size`` bytes, as a pipe
    may return them."""

    def __init__(self, raw: bytes, size: int):
        self._raw, self._size, self._at = raw, size, 0

    def readable(self):
        return True

    def readinto(self, buffer):
        piece = self._raw[self._at:self._at + min(self._size, len(buffer))]
        buffer[:len(piece)] = piece
        self._at += len(piece)
        return len(piece)


def in_reads(raw: bytes, size: int) -> io.BufferedReader:
    """``raw`` as a buffered byte stream whose reads end every ``size`` bytes."""
    return io.BufferedReader(ShortReads(raw, size))


class TestColumnarParse:
    """``load_csv`` parses in blocks, a column at a time; it must give what
    the row-by-row reference gives, wherever the block boundaries fall."""

    @staticmethod
    def assert_same(raw, schema):
        expected = outcome(load_rows, raw, schema)
        # Reads of 1, 2 and 5 bytes end inside records and line ends.
        for block, size in ((data._BLOCK, None), (1, 1), (2, 5), (3, 2)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "_BLOCK", block)
                source = raw if size is None else in_reads(raw, size)
                assert outcome(load_csv, source, schema) == expected, \
                    f"_BLOCK={block}, reads of {size}"
                # A text stream with the default newline splits lines at "\n" only.
                assert outcome(load_csv, io.StringIO(raw.decode()), schema) == expected, \
                    f"text stream, _BLOCK={block}"
        return expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(RECORDS, max_size=12), st.sampled_from(SCHEMAS),
           st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["", "\n", "\n\n"]))
    def test_matches_row_by_row(self, records, schema, eol, end):
        self.assert_same(table(records, eol, end), schema)

    def test_bad_cell_before_short_row(self):
        raw = table([["1", "1", "1", "1", "1"], ["0", "1", "1", "1", "1"],
                     ["1", "x", "1", "1", "1"], ["0", "1", "1", "1", "1"], ["1", "1"]])
        assert self.assert_same(raw, SCHEMAS[0]) == (
            ParseError, "row 3: cannot parse a='x' as a number")

    def test_short_row_before_bad_cell(self):
        raw = table([["1", "1", "1", "1", "1"], ["1", "1"], ["0", "1", "1", "1", "1"],
                     ["1", "1", "1", "1", "1"], ["1", "1", "1", "1", "nan"]])
        assert self.assert_same(raw, SCHEMAS[0]) == (
            ParseError, "row 2: expected 5 fields, got 2")

    def test_bad_treat_before_bad_covariate(self):
        raw = table([["1", "1", "1", "1", "1"], ["2", "x", "1", "1", "1"]])
        assert self.assert_same(raw, SCHEMAS[0]) == (
            ParseError, "row 2: treat column must be 0 or 1, got 2.0")

    def test_carriage_return_line_ends_stop_at_the_header(self):
        kind, message = self.assert_same(b"t,x,y\r1,2,3\r0,1,2\r", SCHEMAS[3])
        assert kind is ParseError
        assert message.startswith(
            "header: malformed CSV record: new-line character seen in unquoted field")

    def test_cell_over_the_field_limit_names_its_row(self):
        long_cell = "1" * (csv.field_size_limit() + 1)
        raw = table([["1", "1", "1", "1", "1"], ["0", long_cell, "1", "1", "1"]])
        assert self.assert_same(raw, SCHEMAS[0]) == (
            ParseError, f"row 2: malformed CSV record: field larger than field limit "
            f"({csv.field_size_limit()})")

    @pytest.mark.parametrize("column, schema", [("a", SCHEMAS[0]), ("y1", SCHEMAS[3])])
    def test_finite_cell_over_the_field_limit_names_its_row(self, column, schema):
        # numpy's reader has no field size limit: a number it reads, in a
        # column the schema uses or not, is still the CSV reader's error.
        rows = [["1", "1", "1", "1", "1"], ["0", "1", "1", "1", "1"]]
        rows[1][HEADER.index(column)] = "0" * (csv.field_size_limit() + 1)
        assert self.assert_same(table(rows), schema) == (
            ParseError, f"row 2: malformed CSV record: field larger than field limit "
            f"({csv.field_size_limit()})")

    def test_bad_cell_before_unreadable_record(self):
        raw = table([["1", "1", "1", "1", "1"], ["0", "x", "1", "1", "1"],
                     ["1", "1", "1", "1", "1"], ["1", "1\r2", "1", "1", "1"]])
        assert self.assert_same(raw, SCHEMAS[0]) == (
            ParseError, "row 2: cannot parse a='x' as a number")

    @pytest.mark.parametrize("at", [1, data._BLOCK + 3])
    @pytest.mark.parametrize("record, schema", [
        (["1", "1", "1", "1", "1", "9"], SCHEMAS[0]),  # an extra trailing field
        (["1", "1", "1", "1"], SCHEMAS[3]),  # only the unused last column missing
    ])
    def test_wrong_width_in_a_clean_file_names_its_row(self, at, record, schema):
        rows = [["1", "0.5", "-2", "3", "4"], ["0", "1e-3", "2", "-7.25", "1"]] * (data._BLOCK // 2 + 5)
        rows[at] = record
        with pytest.raises(ParseError, match=f"^row {at + 1}: expected 5 fields, got {len(record)}$"):
            load_csv(table(rows), schema)

    @pytest.mark.parametrize("cell", ["5\x1c", "\x1d5", "5\x1e", "\x1f5"])
    def test_separator_around_a_number_is_not_whitespace(self, cell):
        # numpy's reader strips these as whitespace; float does not.
        assert self.assert_same(table([["1", cell, "1", "1", "1"]]), SCHEMAS[0]) == (
            ParseError, f"row 1: cannot parse a={cell!r} as a number")

    def test_quoted_line_break_keeps_its_record_whole(self):
        # Each of the record's two lines has the header's width, and numpy's
        # reader would join them into one row of the used columns.
        rows = [["1", "1", "1", "1", "1"], ["1", "1", "1", "1", '"x\ny"', "1", "1", "1", "1"]]
        assert self.assert_same(table(rows), SCHEMAS[3]) == (
            ParseError, "row 2: expected 5 fields, got 9")

    def test_record_past_the_block_end_leaves_the_next_block_whole(self, monkeypatch):
        # Read row by row, the quoted record runs on past a one-line block.
        monkeypatch.setattr(data, "_BLOCK", 1)
        rows = [["1", "1", '"x\ny"', "1", "1"], ["0", "2", "2", "2", "2"], ["1", "3", "3", "3", "3"]]
        np.testing.assert_array_equal(load_csv(table(rows), SCHEMAS[3]).y_post, [1.0, 2.0, 3.0])

    def test_clean_blocks_go_through_numpys_reader(self, monkeypatch):
        calls, loadtxt = [], np.loadtxt

        def spy(lines, *args, **kwargs):
            calls.append(len(lines))
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        ds = load_csv(table([["1", "0.5", "-2", "3", "4"], ["0", "1e-3", "2", "-7.25", "1"]] * 3),
                      SCHEMAS[0])
        assert calls == [6]
        np.testing.assert_array_equal(ds.covariates, [[0.5, -2.0], [1e-3, 2.0]] * 3)
        # numpy refuses "1_000": the block is read row by row, to float's value.
        calls.clear()
        raw = table([["1", "1_000", "2", "3", "4"], ["0", "1", "2", "3", "4"]])
        assert load_csv(raw, SCHEMAS[0]).covariates[0, 0] == float("1_000")
        assert calls == [2]

    def test_error_in_second_block(self):
        rows = [["1", "1", "1", "1", "1"]] * (data._BLOCK + 10)
        rows[data._BLOCK + 3] = ["0", "1", "inf", "1", "1"]
        with pytest.raises(ParseError, match=f"^row {data._BLOCK + 4}: non-finite value 'inf' in column b$"):
            load_csv(table(rows), SCHEMAS[0])


GOOD_ROW = b"1,25,2.0,1.0,3.5\n"


class TestStreamedInput:
    """``load_csv`` reads and decodes its input line by line; the decode
    error names the byte's offset in the input wherever the stream's reads
    end, and takes its place among the errors in row order."""

    @pytest.fixture(params=[1, 2, 3, 7, 64])
    def chunk(self, request):
        return request.param

    @pytest.fixture(params=["bytes", "byte stream", "path"])
    def source(self, request, tmp_path):
        def as_source(raw: bytes):
            if request.param == "bytes":
                return raw
            if request.param == "byte stream":
                return io.BytesIO(raw)
            path = tmp_path / "panel.csv"
            path.write_bytes(raw)
            return path
        return as_source

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_bad_byte_past_the_first_chunk_names_its_offset(self, bom, chunk):
        raw = bom + CSV + GOOD_ROW * 20 + b"0,3\xff,1.0,1.0,1.0\n" + GOOD_ROW * 3
        offset = raw.index(b"\xff")
        assert offset > chunk
        with pytest.raises(ParseError, match=f"^input is not UTF-8: byte 0xff at byte offset {offset}$"):
            load_csv(in_reads(raw, chunk), SCHEMA)

    def test_truncated_character_at_the_end_names_its_offset(self, chunk):
        raw = CSV + b"0,1,1.0,1.0,1.0,\xe2\x82"
        with pytest.raises(ParseError, match=f"0xe2 at byte offset {len(CSV) + 16}$"):
            load_csv(in_reads(raw, chunk), SCHEMA)

    def test_byte_order_mark_alone_has_no_header(self, source):
        with pytest.raises(EmptyDataError, match="^no header row in CSV input$"):
            load_csv(source(b"\xef\xbb\xbf"), SCHEMA)
        with pytest.raises(EmptyDataError, match="^no header row in CSV input$"):
            load_csv(io.StringIO("\ufeff\ufeff"), SCHEMA)

    def test_multibyte_characters(self, source):
        # "\u20ac" is three bytes in UTF-8 and sits in a column the schema skips.
        raw = "\ufeffnote,treat,age,score,y0,y1\n\u20ac,1,25,2.0,1.0,3.5\n\u20ac\u20ac,0,30,5.0,2.0,2.0\n"
        ds = load_csv(source(raw.encode()), SCHEMA)
        np.testing.assert_array_equal(ds.covariates, [[25.0, 2.0], [30.0, 5.0]])
        # A text stream loses every leading byte-order mark, as before.
        text = load_csv(io.StringIO("\ufeff" + raw), SCHEMA)
        np.testing.assert_array_equal(text.covariates, ds.covariates)

    def test_characters_split_across_chunks(self, chunk):
        raw = "\ufeffnote,treat,age,score,y0,y1\n\u20ac,1,25,2.0,1.0,3.5\n\u20ac\u20ac,0,30,5.0,2.0,2.0\n"
        ds = load_csv(in_reads(raw.encode(), chunk), SCHEMA)
        np.testing.assert_array_equal(ds.covariates, [[25.0, 2.0], [30.0, 5.0]])
        np.testing.assert_array_equal(ds.y_post, [3.5, 2.0])

    @pytest.mark.parametrize("block", [data._BLOCK, 1, 2])
    def test_bad_cell_before_the_bad_byte_wins(self, block, chunk, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK", block)
        raw = CSV + GOOD_ROW * 5 + b"0,x,1.0,1.0,1.0\n" + GOOD_ROW * 5 + b"1,\xff,1,1,1\n"
        with pytest.raises(ParseError, match="^row 9: cannot parse age='x' as a number$"):
            load_csv(in_reads(raw, chunk), SCHEMA)

    @pytest.mark.parametrize("block", [data._BLOCK, 1, 2])
    def test_bad_byte_before_a_bad_cell_wins(self, block, chunk, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK", block)
        raw = CSV + GOOD_ROW * 5 + b"1,\xff,1,1,1\n" + GOOD_ROW * 5 + b"0,x,1.0,1.0,1.0\n"
        offset = raw.index(b"\xff")
        with pytest.raises(ParseError, match=f"^input is not UTF-8: byte 0xff at byte offset {offset}$"):
            load_csv(in_reads(raw, chunk), SCHEMA)

    def test_bad_byte_names_its_offset_in_every_source(self, source):
        raw = b"\xef\xbb\xbf" + CSV + GOOD_ROW * 20 + b"0,3\xff,1.0,1.0,1.0\n"
        offset = raw.index(b"\xff")
        with pytest.raises(ParseError, match=f"^input is not UTF-8: byte 0xff at byte offset {offset}$"):
            load_csv(source(raw), SCHEMA)

    def test_text_stream_splits_lines_as_it_iterates(self, tmp_path):
        # Carriage-return line ends: the byte input stops at the header (see
        # TestColumnarParse), but a file opened with newline="" ends its lines
        # at each "\r", and one opened the default way translates them.
        path = tmp_path / "panel.csv"
        path.write_bytes(b"t,x,y\r1,2,3\r0,1,2\r")
        schema = CsvSchema("t", ("x",), delta_col="y")
        for newline in ("", None):
            with open(path, newline=newline) as fh:
                ds = load_csv(fh, schema)
            np.testing.assert_array_equal(ds.covariates, [[2.0], [1.0]])
            np.testing.assert_array_equal(ds.y_post, [3.0, 2.0])

    def test_loading_a_path_holds_no_copy_of_the_file(self, tmp_path):
        # 50,000 rows of the benchmark's width, as a number-formatted file.
        rng = np.random.default_rng(5)
        n = 50_000
        table = np.column_stack([rng.random(n) < 0.5, rng.normal(size=(n, 9))])
        path = tmp_path / "panel.csv"
        np.savetxt(path, table, delimiter=",", comments="", fmt=["%d"] + ["%.10g"] * 9,
                   header="treat,y0,y1,x1,x2,x3,x4,x5,x6,e1")
        schema = CsvSchema("treat", ("x1", "x2", "x3", "x4", "x5", "x6"), "y0", "y1")
        tracemalloc.start()
        try:
            ds = load_csv(path, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == n
        # Reading, decoding and splitting the whole text at once peaked at
        # 7.6 times the file size; streamed, it is about 1.55 times, with
        # each clean block parsed by numpy's reader (1.56 row by row).
        assert peak < 3.0 * path.stat().st_size


class TestDesignMatrix:
    def test_intercept_and_selected_order(self):
        ds = Dataset(
            covariates=np.array([[2.0, 5.0]]),
            treated=np.array([True]),
            y_pre=np.zeros(1),
            y_post=np.zeros(1),
            covariate_names=("a", "b"),
        )
        X = design_matrix(ds, ModelSpec((0,)))
        np.testing.assert_allclose(X, [[1.0, 2.0]])
        X = design_matrix(ds, ModelSpec((1, 0)))
        np.testing.assert_allclose(X, [[1.0, 5.0, 2.0]])

    def test_intercept_only(self):
        ds = make_dataset(n=4)
        X = design_matrix(ds, ModelSpec(()))
        np.testing.assert_allclose(X, np.ones((4, 1)))

    def test_full_lalonde_shape(self):
        ds = make_dataset(n=445, k=7)
        X = design_matrix(ds, ModelSpec(tuple(range(7))))
        assert X.shape == (445, 8)

    def test_out_of_range_index(self):
        ds = make_dataset(k=2)
        with pytest.raises(SpecError):
            design_matrix(ds, ModelSpec((2,)))

    @pytest.mark.parametrize("selected, message", [
        ((0, -1), "negative"),
        ((1, 0, 1), "duplicate"),
        ((0.5, 1.7), "must be integers"),
        ((True,), "must be integers"),
        ((np.float64(1.0),), "must be integers"),
    ])
    def test_bad_indices_are_refused(self, selected, message):
        with pytest.raises(SpecError, match=message):
            ModelSpec(selected)
        with pytest.raises(SpecError, match=message):
            ModelSpec(selected[:-1]).with_added(selected[-1])

    def test_numpy_integer_indices_are_accepted(self):
        spec = ModelSpec((np.int64(2), np.intp(0))).with_added(np.int32(1))
        assert spec.selected == (2, 0, 1)
        assert all(type(i) is int for i in spec.selected)

    def test_rows_permute_with_dataset(self):
        ds = make_dataset(n=8, k=3)
        spec = ModelSpec((2, 0))
        perm = np.random.default_rng(1).permutation(8)
        np.testing.assert_allclose(
            design_matrix(ds.take(perm), spec), design_matrix(ds, spec)[perm]
        )


class TestDelta:
    def test_examples(self):
        ds = Dataset(
            covariates=np.zeros((3, 1)),
            treated=np.array([True, False, True]),
            y_pre=np.array([1.0, 2.0, 0.0]),
            y_post=np.array([3.5, 2.0, 9930.05]),
            covariate_names=("a",),
        )
        np.testing.assert_allclose(delta(ds), [2.5, 0.0, 9930.05])

    def test_shift_linearity(self):
        ds = make_dataset(n=5)
        shifted = Dataset(
            covariates=ds.covariates,
            treated=ds.treated,
            y_pre=ds.y_pre,
            y_post=ds.y_post + 3.0,
            covariate_names=ds.covariate_names,
        )
        np.testing.assert_allclose(delta(shifted), delta(ds) + 3.0)


class TestVech:
    def test_scalar(self):
        np.testing.assert_allclose(vech(np.array([[4.0]])), [4.0])

    def test_two_by_two(self):
        np.testing.assert_allclose(vech(np.array([[1.0, 2.0], [2.0, 5.0]])), [1, 2, 5])

    def test_outer_product(self):
        x = np.array([1.0, 3.0])
        np.testing.assert_allclose(vech(np.outer(x, x)), [1, 3, 9])

    def test_asymmetric_rejected(self):
        with pytest.raises(SpecError):
            vech(np.array([[1.0, 2.0], [2.1, 5.0]]))

    def test_empty_input_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match="non-empty square matrix"):
            vech(np.zeros((0, 0)))
        with pytest.raises(DimensionError, match="non-empty 1-d vector"):
            unvech(np.array([]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_round_trip(self, p, seed):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(p, p))
        S = S + S.T
        np.testing.assert_allclose(unvech(vech(S)), S)
        v = rng.normal(size=p * (p + 1) // 2)
        np.testing.assert_allclose(vech(unvech(v)), v)


class TestTake:
    @pytest.mark.parametrize("rows", [[2, 0, 2], np.array([2, 0, 2]), (2, 0, 2)])
    def test_integer_rows_in_order(self, rows):
        ds = make_dataset(n=4)
        block = ds.take(rows)
        np.testing.assert_array_equal(block.covariates, ds.covariates[[2, 0, 2]])
        np.testing.assert_array_equal(block.treated, ds.treated[[2, 0, 2]])

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=int)])
    def test_no_rows(self, rows):
        with pytest.raises(EmptyDataError):
            make_dataset(n=4).take(rows)

    @pytest.mark.parametrize("mask", [[False, True, True, False],
                                      np.array([False, True, True, False])])
    def test_boolean_mask_is_refused(self, mask):
        with pytest.raises(DimensionError, match="integer row indices, got dtype bool"):
            make_dataset(n=4).take(mask)

    @pytest.mark.parametrize("rows", [[0.5, 1.7], np.array([0.0, 1.0])])
    def test_float_rows_are_refused(self, rows):
        with pytest.raises(DimensionError, match="integer row indices, got dtype float64"):
            make_dataset(n=4).take(rows)


class TestSplitBlocks:
    def test_round_robin(self):
        ds = make_dataset(n=6)
        blocks = split_blocks(ds, 3)
        np.testing.assert_allclose(blocks[0].covariates, ds.covariates[[0, 3]])
        np.testing.assert_allclose(blocks[1].covariates, ds.covariates[[1, 4]])
        np.testing.assert_allclose(blocks[2].covariates, ds.covariates[[2, 5]])

    def test_sizes_445(self):
        ds = make_dataset(n=445, k=1)
        assert [b.n for b in split_blocks(ds, 3)] == [149, 148, 148]

    def test_identity(self):
        ds = make_dataset(n=5)
        (block,) = split_blocks(ds, 1)
        np.testing.assert_array_equal(block.covariates, ds.covariates)
        assert block is ds

    def test_zero_blocks(self):
        with pytest.raises(SpecError):
            split_blocks(make_dataset(), 0)

    def test_partition(self):
        ds = make_dataset(n=11, k=2, seed=3)
        blocks = split_blocks(ds, 4)
        assert sum(b.n for b in blocks) == ds.n
        stacked = np.vstack([b.covariates for b in blocks])
        assert {tuple(r) for r in stacked} == {tuple(r) for r in ds.covariates}
