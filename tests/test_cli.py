"""CLI surface: ingestion, screening reports, exit codes, file outputs."""

import builtins
import csv
import errno
import hashlib
import importlib.resources
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitscreen import cli
from digitscreen.cli import (
    ScreenConfig,
    ingest,
    main,
    proportions_table,
    render_law_table,
    resolve_out,
    run_screening,
)
from digitscreen import inference
from digitscreen.inference import tabulate
from digitscreen import laws
from digitscreen.laws import RestrictionSpec, law_from_name, nbl_first, nbl_joint, nbl_second, restricted_law
from digitscreen.report import COLUMNS, render
from digitscreen import simulate
from digitscreen.digits import POLICIES, REASONS, CountVector, DatasetColumn
from digitscreen.simulate import hmpm_unit_counts, load_simulation_config
from golden import (
    PROPORTIONS_DIGESTS,
    SCREEN_ARGS,
    SCREEN_DIGESTS,
    SIMULATE_DIGESTS,
    SIMULATE_MIXTURE_EXPERIMENT,
    proportions_tree_digest,
)
from oracles import (
    former_plain_cells,
    former_read_csv,
    former_sample_lines,
    former_write_proportions,
    kernel_certifies,
    str_digit_tally,
    str_joint_tally,
)

DATA = Path(__file__).parent / "data"

TABLE1 = {1: 0.301, 2: 0.176, 3: 0.125, 4: 0.097, 5: 0.079, 6: 0.067, 7: 0.058, 8: 0.051, 9: 0.046}


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("unit,north,south\nA,2,9\nB,1472,358\nC,6033,2741\n")
    return path


@pytest.fixture
def conforming_csv(tmp_path):
    # second digits drawn from the second-digit law itself
    law = nbl_second()
    rng = np.random.Generator(np.random.PCG64(21))
    edges = np.cumsum(law.probs)
    edges[-1] = 1.0
    digits = np.searchsorted(edges, rng.random(4000), side="right")
    path = tmp_path / "conforming.csv"
    lines = ["unit,votes"] + [f"u{i},{10 + int(d)}" for i, d in enumerate(digits)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def uniform_csv(tmp_path):
    rng = np.random.Generator(np.random.PCG64(22))
    digits = rng.integers(0, 10, 4000)
    path = tmp_path / "uniform.csv"
    lines = ["unit,votes"] + [f"u{i},{10 + int(d)}" for i, d in enumerate(digits)]
    path.write_text("\n".join(lines) + "\n")
    return path


# Cells on both sides of every rule of the fast reader: the 18-digit window
# (18, 19 and 20 digits, and 2^63 - 1 and its neighbours), leading zeros,
# zeros and signs, padding and form feeds, NA, empty and NUL cells.
PLAIN_CELLS = st.one_of(
    st.integers(1, 10**4).map(str),
    st.integers(10**17, 10**18 - 1).map(str),
    st.integers(10**18, 10**19 - 1).map(str),
    st.integers(10**19, 10**20 - 1).map(str),
    st.integers(2**63 - 3, 2**63 + 3).map(str),
    st.integers(0, 10**19).map(lambda v: f"0{v}"),
    st.sampled_from(["", "0", "000", "-0", "-007", "-12", "+5", " 42", "42 ", " 7\t", "\x0c5", "3\x0c4", "\x0b6",
                     "NA", "1_000", "2.5", "x", "a\x00b"]),
)
# cells that keep a file off the fast reader
ODD_CELLS = st.sampled_from(['"12"', '"1,2"', '"3', "caf\u00e9", "\u0661\u0662", "\uff11", "1\r2", "4\u20285"])
BLANK_LINES = st.sampled_from(["", " ", "\t", "\x0c", " \x1c "])


@st.composite
def delimited_files(draw):
    """(file bytes, selectors, delimiter override) for a small table, plain or not."""
    delim = draw(st.sampled_from([",", ";", "\t"]))
    width = draw(st.integers(1, 4))
    # each flaw that keeps a file off the fast reader comes in one file of five
    odd, ragged, blanks, lone_cr = (draw(st.integers(0, 4)) == 0 for _ in range(4))
    cell = st.one_of(PLAIN_CELLS, ODD_CELLS) if odd else PLAIN_CELLS
    ends = ("\n", "\r") if lone_cr else draw(st.sampled_from([("\n",), ("\r\n",), ("\n", "\r\n")]))
    names = st.sampled_from(["a", "b", " c ", "votes", "d e", "f"])
    header = draw(st.lists(names, min_size=width, max_size=width, unique=draw(st.integers(0, 4)) > 0))
    lines = [delim.join(header)]
    for _ in range(draw(st.integers(0, 12))):
        size = width + (draw(st.sampled_from([0, 0, 0, -1, 1])) if ragged else 0)
        lines.append(delim.join(draw(st.lists(cell, min_size=size, max_size=size))))
        if blanks and draw(st.integers(0, 3)) == 0:
            lines.append(draw(BLANK_LINES))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")
    columns = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
    by_name = draw(st.booleans())
    selectors = [header[c].strip() if by_name else str(c) for c in columns]
    return data, selectors, draw(st.sampled_from([None, delim]))


# cells that only a csv file holds: the delimiters, quotes and line breaks that a quoted cell keeps, non-ASCII
# whitespace around digits, non-ASCII digits and text, and a byte that is not UTF-8 (written from its surrogate)
CSV_CELLS = st.one_of(
    PLAIN_CELLS,
    st.sampled_from(["1,2", "3;4", "5\t6", '"', '7"', '""', "8\n9", "1\r\n2", "3\r4", "\n", "12\r\n", "\r13", " \n ",
                     "\u00a012", "34\u2003", "\u3000 56\u00a0", "\u00a0", "\u0661\u0662", "\uff11", "caf\u00e9",
                     "-\u00a07", "\u00a0-0", "\udcff"]),
)


@st.composite
def quoted_files(draw):
    """(file bytes, selectors, delimiter override) of a table whose first header cell is quoted, so csv reads it."""
    delim = draw(st.sampled_from([",", ";", "\t"]))
    width = draw(st.sampled_from([1, 1, 2, 3, 4]))
    ragged, blanks, odd = (draw(st.integers(0, 3)) == 0 for _ in range(3))
    ends = draw(st.sampled_from([("\n",), ("\r\n",), ("\r",), ("\n", "\r\n", "\r")]))
    names = st.sampled_from(["a", "b", " c ", "votes", "d e", "f;g", "h,i"])
    header = draw(st.lists(names, min_size=width, max_size=width, unique=True))

    def field(cell, quoted):
        if quoted or any(c in cell for c in (delim, '"', "\r", "\n")):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    lines = [delim.join(field(name, i == 0 or draw(st.booleans())) for i, name in enumerate(header))]
    for _ in range(draw(st.integers(0, 12))):
        size = width + (draw(st.sampled_from([0, 0, 0, -1, 1])) if ragged else 0)
        cells = draw(st.lists(CSV_CELLS if odd else PLAIN_CELLS, min_size=size, max_size=size))
        lines.append(delim.join(field(cell, draw(st.integers(0, 3)) == 0) for cell in cells))
        if blanks and draw(st.integers(0, 3)) == 0:
            lines.append(draw(BLANK_LINES))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8", "surrogateescape")
    columns = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
    by_name = draw(st.booleans())
    selectors = [header[c].strip() if by_name else str(c) for c in columns]
    return data, selectors, draw(st.sampled_from([None, delim]))


def is_plain(data: bytes, delimiter) -> bool:
    """Whether a file is ASCII, quote-free, has \\n or \\r\\n line ends, no blank line and no ragged row."""
    data = data.removeprefix(b"\xef\xbb\xbf")
    if not data.isascii() or b'"' in data or b"\r" in data.replace(b"\r\n", b""):
        return False
    lines = [line.removesuffix(b"\r").decode() for line in data.removesuffix(b"\n").split(b"\n")]
    if any(not line.strip() for line in lines):
        return False
    delim = delimiter or cli._detect_delimiter(lines[0])
    return all(line.count(delim) == lines[0].count(delim) for line in lines)


def read_with(reader, *args):
    try:
        return [(col.name, col.values.tolist(), col.excluded_count, col.diagnostics, col.reasons,
                 col.excluded_by_reason) for col in reader(*args)]
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def opened(reader):
    """``cli._read_plain`` or ``cli._read_csv`` called on a path, which it opens for binary reading as ingest does."""
    def read(path, *args):
        with open(path, "rb") as fh:
            return reader(fh, path, *args)

    return read


class TestIngest:
    def test_basic_parse(self, small_csv):
        (col,) = ingest(small_csv, ["north"])
        assert col.values.tolist() == [2, 1472, 6033]
        assert col.m == 3 and col.excluded_count == 0

    def test_index_selector(self, small_csv):
        (col,) = ingest(small_csv, ["2"])
        assert col.name == "south"
        assert col.values.tolist() == [9, 358, 2741]

    def test_bad_cell_excluded_with_diagnostic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("unit,v\nA,10\nB,N/A\nC,-4\nD,0\nE,2.5\n")
        (col,) = ingest(path, ["v"])
        assert col.values.tolist() == [10]
        assert col.excluded_count == 4
        assert col.m + col.excluded_count == 5
        joined = " ".join(col.diagnostics)
        assert "row 3" in joined and "not an integer" in joined
        assert "negative" in joined and "zero count" in joined

    def test_missing_column_lists_headers(self, small_csv):
        with pytest.raises(ValueError, match="north, south"):
            ingest(small_csv, ["absent"])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest(path, ["v"])

    @pytest.mark.parametrize("delim", [";", "\t"])
    def test_delimiter_autodetect(self, tmp_path, delim):
        path = tmp_path / "d.txt"
        path.write_text(f"unit{delim}v\nA{delim}12\nB{delim}34\n")
        (col,) = ingest(path, ["v"])
        assert col.values.tolist() == [12, 34]

    def test_delimiter_override(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("unit|v\nA|12\n")
        (col,) = ingest(path, ["v"], delimiter="|")
        assert col.values.tolist() == [12]

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\n", "\r"])
    def test_library_call_checks_the_delimiter_before_opening_the_file(self, tmp_path, delimiter):
        # csv.reader would raise a TypeError on ";;", and "" would read as no override at all
        with pytest.raises(ValueError) as raised:
            ingest(tmp_path / "absent.csv", ["a"], delimiter)
        assert str(raised.value) == ("delimiter must be one character other than a quote or a line break, "
                                     f"got {delimiter!r}")

    @pytest.mark.parametrize("selectors", ["ab", [0], ["a", 1], ("b", None)])
    def test_library_call_checks_the_selectors_before_opening_the_file(self, tmp_path, selectors):
        # a str would select each of its characters as a column, and an int would fail inside the header match
        path = tmp_path / "d.csv"
        path.write_text("a,b,ab\n1,2,3\n")
        for where in (path, tmp_path / "absent.csv"):
            with pytest.raises(ValueError) as raised:
                ingest(where, selectors)
            assert str(raised.value) == ("selectors must be a list of str, each a header name or a 0-based index, "
                                         f"got {selectors!r}")
        assert [col.name for col in ingest(path, ["ab"])] == ["ab"]

    @pytest.mark.parametrize("cell", ["1_000", "+45", "\u0661\u0662\u0663", "\uff11\uff12", "12.0", "1e3",
                                      "0x1F", "1 000", "--5"])
    def test_only_ascii_digits_are_counts(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"unit,v\nA,12\nB,{cell}\n", encoding="utf-8")
        (col,) = ingest(path, ["v"])
        assert col.values.tolist() == [12]
        assert col.excluded_count == 1
        assert col.diagnostics == (f"v: row 3: not an integer: {cell!r}",)

    def test_leading_zeros_and_signed_zero(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("unit,v\nA,0012\nB,-0\nC,-007\nD,000\n")
        (col,) = ingest(path, ["v"])
        assert col.values.tolist() == [12]
        assert col.diagnostics == ("v: row 3: zero count excluded", "v: row 4: negative count -7 excluded",
                                   "v: row 5: zero count excluded")

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv"])
    def test_surrounding_whitespace_is_stripped(self, tmp_path, quoted):
        path = tmp_path / "d.csv"
        path.write_text(('"unit"' if quoted else "unit") + ",v\nA, 42\nB,7\t\nC,\x0c5 \nD, -3 \n")
        (col,) = ingest(path, ["v"])
        assert col.values.tolist() == [5, 7, 42] and col.diagnostics == ("v: row 5: negative count -3 excluded",)

    def test_counts_beyond_int64_excluded(self, tmp_path):
        path = tmp_path / "d.csv"
        cells = ["9223372036854775807", "9223372036854775808", "99999999999999999999999", "9" * 5000]
        path.write_text("unit,v\n" + "".join(f"u{i},{c}\n" for i, c in enumerate(cells)))
        (col,) = ingest(path, ["v"])
        assert col.values.tolist() == [2**63 - 1]
        assert col.excluded_count == 3
        assert all("exceeds the int64 maximum 9223372036854775807" in d for d in col.diagnostics)
        assert col.diagnostics[0].startswith("v: row 3: count 9223372036854775808 ")

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes("\ufeffvotes,other\n12,3\n45,6\n".encode("utf-8"))
        (col,) = ingest(path, ["votes"])
        assert col.name == "votes" and col.values.tolist() == [12, 45]

    def test_diagnostics_name_the_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n5,7\n\nx,3\n  \n12,0\n")
        col_a, col_b = ingest(path, ["a", "b"])
        assert col_a.values.tolist() == [5, 12] and col_b.values.tolist() == [3, 7]
        assert col_a.diagnostics == ("a: row 4: not an integer: 'x'",)
        assert col_b.diagnostics == ("b: row 6: zero count excluded",)

    def test_quoted_cell_keeps_its_line_break(self, tmp_path):
        # the lines of a quoted cell are one cell with its line break, never the count their digits would join into
        path = tmp_path / "d.csv"
        path.write_text('a,b\n1,"12\n34"\n5,6\n')
        col_a, col_b = ingest(path, ["a", "b"])
        assert col_a.values.tolist() == [1, 5] and col_b.values.tolist() == [6]
        assert col_b.diagnostics == ("b: row 3: not an integer: '12\\n34'",)

    # "|" is a line end; a quote sends each file to the csv reader, where blank and whitespace-only lines are skipped
    # between rows (and still counted), but belong to a quoted cell that holds them
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("text, selector, expected", [
        ('| \t|"a",b|1,2|', "b", [("b", [2], 0, (), (), {})]),
        ('"a",b|| \t|1,x|', "b", [("b", [], 1, ("b: row 4: not an integer: 'x'",), ("not-an-integer",),
                                    {"not-an-integer": 1})]),
        ('"a",b|1,2|| \t|3,x|', "b", [("b", [2], 1, ("b: row 5: not an integer: 'x'",), ("not-an-integer",),
                                        {"not-an-integer": 1})]),
        ('"a",b|1,2|| \t|', "b", [("b", [2], 0, (), (), {})]),
        ('"a",b|1,"12|| \t|34"|5,x|', "b", [("b", [], 2, ("b: row 5: not an integer: '12\\n\\n \\t\\n34'",
                                                         "b: row 6: not an integer: 'x'"),
                                              ("not-an-integer", "not-an-integer"), {"not-an-integer": 2})]),
        # the delimiter is counted on the header's whole record, and a header cell's line break is written \n
        ('"x|y";b;c|1;2;3|', "b", [("b", [2], 0, (), (), {})]),
        ('"x|y";b;c|1;2;3|', "z", "ValueError: column 'z' not found; available headers: x\\ny, b, c"),
        # in a one-column file, a quoted line break joined into a plain block would read as two rows
        ('"a"|5|"1|2"|3|| \u00a04\u00a0|', "a", [("a", [3, 4, 5], 1, ("a: row 4: not an integer: '1\\n2'",),
                                                   ("not-an-integer",), {"not-an-integer": 1})]),
        ('"a"|"1|2"|', "a", [("a", [], 1, ("a: row 3: not an integer: '1\\n2'",), ("not-an-integer",),
                               {"not-an-integer": 1})]),
    ], ids=["before-header", "after-header", "between-rows", "at-end", "inside-quoted-cell", "header-delimiter",
            "header-not-found", "one-column-line-break", "one-row-line-break"])
    def test_csv_reader_blank_lines_and_header_record(self, tmp_path, end, text, selector, expected):
        path = tmp_path / "d.csv"
        path.write_bytes(text.replace("|", end).encode())
        assert read_with(ingest, path, [selector]) == expected

    def test_selected_header_cell_with_a_line_break_is_an_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"votes\nA",b\n1,2\n')
        with pytest.raises(ValueError, match=r"^column '0' selects header cell 0 \('votes\\nA'\), whose line break"):
            ingest(path, ["0"])
        with pytest.raises(ValueError, match="column 'votesA' not found"):
            ingest(path, ["votesA"])
        (col,) = ingest(path, ["b"])
        assert col.name == "b" and col.values.tolist() == [2]

    @pytest.mark.parametrize("selectors", [["north", "north"], ["north", "1"], ["1", "1"], ["south", "north", "2"]])
    def test_column_selected_twice(self, small_csv, selectors):
        with pytest.raises(ValueError, match="a second time"):
            ingest(small_csv, selectors)

    def test_ragged_row_excluded_from_every_column(self, tmp_path):
        # an unquoted thousands separator splits one cell in two and shifts the rest of its row
        path = tmp_path / "d.csv"
        path.write_text("station,votes,other\nA,1,234,17\nB,12,5\nC,7\n\nD,30,40\n")
        votes, other = ingest(path, ["votes", "other"])
        assert votes.values.tolist() == [12, 30] and other.values.tolist() == [5, 40]
        ragged = ("row 2: 4 cells where the header has 3; excluded from every column",
                  "row 4: 2 cells where the header has 3; excluded from every column")
        assert votes.diagnostics == other.diagnostics == ragged
        assert votes.m + votes.excluded_count == other.m + other.excluded_count == 4

    def test_ragged_row_has_one_diagnostic_line(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("station,votes,other\nA,1,234,17\nB,12,x\n" + "".join(f"u{n},{n},{n}\n" for n in range(10, 40)))
        assert main(["screen", str(path), "--columns", "votes,other", "--tests", "nb1"]) in (0, 2)
        assert capsys.readouterr().err.splitlines() == [
            "diagnostic: row 2: 4 cells where the header has 3; excluded from every column",
            "diagnostic: other: row 3: not an integer: 'x'",
        ]

    def test_columns_sharing_a_name_print_each_cell_diagnostic(self, tmp_path, capsys):
        # two exclusions, one per column, print two lines; the ragged row 4 still prints one
        path = tmp_path / "d.csv"
        path.write_text("a,a,b\n5,5,1\nx,x,2\n12,12\n" + "".join(f"{n},{n},{n}\n" for n in range(10, 40)))
        assert main(["screen", str(path), "--columns", "0,1", "--tests", "nb1"]) in (0, 2)
        assert capsys.readouterr().err.splitlines() == [
            "diagnostic: a: row 3: not an integer: 'x'",
            "diagnostic: row 4: 2 cells where the header has 3; excluded from every column",
            "diagnostic: a: row 3: not an integer: 'x'",
        ]

    def test_cell_over_the_csv_field_limit_is_an_error(self, tmp_path, capsys):
        # the quote sends the file to the csv reader, whose field size limit refuses the long cell
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1," + "9" * 200_000 + '\n2,"3"\n')
        assert main(["screen", str(path), "--columns", "b", "--tests", "nb1"]) == 1
        assert capsys.readouterr().err == f"error: {path}: row 2: field larger than field limit (131072)\n"

    def test_ambiguous_name_is_an_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a,b\n100,200,300\n")
        with pytest.raises(ValueError, match="'a' is ambiguous: header columns 0, 1 share that name"):
            ingest(path, ["a"])
        first, second, b = ingest(path, ["0", "1", "b"])
        assert (first.values.tolist(), second.values.tolist(), b.values.tolist()) == ([100], [200], [300])

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newline_and_carriage_return_end_a_line(self, tmp_path, separator):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n12,3{separator}4\n5,6\r\n7,8\r9,10\n", encoding="utf-8")
        (col,) = ingest(path, ["b"])
        assert col.values.tolist() == [6, 8, 10]
        assert col.diagnostics == (f"b: row 2: not an integer: {'3' + separator + '4'!r}",)

    @pytest.mark.parametrize("selector", ["\u00b2", "\u0661", "\uff11"])
    def test_index_selectors_are_ascii(self, tmp_path, selector):
        path = tmp_path / "d.csv"
        path.write_text("a,a,b\n100,200,300\n")
        with pytest.raises(ValueError, match=f"column '{selector}' not found; available headers: a, a, b"):
            ingest(path, [selector])

    @settings(max_examples=300, deadline=None)
    @given(delimited_files(), st.sampled_from([1, 2, 7, 64, cli._BLOCK_BYTES]))
    def test_fast_reader_matches_csv_reader(self, file, block_bytes):
        data, selectors, delimiter = file
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BLOCK_BYTES", block_bytes):
            path = Path(tmp) / "t.csv"
            path.write_bytes(data)
            expected = read_with(opened(cli._read_csv), path, selectors, delimiter)
            assert read_with(ingest, path, selectors, delimiter) == expected
            try:
                fast = opened(cli._read_plain)(path, selectors, delimiter)
            except ValueError as exc:
                assert f"ValueError: {exc}" == expected
            else:
                if fast is not None:
                    assert read_with(lambda: fast) == expected
                elif is_plain(data, delimiter) and not isinstance(expected, str):
                    pytest.fail("the fast reader refused a plain table")

    @pytest.mark.parametrize("text", ["a,b\n12,3\n", "a,b\r\n12,3\r\n", "\ufeffa;b\n12;3", "a\tb\n 12\t3 \n",
                                      "a\n12\n"])
    def test_fast_reader_accepts_plain_tables(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        fast = opened(cli._read_plain)(path, ["0"], None)
        expected = read_with(opened(cli._read_csv), path, ["0"], None)
        assert fast is not None and read_with(lambda: fast) == expected

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_fast_reader_reads_clean_cells_in_bulk(self, tmp_path, end):
        path = tmp_path / "t.csv"
        path.write_bytes(f"a,b{end}12,{10**17}{end}987654321012345678,3{end}".encode())
        with mock.patch.object(cli, "_cell_count", side_effect=AssertionError("a clean cell left the bulk path")):
            a, b = opened(cli._read_plain)(path, ["a", "b"], None)
        assert a.values.tolist() == [12, 987654321012345678] and b.values.tolist() == [3, 10**17]

    @pytest.mark.parametrize("text", ["a,b\n\n12,3\n", "a,b\n \x0c\n12,3\n", "a,b\n12,3\r4,5\n", 'a,b\n"12",3\n',
                                      "a,b\n12,3,4\n", "a,b\n12,\u00e9\n", "\n\na,b\n12,3\n"])
    def test_fast_reader_refuses_other_files(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert opened(cli._read_plain)(path, ["a"], None) is None
        assert read_with(ingest, path, ["a"], None) == read_with(opened(cli._read_csv), path, ["a"], None)

    @pytest.mark.parametrize("delimiter", ["5", "\u00e9"])
    def test_fast_reader_refuses_a_digit_or_non_ascii_delimiter(self, tmp_path, delimiter):
        # split on "5", the csv reader finds "152" a ragged row, which the digit-based fast reader cannot see
        path = tmp_path / "t.csv"
        path.write_text("a\n152\n3\n")
        assert opened(cli._read_plain)(path, ["a"], delimiter) is None
        assert read_with(ingest, path, ["a"], delimiter) == read_with(opened(cli._read_csv), path, ["a"], delimiter)

    def test_csv_fallback_streams_its_rows(self, tmp_path):
        # one quoted cell sends the file to the csv module, which must not hold its text or all its lines
        path = tmp_path / "t.csv"
        rows = "".join(f"u{i},{i % 9973 + 1},{i % 7919 + 10},{i % 4999 + 100}\n" for i in range(1, 250_000))
        path.write_text('unit,a,b,c\n"u0",5,6,7\n' + rows)
        tracemalloc.start()
        try:
            a, b, c = ingest(path, ["a", "b", "c"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 << 20
        assert a.values.tolist() == sorted([5] + [i % 9973 + 1 for i in range(1, 250_000)])
        assert b.m == c.m == 250_000

    def test_fast_reader_refuses_a_lone_cr_table_before_reading_it(self, tmp_path):
        # every line ends in \r, so no block of the plain reader would end before the file does: the file scan
        # refuses the table, and ingest's peak is the csv reader's own (its frames aside)
        path = tmp_path / "t.csv"
        rows = "".join(f"u{i},{i % 9973 + 1},{i % 7919 + 10},{i % 4999 + 100}\r" for i in range(1, 250_000))
        path.write_text("unit,a,b,c\r" + rows, newline="")
        peaks = []
        for reader in (opened(cli._read_plain), opened(cli._read_csv), ingest):
            tracemalloc.start()
            try:
                columns = reader(path, ["a"], None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        plain, csv_alone, ingested = peaks
        assert plain < 1 << 20
        assert ingested <= csv_alone + (64 << 10)
        assert columns[0].values.tolist() == sorted(i % 9973 + 1 for i in range(1, 250_000))

    @pytest.mark.parametrize("byte", ['"', "\u00e9", "\r"], ids=["quote", "non-ascii", "lone-cr"])
    def test_fast_reader_refuses_a_late_unplain_byte_unread(self, tmp_path, byte):
        # one byte in the last of 250 000 rows makes the table unplain: the file scan finds it, so no block is sorted
        path = tmp_path / "t.csv"
        rows = "".join(f"u{i},{i % 9973 + 1},{i % 7919 + 10}\n" for i in range(1, 250_000))
        path.write_text(f"unit,a,b\n{rows}u{byte},1,2\n", encoding="utf-8", newline="")
        with mock.patch.object(cli, "_plain_cells", wraps=cli._plain_cells) as plain_cells:
            assert opened(cli._read_plain)(path, ["a", "b"], None) is None
        assert plain_cells.call_count == 0

    def test_csv_fallback_names_the_line_of_a_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,2\r\n\n3,4\xe9\n")
        with pytest.raises(ValueError, match=r"t\.csv: row 4: byte 0xe9 is not UTF-8$"):
            ingest(path, ["a"])

    @settings(max_examples=300, deadline=None)
    @given(quoted_files(), st.sampled_from([1, 3, cli._BATCH_ROWS]))
    def test_csv_reader_matches_its_former_cell_loop(self, file, batch_rows):
        # the csv reader's batches, joined into blocks for _plain_cells, against _cell_count on every cell
        data, selectors, delimiter = file
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BATCH_ROWS", batch_rows):
            path = Path(tmp) / "t.csv"
            path.write_bytes(data)
            assert read_with(ingest, path, selectors, delimiter) == read_with(former_read_csv, path, selectors,
                                                                                delimiter)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_csv_reader_reads_clean_cells_in_bulk(self, tmp_path, end):
        path = tmp_path / "t.csv"
        path.write_bytes(f'"a",b{end}12,"{10**17}"{end}"987654321012345678",3{end}'.encode())
        with mock.patch.object(cli, "_cell_count", side_effect=AssertionError("a clean cell left the bulk path")):
            a, b = opened(cli._read_csv)(path, ["a", "b"], None)
        assert a.values.tolist() == [12, 987654321012345678] and b.values.tolist() == [3, 10**17]

    @pytest.mark.parametrize("text", ['"a",b\n12,3\n', 'a,b\n12,"3"\n'], ids=["quoted-header", "quoted-cell"])
    def test_a_file_that_grows_after_its_line_count_is_an_error(self, tmp_path, capsys, monkeypatch, text):
        # each reader counts the file's lines, then two rows are appended before it reads them, as in
        # TestRowBound's test of the plain reader
        path = tmp_path / "t.csv"
        path.write_text(text)
        line_count = cli._line_count

        def count_then_grow(fh):
            lines = line_count(fh)
            with open(path, "a") as out:
                out.write("45,6\n78,9\n")
            return lines

        monkeypatch.setattr(cli, "_line_count", count_then_grow)
        assert main(["screen", str(path), "--columns", "a"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: the file grew while it was read\n")

    @pytest.mark.parametrize("block_bytes", [1, 2, 3, cli._BLOCK_BYTES])
    @pytest.mark.parametrize("text", ['"a",b\r\n12,3\r45,6\n7,8', '"a",b\r\r\n1,2\n\r\n\r3,4\r',
                                      '"a",b\n"1\r\n2",3\r\n', '"a",b\r\n\r\n', '\ufeff"a",b\r1,2\r3,4\r',
                                      '\n"a",b\r\n1,2'])
    def test_csv_reader_sizes_each_column_from_the_line_ends(self, tmp_path, text, block_bytes):
        # each \n, and each \r not followed by \n, ends a line, wherever the file's chunks are cut
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(np, "empty", wraps=np.empty) as empty, mock.patch.object(cli, "_BLOCK_BYTES",
                                                                                         block_bytes):
            columns = opened(cli._read_csv)(path, ["a", "b"], None)
        assert [call.args[0] for call in empty.call_args_list] == [len(re.findall("\r\n|\r|\n", text))] * 2
        assert read_with(lambda: columns) == read_with(former_read_csv, path, ["a", "b"], None)


# every exclusion reason, and each array test's edges: padding, leading zeros, 18/19/20 digits, signs, bytes that
# str.strip counts as whitespace (\x0b, \x0c, \x1c-\x1f) and bytes that are not (\x00, "+", ".", "@", DEL)
CLASSIFIED_CELLS = st.one_of(
    PLAIN_CELLS,
    st.integers(-10**20, -1).map(str),
    st.tuples(st.sampled_from(["", "0", "00", "-", "-0", " ", "\x0b", "\x1c"]),
              st.integers(0, 10**20).map(str),
              st.sampled_from(["", "", " ", "\t", "\x1f", "-", "0"])).map("".join),
    st.sampled_from(["-", "--5", "1-2", "-00", "- 5", "5-", "\x1d", " ", "\x7f", "@", "[", "`", "~", "/", ":", "5.",
                     "9223372036854775807", "09223372036854775808", "-9223372036854775808", "0" * 25]),
    # 18 and 19 digits whose last 18 are zeros, so a value read from only the last 18 digits is wrong
    st.sampled_from(["0" * 18, "0" * 19, "1" + "0" * 18, "-1" + "0" * 18, "-" + "0" * 19, "-0" + "0" * 18]),
)


@st.composite
def classified_tables(draw):
    """(file bytes, delimiter, width, selected column indices) of a plain table mixing every exclusion reason."""
    delim = draw(st.sampled_from([",", ";", "|"]))
    width = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(CLASSIFIED_CELLS, min_size=width, max_size=width), min_size=1, max_size=40))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    header = delim.join(f"c{j}" for j in range(width))
    data = "".join(line + end for line in [header] + [delim.join(row) for row in rows]).encode()
    cols = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
    return data, delim, width, cols


class TestCellClassifier:
    @settings(max_examples=300, deadline=None)
    @given(classified_tables(), st.sampled_from([1, 7, 64, cli._BLOCK_BYTES]))
    def test_array_classifier_matches_the_per_cell_loop(self, table, block_bytes):
        data, delim, width, cols = table
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_BLOCK_BYTES", block_bytes):
            path = Path(tmp) / "t.csv"
            path.write_bytes(data)
            with open(path, "rb") as fh:
                blocks = list(cli._line_blocks(fh))
            blocks[0] = blocks[0][blocks[0].index(b"\n") + 1:]
            expected_values, expected_reasons = [[] for _ in cols], [[] for _ in cols]
            row = 0
            for block in blocks:
                block = block.replace(b"\r\n", b"\n")
                cells = cli._plain_cells(block, ord(delim), width, np.array(cols, dtype=np.intp))
                values, kept, (col, at, reason, start, stop) = cells
                want_values, want_reasons = former_plain_cells(block, ord(delim), cols, cli._cell_count)
                # the values kept, and the uncapped (column, row, reason) sequence of the rest
                assert [v[k].tolist() for v, k in zip(values, kept)] == want_values
                assert list(zip(col.tolist(), at.tolist(), reason.tolist())) == [
                    (j, i, r) for j, pairs in enumerate(want_reasons) for i, r in pairs]
                # each span is its cell's text
                lines = block.split(b"\n")
                for j, i, s, e in zip(col.tolist(), at.tolist(), start.tolist(), stop.tolist()):
                    assert block[s:e] == lines[i].split(delim.encode())[cols[j]]
                for j in range(len(cols)):
                    expected_values[j] += want_values[j]
                    expected_reasons[j] += [(row + i, r) for i, r in want_reasons[j]]
                row += values.shape[1]
            columns = opened(cli._read_plain)(path, [str(c) for c in cols], delim)
        for column, want_values, want_reasons in zip(columns, expected_values, expected_reasons):
            assert column.values.tolist() == sorted(want_values)
            # per-reason counts, and the first _SHOWN of each reason, in file order
            counts = Counter(cli.REASONS[r] for _, r in want_reasons)
            assert column.excluded_by_reason == {name: counts[name] for name in cli.REASONS if counts[name]}
            assert column.excluded_count == len(want_reasons)
            shown = [(i, r) for n, (i, r) in enumerate(want_reasons) if [q for _, q in want_reasons[:n]].count(r) < 10]
            assert column.reasons == tuple(cli.REASONS[r] for _, r in shown)
            assert [d.split(": ")[1] for d in column.diagnostics] == [f"row {i + 2}" for i, _ in shown]

    def test_array_tests_sort_the_cells_at_their_edges(self):
        # 18 digits, "-" and 18 digits, and every byte that makes a cell not an integer by itself: no cell here
        # needs _cell_count
        cells = ["0" * 18, "9" * 18, "0" * 17 + "1", "-" + "0" * 18, "-" + "9" * 18, "-0", "-1", "", "NA", "+5",
                 "2.5", "5\x00", "\x7f", "/", ":", "@", "`", "~", "\x08", "\x0e", "\x1b", "!", "5!"]
        block = "".join(f"u,{cell}\n" for cell in cells).encode()
        with mock.patch.object(cli, "_cell_count", side_effect=AssertionError("an array test left the cell")):
            values, kept, (col, at, reason, start, stop) = cli._plain_cells(block, ord(","), 2, np.array([1]))
        assert values[kept].tolist() == [10**18 - 1, 1]
        assert [cli.REASONS[r] for r in reason] == ["zero", "zero", "negative", "zero", "negative"] + [
            "not-an-integer"] * 16

    def test_cell_count_runs_only_for_shown_diagnostics(self, tmp_path):
        # screen-tall's bad cells (blank, NA, 0, -N), 40 of each per column: the array tests sort them all, and
        # _cell_count writes only the 10 messages shown per (column, reason)
        bad = ["", "NA", "0", "-17"] * 40
        path = tmp_path / "t.csv"
        path.write_text("unit,a,b\n" + "".join(f"u{i},{cell},{i + 1}\n" for i, cell in enumerate(bad)) +
                        "".join(f"v{i},{i + 1},{cell}\n" for i, cell in enumerate(bad)))
        with mock.patch.object(cli, "_cell_count", wraps=cli._cell_count) as cell_count:
            a, b = opened(cli._read_plain)(path, ["a", "b"], None)
        assert a.excluded_by_reason == b.excluded_by_reason == {"not-an-integer": 80, "zero": 40, "negative": 40}
        assert len(a.diagnostics) == len(b.diagnostics) == 30
        assert cell_count.call_count == 60
        assert a.diagnostics[:4] == ("a: row 2: not an integer: ''", "a: row 3: not an integer: 'NA'",
                                     "a: row 4: zero count excluded", "a: row 5: negative count -17 excluded")

    @pytest.mark.parametrize("text", ["a,b\n12,3\n7,8\n", '"a",b\n12,3\n7,8\n'], ids=["plain", "csv"])
    def test_ingest_hands_its_arrays_over(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with mock.patch.object(DatasetColumn, "__post_init__", autospec=True,
                               side_effect=DatasetColumn.__post_init__) as post_init:
            a, b = ingest(path, ["a", "b"])
        assert [call.args[1] for call in post_init.call_args_list] == [True, True]  # adopt: no copy
        assert a.values.tolist() == [7, 12] and b.values.tolist() == [3, 8]

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv"])
    def test_diagnostics_are_capped_per_column_and_reason(self, tmp_path, capsys, quoted):
        # lines 2-13 hold a zero in a, lines 14-24 NA in a and a negative in b; a quoted header sends the file to
        # the csv reader, which also reads the 12 ragged rows at lines 55-66
        rows = [f"{n},0,{n}" for n in range(10, 22)] + [f"{n},NA,-{n}" for n in range(22, 33)]
        rows += [f"{n},{n},{n}" for n in range(40, 70)] + ([f"{n},{n}" for n in range(70, 82)] if quoted else [])
        path = tmp_path / "d.csv"
        path.write_text(('"u"' if quoted else "u") + ",a,b\n" + "".join(row + "\n" for row in rows))
        assert main(["screen", str(path), "--columns", "a,b", "--tests", "nb1"]) in (0, 2)
        ragged = "cells where the header has 3; excluded from every column"
        assert capsys.readouterr().err.splitlines() == [
            *(f"diagnostic: a: row {line}: zero count excluded" for line in range(2, 12)),
            *(f"diagnostic: a: row {line}: not an integer: 'NA'" for line in range(14, 24)),
            *(f"diagnostic: row {line}: 2 {ragged}" for line in range(55, 65) if quoted),
            "diagnostic: a: 1 more not-an-integer cells (11 in all)",
            "diagnostic: a: 2 more zero cells (12 in all)",
            *(["diagnostic: 2 more ragged rows (12 in all); excluded from every column"] if quoted else []),
            *(f"diagnostic: b: row {line}: negative count -{line + 8} excluded" for line in range(14, 24)),
            "diagnostic: b: 1 more negative cells (11 in all)",
        ]
        a, b = ingest(path, ["a", "b"])
        assert (a.excluded_count, b.excluded_count) == ((35, 23) if quoted else (23, 11))
        assert b.excluded_by_reason == {"negative": 11, **({"ragged": 12} if quoted else {})}

    def test_diagnostics_at_the_cap_have_no_count_line(self, tmp_path, capsys):
        # ten zeros (lines 2-11) and ten ragged rows (lines 12-21) are all shown, so no "0 more" line follows
        rows = [f"0,{n}" for n in range(1, 11)] + [f"{n}" for n in range(1, 11)] + [f"{n},{n}" for n in range(10, 40)]
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + "".join(row + "\n" for row in rows))
        assert main(["screen", str(path), "--columns", "a,b", "--tests", "nb1"]) in (0, 2)
        assert capsys.readouterr().err.splitlines() == [
            *(f"diagnostic: a: row {line}: zero count excluded" for line in range(2, 12)),
            *(f"diagnostic: row {line}: 1 cells where the header has 2; excluded from every column"
              for line in range(12, 22)),
        ]



class TestRowBound:
    # each file through both readers: the csv reader, and the plain reader, whose every column is allocated once at
    # the file's count of "\n" bytes
    @pytest.mark.parametrize("text, a, b", [
        ("a,b\n12,3\n45,6", [12, 45], [3, 6]),
        ("a,b\r\n12,3\r\n45,6\r\n", [12, 45], [3, 6]),
        ("\ufeffa,b\n12,3\n", [12], [3]),
        ("a,b\n", [], []),
        ("a,b\nNA,3\n0,4\n-5,6\n", [], [3, 4, 6]),
    ], ids=["no-final-newline", "crlf", "bom", "header-only", "every-cell-excluded"])
    def test_each_column_is_sized_once_from_the_line_count(self, tmp_path, text, a, b):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(np, "empty", wraps=np.empty) as empty:
            fast = opened(cli._read_plain)(path, ["a", "b"], None)
        assert [call.args[0] for call in empty.call_args_list] == [text.count("\n")] * 2
        assert [col.values.tolist() for col in fast] == [a, b]
        assert read_with(lambda: fast) == read_with(opened(cli._read_csv), path, ["a", "b"], None)

    def test_the_line_count_reads_from_the_files_start(self, tmp_path):
        # wherever the file stands: here before a cell's U+FEFF, whose bytes are those of a byte-order mark
        path = tmp_path / "t.csv"
        path.write_bytes('"a",b\n\ufeff1,2\n3,4\n'.encode())
        with open(path, "rb") as fh:
            fh.seek(6)
            assert cli._line_count(fh) == (3, False)
            assert fh.tell() == 0

    def test_each_file_is_opened_once(self, tmp_path, monkeypatch):
        # a quoted header sends the file to the csv reader, and a delimiter found on the header's record makes it
        # read the file a second time: each rewinds the one handle
        path = tmp_path / "t.csv"
        path.write_text('"x\ny";b;c\n1;2;3\n')
        opens = []
        real_open = open
        monkeypatch.setattr("builtins.open", lambda *args, **kwargs: opens.append(args) or real_open(*args, **kwargs))
        (col,) = ingest(path, ["b"])
        assert col.values.tolist() == [2] and opens == [(path, "rb")]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("text, columns", [
        ("a,b\n12,3\n45,6\nNA,7\n", "a,b"),
        ('"a",b\n12,3\n45,6\nNA,7\n', "a,b"),
        ('"x\ny";b;c\n1;2;3\n45;67;8\n', "b"),
    ], ids=["plain", "quoted", "quoted-delimiter-reread"])
    def test_a_pipe_reads_as_its_file_does(self, tmp_path, text, columns):
        # a pipe is copied once to a temporary file, so the csv reader can start again after the plain reader
        path = tmp_path / "t.csv"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("DIGITSCREEN_OUT", None)
        file_run, pipe_run = (subprocess.run([sys.executable, "-m", "digitscreen.cli", "screen", source, "--columns",
                                              columns, "--tests", "nb1"], input=text.encode(), capture_output=True,
                                             env=env, timeout=120) for source in (str(path), "/dev/stdin"))
        assert file_run.returncode in (0, 2) and file_run.stdout.startswith(b"test ")
        assert (pipe_run.returncode, pipe_run.stdout, pipe_run.stderr) == (file_run.returncode, file_run.stdout,
                                                                           file_run.stderr)

    def test_a_file_that_grows_while_read_is_an_error(self, tmp_path, capsys, monkeypatch):
        # two rows are appended after the line count and before the rows are read
        path = tmp_path / "t.csv"
        path.write_text("a,b\n12,3\n")
        line_blocks = cli._line_blocks

        def grow_then_read(fh):
            with open(path, "a") as out:
                out.write("45,6\n78,9\n")
            return line_blocks(fh)

        monkeypatch.setattr(cli, "_line_blocks", grow_then_read)
        assert main(["screen", str(path), "--columns", "a"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: the file grew while it was read\n")


def data_rows(data: bytes) -> int:
    """The data rows of a file without a quote: its lines but the blank or whitespace-only ones, less the header."""
    return sum(1 for line in re.split("\r\n|\r|\n", data.decode("utf-8-sig")) if line.strip()) - 1


def check_exclusions(col: DatasetColumn, rows: int, zeros: int | None = None) -> None:
    """``col`` accounts for each of its ``rows`` once, by reason; a simulated column dropped ``zeros`` zero counts."""
    assert col.m + col.excluded_count == rows
    assert col.excluded_count == sum(col.excluded_by_reason.values())
    assert list(col.excluded_by_reason) == [r for r in REASONS if col.excluded_by_reason.get(r, 0) > 0]
    if zeros is not None:
        assert col.excluded_by_reason == ({"zero": zeros} if zeros else {})


class TestExclusionRecord:
    # every producer of columns: both readers, the voting model's columns and the experiment's pooled column
    @settings(max_examples=150, deadline=None)
    @given(delimited_files(), st.integers(0, 2**32), st.sampled_from([10, 40, 2250]))
    def test_every_producer_accounts_for_its_rows(self, file, seed, max_voters):
        data, selectors, delimiter = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(data)
            for reader in (cli._read_csv, cli._read_plain):
                try:
                    columns = opened(reader)(path, selectors, delimiter) or []
                except ValueError:
                    continue  # a header that does not hold the selectors
                for col in columns:
                    # a quoted cell may span lines, so a quoted file's columns are only checked against each other
                    rows = data_rows(data) if b'"' not in data else columns[0].m + columns[0].excluded_count
                    check_exclusions(col, rows)
        cfg = replace(simulate.default_voting_config(seed), n_units=30, max_voters=max_voters)
        for col, counts in zip(simulate.sample_hmpm(cfg), zip(*simulate.hmpm_unit_counts(cfg))):
            check_exclusions(col, cfg.n_units, counts.count(0))
        with mock.patch.object(DatasetColumn, "__post_init__", autospec=True,
                               side_effect=DatasetColumn.__post_init__) as post_init:
            simulate.conformance_experiment(cfg, [nbl_first()], replicates=2)
        (pooled,) = [call.args[0] for call in post_init.call_args_list if call.args[0].name == "pooled"]
        zeros = sum(a == 0 for r in range(2) for a, _ in
                    simulate.hmpm_unit_counts(replace(cfg, seed=simulate._replicate_seed(seed, r))))
        check_exclusions(pooled, 2 * cfg.n_units, zeros)


class TestRunScreening:
    def test_rows_follow_config_order(self, small_csv):
        config = ScreenConfig(str(small_csv), ("north", "south"), ("nb1", "nb2"))
        doc = run_screening(config)
        labels = [row.label for row in doc.rows]
        assert labels == ["NB1 north", "NB1 south", "NB2 north", "NB2 south"]

    def test_screening_holds_no_copy_of_a_column(self):
        # three log-uniform columns of 250 000 counts on [1, 2250] take 6 MB; screening them may add 1.5 MiB at most
        rng = np.random.default_rng(12)
        columns = [DatasetColumn(name, np.exp(rng.uniform(0.0, math.log(2251.0), 250_000)).astype(np.int64))
                   for name in "abc"]
        config = ScreenConfig("unused.csv", ("a", "b", "c"), ("nb1", "nb2", "joint2", "rnb2"), upper_bound=2250)
        tracemalloc.start()
        try:
            doc = run_screening(config, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(doc.rows) == 12 and not doc.errors
        assert peak <= 3 << 19

    def test_per_column_error_keeps_going(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n7,123\n3,456\n")  # column a has no 2-digit values
        config = ScreenConfig(str(path), ("a", "b"), ("nb2",))
        doc = run_screening(config)
        assert len(doc.rows) == 1 and doc.rows[0].column == "b"
        assert len(doc.errors) == 1 and doc.errors[0].column == "a"
        assert doc.exit_code() == 1

    def test_exit_code_pass_and_reject(self, conforming_csv, uniform_csv):
        doc_ok = run_screening(ScreenConfig(str(conforming_csv), ("votes",), ("nb2",)))
        assert doc_ok.exit_code() == 0
        doc_bad = run_screening(ScreenConfig(str(uniform_csv), ("votes",), ("nb2",)))
        assert doc_bad.exit_code() == 2

    def test_restricted_test_needs_bound(self, small_csv):
        with pytest.raises(ValueError, match="bound"):
            ScreenConfig(str(small_csv), ("north",), ("rnb2",))

    def test_lower_without_restricted_test(self, small_csv):
        with pytest.raises(ValueError, match="restricted"):
            ScreenConfig(str(small_csv), ("north",), ("nb1",), lower_bound=10)

    def test_bound_without_restricted_test(self, small_csv):
        with pytest.raises(ValueError, match="restricted"):
            ScreenConfig(str(small_csv), ("north",), ("nb1", "joint2"), upper_bound=800)

    def test_threshold_of_one_is_accepted(self, conforming_csv, capsys):
        # 1 closes (0, 1]: every posterior below it rejects, so a conforming column still gets its report, and exit 2
        assert ScreenConfig(str(conforming_csv), ("votes",), ("nb2",), threshold=1.0).threshold == 1.0
        assert main(["screen", str(conforming_csv), "--columns", "votes", "--tests", "nb2", "--threshold", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.splitlines()[2].startswith("NB2 votes")

    @pytest.mark.parametrize("columns, tests, settings, message", [
        ((), ("nb1",), {}, "select at least one column"),
        (("north",), (), {}, "select at least one test"),
        (("north",), ("nb1",), {"policy": "drop-all"}, "unknown policy 'drop-all'"),
        (("north",), ("nb1",), {"output_format": "xml"}, "unknown format 'xml'"),
    ], ids=["no-columns", "no-tests", "policy", "format"])
    def test_no_columns_no_tests_or_unknown_policy_or_format_is_an_error(self, small_csv, capsys, columns, tests,
                                                                          settings, message):
        # a library call, which argparse does not check; without columns a screen would report nothing and exit 0
        with pytest.raises(ValueError) as raised:
            ScreenConfig(str(small_csv), columns, tests, **settings)
        assert str(raised.value) == message
        if not columns:
            assert main(["screen", str(small_csv), "--columns", ",", "--tests", "nb1"]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, 0.0])
    def test_threshold_outside_unit_interval(self, small_csv, threshold):
        with pytest.raises(ValueError, match="threshold"):
            ScreenConfig(str(small_csv), ("north",), ("nb1",), threshold=threshold)

    @pytest.mark.parametrize("prior", [float("nan"), 0.0, 1.0, 1.5])
    def test_prior_outside_unit_interval(self, small_csv, prior):
        with pytest.raises(ValueError, match="prior_h0 must lie strictly between 0 and 1"):
            ScreenConfig(str(small_csv), ("north",), ("nb1",), prior_h0=prior)

    def test_render_deterministic(self, small_csv):
        config = ScreenConfig(str(small_csv), ("north", "south"), ("nb1", "nb2"))
        one = render(run_screening(config), "text")
        two = render(run_screening(config), "text")
        assert one == two


class TestReportRendering:
    def test_text_header_matches_report_layout(self, small_csv):
        doc = run_screening(ScreenConfig(str(small_csv), ("north",), ("nb1",)))
        header = render(doc, "text").splitlines()[0]
        assert header.split() == ["test"] + list(COLUMNS)
        assert COLUMNS == ("m", "Median", "P(H0|data)", "p-value", "P_lb(H0|data)")

    def test_text_row_values(self, small_csv):
        doc = run_screening(ScreenConfig(str(small_csv), ("north",), ("nb1",)))
        line = render(doc, "text").splitlines()[2]
        cells = line.split()
        assert cells[:2] == ["NB1", "north"]
        assert cells[2] == "3"  # m
        assert cells[3] == "1472"  # lower-middle median
        # posterior, p-value at 3 decimals
        assert len(cells[4].split(".")[1]) == 3

    def test_ulb_flag_rendering(self, conforming_csv):
        doc = run_screening(ScreenConfig(str(conforming_csv), ("votes",), ("nb2",)))
        text = render(doc, "text")
        row = doc.rows[0].report
        if row.ulb is None:
            assert "> 0.5" in text

    def test_csv_format(self, small_csv):
        doc = run_screening(ScreenConfig(str(small_csv), ("north",), ("nb1", "nb2")))
        rows = list(csv.reader(render(doc, "csv").splitlines()))
        assert rows[0] == ["test"] + list(COLUMNS)
        assert rows[1][0] == "NB1 north"

    def test_json_schema(self, small_csv):
        doc = run_screening(ScreenConfig(str(small_csv), ("north",), ("nb2",)))
        payload = json.loads(render(doc, "json"))
        assert payload["schema_version"] == 1
        (row,) = payload["rows"]
        assert row["test"] == "NB2" and 0 <= row["posterior_h0"] <= 1
        assert row["m"] == 2  # the value 2 has no second digit

    def test_m_reflects_policy_per_test(self, small_csv):
        doc = run_screening(ScreenConfig(str(small_csv), ("north",), ("nb1", "nb2")))
        m_nb1 = doc.rows[0].report.m
        m_nb2 = doc.rows[1].report.m
        assert m_nb1 == 3 and m_nb2 == 2 and m_nb1 >= m_nb2


class TestProportions:
    def test_nb1_rows_match_reference_table(self, small_csv):
        (col,) = ingest(small_csv, ["north"])
        law = law_from_name("nb1")
        table = proportions_table(tabulate(col, law), law)
        assert len(table) == 9
        for (digit, observed, law), d in zip(table, range(1, 10)):
            assert digit == str(d)
            assert abs(law - TABLE1[d]) < 0.0005

    def test_nb2_rows_normalized(self, conforming_csv):
        (col,) = ingest(conforming_csv, ["votes"])
        law = law_from_name("nb2")
        table = proportions_table(tabulate(col, law), law)
        assert len(table) == 10
        assert sum(obs for _, obs, _ in table) == pytest.approx(1.0, abs=1e-9)
        assert sum(law for _, _, law in table) == pytest.approx(1.0, abs=1e-9)

    def test_joint_rows_keyed_by_digit_pair(self, small_csv):
        (col,) = ingest(small_csv, ["south"])
        law = law_from_name("joint2")
        table = proportions_table(tabulate(col, law), law)
        assert len(table) == 90
        assert table[0][0] == "10" and table[-1][0] == "99"


class TestLawTables:
    def test_nb1_table(self, capsys):
        out = render_law_table("nb1")
        assert "0.301" in out and "0.046" in out

    def test_cnb_tables(self):
        out = render_law_table("cnb1:800")
        assert "CNB1_800" in out and "0.330" in out and "0.006" in out
        out2 = render_law_table("cnb2:800")
        assert "0.121" in out2

    def test_unknown_table(self):
        with pytest.raises(ValueError, match="unknown law table"):
            render_law_table("zipf")


class TestMainEntry:
    def test_screen_to_file_byte_identical(self, small_csv, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for out in (out1, out2):
            code = main(["screen", str(small_csv), "--columns", "north,south",
                         "--tests", "nb1,nb2", "--out", str(out)])
            assert code in (0, 2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_exit_gate(self, conforming_csv, uniform_csv, capsys):
        assert main(["screen", str(conforming_csv), "--columns", "votes", "--tests", "nb2"]) == 0
        assert main(["screen", str(uniform_csv), "--columns", "votes", "--tests", "nb2"]) == 2

    def test_error_exit(self, small_csv, capsys):
        assert main(["screen", str(small_csv), "--columns", "absent", "--tests", "nb1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", [",,", "", '"', "\n", "\r"])
    def test_delimiter_must_be_one_plain_character(self, small_csv, capsys, delimiter):
        assert main(["screen", str(small_csv), "--columns", "north", "--delimiter", delimiter]) == 1
        assert capsys.readouterr().err == ("error: delimiter must be one character other than a quote or a line "
                                           f"break, got {delimiter!r}\n")

    @pytest.mark.parametrize("argv", [["screen", "t.csv"], ["screen", "t.csv", "--columns", "a", "--policy", "x"],
                                      ["screen", "t.csv", "--columns", "a", "--bound", ""], ["bogus"]],
                             ids=["no-columns", "bad-policy", "empty-bound", "bogus-command"])
    def test_usage_error_exits_1(self, capsys, argv):
        # exit status 2 means that a screening rejected, so a typo must not read as an anomaly
        with pytest.raises(SystemExit) as raised:
            main(argv)
        captured = capsys.readouterr()
        assert raised.value.code == 1 and captured.out == ""
        prog = "digitscreen screen" if argv[0] == "screen" else "digitscreen"
        assert captured.err.startswith(f"usage: {prog} ")
        assert captured.err.splitlines()[-1].startswith(f"{prog}: error: ")

    @pytest.mark.parametrize("argv", [[], ["screen"], ["simulate"], ["laws"]],
                             ids=["top", "screen", "simulate", "laws"])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as raised:
            main([*argv, "--help"])
        captured = capsys.readouterr()
        assert raised.value.code == 0 and captured.err == ""
        assert captured.out.startswith(" ".join(["usage: digitscreen", *argv]))

    @pytest.mark.parametrize("argv,err", [
        (["screen", "votes.csv", "--columns", "north", "--tests", ""],
         "error: unknown law name ''; expected nb1, nb2, joint2, rnb1:K or rnb2:K\n"),
        (["screen", "absent.csv", "--columns", "north", "--out", ""], "error: --out needs a path, got ''\n"),
        (["screen", "absent.csv", "--columns", "north", "--proportions", ""],
         "error: --proportions needs a path, got ''\n"),
        (["simulate", "--config", "absent.ini", "--out", ""], "error: --out needs a path, got ''\n"),
    ], ids=["screen-tests", "screen-out", "screen-proportions", "simulate-out"])
    def test_empty_flag_value_is_an_error(self, small_csv, monkeypatch, capsys, argv, err):
        # an empty value once read as the flag not given: the default test, stdout, or no file; the input named
        # here does not exist, so the error comes before any input is read, and nothing is written
        monkeypatch.chdir(small_csv.parent)
        monkeypatch.delenv("DIGITSCREEN_OUT", raising=False)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
        assert [p.name for p in small_csv.parent.iterdir()] == ["votes.csv"]

    def test_invalid_prior_is_refused_before_reading_the_file(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        path.write_text("unit,v\nA,12\nB,NA\n")
        assert main(["screen", str(path), "--columns", "v", "--prior", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: prior_h0 must lie strictly between 0 and 1, got 1.5\n"

    def test_lower_bound_under_a_prior(self, tmp_path, capsys):
        # 22 values whose second digit is 5 eight times: p = 0.03, and P_lb was 0.22 above P(H0|data) 0.096
        values = [10 + d for d in range(10)] + [15] * 6 + [10 + d for d in range(6)]
        path = tmp_path / "v.csv"
        path.write_text("unit,v\n" + "".join(f"u{i},{v}\n" for i, v in enumerate(values)))
        assert main(["screen", str(path), "--columns", "v", "--prior", "0.05", "--format", "json"]) == 2
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        calibration = -math.e * row["p_value"] * math.log(row["p_value"])
        assert row["ulb"] == pytest.approx(1 / (1 + 19 / calibration), rel=1e-12)
        assert row["ulb"] < row["posterior_h0"] < 0.1

    def test_default_tests_depend_on_bound(self, small_csv, capsys):
        main(["screen", str(small_csv), "--columns", "north"])
        out = capsys.readouterr().out
        assert "NB2 north" in out and "RNB2" not in out
        main(["screen", str(small_csv), "--columns", "north", "--bound", "6000"])
        out = capsys.readouterr().out
        assert "NB2 north" in out and "RNB2(6000) north" in out

    def test_proportions_output(self, small_csv, tmp_path, capsys):
        propdir = tmp_path / "props"
        main(["screen", str(small_csv), "--columns", "north", "--tests", "nb1",
              "--proportions", str(propdir)])
        written = propdir / "north_nb1.csv"
        rows = list(csv.reader(written.read_text().splitlines()))
        assert rows[0] == ["digit", "observed_proportion", "law_probability"]
        assert len(rows) == 10

    def test_laws_subcommand(self, capsys):
        assert main(["laws", "--table", "nb2"]) == 0
        assert "0.120" in capsys.readouterr().out

    def test_simulate_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "model.ini"
        cfg.write_text(
            "[voting_model]\nn_units = 60\nmax_voters = 500\nturnout = 2.0 2.0\n"
            "partisan_fraction = 1.0 0.0\npartisan_loyalty = 1.0\nswing_prob = 1.0 1.0\nseed = 3\n"
            "\n[experiment]\nlaws = nb2\n"
        )
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["unit", "candidate_a", "candidate_b"]
        assert len(rows) == 61
        assert all(r[2] == "0" for r in rows[1:])  # fully partisan: B gets nothing
        assert "benford-second pooled" in capsys.readouterr().out

    def test_output_dir_env(self, small_csv, tmp_path, monkeypatch, capsys):
        outputs, cwd = tmp_path / "outputs", tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("DIGITSCREEN_OUT", str(outputs))
        cfg = tmp_path / "model.ini"
        cfg.write_text("[mixture]\nn_samples = 20\nseed = 3\ncomponent.1 = lognormal weight=1 mu=0 sigma=1\n")
        main(["screen", str(small_csv), "--columns", "north", "--tests", "nb1",
              "--out", "report.txt", "--proportions", "props"])
        assert main(["simulate", "--config", str(cfg), "--out", "sim/data.csv"]) == 0
        assert sorted(p.relative_to(outputs).as_posix() for p in outputs.rglob("*")) == [
            "props", "props/north_nb1.csv", "report.txt", "sim", "sim/data.csv"]
        # an absolute path is taken as it is
        main(["screen", str(small_csv), "--columns", "north", "--tests", "nb1", "--out", str(tmp_path / "abs.txt")])
        assert (tmp_path / "abs.txt").exists() and not (outputs / "abs.txt").exists()
        assert not any(cwd.iterdir())

    def test_two_sided_restriction(self, small_csv, capsys):
        # north holds 2, 1472 and 6033, all inside [2, 8000]
        code = main(["screen", str(small_csv), "--columns", "north", "--tests", "rnb1",
                     "--bound", "8000", "--lower", "2"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "RNB1(2:8000) north" in out

    def test_simulate_shipped_config(self, capsys):
        import importlib.resources

        resource = importlib.resources.files("digitscreen") / "configs" / "hmpm_default.ini"
        with importlib.resources.as_file(resource) as path:
            assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "benford-second pooled" in out and "restricted" in out

    def test_simulate_mixture_output_roundtrips(self, tmp_path, capsys):
        # more samples than one written block, so a block boundary is crossed
        cfg = tmp_path / "mix.ini"
        cfg.write_text(
            "[mixture]\nn_samples = 70000\nseed = 6\n"
            "component.1 = lognormal weight=1.0 mu=1.0 sigma=2.0\n"
        )
        out = tmp_path / "mix.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        values = [float(r["value"]) for r in rows]
        assert len(values) == 70000 and all(v > 0 for v in values)
        samples = simulate.sample_mixture(load_simulation_config(cfg).mixture)
        assert values == samples.tolist()
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("value",))
        writer.writerows((repr(float(v)),) for v in samples)
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

    def test_proportions_with_index_selector(self, small_csv, tmp_path, capsys):
        propdir = tmp_path / "props"
        assert main(["screen", str(small_csv), "--columns", "1", "--tests", "nb1",
                     "--proportions", str(propdir)]) in (0, 2)
        assert sorted(p.name for p in propdir.iterdir()) == ["north_nb1.csv"]

    @pytest.mark.parametrize("tests,named", [("nb1,nb1", "'nb1' selects the test nb1"),
                                             ("nb1,NB1", "'NB1' selects the test nb1"),
                                             ("rnb2:9999,nb2, CNB2:9999", "'CNB2:9999' selects the test rnb2:9999"),
                                             ("rnb2:9999,rnb2:09999", "'rnb2:09999' selects the test rnb2:9999")])
    def test_test_named_twice_is_an_error(self, small_csv, tmp_path, capsys, tests, named):
        # a repeated test would print its rows twice and write each --proportions file twice
        propdir = tmp_path / "props"
        assert main(["screen", str(small_csv), "--columns", "north", "--tests", tests,
                     "--proportions", str(propdir)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: test {named} a second time\n")
        assert not propdir.exists()

    @pytest.mark.parametrize("model,laws,named", [
        ("[mixture]\nn_samples = 300\nseed = 2\ncomponent = lognormal weight=1 mu=0 sigma=2\n", "nb1, NB1",
         "'NB1' selects the test nb1"),
        ("[voting_model]\nn_units = 20\nmax_voters = 2250\nturnout = 0.85 0.58\npartisan_fraction = 0.46 0.19\n"
         "partisan_loyalty = 0.99\nswing_prob = 1.05 0.40\nseed = 7\n", "rnb2:2250, cnb2:2250",
         "'cnb2:2250' selects the test rnb2:2250"),
        ("[voting_model]\nn_units = 20\nmax_voters = 2250\nturnout = 0.85 0.58\npartisan_fraction = 0.46 0.19\n"
         "partisan_loyalty = 0.99\nswing_prob = 1.05 0.40\nseed = 7\n", "rnb2:2250, rnb2:02250",
         "'rnb2:02250' selects the test rnb2:2250"),
    ], ids=["mixture", "voting", "voting-leading-zero"])
    def test_experiment_law_named_twice_is_an_error(self, tmp_path, capsys, model, laws, named):
        # as in screen --tests: a repeated law would print its row twice
        cfg = tmp_path / "sim.ini"
        cfg.write_text(f"{model}\n[experiment]\nlaws = {laws}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: test {named} a second time\n")
        assert not (tmp_path / "data.csv").exists()

    def test_beta_draw_whose_gamma_variates_underflow_is_an_error(self, tmp_path, capsys):
        # with shapes this small both gamma variates of a turnout draw underflow to 0 in some unit, so it is 0 / 0
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[voting_model]\nn_units = 2000\nmax_voters = 100\nturnout = 0.001 0.001\n"
                       "partisan_fraction = 0.46 0.19\npartisan_loyalty = 0.99\nswing_prob = 1.05 0.40\nseed = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: cannot draw Beta(0.001, 0.001): both of its gamma "
                                                    "variates underflowed to 0, so the draw is 0 / 0; its shapes "
                                                    "are too small\n")
        assert not (tmp_path / "data.csv").exists()

    def test_duplicate_columns_are_an_error(self, small_csv, capsys):
        assert main(["screen", str(small_csv), "--columns", "north,north,1", "--tests", "nb1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: column 'north' selects column 1 ('north') a second time" in captured.err

    def test_proportions_refuse_columns_that_share_a_name(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,a,b\n" + "".join(f"{n},{2 * n},{n}\n" for n in range(10, 60)) + "x,7,8\n")
        propdir = tmp_path / "props"
        assert main(["screen", str(path), "--columns", "0,1", "--tests", "nb1", "--proportions", str(propdir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --proportions names its files by column, and 'a' names more than one "
                                "selected column\n")
        assert not propdir.exists()
        # without --proportions the same columns are screened
        assert main(["screen", str(path), "--columns", "0,1", "--tests", "nb1"]) in (0, 2)
        out = capsys.readouterr().out
        assert sum(line.startswith("NB1 a ") for line in out.splitlines()) == 2

    @pytest.mark.parametrize("name", ["a/b", "../evil"])
    def test_proportions_refuse_a_path_separator_in_a_column_name(self, tmp_path, capsys, name):
        path = tmp_path / "d.csv"
        path.write_text(f"unit,{name},c\n" + "".join(f"u{n},{n},{n}\n" for n in range(10, 60)) + "x,NA,8\n")
        propdir = tmp_path / "run" / "props"
        assert main(["screen", str(path), "--columns", f"{name},c", "--tests", "nb1",
                     "--proportions", str(propdir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --proportions names its files by column, and the column name {name!r} "
                                "holds a path separator\n")
        assert not (tmp_path / "run").exists()

    def test_proportions_refuse_a_null_byte_in_a_column_name(self, tmp_path, capsys):
        path = tmp_path / "nul.csv"
        path.write_text("a\x00b,c\n" + "".join(f"{n},{n}\n" for n in range(10, 60)))
        propdir = tmp_path / "props"
        assert main(["screen", str(path), "--columns", "0,1", "--tests", "nb1", "--proportions", str(propdir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --proportions names its files by column, and the column name 'a\\x00b' "
                                "holds a null byte\n")
        assert not propdir.exists()

    def _proportions(self, small_csv, propdir, *options) -> dict:
        """The files ``screen --proportions propdir`` writes, by name; the exit code must be 0 or 2."""
        assert main(["screen", str(small_csv), "--columns", "north,south", "--tests", "nb1,joint2", *options,
                     "--proportions", str(propdir)]) in (0, 2)
        return {p.name: p.read_bytes() for p in resolve_out(propdir).iterdir()}

    def test_proportions_truncate_a_longer_file(self, small_csv, tmp_path, capsys):
        fresh = self._proportions(small_csv, tmp_path / "fresh")
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "north_nb1.csv").write_bytes(b"x" * 5000)
        assert self._proportions(small_csv, tmp_path / "old") == fresh

    def test_relative_proportions_dir_lands_under_the_output_dir(self, small_csv, tmp_path, monkeypatch, capsys):
        fresh = self._proportions(small_csv, tmp_path / "fresh", "--format", "json")
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        monkeypatch.setenv("DIGITSCREEN_OUT", str(tmp_path / "outputs"))
        assert self._proportions(small_csv, Path("props"), "--format", "json") == fresh
        assert (tmp_path / "outputs" / "props").is_dir() and not any((tmp_path / "cwd").iterdir())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open descriptors")
    def test_a_failing_proportions_write_leaves_no_descriptor_open(self, small_csv, tmp_path, monkeypatch, capsys):
        def failing(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        before = len(os.listdir("/proc/self/fd"))
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", failing)
            code = main(["screen", str(small_csv), "--columns", "north", "--tests", "nb1",
                         "--proportions", str(tmp_path / "props")])
        assert code == 1 and capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert len(os.listdir("/proc/self/fd")) == before
        assert [p.name for p in (tmp_path / "props").iterdir()] == ["north_nb1.csv"]

    def test_restricted_law_outside_its_bound(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        path.write_text("unit,v\n" + "".join(f"u{n},{n}\n" for n in range(10, 3001, 7)))
        propdir = tmp_path / "props"
        code = main(["screen", str(path), "--columns", "v", "--tests", "nb2,rnb2", "--bound", "100",
                     "--proportions", str(propdir)])
        out = capsys.readouterr().out
        assert code == 1
        assert [line.split()[0] for line in out.splitlines()[2:] if not line.startswith("error")] == ["NB2"]
        assert "error: RNB2(100) v: 415 of 428 units lie outside the restriction N<=100\n" in out
        assert sorted(p.name for p in propdir.iterdir()) == ["v_nb2.csv"]

    def test_proportions_builds_each_law_once(self, small_csv, tmp_path, monkeypatch, capsys):
        built = []

        def counting(*args):
            built.append(args[0])
            return law_from_name(*args)

        monkeypatch.setattr(laws, "law_from_name", counting)
        main(["screen", str(small_csv), "--columns", "north,south", "--tests", "nb1,rnb2", "--bound", "8000",
              "--proportions", str(tmp_path / "props")])
        assert built == ["nb1", "rnb2"]
        assert sorted(p.name for p in (tmp_path / "props").iterdir()) == [
            "north_nb1.csv", "north_rnb2.csv", "south_nb1.csv", "south_rnb2.csv"]

    def test_proportions_reuse_the_screen_tally(self, small_csv, tmp_path, monkeypatch, capsys):
        # one tally per screening, laws at one digit position each tallying their own, and none for the files
        calls = []

        def spy(name):
            tally = getattr(inference, name)

            def counting(column, *args):
                calls.append((column.name, name, *args))
                return tally(column, *args)

            return counting

        for name in ("digit_frequencies", "joint_frequencies"):
            monkeypatch.setattr(inference, name, spy(name))
        main(["screen", str(small_csv), "--columns", "north,south", "--tests", "nb1,rnb1,nb2,rnb2,joint2",
              "--bound", "8000", "--proportions", str(tmp_path / "props")])
        assert sorted(calls) == [(col, name, i, "exclude-short") for col in ("north", "south")
                                 for name, i in [("digit_frequencies", 1)] * 2 + [("digit_frequencies", 2)] * 2
                                 + [("joint_frequencies", 2)]]
        assert len(list((tmp_path / "props").iterdir())) == 10

    def test_laws_at_one_digit_position_share_its_tally(self, small_csv, tmp_path, monkeypatch, capsys):
        # nb1 and rnb1 (nb2 and rnb2) read one digit position, so they report the same observed proportions
        positions = []
        tally = inference.digit_frequencies

        def counting(column, *args):
            positions.append((column.name, *args))
            return tally(column, *args)

        monkeypatch.setattr(inference, "digit_frequencies", counting)
        props = tmp_path / "props"
        main(["screen", str(small_csv), "--columns", "north,south", "--tests", "nb1,rnb1,nb2,rnb2", "--bound", "8000",
              "--proportions", str(props)])
        assert sorted(set(positions)) == [("north", 1, "exclude-short"), ("north", 2, "exclude-short"),
                                          ("south", 1, "exclude-short"), ("south", 2, "exclude-short")]
        assert len(list(props.iterdir())) == 8

        def observed(name):
            return [row[:2] for row in csv.reader((props / name).read_text().splitlines())]

        for col in ("north", "south"):
            assert observed(f"{col}_nb1.csv") == observed(f"{col}_rnb1.csv")
            assert observed(f"{col}_nb2.csv") == observed(f"{col}_rnb2.csv")

    def test_simulate_generates_each_replicate_once(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "model.ini"
        cfg.write_text("[voting_model]\nn_units = 40\nmax_voters = 500\nturnout = 2 2\npartisan_fraction = 1 1\n"
                       "partisan_loyalty = 0.9\nswing_prob = 1 1\nseed = 4\n"
                       "\n[experiment]\nlaws = nb1\nreplicates = 2\n")
        generated = []

        def counting(config):
            generated.append(config.seed)
            return hmpm_unit_counts(config)

        monkeypatch.setattr(simulate, "hmpm_unit_counts", counting)
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(generated) == 2 and generated[0] == 4
        job = load_simulation_config(cfg)
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert rows == [[str(j), str(a), str(b)] for j, (a, b) in enumerate(hmpm_unit_counts(job.voting))]

    def test_simulate_out_of_memory_is_one_error_line(self, tmp_path, capsys):
        # the counts' buffer of 3 * max_voters doubles cannot be allocated, which fails before any unit is drawn
        cfg = tmp_path / "model.ini"
        cfg.write_text("[voting_model]\nn_units = 3\nmax_voters = 1000000000000000\nturnout = 2 2\n"
                       "partisan_fraction = 1 1\npartisan_loyalty = 0.9\nswing_prob = 1 1\nseed = 1\n")
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")

    def test_simulate_mixture_writes_and_screens_finite_draws(self, tmp_path, capsys):
        # exp(700 + 5 z) overflows for z above 1.96: those draws were written as inf, and then failed the screen
        cfg = tmp_path / "mixture.ini"
        cfg.write_text("[mixture]\nn_samples = 2000\nseed = 1\ncomponent = lognormal weight=1 mu=700 sigma=5\n"
                       "\n[experiment]\nlaws = nb1\n")
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "benford-first samples  2000" in captured.out
        values = [float(v) for v in out.read_text().splitlines()[1:]]
        assert len(values) == 2000 and all(0.0 < v < math.inf for v in values)

    def test_simulate_builds_each_law_once(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "mixture.ini"
        cfg.write_text("[mixture]\nn_samples = 300\nseed = 2\ncomponent = lognormal weight=1 mu=0 sigma=2\n"
                       "\n[experiment]\nlaws = nb1, nb2\n")
        built = []

        def counting(*args):
            built.append(args[0])
            return law_from_name(*args)

        monkeypatch.setattr(laws, "law_from_name", counting)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 0
        assert built == ["nb1", "nb2"]

    def test_json_proportions(self, small_csv, tmp_path, capsys):
        propdir = tmp_path / "props"
        main(["screen", str(small_csv), "--columns", "north", "--tests", "nb2",
              "--format", "json", "--proportions", str(propdir)])
        payload = json.loads((propdir / "north_nb2.json").read_text())
        assert len(payload) == 10
        assert set(payload[0]) == {"digit", "observed", "law"}


# Each spelling, through each entry point, names the same law with the same label.
GRAMMAR = [
    ("screen", "nb1", None, None, nbl_first, None, "NB1"),
    ("screen", "joint2", None, None, lambda: nbl_joint(2), None, "JOINT2"),
    ("screen", "rnb2", 800, None, nbl_second, RestrictionSpec(upper=800), "RNB2(800)"),
    ("screen", "cnb2", 800, None, nbl_second, RestrictionSpec(upper=800), "CNB2(800)"),
    ("screen", "rnb1", 8000, 100, nbl_first, RestrictionSpec(lower=100, upper=8000), "RNB1(100:8000)"),
    ("laws", "nb1", None, None, nbl_first, None, "NB1"),
    ("laws", "cnb2:800", None, None, nbl_second, RestrictionSpec(upper=800), "CNB2_800"),
    ("laws", "rnb2:800", None, None, nbl_second, RestrictionSpec(upper=800), "RNB2_800"),
    ("laws", "cnb1:800", None, None, nbl_first, RestrictionSpec(upper=800), "CNB1_800"),
    ("laws", "joint2", None, None, lambda: nbl_joint(2), None, "JOINT2"),
    ("simulate", "nb2", None, None, nbl_second, None, "benford-second"),
    ("simulate", "rnb2:800", None, None, nbl_second, RestrictionSpec(upper=800),
     "restricted(benford-second, N<=800)"),
    ("simulate", "cnb2:800", None, None, nbl_second, RestrictionSpec(upper=800),
     "restricted(benford-second, N<=800)"),
]


@pytest.mark.parametrize("entry,name,upper,lower,base,spec,label", GRAMMAR,
                         ids=[f"{entry}-{name}" for entry, name, *_ in GRAMMAR])
def test_law_name_grammar(tmp_path, entry, name, upper, lower, base, spec, label):
    expected = base() if spec is None else restricted_law(base(), spec)
    if entry == "screen":
        path = tmp_path / "v.csv"
        path.write_text("unit,v\n" + "".join(f"u{n},{n}\n" for n in range(100, 800, 7)))
        config = ScreenConfig(str(path), ("v",), (name,), upper_bound=upper, lower_bound=lower)
        (row,) = run_screening(config).rows
        assert config.laws == (expected,) and config.laws[0].restriction == spec
        assert row.test == label and row.report.law == expected.kind
    elif entry == "laws":
        title, *probs = render_law_table(name).splitlines()[1].split()
        assert title == label
        assert probs == [f"{p:.3f}" for p in expected.probs]
    else:
        cfg = tmp_path / "model.ini"
        cfg.write_text("[voting_model]\nn_units = 10\nmax_voters = 800\nturnout = 1 1\npartisan_fraction = 1 1\n"
                       "partisan_loyalty = 0.9\nswing_prob = 1 1\nseed = 1\n"
                       f"\n[experiment]\nlaws = {name}\n")
        (law,) = load_simulation_config(cfg).experiment.laws
        assert law == expected and law.restriction == spec and law.kind == label


@pytest.mark.parametrize("policy,fmt", sorted(SCREEN_DIGESTS))
def test_screen_report_digests(policy, fmt, capsys):
    code = main(["screen", str(DATA / "golden_counts.csv"), *SCREEN_ARGS, "--policy", policy, "--format", fmt])
    stdout = capsys.readouterr().out
    assert (code, hashlib.sha256(stdout.encode("utf-8")).hexdigest()) == SCREEN_DIGESTS[(policy, fmt)]


@pytest.mark.parametrize("policy,fmt", sorted(SCREEN_DIGESTS))
def test_csv_reader_meets_the_golden_digests(policy, fmt, tmp_path, monkeypatch, capsys):
    # the same table with its header cell "unit" quoted goes through _read_csv, which must give every byte of the
    # plain reader: the report, the --proportions files, and the diagnostics with their file lines
    plain = (DATA / "golden_counts.csv").read_bytes()
    quoted = tmp_path / "golden_counts.csv"
    quoted.write_bytes(b'"unit"' + plain.removeprefix(b"unit"))
    proportions = (policy, fmt) in PROPORTIONS_DIGESTS
    args = [*SCREEN_ARGS, "--policy", policy, "--format", fmt]
    main(["screen", str(DATA / "golden_counts.csv"), *args])
    plain_err = capsys.readouterr().err
    read, read_csv = [], cli._read_csv
    monkeypatch.setattr(cli, "_read_csv",
                        lambda fh, path, *rest: read.append(path) or read_csv(fh, path, *rest))
    code = main(["screen", str(quoted), *args, *(["--proportions", str(tmp_path / "props")] if proportions else [])])
    captured = capsys.readouterr()
    assert read == [str(quoted)]
    assert (code, hashlib.sha256(captured.out.encode("utf-8")).hexdigest()) == SCREEN_DIGESTS[(policy, fmt)]
    assert captured.err == plain_err and plain_err.count("diagnostic:") == 14
    if proportions:
        assert (code, proportions_tree_digest(tmp_path / "props")) == PROPORTIONS_DIGESTS[(policy, fmt)]


def _tree(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


@settings(max_examples=60, deadline=None)
@given(columns=st.lists(st.lists(st.integers(1, 2500), max_size=16), min_size=1, max_size=3),
       bound=st.integers(100, 3000), lower=st.integers(1, 9), named_bound=st.booleans(),
       policy=st.sampled_from(POLICIES), fmt=st.sampled_from(["csv", "json"]))
def test_proportions_files_match_the_former_writer(columns, bound, lower, named_bound, policy, fmt):
    # tallies from decimal strings, tables through csv.writer or json.dumps: every file and its name must agree
    names = [f"c{j}" for j in range(len(columns))]
    if named_bound:
        tests, bounds = ["nb1", "nb2", "joint2", f"rnb1:{bound}"], ()
    else:
        tests, bounds = ["nb1", "rnb1", "nb2", "rnb2"], (bound, lower)
    lines = [",".join(names)] + [",".join(str(col[r]) if r < len(col) else "NA" for col in columns)
                                 for r in range(max(map(len, columns)))]
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        tmp = Path(tmp)
        (tmp / "t.csv").write_text("\n".join(lines) + "\n")
        options = ["--bound", str(bound), "--lower", str(lower)] if bounds else []
        main(["screen", str(tmp / "t.csv"), "--columns", ",".join(names), "--tests", ",".join(tests), *options,
              "--policy", policy, "--format", fmt, "--proportions", str(tmp / "new")])
        for test in tests:
            law = law_from_name(test, *bounds)
            spec = law.restriction
            for name, values in zip(names, columns):
                if spec and not all((spec.lower or 1) <= v <= spec.upper for v in values):
                    continue  # an error row, which has no table
                tally = (str_joint_tally(values, law.joint_k, policy) if law.joint_k
                         else str_digit_tally(values, law.digit_index, policy))[0]
                counts = CountVector(law.domain, [tally.get(d, 0) for d in law.domain])
                if counts.n:
                    former_write_proportions(proportions_table(counts, law), tmp / "old" / f"{name}_{test}.{fmt}",
                                             fmt)
        assert _tree(tmp / "new") == _tree(tmp / "old")


@pytest.mark.parametrize("policy,fmt", sorted(PROPORTIONS_DIGESTS))
def test_proportions_digests(policy, fmt, tmp_path, capsys):
    propdir = tmp_path / "props"
    code = main(["screen", str(DATA / "golden_counts.csv"), *SCREEN_ARGS, "--policy", policy, "--format", fmt,
                 "--proportions", str(propdir)])
    assert (code, proportions_tree_digest(propdir)) == PROPORTIONS_DIGESTS[(policy, fmt)]


def _neighbours(values, steps: int) -> np.ndarray:
    """``values`` and their first ``steps`` float64 neighbours on each side."""
    out, down, up = [values], values, values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


_EDGE_SETS = {
    "powers-of-two": _neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), 2),
    "powers-of-ten": _neighbours(np.array([float(f"1e{k}") for k in range(-6, 18)]), 40),
    "integers": np.concatenate([np.arange(20_000), 2.0**52 + np.arange(-2000, 2000), 2.0**53 - np.arange(1, 2000),
                                np.random.default_rng(1).integers(1, 2**53, 20_000)]).astype(float),
    "domain-edges": _neighbours(np.array([1e-4, 2.0**52, 2.0**53]), 1000),
    "log-uniform": 10.0 ** np.random.default_rng(2).uniform(-6, 18, 200_000),
    "raw-bits": np.random.default_rng(3).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
    # exact in 17 digits, where repr breaks a tie in the 17th to even
    "dyadic": np.random.default_rng(4).integers(1, 10**6, 50_000) / np.ldexp(1.0, np.arange(50_000) % 40 + 1),
}

# a double's bits: sign, biased exponent (subnormals and every binade, with the kernel's domain drawn as often as
# the rest; 2047, inf and nan, is left out) and fraction (some with only their top 12 bits set, so that exact
# products are drawn)
_FLOAT_BITS = st.builds(lambda sign, biased, fraction: sign << 63 | biased << 52 | fraction, st.integers(0, 1),
                        st.one_of(st.integers(0, 2046), st.integers(1009, 1075)),
                        st.one_of(st.integers(0, 2**52 - 1), st.integers(0, 2**12 - 1).map(lambda f: f << 40)))


_SHIPPED_MIXTURE = importlib.resources.files("digitscreen") / "configs" / "mixture_lognormal.ini"


class TestReprLines:
    """`simulate --out` writes each sample's repr through an integer kernel, byte for byte as the former writer."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FLOAT_BITS, min_size=1, max_size=40))
    def test_drawn_bit_patterns(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert cli._repr_lines(values) == former_sample_lines(values)

    @pytest.mark.parametrize("name", sorted(_EDGE_SETS))
    def test_edge_values(self, name):
        values = _EDGE_SETS[name][np.isfinite(_EDGE_SETS[name])]
        for i in range(0, values.size, cli._SAMPLE_BLOCK):
            block = values[i:i + cli._SAMPLE_BLOCK]
            assert cli._repr_lines(block) == former_sample_lines(block)

    def test_repr_writes_only_what_the_kernel_cannot_certify(self, monkeypatch):
        samples = simulate.sample_mixture(load_simulation_config(_SHIPPED_MIXTURE).mixture)
        values = np.concatenate([_EDGE_SETS["domain-edges"], _EDGE_SETS["powers-of-ten"], samples[:20_000],
                                 _EDGE_SETS["log-uniform"][:20_000], _EDGE_SETS["integers"][-2000:]])
        seen = []
        monkeypatch.setattr(cli, "repr", lambda x: seen.append(x) or builtins.repr(x), raising=False)
        assert cli._repr_lines(values) == former_sample_lines(values)
        assert seen == [v for v in values.tolist() if not kernel_certifies(v)]
        # the shipped mixture's samples are all written by the kernel
        assert all(map(kernel_certifies, samples[:20_000].tolist()))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shipped_mixture_file(self, seed, tmp_path, capsys):
        cfg = tmp_path / "mixture.ini"
        cfg.write_text(_SHIPPED_MIXTURE.read_text().replace("seed = 42\n", f"seed = {seed}\n"))
        mixture = load_simulation_config(cfg).mixture
        samples = simulate.sample_mixture(mixture)
        assert mixture.seed == seed and samples.size == 100_000
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data.csv")]) == 0
        assert (tmp_path / "data.csv").read_bytes() == b"value\n" + former_sample_lines(samples)


def _numpy_baseline():
    return np.show_config(mode="dicts").get("SIMD Extensions", {}).get("baseline")


@pytest.mark.skipif(_numpy_baseline() != ["X86_V2"],
                    reason=f"the digests hold for numpy's X86_V2 baseline dispatch; this numpy's baseline is "
                           f"{_numpy_baseline()}")
@pytest.mark.parametrize("config", sorted(SIMULATE_DIGESTS))
def test_simulate_digests_under_baseline_dispatch(config, tmp_path):
    # numpy's SIMD log, exp and tan differ between dispatch targets in the last bit, so
    # the samples are pinned where dispatch is limited to the baseline every such CPU runs
    text = (importlib.resources.files("digitscreen") / "configs" / config).read_text(encoding="utf-8")
    if config.startswith("mixture"):
        text += SIMULATE_MIXTURE_EXPERIMENT
    (tmp_path / config).write_text(text, encoding="utf-8")
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES="X86_V2", PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("DIGITSCREEN_OUT", None)
    run = subprocess.run([sys.executable, "-m", "digitscreen.cli", "simulate", "--config", config, "--out", "data.csv"],
                         capture_output=True, env=env, cwd=tmp_path, timeout=300)
    assert run.stderr == b""
    assert (run.returncode, hashlib.sha256(run.stdout).hexdigest(),
            hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest()) == SIMULATE_DIGESTS[config]


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; the CLI's start-up (setup_s, and the screen wall times) does not pay it
    probe = ("import sys, numpy; before = set(sys.modules); import digitscreen.cli; "
             "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random')))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_public_names_resolve_and_simulate_loads_on_first_use():
    # `__all__` is the one list of public names: each resolves, and `simulate` loads only for a name of it that the
    # package does not already hold
    probe = ("import sys, digitscreen.cli\n"
             "import digitscreen as ds\n"
             "held = [getattr(ds, name) for name in ds.__all__ if name in vars(ds)]\n"
             "print('digitscreen.simulate' in sys.modules)\n"
             "print(sorted({getattr(ds, name).__module__ for name in ds.__all__ if name not in vars(ds)}))\n"
             "try:\n    ds.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "False\n['digitscreen.simulate']\nmodule 'digitscreen' has no attribute 'no_such_name'\n"


def test_cli_import_leaves_simulate_json_and_configparser_unloaded():
    # `screen` never pays for `simulate` or the modules only it and the json report use; the package still
    # hands out the simulate names on first use
    probe = ("import sys; import digitscreen.cli; "
             "print(sorted(m for m in ('digitscreen.simulate', 'configparser', 'json') if m in sys.modules)); "
             "from digitscreen import sample_mixture; print(sample_mixture.__module__)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\ndigitscreen.simulate\n", "")
