"""Command-line surface: ingest count tables, screen columns against digit
laws, print law tables, and run simulations.

Exit codes from `screen`: 0 when every screening's posterior clears the
threshold, 2 when any screening rejects, 1 on error, so the tool can gate
pipelines. Relative output paths resolve against $DIGITSCREEN_OUT when set.
"""

from __future__ import annotations

import argparse
import codecs
import io
import itertools
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .digits import EXCLUDE_SHORT, POLICIES, REASONS, CountVector, DatasetColumn
from .inference import HypothesisPrior, screen
from .laws import DigitDistribution, distinct_laws, law_from_name
from .report import FORMATS, ReportDocument, ReportError, ReportRow, render

if TYPE_CHECKING:
    from .simulate import SimulationJob

OUTPUT_DIR_ENV = "DIGITSCREEN_OUT"

DEFAULT_THRESHOLD = 0.5

_DELIMITERS = (",", ";", "\t")

_INT64_MAX = 2**63 - 1

# ends the diagnostic of a ragged row, which every selected column shares
_RAGGED = "excluded from every column"

_NOT_INTEGER, _ZERO, _NEGATIVE, _OVER_INT64, _RAGGED_ROW = range(len(REASONS))
# diagnostics shown per (column, reason); the rest of a reason's are counted in one line
_SHOWN = 10

# bytes per block of the plain-table reader: its per-cell index arrays take
# about 20 bytes per input byte, so a larger block raises the peak memory, and
# a smaller one pays its fixed numpy calls more often (at 64 KiB, reading a
# 500-column table took 2.5 MB at its peak, at 128 KiB 2.9, and 250 000 rows
# of 4 columns 8 % longer)
_BLOCK_BYTES = 1 << 17

# samples per block written by `simulate --out`; the kernel's temporaries peak at 1.5 MB for 2**12
_SAMPLE_BLOCK = 1 << 12

# the benchmark's traced replay patches this name, so it stays a module attribute; nothing here calls it
law_for_test = law_from_name


@dataclass(frozen=True)
class ScreenConfig:
    """Everything one `screen` invocation needs."""

    input_path: str
    columns: tuple
    tests: tuple
    upper_bound: int | None = None
    lower_bound: int | None = None
    prior_h0: float = 0.5
    policy: str = EXCLUDE_SHORT
    output_format: str = "text"
    threshold: float = DEFAULT_THRESHOLD
    delimiter: str | None = None
    laws: tuple = field(init=False, repr=False, compare=False)
    prior: HypothesisPrior = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.columns:
            raise ValueError("select at least one column")
        if not self.tests:
            raise ValueError("select at least one test")
        laws = distinct_laws(self.tests, self.upper_bound, self.lower_bound)
        if (self.upper_bound, self.lower_bound) != (None, None) and all(law.restriction is None for law in laws):
            raise ValueError("--bound and --lower apply only to the restricted tests rnb1 and rnb2")
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "prior", HypothesisPrior(self.prior_h0))
        # no posterior lies below a threshold of 0, so the exit-code gate could never fire
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {self.threshold!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown format {self.output_format!r}")


def resolve_out(path: str | Path) -> Path:
    """Resolve an output path, sending relative paths to $DIGITSCREEN_OUT if set."""
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _detect_delimiter(header_line: str) -> str:
    counts = {d: header_line.count(d) for d in _DELIMITERS}
    best = max(counts, key=counts.get)
    return best if counts[best] > 0 else ","


def ingest(path, selectors, delimiter: str | None = None) -> list[DatasetColumn]:
    """Read delimited text with a header row into one column per selector.

    Selectors are strs, header names or 0-based ASCII indices, each naming a
    different column; a name that several header cells share selects
    nothing. The file is UTF-8, with or without a byte-order mark. Only
    ``\\n``, ``\\r\\n`` and ``\\r`` end a line; blank and whitespace-only
    lines between rows are skipped. A cell is a count only when it is ASCII
    decimal digits, at least 1 and below 2^63 (the int64 range of a column);
    every other cell, including ``1_000``, ``+45`` and non-ASCII digits, is
    excluded with a diagnostic naming its line in the file. A row with more
    or fewer cells than the header (say, an unquoted thousands separator) is
    excluded from every column, with one diagnostic shared by all of them.
    Vote tallies are integers, so nothing is silently coerced. Each
    exclusion has a reason in REASONS, counted in ``excluded_by_reason``;
    a column keeps the first 10 diagnostics of each, in file order.

    The file is opened once; a pipe is first copied to a temporary file, so
    that it can be rewound. One scan of its bytes decides whether it is a
    plain ASCII table, read in blocks (see ``_read_plain``); any other file
    goes through ``csv``, which joins the selected cells of each batch of
    rows into such a block (see ``_read_csv``). Both readers sort every
    block's cells with one classifier, ``_plain_cells`` with
    ``_cell_count``, and build their columns with one builder,
    ``_columns``, so they give the same columns, diagnostics and errors.
    """
    if isinstance(selectors, str) or not all(isinstance(sel, str) for sel in selectors):
        raise ValueError(f"selectors must be a list of str, each a header name or a 0-based index, got {selectors!r}")
    if delimiter is not None and (len(delimiter) != 1 or delimiter in '"\r\n'):
        raise ValueError(f"delimiter must be one character other than a quote or a line break, got {delimiter!r}")
    with _seekable(path) as fh:
        columns = _read_plain(fh, path, selectors, delimiter)
        return _read_csv(fh, path, selectors, delimiter) if columns is None else columns


@contextmanager
def _seekable(path):
    """The file at ``path``, open for binary reading; a pipe's bytes are first copied to a temporary file."""
    with open(path, "rb") as fh:
        if fh.seekable():
            yield fh
            return
        with tempfile.TemporaryFile() as spool:
            shutil.copyfileobj(fh, spool)
            spool.seek(0)
            yield spool


def _select(row: list[str], selectors) -> tuple[list[str], list[int]]:
    """The header (its cells stripped) and the column index each selector names."""
    header = [h.strip() for h in row]
    colmap = {}
    for idx, name in enumerate(header):
        colmap.setdefault(name, []).append(idx)
    indices = {}  # insertion-ordered, with constant-time membership
    for sel in selectors:
        matches = colmap.get(sel, ())
        if len(matches) > 1:
            raise ValueError(f"column {sel!r} is ambiguous: header columns {', '.join(map(str, matches))} share "
                             "that name; select one by index")
        if matches:
            idx = matches[0]
        elif sel.isascii() and sel.isdigit() and int(sel) < len(header):
            idx = int(sel)
        else:
            raise ValueError(f"column {sel!r} not found; available headers: " + ", ".join(header).replace("\n", "\\n"))
        if idx in indices:
            raise ValueError(f"column {sel!r} selects column {idx} ({header[idx]!r}) a second time")
        if "\n" in header[idx]:
            raise ValueError(f"column {sel!r} selects header cell {idx} ({header[idx]!r}), whose line break a "
                             "report row cannot show")
        indices[idx] = None
    return header, list(indices)


class _Excluded(ValueError):
    """Why a cell holds no count: the message, and its code in REASONS as ``reason``."""

    def __init__(self, reason: int, message: str):
        super().__init__(message)
        self.reason = reason


def _cell_count(cell: str) -> int:
    """The count a cell holds; _Excluded says why it holds none.

    The cell rule of both readers, whose ``_plain_cells`` calls it only for the cells its array tests cannot sort
    and for the diagnostics shown. A leading "-" is read only to name a negative count as such.
    """
    cell = cell.strip()
    negative = cell.startswith("-")
    digits = cell[1:] if negative else cell
    if not (digits.isdigit() and digits.isascii()):
        raise _Excluded(_NOT_INTEGER, f"not an integer: {cell!r}")
    digits = digits.lstrip("0")
    if not digits:
        raise _Excluded(_ZERO, "zero count excluded")
    if negative:
        raise _Excluded(_NEGATIVE, f"negative count -{digits} excluded")
    # 2^63 - 1 has 19 digits; the length test also keeps int() off huge strings
    if len(digits) > 19 or int(digits) > _INT64_MAX:
        raise _Excluded(_OVER_INT64, f"count {digits} exceeds the int64 maximum {_INT64_MAX}; excluded")
    return int(digits)


def _read_csv(fh, path, selectors, delimiter: str | None) -> list[DatasetColumn]:
    """``ingest`` through the csv module: any UTF-8 file, quoted cells and ragged rows included.

    ``fh`` is the file open for binary reading, which is read from its start, and ``path`` names it in errors. This
    reader owns what only such a file has: csv's records, whose quoted cells may hold delimiters, quotes and line
    breaks; the file line each row ends on, blank lines between rows skipped; the not-UTF-8 error; the delimiter
    found again on the header's whole record; ragged rows; and csv's errors. The selected cells of each batch of
    _BATCH_ROWS rows go to ``_columns`` as one block (see ``_csv_batch``), as a plain table's blocks do; a ragged
    row first sends on the batch before it, so diagnostics keep file order.
    """
    import csv  # only a file that is not a plain table pays its import

    rows, _ = _line_count(fh)
    # universal newlines turn \r\n and \r into \n, the only line end split on; a byte that is not UTF-8 is
    # read as a lone surrogate, so that its line can be named
    text = io.TextIOWrapper(fh, encoding="utf-8-sig", errors="surrogateescape")
    try:
        number = 0  # the file line of the last line read: a row is numbered by the line it ends on
        between = True  # no record begun: a blank line here is skipped, where inside a quoted cell it is kept

        def row_lines():
            """The file's lines but the blank ones between rows, each with its line end, which a quoted cell keeps."""
            nonlocal number, between
            for i, line in enumerate(text, start=1):
                if not between or line.strip():
                    number, between = i, False
                    if not line.isascii():
                        try:
                            line.encode()
                        except UnicodeEncodeError as exc:
                            raise ValueError(f"{path}: row {i}: byte {ord(line[exc.start]) - 0xDC00:#04x} "
                                             "is not UTF-8") from None
                    yield line

        lines = row_lines()
        first = next(lines, None)
        if first is None:
            raise ValueError(f"empty input file: {path}")
        records = csv.reader(itertools.chain([first], lines), delimiter=delimiter or _detect_delimiter(first))
        try:
            row = next(records)
            found = _detect_delimiter(records.dialect.delimiter.join(row))  # on the header's record, all its lines
            if delimiter is None and found != records.dialect.delimiter:
                return _read_csv(fh, path, selectors, found)
            header, indices = _select(row, selectors)
            between = True
            width = len(header)

            def batches():
                """``_columns``' batches of the rows after the header, and the diagnostic of each ragged row."""
                nonlocal between
                picked, numbers = [], []
                for row in records:
                    between = True
                    ragged = len(row) != width
                    if not ragged and indices:  # with no column selected, a row holds nothing to store
                        picked.append([row[idx] for idx in indices])
                        numbers.append(number)
                    if picked and (ragged or len(picked) == _BATCH_ROWS):
                        yield _csv_batch(picked, numbers)
                        picked, numbers = [], []
                    if ragged:
                        yield f"row {number}: {len(row)} cells where the header has {width}; {_RAGGED}"
                if picked:
                    yield _csv_batch(picked, numbers)

            return _columns(path, header, indices, rows, batches())
        except csv.Error as exc:  # say, a cell over csv's field size limit
            raise ValueError(f"{path}: row {number}: {exc}") from None
    finally:
        text.detach()  # the file stays open for ingest, which closes it


# rows per batch of the csv reader, whose cells and sorting arrays are held at once: 250 000 rows of 3 columns read
# as fast at 1 024 to 4 096 rows, with a tracemalloc peak of 6.6, 7.3 and 8.7 MiB at 1 024, 2 048 and 4 096
_BATCH_ROWS = 1 << 11
# what a cell may not hold in a block of comma-joined cells: either changes the block's rows or their width
_UNPLAIN = frozenset(",\n")


def _csv_batch(picked: list[list[str]], lines: list[int]):
    """``_columns``' batch of csv rows, each the list of its selected cells, joined with commas into one block.

    An ASCII block goes to ``_plain_cells`` as it is: a quote there is a byte that makes its cell not an integer, a
    ``\\r`` whitespace that ``_cell_count`` strips. A non-ASCII character may be whitespace that only ``str.strip``
    knows, and a comma or a line break in a cell breaks the block (``_plain_cells`` refuses it, or reads more rows
    than the batch holds): such a batch is joined again with each cell stripped, or "-" where that leaves nothing, a
    comma or a line break, which is not an integer, as that cell is. A diagnostic reads the cell as the row holds it.
    """
    width, cols = len(picked[0]), np.arange(len(picked[0]))
    block = "\n".join(map(",".join, picked)) + "\n"
    cells = _plain_cells(block.encode(), ord(","), width, cols) if block.isascii() else None
    if cells is None or cells[0].shape[1] != len(picked):
        cells = _plain_cells("".join(",".join(cell if cell and _UNPLAIN.isdisjoint(cell) else "-"
                                              for cell in map(str.strip, row)) + "\n" for row in picked).encode(),
                             ord(","), width, cols)
    return cells, lines, lambda j, i, start, stop: picked[i][j]


def _line_count(fh) -> tuple[int, bool]:
    """A binary file's line ends, each ``\\n`` and each ``\\r`` not before a ``\\n``, read from its start, and whether
    it is plain: ASCII after an optional byte-order mark, with no quote and no such ``\\r``.

    No more rows than that follow a header, and this one scan decides which reader runs. The file is left at its start.
    """
    fh.seek(0)
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(0)
    lines, lone, after_cr, plain = 0, 0, False, True
    for chunk in iter(partial(fh.read, _BLOCK_BYTES), b""):
        # numpy's count of a chunk's newlines is about five times as fast as bytes.count's; a \r\n may span two chunks
        lines += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == 10)
        if b"\r" in chunk:
            lone += chunk.count(b"\r") - chunk.count(b"\r\n")
        lone -= after_cr and chunk[0] == 10
        plain = plain and chunk.isascii() and b'"' not in chunk
        after_cr = chunk[-1] == 13
    fh.seek(0)
    return int(lines + lone), plain and not lone


def _read_plain(fh, path, selectors, delimiter: str | None) -> list[DatasetColumn] | None:
    """``ingest`` of a plain ASCII table, read in blocks with numpy; None for any other file.

    ``fh`` is the file open for binary reading at its start, and ``path``
    names it in errors. A plain table is ASCII after an optional byte-order
    mark, holds no quote, and ends every line in ``\\n`` or ``\\r\\n`` (the
    last line may lack it), as the file scan (``_line_count``) finds before
    a block is read; it has no blank or whitespace-only line, and as many
    cells in each row as in its header; its delimiter is one ASCII character
    other than a digit. Its blocks of whole lines go to ``_columns`` as they
    are, as the csv reader's batches do. A selector that ``_select`` refuses
    raises the very ValueError that ``_read_csv`` raises.
    """
    rows, plain = _line_count(fh)
    if not plain:
        return None
    blocks = _line_blocks(fh)
    first = next(blocks, b"").removeprefix(codecs.BOM_UTF8)
    end = first.find(b"\n")
    text = first[:end].removesuffix(b"\r").decode()
    if not text.strip():
        return None
    delim = delimiter or _detect_delimiter(text)
    if not delim.isascii() or delim.isdigit():
        return None
    header, indices = _select(text.split(delim), selectors)  # no quote: csv.reader's row, and its error
    width, cols = len(header), np.array(indices, dtype=np.intp)

    def batches():
        """``_columns``' batches: each block's cells, or None once a block is not plain."""
        row = 2  # the file line of a block's first row
        for block in itertools.chain([first[end + 1:]], blocks):
            if b"\r" in block:  # the copy is paid only by a block that holds a \r
                block = block.replace(b"\r\n", b"\n")
            cells = _plain_cells(block, ord(delim), width, cols)
            if cells is None:
                yield None  # on which _columns returns, and draws no more
            yield cells, range(row, row + cells[0].shape[1]), lambda j, i, start, stop: block[start:stop].decode()
            row += cells[0].shape[1]

    return _columns(path, header, indices, rows, batches())


def _columns(path, header: list[str], indices: list[int], rows: int, batches) -> list[DatasetColumn] | None:
    """The columns that ``indices`` select from ``header``, built from ``batches``; None if the plain reader refuses.

    ``batches`` yields, in file order, a ragged row's diagnostic, which every column counts and shows; None when the
    plain reader finds its file is not plain; or for a batch of rows, (cells, lines, text): ``_plain_cells``' sort
    of its selected cells, the file line of each row, and ``text(j, i, start, stop)``, the text of the cell of column
    j in row i, at block[start:stop], which is read before the next batch is drawn. ``rows`` is the file's line
    count, so each column's counts go into one int64 array of that size, shrunk to its values and adopted by its
    DatasetColumn; more rows mean that the file grew while it was read, an error. Each exclusion is tallied by
    reason in REASONS; the first _SHOWN of each (column, reason) get a diagnostic, whose message ``_cell_count``
    writes from the cell's text, the only text read.
    """
    stored = [np.empty(rows, dtype=np.int64) for _ in indices]
    sizes = np.zeros(len(indices), dtype=np.int64)  # the values stored so far, at the start of each array
    counts = np.zeros((len(indices), len(REASONS)), dtype=np.int64)
    diagnostics = [[] for _ in indices]
    reasons = [[] for _ in indices]
    read = 0  # the rows of the batches so far
    for batch in batches:
        if batch is None:
            return None
        if isinstance(batch, str):
            for j in np.flatnonzero(counts[:, _RAGGED_ROW] < _SHOWN).tolist():
                diagnostics[j].append(batch)
                reasons[j].append(_RAGGED_ROW)
            counts[:, _RAGGED_ROW] += 1
            continue
        (values, kept, (col, at, reason, start, stop)), lines, text = batch
        read += values.shape[1]
        if read > rows:
            raise ValueError(f"{path}: the file grew while it was read")
        ends = sizes + np.count_nonzero(kept, axis=1)
        for col_stored, col_values, col_kept, n, end in zip(stored, values, kept, sizes.tolist(), ends.tolist()):
            col_stored[n:end] = col_values[col_kept]
        sizes = ends
        # only a (column, reason) with fewer than _SHOWN exclusions before this batch has diagnostics to show
        for k in np.flatnonzero(counts[col, reason] < _SHOWN).tolist():
            j, i, r = int(col[k]), int(at[k]), int(reason[k])
            if reasons[j].count(r) < _SHOWN:
                try:
                    _cell_count(text(j, i, start[k], stop[k]))
                except _Excluded as exc:
                    diagnostics[j].append(f"{header[indices[j]]}: row {lines[i]}: {exc}")
                    reasons[j].append(r)
        np.add.at(counts, (col, reason), 1)
    for col_values, size in zip(stored, sizes.tolist()):
        col_values.resize(size, refcheck=False)
    return [DatasetColumn(header[idx], col_values, diagnostics=col_diagnostics,
                          reasons=[REASONS[r] for r in col_reasons], excluded_by_reason=dict(zip(REASONS, col_counts)),
                          adopt=True)
            for idx, col_values, col_counts, col_diagnostics, col_reasons in zip(indices, stored, counts.tolist(),
                                                                                 diagnostics, reasons)]


def _line_blocks(fh):
    """A binary file's bytes in blocks of about _BLOCK_BYTES, each ending in a newline (added if the file lacks it)."""
    parts = []
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*parts, chunk[:cut]])
            parts = []
        parts.append(chunk[cut:])
    if any(parts):
        yield b"".join(parts) + b"\n"


def _plain_cells(block: bytes, delim: int, width: int, cols: np.ndarray):
    """The selected cells of a block of whole ``\\n``-ended rows, sorted by array tests; None for a ragged or blank row.

    Returns (values, kept, excluded). ``values`` and ``kept`` are (selected
    columns x rows) arrays: the count of every cell that holds one, and where
    those cells are. ``excluded`` holds five arrays, the column, row, reason
    code and byte span ``block[start:stop]`` of every other cell, in column
    then row order. An all-digit cell of 1 to 18 bytes is read by Horner's
    rule, leading zeros included, and is kept unless it is 0; "-" before 1 to
    18 digits is negative, or zero when every digit is 0. An empty cell, or
    one with a byte that is neither a digit, "-" nor whitespace to
    ``str.strip``, is not an integer. Only a cell that fits none of these
    (surrounding whitespace, 19 or more digits, "--5") goes through
    ``_cell_count``. Both readers sort their cells here: the plain reader
    its file's blocks, the csv reader each batch of rows that
    ``_csv_batch`` joins into a block, where a quote, ``\\r`` or non-ASCII
    byte is a cell's: the file scan keeps them out of the plain reader's.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    # digit values after 18 zero bytes, so the 18 bytes before any cell's end can be read
    digits = np.zeros(18 + a.size, dtype=np.uint8)
    np.subtract(a, ord("0"), out=digits[18:])  # wraps below "0", so a non-digit is > 9
    nondigit = np.flatnonzero(digits[18:] > 9)
    byte = a[nondigit]
    newline = byte == 10
    lines = np.count_nonzero(newline)
    # every delimiter and newline is a non-digit: bound[k] is the position of
    # the k-th of them and rank[k] its place among the non-digits, after a -1
    # that opens the block, so bound - rank counts the digits before each
    rank = np.concatenate(([-1], np.flatnonzero(newline | (byte == delim))))
    bound = np.concatenate(([-1], nondigit[rank[1:]]))
    del nondigit, byte, newline  # each array is dropped once read, which lowers the peak memory of a block
    # rectangular: each row is width - 1 delimiters, then its newline
    if rank.size != lines * width + 1 or (a[bound[width::width]] != 10).any():
        return None
    # only a line without digits can be whitespace only, which _read_csv skips
    opening, newline = slice(None, -1, width), slice(width, None, width)
    digitless = np.flatnonzero(bound[newline] - rank[newline] == bound[opening] - rank[opening]) * width
    if any(not block[begin + 1:end].decode().strip()
           for begin, end in zip(bound[digitless].tolist(), bound[digitless + width].tolist())):
        return None
    # each selected cell's digits, non-digits (its closing separator among them) and end, as (columns x rows) arrays
    count = np.diff(bound - rank).reshape(lines, width)[:, cols].T
    nondigits = np.diff(rank).reshape(lines, width)[:, cols].T
    del rank
    stop = bound[1:].reshape(lines, width)[:, cols].T
    del bound
    # Horner's rule over a cell's last bytes, as many as it has digits: the whole of an all-digit cell, the
    # digits after a leading "-"; right-aligned, so the positions before a shorter cell's first byte add zeros
    values = np.zeros(count.shape, dtype=np.int64)
    longest = min(int(count.max(initial=0)), 18)
    at = stop  # each cell's end, moved in place to the byte read, and back
    at += 18 - longest
    for p in range(longest, 0, -1):
        values *= 10
        values += np.take(digits, at) * (count >= p)
        at += 1
    at -= 18
    kept = (nondigits == 1) & (count < 19) & (values > 0)
    col, row = np.divmod(np.flatnonzero(~kept), lines)
    nondigits, count, stop, value = (x[col, row] for x in (nondigits, count, stop, values))
    length = nondigits - 1 + count
    start = stop - length
    plain = (count > 0) & (count < 19) & ((nondigits == 1) | (nondigits == 2) & (a[start] == ord("-")))
    reason = np.where(plain, np.where((nondigits == 2) & (value > 0), _NEGATIVE, _ZERO), _NOT_INTEGER)
    open_ = np.flatnonzero(~plain & (length > 0))
    if open_.size:
        # a byte that neither a count, a sign nor str.strip can hold makes the cell not an integer: the open
        # cells' bytes are gathered, one run per cell, and such bytes counted
        size = length[open_]
        ends = np.cumsum(size)
        b = a[np.repeat(start[open_] - ends + size, size) + np.arange(ends[-1])]
        held = (b - ord("0") <= 9) | ((b >= 9) & (b <= 13)) | ((b >= 28) & (b <= 32)) | (b == ord("-"))
        strange = np.concatenate(([0], np.cumsum(~held)))
        for k in open_[strange[ends] == strange[ends - size]].tolist():
            try:
                values[col[k], row[k]] = _cell_count(block[start[k]:stop[k]].decode())
                kept[col[k], row[k]] = True
                reason[k] = -1
            except _Excluded as exc:
                reason[k] = exc.reason
        excluded = reason >= 0
        col, row, reason, start, stop = (x[excluded] for x in (col, row, reason, start, stop))
    return values, kept, (col, row, reason, start, stop)


def test_label(test: str, law: DigitDistribution, upper: int | None, lower: int | None = None) -> str:
    """Report label: the test name, plus the --bound/--lower bounds of a restricted law."""
    if law.restriction is None or upper is None:
        return test.upper()
    bound = f"{lower}:{upper}" if lower is not None else str(upper)
    return f"{test.upper()}({bound})"


def run_screening(config: ScreenConfig, columns: list[DatasetColumn] | None = None) -> ReportDocument:
    """Screen every selected column against every selected test.

    Per-column failures become error entries and the run continues; results
    are ordered by (test, column) following the config, never by timing.
    """
    rows: list[ReportRow] = []
    errors: list[ReportError] = []
    if columns is None:
        columns = ingest(config.input_path, config.columns, config.delimiter)
    for test, law in zip(config.tests, config.laws):
        label = test_label(test, law, config.upper_bound, config.lower_bound)
        for col in columns:
            try:
                rows.append(ReportRow(col.name, label, screen(col, law, config.prior, config.policy), test))
            except (ValueError, RuntimeError) as exc:
                errors.append(ReportError(col.name, label, str(exc)))
    return ReportDocument(rows=tuple(rows), errors=tuple(errors))


def proportions_table(counts: CountVector, law: DigitDistribution) -> list[tuple[str, float, float]]:
    """Rows (digit, observed proportion, law probability) for external plotting."""
    return list(zip(map(digit_label, law.domain), counts.proportions(), law.probs))


def digit_label(d) -> str:
    """A digit, or a joint digit prefix written as one number ((1, 0) -> "10")."""
    return "".join(map(str, d)) if isinstance(d, tuple) else str(d)


def proportions_template(law: DigitDistribution, fmt: str) -> str:
    """The text of one ``proportions_table`` file of ``law``, with a ``%s`` slot for each observed proportion.

    ``fmt`` is "csv" or "json". Filled with the ``repr`` of each of
    ``CountVector.proportions()``, it gives the bytes that ``csv.writer``
    (``repr`` of each float; no digit label needs quoting) or
    ``json.dumps(rows, indent=2)`` write from the table's rows.
    """
    labels = map(digit_label, law.domain)
    if fmt == "json":
        rows = ",\n".join(f'  {{\n    "digit": "{label}",\n    "observed": %s,\n    "law": {p!r}\n  }}'
                          for label, p in zip(labels, law.probs))
        return f"[\n{rows}\n]\n"
    return "digit,observed_proportion,law_probability\n" + "".join(f"{label},%s,{p!r}\n"
                                                                  for label, p in zip(labels, law.probs))


# the flags of a proportions file: created or truncated, and never given Windows newline translation
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


@lru_cache(maxsize=1 << 12)
def _proportion_text(count: int, total: int) -> str:
    """``repr(count / total)``; a screen's files share few distinct (count, total) pairs."""
    return repr(count / total)


def write_proportions(template: str, out_path: str, counts: CountVector) -> None:
    """Write the proportions file of ``counts`` from its law's ``proportions_template``; the directory exists."""
    data = (template % tuple(map(_proportion_text, counts.counts, itertools.repeat(counts.n)))).encode()
    fd = os.open(out_path, _WRITE_FLAGS, 0o666)
    try:
        while data:  # a regular file takes it all in one write
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _write_table(out_path: Path, header: str, blocks) -> None:
    """A CSV file of the header line, then each block of whole lines as bytes; csv.writer would quote no cell."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(blocks)


# the kernel's domain [1e-4, 2**52) as bit patterns, which order positive doubles as their values
_KERNEL_LOW, _KERNEL_HIGH = np.array([1e-4, 2.0**52]).view(np.uint64)
_LOW32 = (1 << 32) - 1
# 10**k, held at 10**17 from k = 17 on: a significand has at most 17 digits
_POW10 = np.array([10 ** min(k, 17) for k in range(21)], dtype=np.uint64)


@cache
def _ryu_tables():
    """Ryu's shift q, decimal scale i and 5**i, indexed by a double's top 12 bits (its sign and biased exponent).

    For x = m * 2**e with an exponent of the kernel's domain, k = 2 - e, q = floor(log10(5**k)) - 1 and i = k - q,
    so 4m * 2**(e - 2) * 10**i is 4m * 5**i / 2**q and the interval around x spans 30 to 400 units of that scale.
    Every other row gets q = 1 and i = 0, which makes its products exact, so it is left to ``repr``.
    """
    q, i, pow5 = np.ones(4096, dtype=np.uint64), np.zeros(4096, dtype=np.int64), np.ones(4096, dtype=np.uint64)
    for biased in range(int(_KERNEL_LOW) >> 52, int(_KERNEL_HIGH) >> 52):
        k = 1077 - biased
        shift = len(str(5**k)) - 2
        q[biased], i[biased], pow5[biased] = shift, k - shift, 5 ** (k - shift)
    return q, i, pow5


def _mul_shift(a, b_lo, b_hi, q):
    """floor(a * b / 2**q), b = b_hi * 2**32 + b_lo, and whether that drops a nonzero remainder.

    The 128-bit product is summed from the products of 32-bit halves in uint64, exact for a < 2**56 and b < 2**52;
    the quotient must be below 2**64 and 1 <= q < 64.
    """
    a_lo, a_hi = a & _LOW32, a >> 32
    ll = a_lo * b_lo
    mid = (ll >> 32) + a_lo * b_hi + a_hi * b_lo
    lo = (mid << 32) | (ll & _LOW32)
    hi = a_hi * b_hi + (mid >> 32)
    return (hi << (64 - q)) | (lo >> q), (lo & ((1 << q) - 1)) != 0


def _repr_lines(block: np.ndarray) -> bytes:
    """``repr`` of each value of a float64 block, one a line, as bytes.

    Ryu's shortest-digit loop (Adams, PLDI 2018) in exact integer arithmetic over the whole block. For x = m * 2**e
    read from its bits, vr, vp and vm are floor((4m, 4m + 2, 4m - 1 - [m is not a power of two]) * 5**i / 2**q): x
    and the ends of the interval that reads back as x, scaled by 10**i. Digits are dropped while the interval holds
    a multiple of ten; the last one kept is raised by one when the first dropped is 5 or more, or when it equals
    the lower end. That is repr's shortest decimal closest to x wherever the kernel certifies it:

    - x lies in [1e-4, 2**52). repr writes smaller values and those from 1e16 in exponent notation, and every
      double from 2**52 on is an integer, written with ".0"; negative values, zeros, subnormals, infinities and nan
      are outside too.
    - vr, vp and vm are all inexact. An exact vr may leave a dropped tail of exactly 5 or 0 after it, which repr
      breaks to even; an exact vp or vm is an end that is itself a decimal at this scale, which reads back as x
      only for an even m.

    Every other value is written by ``repr`` itself. The kernel does no float arithmetic, so its bytes do not
    depend on numpy's CPU dispatch.
    """
    bits = block.view(np.uint64)
    top, fraction = bits >> 52, bits & ((1 << 52) - 1)
    q, scale, pow5 = (table[top] for table in _ryu_tables())
    b_lo, b_hi = pow5 & _LOW32, pow5 >> 32
    mv = (fraction | (1 << 52)) << 2
    vr, vr_inexact = _mul_shift(mv, b_lo, b_hi, q)
    vp, vp_inexact = _mul_shift(mv + 2, b_lo, b_hi, q)
    vm, vm_inexact = _mul_shift(mv - 1 - (fraction != 0), b_lo, b_hi, q)
    # above 2**52, and for the sign bit, the tables make every product exact
    certified = (bits >= _KERNEL_LOW) & vr_inexact & vp_inexact & vm_inexact
    last = np.zeros_like(vr)
    while True:
        vp10, vm10 = vp // 10, vm // 10
        drop = vp10 > vm10
        if not drop.any():
            break
        vr10 = vr // 10
        last = np.where(drop, vr - vr10 * 10, last)
        vr, vp, vm = np.where(drop, vr10, vr), np.where(drop, vp10, vp), np.where(drop, vm10, vm)
        scale = scale - drop
    # the value is d / 10**f; a row left to repr is laid out as "0.0" until it is replaced
    d = np.where(certified, vr + ((vr == vm) | (last >= 5)), 0)
    f = np.where(certified, scale, 1)
    # each line right-aligned in a grid row: f digits after the point, at least one before it, then "\n"
    length = np.maximum(np.searchsorted(_POW10, d, side="right"), f + 1) + 1
    width = int(length.max()) + 1
    x = d * 10 - d % _POW10[f] * 9  # d with a 0 where the point goes
    grid = np.empty((d.size, width), dtype=np.uint8)
    for col in range(width - 2, -1, -1):
        x10 = x // 10
        grid[:, col] = x - x10 * 10
        x = x10
    grid += ord("0")
    grid[:, -1] = ord("\n")
    grid[np.arange(d.size), width - 2 - f] = ord(".")
    text = np.compress((np.arange(width) >= width - 1 - length[:, None]).ravel(), grid.ravel()).tobytes()
    # the usual block has no value left to repr: returning it whole skips the split and join below, which cost
    # 13-14 ms per 250 000 samples (on a 2-vCPU Xeon VM), about a fifth of the writer's time
    if certified.all():
        return text
    lines = text.split(b"\n")
    for row in np.flatnonzero(~certified).tolist():
        lines[row] = repr(float(block[row])).encode()
    return b"\n".join(lines)


# ---------------------------------------------------------------------------
# laws subcommand

def render_law_table(name: str) -> str:
    """The law's digits and probabilities, titled by its name (cnb2:800 -> CNB2_800)."""
    try:
        (law,) = distinct_laws([name])
    except ValueError as exc:
        raise ValueError(f"unknown law table {name!r}: {exc}") from None
    title = name.strip().upper().replace(":", "_")
    digits = "  ".join(f"{digit_label(d):>5}" for d in law.domain)
    probs = "  ".join(f"{p:.3f}" for p in law.probs)
    pad = max(len(title), len("digit"))
    return f"{'digit'.ljust(pad)}  {digits}\n{title.ljust(pad)}  {probs}\n"


# ---------------------------------------------------------------------------
# simulate subcommand

def run_simulation(job: SimulationJob, out_path: Path | None, fmt: str) -> str:
    """Write generated data (if requested) and render any experiment report."""
    from . import simulate as sim

    if job.kind == "mixture":
        samples = sim.sample_mixture(job.mixture)
        if out_path is not None:
            _write_table(out_path, "value", (_repr_lines(samples[i:i + _SAMPLE_BLOCK])
                                            for i in range(0, samples.size, _SAMPLE_BLOCK)))
        samples.sort()  # in place, once the CSV holds them in draw order: each law screens them without a copy
        laws = job.experiment.laws if job.experiment is not None else ()
        rows = tuple(ReportRow("samples", law.kind, sim.screen_mixture(samples, law)) for law in laws)
    else:
        experiment = None
        if job.experiment is not None:
            experiment = sim.conformance_experiment(job.voting, job.experiment.laws,
                                                    replicates=job.experiment.replicates)
        if out_path is not None:
            # the experiment's replicate 0 is this very run of the model
            units = experiment.units if experiment else sim.hmpm_unit_counts(job.voting)
            _write_table(out_path, "unit,candidate_a,candidate_b",
                         (f"{j},{a},{b}\n".encode() for j, (a, b) in enumerate(units)))
        rows = tuple(ReportRow("pooled", res.law, res.pooled) for res in experiment.results) if experiment else ()
    return "" if job.experiment is None else render(ReportDocument(rows=rows), fmt)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as every error does: 2 means that a screening rejected
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="digitscreen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_screen = sub.add_parser("screen", help="screen count columns against digit laws")
    p_screen.add_argument("input", help="delimited text file with a header row")
    p_screen.add_argument("--columns", required=True, help="comma-separated column names or 0-based indices")
    p_screen.add_argument("--tests", default=None, help="comma-separated law names: nb1,nb2,joint2,rnb1,rnb2 "
                                                        "(default: nb2, plus rnb2 when --bound is given)")
    p_screen.add_argument("--bound", type=int, default=None, help="upper bound K for restricted laws")
    p_screen.add_argument("--lower", type=int, default=None, help="optional lower bound for restricted laws")
    p_screen.add_argument("--prior", type=float, default=0.5, help="prior probability of H0 (default 0.5)")
    p_screen.add_argument("--policy", choices=POLICIES, default=EXCLUDE_SHORT)
    p_screen.add_argument("--format", choices=FORMATS, default="text")
    p_screen.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_screen.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                          help="posterior below this rejects (exit status 2)")
    p_screen.add_argument("--delimiter", default=None, help="override the auto-detected delimiter")
    p_screen.add_argument("--proportions", default=None, metavar="DIR",
                          help="also write per-(column,test) digit-proportion tables into DIR")

    p_sim = sub.add_parser("simulate", help="run a configured generator, optionally with an experiment")
    p_sim.add_argument("--config", required=True, help="INI config with [mixture] or [voting_model]")
    p_sim.add_argument("--out", default=None, help="write generated data (CSV) here")
    p_sim.add_argument("--format", choices=FORMATS, default="text")

    p_laws = sub.add_parser("laws", help="print a reference law table")
    p_laws.add_argument("--table", required=True, help="a law name: nb1 | nb2 | joint2 | rnb1:K | rnb2:K (cnb = rnb)")
    return parser


def _cmd_screen(args) -> int:
    tests = tuple(t.strip() for t in args.tests.split(",")) if args.tests is not None else (
        ("nb2", "rnb2") if args.bound is not None else ("nb2",)
    )
    config = ScreenConfig(
        input_path=args.input,
        columns=tuple(c.strip() for c in args.columns.split(",") if c.strip()),
        tests=tests,
        upper_bound=args.bound,
        lower_bound=args.lower,
        prior_h0=args.prior,
        policy=args.policy,
        output_format=args.format,
        threshold=args.threshold,
        delimiter=args.delimiter,
    )
    columns = ingest(config.input_path, config.columns, config.delimiter)
    if args.proportions is not None:
        _check_file_names([col.name for col in columns])
    sys.stderr.write(_diagnostic_lines(columns))
    doc = run_screening(config, columns)
    rendered = render(doc, config.output_format)
    if args.out is not None:
        out = resolve_out(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    if args.proportions is not None and doc.rows:
        outdir = resolve_out(args.proportions)
        outdir.mkdir(parents=True, exist_ok=True)
        fmt = "json" if config.output_format == "json" else "csv"
        templates = {test: proportions_template(law, fmt) for test, law in zip(config.tests, config.laws)}
        prefix = os.path.join(outdir, "")  # the directory and one separator, to which each file name is appended
        for row in doc.rows:
            write_proportions(templates[row.test_name], f"{prefix}{row.column}_{row.test_name}.{fmt}",
                              row.report.counts)
    return doc.exit_code(config.threshold)


def _diagnostic_lines(columns: list[DatasetColumn]) -> str:
    """stderr's diagnostics: each column's shown ones, then a count line per reason with more than were shown.

    A ragged row's diagnostic, which every column shares, is printed with the first column's.
    """
    ragged = REASONS[_RAGGED_ROW]
    lines = []
    for i, col in enumerate(columns):
        lines += [f"diagnostic: {diag}\n" for diag, reason in zip(col.diagnostics, col.reasons)
                  if i == 0 or reason != ragged]
        for reason, count in col.excluded_by_reason.items():
            if count <= _SHOWN:
                continue
            if reason != ragged:
                lines.append(f"diagnostic: {col.name}: {count - _SHOWN} more {reason} cells ({count} in all)\n")
            elif i == 0:
                lines.append(f"diagnostic: {count - _SHOWN} more ragged rows ({count} in all); {_RAGGED}\n")
    return "".join(lines)


def _check_file_names(names: list[str]) -> None:
    """Refuse column names that cannot name --proportions files: shared, or holding a path separator or a null byte."""
    if len(set(names)) < len(names):
        shared = next(name for name in names if names.count(name) > 1)
        raise ValueError(f"--proportions names its files by column, and {shared!r} names more than one "
                         "selected column")
    separators = {"/", os.sep, os.altsep} - {None}
    for name in names:
        if separators.intersection(name):
            raise ValueError(f"--proportions names its files by column, and the column name {name!r} holds a "
                             "path separator")
        if "\0" in name:
            raise ValueError(f"--proportions names its files by column, and the column name {name!r} holds a "
                             "null byte")


def _cmd_simulate(args) -> int:
    from . import simulate as sim  # only `simulate` pays its import and configparser's

    job = sim.load_simulation_config(args.config)
    out = resolve_out(args.out) if args.out is not None else None
    sys.stdout.write(run_simulation(job, out, args.format))
    return 0


def _cmd_laws(args) -> int:
    sys.stdout.write(render_law_table(args.table))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("out", "proportions"):  # an empty path would read as the flag not given
            if getattr(args, flag, None) == "":
                raise ValueError(f"--{flag} needs a path, got ''")
        if args.command == "screen":
            return _cmd_screen(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_laws(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
