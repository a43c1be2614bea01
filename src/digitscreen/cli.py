"""Command-line surface: ingest count tables, screen columns against digit
laws, print law tables, and run simulations.

Exit codes from `screen`: 0 when every screening's posterior clears the
threshold, 2 when any screening rejects, 1 on error, so the tool can gate
pipelines. Relative output paths resolve against $DIGITSCREEN_OUT when set.
"""

from __future__ import annotations

import argparse
import codecs
import itertools
import os
import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .digits import EXCLUDE_SHORT, POLICIES, CountVector, DatasetColumn
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

# why ingest excludes a cell, or a whole row, indexed by reason code
REASONS = ("not-an-integer", "zero", "negative", "over-int64", "ragged")
_NOT_INTEGER, _ZERO, _NEGATIVE, _OVER_INT64, _RAGGED_ROW = range(len(REASONS))
# diagnostics shown per (column, reason); the rest of a reason's are counted in one line
_SHOWN = 10

# bytes per block of the plain-table reader: its per-cell index arrays take
# about 20 bytes per input byte, so a larger block raises the peak memory, and
# a smaller one pays its fixed numpy calls more often (at 64 KiB, reading a
# 500-column table took 2.5 MB at its peak, at 128 KiB 2.9, and 250 000 rows
# of 4 columns 8 % longer)
_BLOCK_BYTES = 1 << 17

# samples per block written by `simulate --out`
_SAMPLE_BLOCK = 1 << 14

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

    Selectors are header names or 0-based ASCII indices, each naming a
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
    exclusion has a reason in REASONS; a column counts its exclusions by
    reason and keeps the first 10 diagnostics of each, in file order.

    A plain ASCII table is read from its bytes with numpy; any other file
    goes through ``csv`` (see ``_read_plain``). Both readers give the same
    columns, diagnostics and errors.
    """
    if delimiter is not None and (len(delimiter) != 1 or delimiter in '"\r\n'):
        raise ValueError(f"delimiter must be one character other than a quote or a line break, got {delimiter!r}")
    columns = _read_plain(path, selectors, delimiter)
    return _read_csv(path, selectors, delimiter) if columns is None else columns


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

    A leading "-" is read only to name a negative count as such.
    """
    cell = cell.strip()
    if cell.isdigit() and cell.isascii() and cell[0] != "0" and len(cell) < 19:
        return int(cell)  # 1 .. 10^18 - 1, the common case
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


def _ingested(name: str, values: np.ndarray, counts, diagnostics: list, reasons: list) -> DatasetColumn:
    """The column of an int64 array that ingest built, with its exclusion count per reason code and shown diagnostics."""
    by_reason = {REASONS[r]: count for r, count in enumerate(counts) if count}
    return DatasetColumn(name, values, excluded_count=sum(by_reason.values()), diagnostics=diagnostics,
                         reasons=[REASONS[r] for r in reasons], excluded_by_reason=by_reason, adopt=True)


def _read_csv(path, selectors, delimiter: str | None) -> list[DatasetColumn]:
    """``ingest`` through the csv module: any UTF-8 file, quoted cells and ragged rows included.

    The file is read one line at a time and its counts are kept in int64
    arrays, so no more than one row's text is held at once.
    """
    import csv  # only a file that is not a plain table pays its import

    # universal newlines turn \r\n and \r into \n, the only line end split on; a byte that is not UTF-8 is
    # read as a lone surrogate, so that its line can be named
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        number = 0  # the file line of the last line read: a row is numbered by the line it ends on
        between = True  # no record begun: a blank line here is skipped, where inside a quoted cell it is kept

        def row_lines():
            """The file's lines but the blank ones between rows, each with its line end, which a quoted cell keeps."""
            nonlocal number, between
            for i, line in enumerate(fh, start=1):
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
        rows = csv.reader(itertools.chain([first], lines), delimiter=delimiter or _detect_delimiter(first))
        try:
            row = next(rows)
            found = _detect_delimiter(rows.dialect.delimiter.join(row))  # on the header's record, all its lines
            if delimiter is None and found != rows.dialect.delimiter:
                return _read_csv(path, selectors, found)
            header, indices = _select(row, selectors)
            between = True
            values = [array("q") for _ in indices]
            counts = [[0] * len(REASONS) for _ in indices]
            diagnostics = [[] for _ in indices]
            reasons = [[] for _ in indices]
            width = len(header)
            for row in rows:
                between = True
                if len(row) != width:
                    diagnostic = f"row {number}: {len(row)} cells where the header has {width}; {_RAGGED}"
                    for col_counts, col_diagnostics, col_reasons in zip(counts, diagnostics, reasons):
                        col_counts[_RAGGED_ROW] += 1
                        if col_counts[_RAGGED_ROW] <= _SHOWN:
                            col_diagnostics.append(diagnostic)
                            col_reasons.append(_RAGGED_ROW)
                    continue
                for idx, col_values, col_counts, col_diagnostics, col_reasons in zip(indices, values, counts,
                                                                                     diagnostics, reasons):
                    try:
                        col_values.append(_cell_count(row[idx]))
                    except _Excluded as exc:
                        col_counts[exc.reason] += 1
                        if col_counts[exc.reason] <= _SHOWN:
                            col_diagnostics.append(f"{header[idx]}: row {number}: {exc}")
                            col_reasons.append(exc.reason)
        except csv.Error as exc:  # say, a cell over csv's field size limit
            raise ValueError(f"{path}: row {number}: {exc}") from None
    return [_ingested(header[idx], np.frombuffer(col_values, dtype=np.int64), *tally)
            for idx, col_values, *tally in zip(indices, values, counts, diagnostics, reasons)]


def _read_plain(path, selectors, delimiter: str | None) -> list[DatasetColumn] | None:
    """``ingest`` of a plain ASCII table, read in blocks with numpy; None for any other file.

    A plain table is ASCII after an optional byte-order mark, holds no
    quote, ends every line in ``\\n`` or ``\\r\\n`` (the last line may lack
    it), has no blank or whitespace-only line, and has as many cells in each
    row as in its header; its delimiter is one ASCII character other than a
    digit. ``_plain_cells`` reads and sorts the cells of each block at once,
    to the values and reasons that ``_cell_count`` gives in ``_read_csv``.
    Each column's counts go into one int64 array, which the first block
    sizes, which grows geometrically, and which is handed to its
    DatasetColumn. A cell's text is decoded only for a diagnostic that is
    shown, whose message ``_cell_count`` writes. A selector that ``_select``
    refuses raises the very ValueError that ``_read_csv`` raises.
    """
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh)
        first = next(blocks, b"").removeprefix(codecs.BOM_UTF8)
        end = first.find(b"\n")
        line = first[:end].removesuffix(b"\r")
        if end < 0 or not line.isascii() or b'"' in line or b"\r" in line or not line.decode().strip():
            return None
        text = line.decode()
        delim = delimiter or _detect_delimiter(text)
        if not delim.isascii() or delim.isdigit():
            return None
        header, indices = _select(text.split(delim), selectors)  # no quote: csv.reader's row, and its error
        width, cols = len(header), np.array(indices, dtype=np.intp)
        stored = []  # each column's int64 array
        sizes = np.zeros(len(indices), dtype=np.int64)  # the values stored so far, at the start of each array
        counts = np.zeros((len(indices), len(REASONS)), dtype=np.int64)
        diagnostics = [[] for _ in indices]
        reasons = [[] for _ in indices]
        row = 2  # the file line of a block's first row
        for block in itertools.chain([first[end + 1:]], blocks):
            if b"\r" in block:  # the copy is paid only by a block that holds a \r
                block = block.replace(b"\r\n", b"\n")
            cells = _plain_cells(block, ord(delim), width, cols)
            if cells is None:
                return None
            values, kept, (col, at, reason, start, stop) = cells
            if not stored:  # the first block sizes the first allocation
                stored = [np.empty(values.shape[1], dtype=np.int64) for _ in indices]
            ends = sizes + np.count_nonzero(kept, axis=1)
            for j in np.flatnonzero(ends > [col_values.size for col_values in stored]).tolist():
                # doubled while small, where each resize call costs most; a quarter more once large, where the
                # room that resize zero-fills, and no value may use, costs most
                room = stored[j].size
                stored[j].resize(max(ends[j], 2 * room if room < 1 << 16 else room * 5 // 4), refcheck=False)
            for col_stored, col_values, col_kept, n, end in zip(stored, values, kept, sizes.tolist(), ends.tolist()):
                col_stored[n:end] = col_values[col_kept]
            sizes = ends
            # only a (column, reason) with fewer than _SHOWN exclusions before this block has diagnostics to show
            for k in np.flatnonzero(counts[col, reason] < _SHOWN).tolist():
                j, r = int(col[k]), int(reason[k])
                if reasons[j].count(r) < _SHOWN:
                    try:
                        _cell_count(block[start[k]:stop[k]].decode())
                    except _Excluded as exc:
                        diagnostics[j].append(f"{header[indices[j]]}: row {row + int(at[k])}: {exc}")
                        reasons[j].append(r)
            np.add.at(counts, (col, reason), 1)
            row += values.shape[1]
    for col_values, size in zip(stored, sizes.tolist()):
        col_values.resize(size, refcheck=False)
    return [_ingested(header[idx], *tally) for idx, *tally in zip(indices, stored, counts.tolist(), diagnostics,
                                                                   reasons)]


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
    """The selected cells of a block of whole rows ending in ``\\n``, sorted by array tests; None unless it is plain.

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
    ``_cell_count``, as in ``_read_csv``.
    """
    if b"\r" in block or b'"' in block or not block.isascii():
        return None  # a lone \r ends a line for _read_csv, and a quote or a non-ASCII byte needs it too
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
    """A CSV file of the header line, then each block of whole lines; csv.writer would quote none of its cells."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(blocks)


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
            # blocks bound the joined text of the samples' shortest round-trip decimals
            _write_table(out_path, "value", ("\n".join(map(repr, samples[i:i + _SAMPLE_BLOCK].tolist())) + "\n"
                                            for i in range(0, samples.size, _SAMPLE_BLOCK)))
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
            _write_table(out_path, "unit,candidate_a,candidate_b", (f"{j},{a},{b}\n" for j, (a, b) in enumerate(units)))
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
