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
_INT32_MAX = 2**31 - 1

# ends the diagnostic of a ragged row, which every selected column shares
_RAGGED = "excluded from every column"

# bytes per block of the plain-table reader: its per-cell index arrays take
# tens of bytes per input byte, so a larger block raises the peak memory, not
# the speed (reading a 500-column table took 7.2 MB at 256 KiB, 2.6 at 64 KiB)
_BLOCK_BYTES = 1 << 16

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
        if self.delimiter is not None and (len(self.delimiter) != 1 or self.delimiter in '"\r\n'):
            raise ValueError("delimiter must be one character other than a quote or a line break, "
                             f"got {self.delimiter!r}")
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
    Vote tallies are integers, so nothing is silently coerced.

    A plain ASCII table is read from its bytes with numpy; any other file
    goes through ``csv`` (see ``_read_plain``). Both readers give the same
    columns, diagnostics and errors.
    """
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


def _cell_count(cell: str) -> int:
    """The count a cell holds; ValueError says why it holds none.

    A leading "-" is read only to name a negative count as such.
    """
    cell = cell.strip()
    if cell.isdigit() and cell.isascii() and cell[0] != "0" and len(cell) < 19:
        return int(cell)  # 1 .. 10^18 - 1, the common case
    negative = cell.startswith("-")
    digits = cell[1:] if negative else cell
    if not (digits.isdigit() and digits.isascii()):
        raise ValueError(f"not an integer: {cell!r}")
    digits = digits.lstrip("0")
    if not digits:
        raise ValueError("zero count excluded")
    if negative:
        raise ValueError(f"negative count -{digits} excluded")
    # 2^63 - 1 has 19 digits; the length test also keeps int() off huge strings
    if len(digits) > 19 or int(digits) > _INT64_MAX:
        raise ValueError(f"count {digits} exceeds the int64 maximum {_INT64_MAX}; excluded")
    return int(digits)


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
            diagnostics = [[] for _ in indices]
            width = len(header)
            for row in rows:
                between = True
                if len(row) != width:
                    diagnostic = f"row {number}: {len(row)} cells where the header has {width}; {_RAGGED}"
                    for col_diagnostics in diagnostics:
                        col_diagnostics.append(diagnostic)
                    continue
                for idx, col_values, col_diagnostics in zip(indices, values, diagnostics):
                    try:
                        col_values.append(_cell_count(row[idx]))
                    except ValueError as exc:
                        col_diagnostics.append(f"{header[idx]}: row {number}: {exc}")
        except csv.Error as exc:  # say, a cell over csv's field size limit
            raise ValueError(f"{path}: row {number}: {exc}") from None
    # each column's array is popped, so it is freed once the column holds its int64 copy
    return [DatasetColumn(header[idx], np.frombuffer(values.pop(0), dtype=np.int64),
                          excluded_count=len(col_diagnostics), diagnostics=tuple(col_diagnostics))
            for idx, col_diagnostics in zip(indices, diagnostics)]


def _read_plain(path, selectors, delimiter: str | None) -> list[DatasetColumn] | None:
    """``ingest`` of a plain ASCII table, read in blocks with numpy; None for any other file.

    A plain table is ASCII after an optional byte-order mark, holds no
    quote, ends every line in ``\\n`` or ``\\r\\n`` (the last line may lack
    it), has no blank or whitespace-only line, and has as many cells in each
    row as in its header; its delimiter is one ASCII character other than a
    digit. Every selected cell of a block is tested at once for 1 to 18 ASCII
    digits without a leading zero, and those cells are read by Horner's rule
    over their digit bytes. Any other cell goes through ``_cell_count``, as
    in ``_read_csv``, so its value or diagnostic is the same. A selector that
    ``_select`` refuses raises the very ValueError that ``_read_csv`` raises.
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
        if len(delim) != 1 or not delim.isascii() or delim.isdigit() or delim in '"\r\n':
            return None
        header, indices = _select(text.split(delim), selectors)  # no quote: csv.reader's row, and its error
        width, cols = len(header), np.array(indices, dtype=np.intp)
        pieces = [[] for _ in indices]
        diagnostics = [[] for _ in indices]
        row = 2  # the file line of a block's first row
        for block in itertools.chain([first[end + 1:]], blocks):
            cells = _plain_cells(block, ord(delim), width, cols)
            if cells is None:
                return None
            values, kept, bad = cells
            for j, i, cell in bad:
                try:
                    values[j, i] = _cell_count(cell)
                    kept[j, i] = True
                except ValueError as exc:
                    diagnostics[j].append(f"{header[indices[j]]}: row {row + i}: {exc}")
            row += values.shape[1]
            if values.max(initial=0) <= _INT32_MAX:
                values = values.astype(np.int32)  # halves the pieces held until each column is joined
            for col_pieces, col_values, col_kept in zip(pieces, values, kept):
                col_pieces.append(col_values[col_kept])
    # each column's pieces are popped, so they are freed once the column is joined
    return [DatasetColumn(header[idx], np.concatenate(pieces.pop(0)), excluded_count=len(col_diagnostics),
                          diagnostics=tuple(col_diagnostics))
            for idx, col_diagnostics in zip(indices, diagnostics)]


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
    """The selected cells of a block of whole rows, as (values, kept, bad); None unless the block is plain.

    ``values`` and ``kept`` are (selected columns x rows) arrays: the count
    of every cell of 1 to 18 digits without a leading zero, and where such
    cells are. ``bad`` lists (column, row, text) for every other cell.
    """
    block = block.replace(b"\r\n", b"\n")
    if b"\r" in block:
        return None  # a lone \r ends a line for _read_csv
    a = np.frombuffer(block, dtype=np.uint8)
    if a.max(initial=0) > 127 or b'"' in block:
        return None
    # digit values after 18 zero bytes, so the 18 bytes before any cell's end can be read
    digits = np.zeros(18 + a.size, dtype=np.uint8)
    np.subtract(a, ord("0"), out=digits[18:])  # wraps below "0", so a non-digit is > 9
    nondigit = np.flatnonzero(digits[18:] > 9)
    byte = a[nondigit]
    lines = np.count_nonzero(byte == 10)
    # every delimiter and newline is a non-digit: bound[k] is the position of
    # the k-th of them and rank[k] its place among the non-digits, after a -1
    # that opens the block; a cell holds only digits when its closing
    # separator directly follows its opening one among the non-digits
    rank = np.concatenate(([-1], np.flatnonzero((byte == delim) | (byte == 10))))
    bound = np.concatenate(([-1], nondigit[rank[1:]]))
    # rectangular: each row is width - 1 delimiters, then its newline
    if rank.size != lines * width + 1 or (a[bound[width::width]] != 10).any():
        return None
    # a line's bytes run from the previous line's newline (or the opening -1) to its own
    newline = bound[width::width]
    line_bytes = newline - bound[:-1:width]
    # only a line without digits can be whitespace only, which _read_csv skips
    digitless = np.flatnonzero(line_bytes == rank[width::width] - rank[:-1:width])
    if any(not block[end - n + 1:end].decode().strip()
           for end, n in zip(newline[digitless].tolist(), line_bytes[digitless].tolist())):
        return None
    opening = np.arange(lines) * width + cols[:, None]  # the boundary before each selected cell
    start, nondigits = bound[opening] + 1, rank[opening + 1] - rank[opening]
    stop = bound[opening + 1]
    length = stop - start
    ok = (nondigits == 1) & (length > 0) & (length < 19) & (a[start] != ord("0"))
    where = np.nonzero(~ok)
    bad = [(j, i, block[s:e].decode()) for j, i, s, e in zip(*(w.tolist() for w in where), start[where].tolist(),
                                                             stop[where].tolist())]
    length[~ok] = 0
    # Horner's rule, right-aligned: the positions before a shorter cell's first digit add zeros
    values = np.zeros(ok.shape, dtype=np.int64)
    longest = int(length.max(initial=0))
    at = stop + 18 - longest
    for p in range(longest, 0, -1):
        values *= 10
        values += np.take(digits, at) * (length >= p)
        at += 1
    return values, ok, bad


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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="digitscreen", description=__doc__.splitlines()[0])
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
    tests = tuple(t.strip() for t in args.tests.split(",")) if args.tests else (
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
    if args.proportions:
        _check_file_names([col.name for col in columns])
    # a ragged row's diagnostic, which every column shares, is printed with the first column's; one write for all
    sys.stderr.write("".join(f"diagnostic: {diag}\n" for i, col in enumerate(columns) for diag in col.diagnostics
                             if i == 0 or not diag.endswith(_RAGGED)))
    doc = run_screening(config, columns)
    rendered = render(doc, config.output_format)
    if args.out:
        out = resolve_out(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    if args.proportions and doc.rows:
        outdir = resolve_out(args.proportions)
        outdir.mkdir(parents=True, exist_ok=True)
        fmt = "json" if config.output_format == "json" else "csv"
        templates = {test: proportions_template(law, fmt) for test, law in zip(config.tests, config.laws)}
        prefix = os.path.join(outdir, "")  # the directory and one separator, to which each file name is appended
        for row in doc.rows:
            write_proportions(templates[row.test_name], f"{prefix}{row.column}_{row.test_name}.{fmt}",
                              row.report.counts)
    return doc.exit_code(config.threshold)


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
    out = resolve_out(args.out) if args.out else None
    sys.stdout.write(run_simulation(job, out, args.format))
    return 0


def _cmd_laws(args) -> int:
    sys.stdout.write(render_law_table(args.table))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
