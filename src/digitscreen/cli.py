"""Command-line surface: ingest count tables, screen columns against digit
laws, print law tables, and run simulations.

Exit codes from `screen`: 0 when every screening's posterior clears the
threshold, 2 when any screening rejects, 1 on error, so the tool can gate
pipelines. Relative output paths resolve against $DIGITSCREEN_OUT when set.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .digits import EXCLUDE_SHORT, POLICIES, CountVector, DatasetColumn
from .inference import HypothesisPrior, screen
from .laws import DigitDistribution, law_from_name
from .report import FORMATS, ReportDocument, ReportError, ReportRow, render
from . import simulate as sim

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

# the benchmark's traced replay patches this name, so it stays a module attribute
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

    def __post_init__(self):
        if not self.columns:
            raise ValueError("select at least one column")
        if not self.tests:
            raise ValueError("select at least one test")
        laws = tuple(law_for_test(t, self.upper_bound, self.lower_bound) for t in self.tests)
        if (self.upper_bound, self.lower_bound) != (None, None) and all(law.restriction is None for law in laws):
            raise ValueError("--bound and --lower apply only to the restricted tests rnb1 and rnb2")
        object.__setattr__(self, "laws", laws)
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
    lines are skipped. A cell is a count only when it is ASCII decimal
    digits, at least 1 and below 2^63 (the int64 range of a column); every
    other cell, including ``1_000``, ``+45`` and non-ASCII digits, is
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
            raise ValueError(f"column {sel!r} not found; available headers: {', '.join(header)}")
        if idx in indices:
            raise ValueError(f"column {sel!r} selects column {idx} ({header[idx]!r}) a second time")
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
    """``ingest`` through the csv module: any UTF-8 file, quoted cells and ragged rows included."""
    # universal newlines turn \r\n and \r into \n, the only line end split on
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    # blank lines are skipped, but a row is numbered by the file line it ends on
    numbers = [n for n, ln in enumerate(lines, start=1) if ln.strip()]
    if not numbers:
        raise ValueError(f"empty input file: {path}")
    delim = delimiter or _detect_delimiter(lines[numbers[0] - 1])
    reader = csv.reader([lines[n - 1] for n in numbers], delimiter=delim)
    rows = _csv_rows(reader, numbers, path)
    header, indices = _select(next(rows), selectors)

    # one pass over the rows, which are never all held at once
    values = [[] for _ in indices]
    diagnostics = [[] for _ in indices]
    width = len(header)
    for row in rows:
        if len(row) != width:
            diagnostic = (f"row {numbers[reader.line_num - 1]}: {len(row)} cells where the header has {width}; "
                          f"{_RAGGED}")
            for col_diagnostics in diagnostics:
                col_diagnostics.append(diagnostic)
            continue
        for idx, col_values, col_diagnostics in zip(indices, values, diagnostics):
            try:
                col_values.append(_cell_count(row[idx]))
            except ValueError as exc:
                col_diagnostics.append(f"{header[idx]}: row {numbers[reader.line_num - 1]}: {exc}")
    return [DatasetColumn(header[idx], np.array(col_values, dtype=np.int64), excluded_count=len(col_diagnostics),
                          diagnostics=tuple(col_diagnostics))
            for idx, col_values, col_diagnostics in zip(indices, values, diagnostics)]


def _csv_rows(reader, numbers: list[int], path):
    """The reader's rows; its error on a row (say, a cell over csv's field size limit) is a ValueError naming the
    file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: row {numbers[reader.line_num - 1]}: {exc}") from None


def _read_plain(path, selectors, delimiter: str | None) -> list[DatasetColumn] | None:
    """``ingest`` of a plain ASCII table, read in blocks with numpy; None for any other file.

    A plain table is ASCII after an optional byte-order mark, holds no
    quote, ends every line in ``\\n`` or ``\\r\\n`` (the last line may lack
    it), has no blank or whitespace-only line, and has as many cells in each
    row as in its header; its delimiter is one ASCII character other than a
    digit. Every selected cell of a block is tested at once for 1 to 18 ASCII
    digits without a leading zero, and those cells are read by Horner's rule
    over their digit bytes. Any other cell goes through ``_cell_count``, as
    in ``_read_csv``, so its value or diagnostic is the same.
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
        try:  # the line holds no quote, so splitting it gives csv.reader's row
            header, indices = _select(text.split(delim), selectors)
        except ValueError:
            return None  # _read_csv raises it, after any error reading the rest of the file
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
    return [DatasetColumn(header[idx], _joined(col_pieces), excluded_count=len(col_diagnostics),
                          diagnostics=tuple(col_diagnostics))
            for idx, col_pieces, col_diagnostics in zip(indices, pieces, diagnostics)]


def _joined(pieces: list) -> np.ndarray:
    """The pieces (never none) as one array; emptying the list frees each column's pieces once it is joined."""
    values = np.concatenate(pieces)
    pieces.clear()
    return values


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
    a = np.frombuffer(block, dtype=np.uint8)
    if a.max(initial=0) > 127 or b'"' in block:
        return None
    # digit values after 18 zero bytes, so the 18 bytes before any cell's end can be read
    digits = np.zeros(18 + a.size, dtype=np.uint8)
    np.subtract(a, ord("0"), out=digits[18:])  # wraps below "0", so a non-digit is > 9
    nondigit = np.flatnonzero(digits[18:] > 9)
    byte = a[nondigit]
    if b"\r" in block and (a[nondigit[byte == 13] + 1] != 10).any():
        return None  # a lone \r ends a line for _read_csv
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
    if b"\r" in block:
        # a \r\n row's last cell ends before its \r, which counts as one more non-digit
        crlf = a[newline - 1] == 13
        last = cols == width - 1
        stop[last] -= crlf
        nondigits[last] -= crlf
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
    prior = HypothesisPrior(config.prior_h0)
    for test, law in zip(config.tests, config.laws):
        label = test_label(test, law, config.upper_bound, config.lower_bound)
        for col in columns:
            try:
                rows.append(ReportRow(col.name, label, screen(col, law, prior, config.policy), test))
            except (ValueError, RuntimeError) as exc:
                errors.append(ReportError(col.name, label, str(exc)))
    return ReportDocument(rows=tuple(rows), errors=tuple(errors))


def proportions_table(counts: CountVector, law: DigitDistribution) -> list[tuple[str, float, float]]:
    """Rows (digit, observed proportion, law probability) for external plotting."""
    return list(zip(map(digit_label, law.domain), counts.proportions(), law.probs))


def digit_label(d) -> str:
    """A digit, or a joint digit prefix written as one number ((1, 0) -> "10")."""
    return "".join(map(str, d)) if isinstance(d, tuple) else str(d)


def write_proportions(table, out_path: Path, fmt: str) -> None:
    if fmt == "json":
        out_path.parent.mkdir(parents=True, exist_ok=True)
        payload = [{"digit": d, "observed": obs, "law": law} for d, obs, law in table]
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        _write_csv(out_path, ("digit", "observed_proportion", "law_probability"), table)


def _write_csv(out_path: Path, header: tuple, rows) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_samples(out_path: Path, samples: np.ndarray) -> None:
    """A one-column CSV of the samples' shortest round-trip decimals, as csv.writer writes them."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("value\n")
        # blocks bound the joined text; a float's repr never needs csv quoting
        for start in range(0, samples.size, _SAMPLE_BLOCK):
            fh.write("\n".join(map(repr, samples[start:start + _SAMPLE_BLOCK].tolist())) + "\n")


# ---------------------------------------------------------------------------
# laws subcommand

def render_law_table(name: str) -> str:
    """The law's digits and probabilities, titled by its name (cnb2:800 -> CNB2_800)."""
    try:
        law = law_for_test(name)
    except ValueError as exc:
        raise ValueError(f"unknown law table {name!r}: {exc}") from None
    title = name.strip().upper().replace(":", "_")
    digits = "  ".join(f"{digit_label(d):>5}" for d in law.domain)
    probs = "  ".join(f"{p:.3f}" for p in law.probs)
    pad = max(len(title), len("digit"))
    return f"{'digit'.ljust(pad)}  {digits}\n{title.ljust(pad)}  {probs}\n"


# ---------------------------------------------------------------------------
# simulate subcommand

def run_simulation(job: sim.SimulationJob, out_path: Path | None, fmt: str) -> str:
    """Write generated data (if requested) and render any experiment report."""
    if job.kind == "mixture":
        samples = sim.sample_mixture(job.mixture)
        if out_path is not None:
            _write_samples(out_path, samples)
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
            _write_csv(out_path, ("unit", "candidate_a", "candidate_b"), ((j, a, b) for j, (a, b) in enumerate(units)))
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
    names = [col.name for col in columns]
    if args.proportions and len(set(names)) < len(names):
        shared = next(name for name in names if names.count(name) > 1)
        raise ValueError(f"--proportions names its files by column, and {shared!r} names more than one "
                         "selected column")
    # a ragged row's diagnostic, which every column shares, is printed with the first column's
    for i, col in enumerate(columns):
        for diag in col.diagnostics:
            if i == 0 or not diag.endswith(_RAGGED):
                print(f"diagnostic: {diag}", file=sys.stderr)
    doc = run_screening(config, columns)
    rendered = render(doc, config.output_format)
    if args.out:
        out = resolve_out(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    if args.proportions:
        outdir = resolve_out(args.proportions)
        fmt = "json" if config.output_format == "json" else "csv"
        laws = dict(zip(config.tests, config.laws))
        for row in doc.rows:
            table = proportions_table(row.report.counts, laws[row.test_name])
            write_proportions(table, outdir / f"{row.column}_{row.test_name}.{fmt}", fmt)
    return doc.exit_code(config.threshold)


def _cmd_simulate(args) -> int:
    job = sim.load_simulation_config(args.config)
    out = resolve_out(args.out) if args.out else None
    rendered = run_simulation(job, out, args.format)
    if rendered:
        sys.stdout.write(rendered)
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
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
