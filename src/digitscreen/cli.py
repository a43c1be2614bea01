"""Command-line surface: ingest count tables, screen columns against digit
laws, print law tables, and run simulations.

Exit codes from `screen`: 0 when every screening's posterior clears the
threshold, 2 when any screening rejects, 1 on error, so the tool can gate
pipelines. Relative output paths resolve against $DIGITSCREEN_OUT when set.
"""

from __future__ import annotations

import argparse
import csv
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
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold!r}")
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

    Selectors are header names or 0-based indices, each naming a different
    column. The file is UTF-8, with or without a byte-order mark. A cell is a
    count only when it is ASCII decimal digits, at least 1 and below 2^63 (the
    int64 range of a column); every other cell, including ``1_000``, ``+45``
    and non-ASCII digits, is excluded with a diagnostic naming its line in the
    file. Vote tallies are integers, so nothing is silently coerced.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    # blank lines are skipped, but a row is numbered by the file line it ends on
    numbers = [n for n, ln in enumerate(lines, start=1) if ln.strip()]
    if not numbers:
        raise ValueError(f"empty input file: {path}")
    delim = delimiter or _detect_delimiter(lines[numbers[0] - 1])
    reader = csv.reader([lines[n - 1] for n in numbers], delimiter=delim)
    header = [h.strip() for h in next(reader)]
    colmap = {name: idx for idx, name in enumerate(header)}

    indices = []
    for sel in selectors:
        if sel in colmap:
            idx = colmap[sel]
        elif sel.isdigit() and int(sel) < len(header):
            idx = int(sel)
        else:
            raise ValueError(f"column {sel!r} not found; available headers: {', '.join(header)}")
        if idx in indices:
            raise ValueError(f"column {sel!r} selects column {idx} ({header[idx]!r}) a second time")
        indices.append(idx)

    # one pass over the rows, which are never all held at once
    values = [[] for _ in indices]
    diagnostics = [[] for _ in indices]
    for row in reader:
        for idx, col_values, col_diagnostics in zip(indices, values, diagnostics):
            cell = row[idx].strip() if idx < len(row) else ""
            if cell.isdigit() and cell.isascii() and cell[0] != "0" and len(cell) < 19:
                col_values.append(int(cell))  # 1 .. 10^18 - 1, the common case
                continue
            try:
                col_values.append(_parse_count(cell))
            except ValueError as exc:
                col_diagnostics.append(f"{header[idx]}: row {numbers[reader.line_num - 1]}: {exc}")
    return [DatasetColumn(header[idx], np.array(col_values, dtype=np.int64), excluded_count=len(col_diagnostics),
                          diagnostics=tuple(col_diagnostics))
            for idx, col_values, col_diagnostics in zip(indices, values, diagnostics)]


def _parse_count(cell: str) -> int:
    """The count a stripped cell holds; ValueError says why it holds none.

    A leading "-" is read only to name a negative count as such.
    """
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
    f = counts.proportions()
    return [(digit_label(d), f[d], law.probs[d]) for d in law.domain]


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
    probs = "  ".join(f"{law.probs[d]:.3f}" for d in law.domain)
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
    for col in columns:
        for diag in col.diagnostics:
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
