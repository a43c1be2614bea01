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

from .digits import EXCLUDE_SHORT, POLICIES, DatasetColumn, digit_frequencies, joint_frequencies
from .inference import HypothesisPrior, screen
from .laws import DigitDistribution, law_from_name
from .report import FORMATS, ReportDocument, ReportError, ReportRow, render
from . import simulate as sim

OUTPUT_DIR_ENV = "DIGITSCREEN_OUT"

DEFAULT_THRESHOLD = 0.5

_DELIMITERS = (",", ";", "\t")

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

    Selectors are header names or 0-based indices. Cells that are not
    positive integers are excluded with a per-row diagnostic; vote tallies
    are integers, so nothing is silently coerced.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty input file: {path}")
    delim = delimiter or _detect_delimiter(lines[0])
    reader = csv.reader(lines, delimiter=delim)
    rows = list(reader)
    header = [h.strip() for h in rows[0]]
    data_rows = rows[1:]
    colmap = {name: idx for idx, name in enumerate(header)}

    indices = []
    for sel in selectors:
        if sel in colmap:
            indices.append((sel, colmap[sel]))
        elif sel.isdigit() and int(sel) < len(header):
            indices.append((header[int(sel)], int(sel)))
        else:
            raise ValueError(f"column {sel!r} not found; available headers: {', '.join(header)}")

    columns = []
    for name, idx in indices:
        values = []
        excluded = 0
        diagnostics = []
        for rownum, row in enumerate(data_rows, start=2):
            cell = row[idx].strip() if idx < len(row) else ""
            try:
                value = int(cell)
            except ValueError:
                excluded += 1
                diagnostics.append(f"{name}: row {rownum}: not an integer: {cell!r}")
                continue
            if value < 1:
                excluded += 1
                reason = "zero count" if value == 0 else f"negative count {value}"
                diagnostics.append(f"{name}: row {rownum}: {reason} excluded")
                continue
            values.append(value)
        columns.append(DatasetColumn(name, tuple(values), excluded_count=excluded, diagnostics=tuple(diagnostics)))
    return columns


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
                rows.append(ReportRow(col.name, label, screen(col, law, prior, config.policy)))
            except (ValueError, RuntimeError) as exc:
                errors.append(ReportError(col.name, label, str(exc)))
    return ReportDocument(rows=tuple(rows), errors=tuple(errors))


def proportions_table(column: DatasetColumn, test: str, upper: int | None = None,
                      lower: int | None = None, policy: str = EXCLUDE_SHORT) -> list[tuple[str, float, float]]:
    """Rows (digit, observed proportion, law probability) for external plotting."""
    law = law_for_test(test, upper, lower)
    if law.joint_k is not None:
        cv = joint_frequencies(column, law.joint_k, policy)
    else:
        cv = digit_frequencies(column, law.digit_index, policy)
    f = cv.proportions()
    return [(digit_label(d), f[d], law.probs[d]) for d in law.domain]


def digit_label(d) -> str:
    """A digit, or a joint digit prefix written as one number ((1, 0) -> "10")."""
    return "".join(map(str, d)) if isinstance(d, tuple) else str(d)


def write_proportions(table, out_path: Path, fmt: str) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = [{"digit": d, "observed": obs, "law": law} for d, obs, law in table]
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return
    with out_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("digit", "observed_proportion", "law_probability"))
        writer.writerows(table)


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
            out_path.parent.mkdir(parents=True, exist_ok=True)
            with out_path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(("value",))
                writer.writerows((repr(float(v)),) for v in samples)
        if job.experiment is not None:
            rows = []
            for law in job.experiment.laws():
                rows.append(ReportRow("samples", law.kind, sim.screen_mixture(samples, law)))
            return render(ReportDocument(rows=tuple(rows)), fmt)
        return ""
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with out_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("unit", "candidate_a", "candidate_b"))
            for j, (a, b) in enumerate(sim.hmpm_unit_counts(job.voting)):
                writer.writerow((j, a, b))
    if job.experiment is not None:
        experiment = sim.conformance_experiment(
            job.voting, job.experiment.laws(), replicates=job.experiment.replicates
        )
        rows = tuple(ReportRow("pooled", res.law, res.pooled) for res in experiment.results)
        return render(ReportDocument(rows=rows), fmt)
    return ""


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
        for test in config.tests:
            for col in columns:
                try:
                    table = proportions_table(col, test, config.upper_bound, config.lower_bound, config.policy)
                except ValueError:
                    continue
                write_proportions(table, outdir / f"{col.name}_{test}.{fmt}", fmt)
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
