"""Rendering of screening results in the standard report layout.

The column order is fixed: m, Median, P(H0|data), p-value, P_lb(H0|data).
Rendering is a pure function of the rows, so repeated runs on the same input
produce byte-identical output.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .inference import TestReport

SCHEMA_VERSION = 1

COLUMNS = ("m", "Median", "P(H0|data)", "p-value", "P_lb(H0|data)")
FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class ReportRow:
    """One result; ``test`` is its label, ``test_name`` the `screen` test it came from (nb1, rnb2, ...)."""

    column: str
    test: str
    report: TestReport
    test_name: str | None = None

    @property
    def label(self) -> str:
        return f"{self.test} {self.column}"


@dataclass(frozen=True)
class ReportError:
    column: str
    test: str
    message: str


@dataclass(frozen=True)
class ReportDocument:
    rows: tuple
    errors: tuple = ()

    def exit_code(self, threshold: float = 0.5) -> int:
        """0 if every posterior clears the threshold, 2 on any rejection, 1 on error."""
        if self.errors:
            return 1
        if any(row.report.posterior_h0 < threshold for row in self.rows):
            return 2
        return 0


def format_ulb(ulb: float | None) -> str:
    return "> 0.5" if ulb is None else f"{ulb:.3f}"


def _median_str(median: int | float) -> str:
    """An int median exactly; a float one as an integer below 2^53, where every integer is a float, else by {:g}."""
    if isinstance(median, int) or (median.is_integer() and abs(median) < 2**53):
        return str(int(median))
    return f"{median:g}"


def _row_cells(row: ReportRow) -> tuple[str, ...]:
    r = row.report
    return (
        row.label,
        str(r.m),
        _median_str(r.median_count),
        f"{r.posterior_h0:.3f}",
        f"{r.p_value:.3f}",
        format_ulb(r.ulb),
    )


def render_text(doc: ReportDocument) -> str:
    header = ("test",) + COLUMNS
    table = [header] + [_row_cells(row) for row in doc.rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = []
    for idx, line in enumerate(table):
        cells = [line[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(line[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
        if idx == 0:
            lines.append("-" * len(lines[0]))
    for row in doc.rows:
        if row.report.small_expected:
            cells = ",".join(str(d) for d in row.report.small_expected)
            lines.append(f"warning: {row.label}: expected count below 5 for digits {cells}")
    for err in doc.errors:
        lines.append(f"error: {err.test} {err.column}: {err.message}")
    return "\n".join(lines) + "\n"


def render_csv(doc: ReportDocument) -> str:
    import csv  # csv and json load only for the format that uses them

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("test",) + COLUMNS)
    for row in doc.rows:
        writer.writerow(_row_cells(row))
    for err in doc.errors:
        writer.writerow((f"{err.test} {err.column}", "error", err.message, "", "", ""))
    return buf.getvalue()


def render_json(doc: ReportDocument) -> str:
    import json

    rows = []
    for row in doc.rows:
        r = row.report
        rows.append(
            {
                "column": row.column,
                "test": row.test,
                "law": r.law,
                "m": r.m,
                "median": r.median_count,
                "chi2": r.chi2,
                "df": r.df,
                "posterior_h0": r.posterior_h0,
                "p_value": r.p_value,
                "ulb": r.ulb,
                "ulb_display": format_ulb(r.ulb),
                "log_b01": r.log_b01 if math.isfinite(r.log_b01) else None,
                "warnings": [f"expected count below 5 for digit {d}" for d in r.small_expected],
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "columns": list(COLUMNS),
        "rows": rows,
        "errors": [{"column": e.column, "test": e.test, "message": e.message} for e in doc.errors],
    }
    return json.dumps(payload, indent=2) + "\n"


def render(doc: ReportDocument, fmt: str) -> str:
    if fmt == "text":
        return render_text(doc)
    if fmt == "csv":
        return render_csv(doc)
    if fmt == "json":
        return render_json(doc)
    raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
