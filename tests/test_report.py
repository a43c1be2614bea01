"""Report rendering edge cases."""

import json
import math

import pytest

from digitscreen.inference import TestReport
from digitscreen.report import (
    ReportDocument,
    ReportError,
    ReportRow,
    format_ulb,
    render,
)


def make_report(posterior=0.9, p_value=0.4, ulb=None, log_b01=2.0, median=150):
    return TestReport(
        law="benford-second", m=100, median_count=median, chi2=8.0, df=9,
        p_value=p_value, ulb=ulb, log_b01=log_b01, posterior_h0=posterior,
    )


def doc_with(*rows, errors=()):
    return ReportDocument(rows=tuple(rows), errors=tuple(errors))


def test_format_ulb():
    assert format_ulb(None) == "> 0.5"
    assert format_ulb(0.289) == "0.289"
    assert format_ulb(0.0) == "0.000"


def test_text_renders_flag_and_footnotes():
    rep = TestReport(
        law="benford-second", m=60, median_count=42, chi2=3.0, df=9,
        p_value=0.96, ulb=None, log_b01=5.0, posterior_h0=0.993,
        small_expected=(8, 9),
    )
    text = render(doc_with(ReportRow("north", "NB2", rep)), "text")
    assert "> 0.5" in text
    assert "warning: NB2 north: expected count below 5 for digits 8,9" in text


def test_error_entries_render_everywhere():
    err = ReportError("east", "NB2", "no analyzable values")
    doc = doc_with(ReportRow("north", "NB2", make_report()), errors=[err])
    assert "error: NB2 east: no analyzable values" in render(doc, "text")
    assert "no analyzable values" in render(doc, "csv")
    payload = json.loads(render(doc, "json"))
    assert payload["errors"] == [{"column": "east", "test": "NB2", "message": "no analyzable values"}]


def test_json_handles_infinite_log_bayes_factor():
    rep = make_report(posterior=0.0, p_value=1e-300, ulb=0.0, log_b01=-math.inf)
    payload = json.loads(render(doc_with(ReportRow("x", "NB2", rep)), "json"))
    assert payload["rows"][0]["log_b01"] is None
    assert payload["rows"][0]["posterior_h0"] == 0.0


def test_exit_codes():
    ok = doc_with(ReportRow("a", "NB2", make_report(posterior=0.9)))
    reject = doc_with(ReportRow("a", "NB2", make_report(posterior=0.1)))
    err = doc_with(ReportRow("a", "NB2", make_report(posterior=0.9)),
                   errors=[ReportError("b", "NB2", "boom")])
    assert ok.exit_code() == 0
    assert reject.exit_code() == 2
    assert err.exit_code() == 1
    # threshold is adjustable
    assert reject.exit_code(threshold=0.05) == 0


@pytest.mark.parametrize("posterior", [0.5, 0.1, 1.0])
def test_posterior_at_the_threshold_clears_it(posterior):
    # only a posterior below the threshold rejects
    doc = doc_with(ReportRow("a", "NB2", make_report(posterior=posterior)))
    assert doc.exit_code(threshold=posterior) == 0
    assert doc.exit_code(threshold=math.nextafter(posterior, 2.0)) == 2


def test_median_formatting():
    text = render(doc_with(ReportRow("a", "NB2", make_report(median=973.0))), "text")
    assert " 973 " in text or text.rstrip().endswith("973") or "973" in text.splitlines()[2]


def median_cell(median) -> str:
    return render(doc_with(ReportRow("a", "NB1", make_report(median=median))), "csv").splitlines()[1].split(",")[2]


@pytest.mark.parametrize("median, cell", [
    (973.0, "973"),
    (2.0**53 - 1, "9007199254740991"),
    (2.5, "2.5"),
    # a float at or past 2^53 reads through {:g}: every integer digit of 1.2e304 would be 305 characters
    (2.0**53, "9.0072e+15"),
    (1.2047695701402219e304, "1.20477e+304"),
])
def test_float_median_formatting(median, cell):
    assert median_cell(median) == cell


@pytest.mark.parametrize("median", [2**53, 2**53 + 1, 2**63 - 1])
def test_int_median_prints_every_digit(median):
    # screen's median is the .item() of an int64 count, printed exactly however large
    assert median_cell(median) == str(median)


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown report format"):
        render(doc_with(), "yaml")
