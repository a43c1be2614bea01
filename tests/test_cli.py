"""CLI surface: ingestion, screening reports, exit codes, file outputs."""

import csv
import json

import numpy as np
import pytest

from digitscreen.cli import (
    ScreenConfig,
    ingest,
    main,
    proportions_table,
    render_law_table,
    run_screening,
)
from digitscreen.laws import RestrictionSpec, nbl_first, nbl_joint, nbl_second, restricted_law
from digitscreen.report import COLUMNS, render
from digitscreen.simulate import load_simulation_config

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
    edges = np.cumsum([law.probs[d] for d in law.domain])
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


class TestIngest:
    def test_basic_parse(self, small_csv):
        (col,) = ingest(small_csv, ["north"])
        assert col.values == (2, 1472, 6033)
        assert col.m == 3 and col.excluded_count == 0

    def test_index_selector(self, small_csv):
        (col,) = ingest(small_csv, ["2"])
        assert col.name == "south"
        assert col.values == (9, 358, 2741)

    def test_bad_cell_excluded_with_diagnostic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("unit,v\nA,10\nB,N/A\nC,-4\nD,0\nE,2.5\n")
        (col,) = ingest(path, ["v"])
        assert col.values == (10,)
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
        assert col.values == (12, 34)

    def test_delimiter_override(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("unit|v\nA|12\n")
        (col,) = ingest(path, ["v"], delimiter="|")
        assert col.values == (12,)


class TestRunScreening:
    def test_rows_follow_config_order(self, small_csv):
        config = ScreenConfig(str(small_csv), ("north", "south"), ("nb1", "nb2"))
        doc = run_screening(config)
        labels = [row.label for row in doc.rows]
        assert labels == ["NB1 north", "NB1 south", "NB2 north", "NB2 south"]

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

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5])
    def test_threshold_outside_unit_interval(self, small_csv, threshold):
        with pytest.raises(ValueError, match="threshold"):
            ScreenConfig(str(small_csv), ("north",), ("nb1",), threshold=threshold)

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
        table = proportions_table(col, "nb1")
        assert len(table) == 9
        for (digit, observed, law), d in zip(table, range(1, 10)):
            assert digit == str(d)
            assert abs(law - TABLE1[d]) < 0.0005

    def test_nb2_rows_normalized(self, conforming_csv):
        (col,) = ingest(conforming_csv, ["votes"])
        table = proportions_table(col, "nb2")
        assert len(table) == 10
        assert sum(obs for _, obs, _ in table) == pytest.approx(1.0, abs=1e-9)
        assert sum(law for _, _, law in table) == pytest.approx(1.0, abs=1e-9)

    def test_joint_rows_keyed_by_digit_pair(self, small_csv):
        (col,) = ingest(small_csv, ["south"])
        table = proportions_table(col, "joint2")
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
        monkeypatch.setenv("DIGITSCREEN_OUT", str(tmp_path / "outputs"))
        main(["screen", str(small_csv), "--columns", "north", "--tests", "nb1",
              "--out", "report.txt"])
        assert (tmp_path / "outputs" / "report.txt").exists()

    def test_two_sided_restriction(self, small_csv, capsys):
        code = main(["screen", str(small_csv), "--columns", "north", "--tests", "rnb1",
                     "--bound", "8000", "--lower", "100"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "RNB1(100:8000) north" in out

    def test_simulate_shipped_config(self, capsys):
        import importlib.resources

        resource = importlib.resources.files("digitscreen") / "configs" / "hmpm_default.ini"
        with importlib.resources.as_file(resource) as path:
            assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "benford-second pooled" in out and "restricted" in out

    def test_simulate_mixture_output_roundtrips(self, tmp_path, capsys):
        cfg = tmp_path / "mix.ini"
        cfg.write_text(
            "[mixture]\nn_samples = 200\nseed = 6\n"
            "component.1 = lognormal weight=1.0 mu=1.0 sigma=2.0\n"
        )
        out = tmp_path / "mix.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        values = [float(r["value"]) for r in rows]
        assert len(values) == 200 and all(v > 0 for v in values)

    def test_proportions_with_index_selector(self, small_csv, tmp_path, capsys):
        propdir = tmp_path / "props"
        assert main(["screen", str(small_csv), "--columns", "1", "--tests", "nb1",
                     "--proportions", str(propdir)]) in (0, 2)
        assert sorted(p.name for p in propdir.iterdir()) == ["north_nb1.csv"]

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
        assert probs == [f"{expected.probs[d]:.3f}" for d in expected.domain]
    else:
        cfg = tmp_path / "model.ini"
        cfg.write_text("[mixture]\nn_samples = 10\nseed = 1\ncomponent.1 = lognormal weight=1 mu=0 sigma=1\n"
                       f"\n[experiment]\nlaws = {name}\n")
        (law,) = load_simulation_config(cfg).experiment.laws()
        assert law == expected and law.restriction == spec and law.kind == label
