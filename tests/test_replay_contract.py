"""The benchmark's traced replay (perfbench/replay.py) still reproduces the CLI.

The replay wraps named functions of every layer and reads some of their
arguments by position, so renaming one or changing its signature must fail
here, not only when the benchmark runs. Each case runs one command through
the CLI and through the replay, in separate interpreters, and compares exit
code, stdout and every file written, and checks counters the replay reads
from the wrapped functions' arguments.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REPLAY = ROOT / "perfbench" / "replay.py"

VOTING = """[voting_model]
n_units = 60
max_voters = 2250
turnout = 0.85 0.58
partisan_fraction = 0.46 0.19
partisan_loyalty = 0.99
swing_prob = 1.05 0.40
seed = 3

[experiment]
laws = nb1, nb2, joint2, rnb2:2250
replicates = 2
"""

MIXTURE = """[mixture]
n_samples = 500
seed = 8
component.1 = lognormal weight=0.5 mu=0.0 sigma=2.0
component.2 = lognormal weight=0.5 mu=4.0 sigma=2.5

[experiment]
laws = nb1, nb2
"""


def _screen_input(path: Path) -> None:
    cells = [(u * 37 % 2250 + 1, u * 53 % 1999 + 1) for u in range(150)]
    path.write_text("unit,a,b\n" + "".join(f"u{u},{a},{b}\n" for u, (a, b) in enumerate(cells)) + "u150,NA,0\n")


CASES = {
    "screen": (_screen_input, "counts.csv", ["screen", "{input}", "--columns", "a,b", "--tests", "nb1,nb2,joint2,rnb2",
                                            "--bound", "2250", "--format", "csv", "--proportions", "{out}/props"],
               ("cli.ingest", "digits.tabulate", "digits.analyzable", "inference.report", "cli.proportions"),
               {"cli.proportions.files": 8, "cli.ingest.excluded": 2}),
    # one-digit counts read with trailing zeros, and the json proportions files
    "screen-trailing-zero": (_screen_input, "counts.csv",
                             ["screen", "{input}", "--columns", "a,b", "--policy", "trailing-zero", "--tests",
                              "nb1,nb2,joint2,rnb1", "--bound", "2250", "--format", "json", "--proportions",
                              "{out}/props"],
                             ("cli.ingest", "digits.tabulate", "digits.analyzable", "inference.report",
                              "cli.proportions"),
                             {"cli.proportions.files": 8, "cli.ingest.excluded": 2}),
    "voting": (lambda p: p.write_text(VOTING), "voting.ini",
               ["simulate", "--config", "{input}", "--out", "{out}/v.csv"],
               ("simulate.experiment", "simulate.hmpm", "simulate.write", "digits.tabulate"),
               {"requested_units": 120, "simulate.hmpm.units": 120}),
    "mixture": (lambda p: p.write_text(MIXTURE), "mixture.ini",
                ["simulate", "--config", "{input}", "--format", "json", "--out", "{out}/m.csv"],
                ("simulate.sample", "digits.real", "inference.report", "simulate.write"),
                {"simulate.sample.values": 500, "digits.real.values": 1000}),
}


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DIGITSCREEN_OUT", None)
    return env


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_matches_cli(case, tmp_path):
    write_input, input_name, argv, spans_expected, counts_expected = CASES[case]
    write_input(tmp_path / input_name)

    def args(out: Path) -> list:
        out.mkdir()
        return [a.replace("{input}", str(tmp_path / input_name)).replace("{out}", str(out)) for a in argv]

    cli = subprocess.run([sys.executable, "-m", "digitscreen.cli", *args(tmp_path / "cli")], capture_output=True,
                         env=_env(), cwd=tmp_path, timeout=120)
    spec = {"argv": args(tmp_path / "replay"), "stdout": str(tmp_path / "replay.stdout"),
            "spans": str(tmp_path / "spans.json"), "run_id": case}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    replay = subprocess.run([sys.executable, str(REPLAY), str(tmp_path / "spec.json")], capture_output=True,
                            env=_env(), cwd=tmp_path, timeout=120)

    assert replay.returncode == 0, replay.stderr.decode()
    trace = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert cli.returncode in (0, 2) and trace["exit"] == cli.returncode, cli.stderr.decode()
    assert (tmp_path / "replay.stdout").read_bytes() == cli.stdout
    assert _files(tmp_path / "replay") == _files(tmp_path / "cli") != {}
    assert set(spans_expected) <= {span["name"] for span in trace["spans"]}
    assert {key: trace["counts"].get(key) for key in counts_expected} == counts_expected
