"""The four benchmark workloads and their seeded inputs.

Every input file and simulate config is generated from the workload seed with
stdlib `random.Random`, so the input stream does not depend on the numpy
build under test. Generated inputs are cached under `.perfbench/cache/`,
keyed by (workload, seed, GENERATOR_VERSION); generation happens before any
timing starts.

A plan is what one CLI run needs: the argument list (with `{input}` and
`{run}` placeholders), the number of items it processes, the input digests,
and the oracle's expectation (see check.py), computed from the generated
values by code that does not import digitscreen.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import check

GENERATOR_VERSION = 2

# the restricted-law bound used by every workload; every generated count
# lies inside [1, BOUND] so no planned bound check can reject an input
BOUND = 2250
WIDE_LOWER = 10

# Sizes keep one CLI run at 2-6 s on a 2-vCPU VM, so that a 30 s run takes
# the median of 4-10 of them. At four times these sizes a run held one or two
# CLI runs, and run-to-run spread reached a quarter.
TALL_ROWS = 250_000
TALL_COLUMNS = ("north", "south", "east")
TALL_TESTS = ("nb1", "nb2", "joint2", "rnb2")
TALL_BAD_SHARE = 0.01

WIDE_ROWS = 200
WIDE_COLUMNS = 500
WIDE_TESTS = ("nb1", "nb2", "joint2", "rnb1", "rnb2")

VOTING_UNITS = 5_000
VOTING_REPLICATES = 2
VOTING_LAWS = ("nb1", "nb2", "joint2", f"rnb2:{BOUND}")

MIXTURE_SAMPLES = 250_000
MIXTURE_LAWS = ("nb1", "nb2")

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, stable across Python versions
    return random.Random(f"perfbench/{GENERATOR_VERSION}/{name}/{seed}")


def _log_uniform(rng: random.Random, low: int, high: int) -> int:
    # integer with log-uniform density on [low, high]
    lo, hi = math.log(low), math.log(high + 1)
    return min(high, int(math.exp(lo + rng.random() * (hi - lo))))


def _bad_cell(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return ""
    if kind == 1:
        return "NA"
    if kind == 2:
        return "0"
    return f"-{rng.randint(1, BOUND)}"


def _screen_tall(rng: random.Random, cache: Path) -> dict:
    hists = [Counter() for _ in TALL_COLUMNS]
    lines = ["station," + ",".join(TALL_COLUMNS)]
    for row in range(TALL_ROWS):
        cells = []
        for hist in hists:
            if rng.random() < TALL_BAD_SHARE:
                cells.append(_bad_cell(rng))
            else:
                v = _log_uniform(rng, 1, BOUND)
                hist[v] += 1
                cells.append(str(v))
        lines.append(f"S{row:07d}," + ",".join(cells))
    (cache / "tall.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    columns = dict(zip(TALL_COLUMNS, hists))
    return {
        "inputs": ["tall.csv"],
        "argv": ["screen", "{input}/tall.csv", "--columns", ",".join(TALL_COLUMNS),
                 "--tests", ",".join(TALL_TESTS), "--bound", str(BOUND)],
        "outputs": [],
        "items": TALL_ROWS * len(TALL_COLUMNS),
        "expect": check.expect_screen(columns, TALL_TESTS, BOUND, None, "text", proportions=False),
    }


def _screen_wide(rng: random.Random, cache: Path) -> dict:
    names = [f"c{j:04d}" for j in range(1, WIDE_COLUMNS + 1)]
    rows = [[_log_uniform(rng, WIDE_LOWER, BOUND) for _ in names] for _ in range(WIDE_ROWS)]
    lines = [",".join(names)] + [",".join(map(str, row)) for row in rows]
    (cache / "wide.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    columns = {name: Counter(row[j] for row in rows) for j, name in enumerate(names)}
    return {
        "inputs": ["wide.csv"],
        "argv": ["screen", "{input}/wide.csv", "--columns", ",".join(names), "--tests", ",".join(WIDE_TESTS),
                 "--lower", str(WIDE_LOWER), "--bound", str(BOUND), "--format", "csv",
                 "--proportions", "{run}/proportions"],
        "outputs": ["proportions"],
        "items": WIDE_ROWS * WIDE_COLUMNS,
        "expect": check.expect_screen(columns, WIDE_TESTS, BOUND, WIDE_LOWER, "csv", proportions=True),
    }


def _sim_seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _sim_voting(rng: random.Random, cache: Path) -> dict:
    # the shipped voting-model parameters (configs/hmpm_default.ini) at benchmark size
    seed = _sim_seed(rng)
    (cache / "voting.ini").write_text(
        "[voting_model]\n"
        f"n_units = {VOTING_UNITS}\n"
        f"max_voters = {BOUND}\n"
        "turnout = 0.85 0.58\n"
        "partisan_fraction = 0.46 0.19\n"
        "partisan_loyalty = 0.99\n"
        "swing_prob = 1.05 0.40\n"
        f"seed = {seed}\n"
        "\n[experiment]\n"
        f"laws = {', '.join(VOTING_LAWS)}\n"
        f"replicates = {VOTING_REPLICATES}\n",
        encoding="ascii",
    )
    return {
        "inputs": ["voting.ini"],
        "argv": ["simulate", "--config", "{input}/voting.ini", "--out", "{run}/voting.csv"],
        "outputs": ["voting.csv"],
        "items": VOTING_UNITS * VOTING_REPLICATES,
        "expect": {"kind": "voting", "units": VOTING_UNITS, "bound": BOUND, "laws": list(VOTING_LAWS)},
    }


def _sim_mixture(rng: random.Random, cache: Path) -> dict:
    # the shipped two-lognormal mixture (configs/mixture_lognormal.ini) at benchmark size
    seed = _sim_seed(rng)
    (cache / "mixture.ini").write_text(
        "[mixture]\n"
        f"n_samples = {MIXTURE_SAMPLES}\n"
        f"seed = {seed}\n"
        "component.1 = lognormal weight=0.5 mu=0.0 sigma=2.0\n"
        "component.2 = lognormal weight=0.5 mu=4.0 sigma=2.5\n"
        "\n[experiment]\n"
        f"laws = {', '.join(MIXTURE_LAWS)}\n",
        encoding="ascii",
    )
    return {
        "inputs": ["mixture.ini"],
        "argv": ["simulate", "--config", "{input}/mixture.ini", "--out", "{run}/mixture.csv"],
        "outputs": ["mixture.csv"],
        "items": MIXTURE_SAMPLES,
        "expect": {"kind": "mixture", "samples": MIXTURE_SAMPLES, "laws": list(MIXTURE_LAWS)},
    }


_BUILDERS = {
    "screen-tall": _screen_tall,
    "screen-wide": _screen_wide,
    "sim-voting": _sim_voting,
    "sim-mixture": _sim_mixture,
}
NAMES = tuple(_BUILDERS)


def plan(root: Path, name: str, seed: int) -> tuple[Path, dict]:
    """Generate (or reuse) the inputs of one workload and seed.

    Returns the cache directory, which holds the inputs, and the plan.
    """
    cache = root / ".perfbench" / "cache" / f"{name}-s{seed}-g{GENERATOR_VERSION}"
    plan_path = cache / "plan.json"
    if plan_path.exists():
        cached = json.loads(plan_path.read_text(encoding="utf-8"))
        if all(sha256_file(cache / f) == d["sha256"] for f, d in cached["input_digests"].items()):
            return cache, cached
    cache.mkdir(parents=True, exist_ok=True)
    spec = _BUILDERS[name](_rng(name, seed), cache)
    spec["input_digests"] = {
        f: {"sha256": sha256_file(cache / f), "bytes": (cache / f).stat().st_size} for f in spec["inputs"]
    }
    plan_path.write_text(json.dumps(spec), encoding="utf-8")
    return cache, spec
