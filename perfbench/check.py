"""Output checks: exact digests against recorded references, and an
independent oracle that holds for every seed.

The oracle re-derives each report row from the generated inputs with stdlib
arithmetic of its own: digit tallies from decimal strings, the law
probabilities from their definitions, chi-squared tails in closed form
(every test here has 8, 9 or 89 degrees of freedom) and the uniform-prior
Bayes factor through `math.lgamma`. It shares no code with digitscreen.
Printed values carry three decimals, so a printed number passes when it lies
within half a unit of its last place of the oracle's value.

Digests cover the exit code, stdout and every file the command writes.
stderr is left out: diagnostics are capped by a planned change, so only
their line count is recorded (as `cli.ingest.diagnostics`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from collections import Counter
from pathlib import Path

_ULB_P_MAX = 1.0 / math.e
_HALF_LAST_PLACE = 0.0005 + 1e-9


# ---------------------------------------------------------------------------
# digests


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_path(path: Path) -> str:
    """sha256 of a file, or of a directory's sorted (name, sha256) listing."""
    if path.is_dir():
        listing = "".join(f"{p.name}\0{sha256_bytes(p.read_bytes())}\n" for p in sorted(path.iterdir()))
        return sha256_bytes(listing.encode())
    return sha256_bytes(path.read_bytes())


def observed_digests(exit_code: int, stdout: bytes, run_dir: Path, outputs: list) -> dict:
    files = {}
    for name in outputs:
        p = run_dir / name
        files[name] = digest_path(p) if p.exists() else None
    return {"exit": exit_code, "stdout": sha256_bytes(stdout), "files": files}


def reference_verdict(references: dict, env_key: str, seed: int, observed: dict) -> str:
    """'pass' or 'fail' against a recorded reference, 'unverified' without one."""
    ref = references.get(env_key, {}).get(str(seed))
    if ref is None:
        return "unverified"
    return "pass" if ref == observed else "fail"


# ---------------------------------------------------------------------------
# the oracle's reference laws


def _nb1() -> dict:
    return {(d,): math.log10(1 + 1 / d) for d in range(1, 10)}


def _nb2() -> dict:
    return {(d,): math.fsum(math.log10(1 + 1 / (10 * j + d)) for j in range(1, 10)) for d in range(10)}


def _joint2() -> dict:
    return {(a, b): math.log10(1 + 1 / (10 * a + b)) for a in range(1, 10) for b in range(10)}


def _restricted(base: dict, position: int, lower: int, upper: int) -> dict:
    # p(d | lower <= N <= upper) ~ p_base(d) * #{admissible N with digit d at position}
    cards = Counter(int(str(n)[position - 1]) for n in range(lower, upper + 1) if len(str(n)) >= position)
    total = math.fsum(p * cards[d] for (d,), p in base.items())
    return {key: p * cards[key[0]] / total for key, p in base.items()}


def law_table(test: str, bound: int | None, lower: int | None) -> tuple[dict, int]:
    """Law probabilities keyed by digit tuple, and the digit width the test reads."""
    if test == "nb1":
        return _nb1(), 1
    if test == "nb2":
        return _nb2(), 2
    if test == "joint2":
        return _joint2(), 2
    position = 1 if test == "rnb1" else 2
    base = _nb1() if position == 1 else _nb2()
    return _restricted(base, position, lower or 1, bound), position


def _label(test: str, bound: int | None, lower: int | None) -> str:
    if test in ("rnb1", "rnb2"):
        return f"{test.upper()}({lower}:{bound})" if lower is not None else f"{test.upper()}({bound})"
    return test.upper()


def _digit_key(test: str, s: str):
    if test == "joint2":
        return (int(s[0]), int(s[1]))
    return (int(s[1]),) if test in ("nb2", "rnb2") else (int(s[0]),)


# ---------------------------------------------------------------------------
# the oracle's statistics


def chi2_upper_tail(chi2: float, df: int) -> float:
    """P(chi2_df >= chi2) in closed form: a finite sum for even df, erfc plus a sum for odd df."""
    x = 0.5 * chi2
    if x == 0.0:
        return 1.0
    if df % 2 == 0:
        return math.fsum(math.exp(j * math.log(x) - x - math.lgamma(j + 1)) for j in range(df // 2))
    terms = [math.erfc(math.sqrt(x))]
    terms += [math.exp((j + 0.5) * math.log(x) - x - math.lgamma(j + 1.5)) for j in range(df // 2)]
    return min(1.0, math.fsum(terms))


def _row_stats(counts: dict, law: dict) -> dict:
    n = sum(counts.values())
    chi2 = n * math.fsum((p - counts.get(d, 0) / n) ** 2 / p for d, p in law.items())
    p_value = chi2_upper_tail(chi2, len(law) - 1)
    k = len(law)
    log_b01 = (
        math.fsum(c * math.log(law[d]) for d, c in counts.items() if c)
        - math.lgamma(k)
        - math.fsum(math.lgamma(c + 1) for c in counts.values() if c)
        + math.lgamma(n + k)
    )
    posterior = 1 / (1 + math.exp(-log_b01)) if log_b01 >= 0 else math.exp(log_b01) / (1 + math.exp(log_b01))
    ulb = None
    if p_value <= _ULB_P_MAX:
        ulb = 0.0 if p_value == 0.0 else 1 / (1 + 1 / (-math.e * p_value * math.log(p_value)))
    small = [d for d, p in law.items() if n * p < 5]
    return {"m": n, "p": p_value, "posterior": posterior, "ulb": ulb, "small": small}


def _lower_median(hist: Counter) -> int:
    n = sum(hist.values())
    rank = (n - 1) // 2
    seen = 0
    for v in sorted(hist):
        seen += hist[v]
        if seen > rank:
            return v
    raise ValueError("empty histogram")


def _warning_digits(test: str, small: list) -> str:
    # the report prints digits of marginal laws bare and joint prefixes as tuples
    return ",".join(str(d) if test == "joint2" else str(d[0]) for d in small)


def expect_screen(columns: dict, tests, bound: int, lower: int | None, fmt: str, proportions: bool) -> dict:
    """Expected report rows (and proportions tables) for `screen` on integer columns.

    `columns` maps each selected column name to a Counter of its retained values.
    """
    rows, tables, laws = [], {}, {}
    for test in tests:
        law, width = law_table(test, bound, lower)
        laws[test] = [["".join(map(str, d)), p] for d, p in law.items()]
        for name, hist in columns.items():
            analyzed = Counter({v: c for v, c in hist.items() if len(str(v)) >= width})
            counts = Counter()
            for v, c in analyzed.items():
                counts[_digit_key(test, str(v))] += c
            stats = _row_stats(counts, law)
            label = f"{_label(test, bound, lower)} {name}"
            warning = f"warning: {label}: expected count below 5 for digits {_warning_digits(test, stats['small'])}"
            rows.append({
                "label": label, "m": str(stats["m"]), "median": str(_lower_median(analyzed)),
                "p": stats["p"], "posterior": stats["posterior"], "ulb": stats["ulb"],
                "warning": warning if stats["small"] else None,
            })
            if proportions:
                tables[f"{name}_{test}.csv"] = [test, [counts.get(d, 0) for d in law], stats["m"]]
    return {"kind": "screen", "format": fmt, "rows": rows, "laws": laws, "tables": tables}


# ---------------------------------------------------------------------------
# comparing a run's outputs with the oracle


def _close(printed: str, value: float) -> bool:
    try:
        return len(printed) == 5 and abs(float(printed) - value) <= _HALF_LAST_PLACE
    except ValueError:
        return False


def _parse_text(stdout: str) -> tuple[list, list]:
    lines = stdout.splitlines()
    rows, extra = [], []
    for line in lines[2:]:
        if line.startswith(("warning:", "error:")):
            extra.append(line)
            continue
        if line.endswith("> 0.5"):
            ulb, rest = "> 0.5", line[: -len("> 0.5")].split()
        else:
            rest = line.split()
            ulb = rest.pop()
        p, post, median, m = rest.pop(), rest.pop(), rest.pop(), rest.pop()
        rows.append([" ".join(rest), m, median, post, p, ulb])
    return rows, extra


def _parse(stdout: str, fmt: str) -> tuple[list, list]:
    if fmt == "text":
        return _parse_text(stdout)
    rows = list(csv.reader(io.StringIO(stdout)))[1:]
    return rows, []


def _compare_rows(expected: list, got: list) -> list:
    problems = []
    if len(expected) != len(got):
        return [f"{len(got)} report rows, expected {len(expected)}"]
    for exp, row in zip(expected, got):
        label, m, median, post, p, ulb = row
        bad = []
        if label != exp["label"]:
            bad.append(f"label {label!r}")
        if m != exp["m"]:
            bad.append(f"m {m} != {exp['m']}")
        if median != exp["median"]:
            bad.append(f"median {median} != {exp['median']}")
        if not _close(post, exp["posterior"]):
            bad.append(f"posterior {post} vs {exp['posterior']!r}")
        if not _close(p, exp["p"]):
            bad.append(f"p-value {p} vs {exp['p']!r}")
        near_cut = abs(exp["p"] - _ULB_P_MAX) < 1e-9
        if exp["ulb"] is None:
            if ulb != "> 0.5" and not near_cut:
                bad.append(f"ulb {ulb} != '> 0.5'")
        elif not (_close(ulb, exp["ulb"]) or (near_cut and ulb == "> 0.5")):
            bad.append(f"ulb {ulb} vs {exp['ulb']!r}")
        if bad:
            problems.append(f"{exp['label']}: " + "; ".join(bad))
    return problems


def _expected_exit(rows: list) -> set:
    # 2 when a posterior falls below the default threshold 0.5; either code passes at the cut
    posts = [r["posterior"] for r in rows]
    if any(abs(p - 0.5) <= 1e-9 for p in posts):
        return {0, 2}
    return {2} if any(p < 0.5 for p in posts) else {0}


def _check_tables(expect: dict, run_dir: Path) -> list:
    outdir = run_dir / "proportions"
    if not outdir.is_dir():
        return ["proportions directory missing"]
    found = sorted(p.name for p in outdir.iterdir())
    if found != sorted(expect["tables"]):
        return [f"proportions: {len(found)} files, expected {len(expect['tables'])}"]
    for fname, (test, counts, n) in expect["tables"].items():
        rows = list(csv.reader(io.StringIO((outdir / fname).read_text(encoding="utf-8"))))
        want = [["digit", "observed_proportion", "law_probability"]]
        want += [[label, c / n, p] for (label, p), c in zip(expect["laws"][test], counts)]
        ok = len(rows) == len(want) and rows[0] == want[0] and all(
            r[0] == w[0] and float(r[1]) == w[1] and math.isclose(float(r[2]), w[2], rel_tol=1e-12)
            for r, w in zip(rows[1:], want[1:])
        )
        if not ok:
            return [f"proportions table {fname} differs from the oracle"]
    return []


def _mixture_expect(run_dir: Path, laws: list) -> tuple[list, int]:
    # re-derive the screening of the samples the run wrote, from their decimal reprs
    with open(run_dir / "mixture.csv", encoding="utf-8") as fh:
        header = fh.readline()
        texts = fh.read().split()
    if header != "value\n":
        raise ValueError("mixture.csv header is not 'value'")
    firsts, seconds = Counter(), Counter()
    for s in texts:
        digits = s.split("e")[0].replace(".", "").lstrip("0")
        firsts[(int(digits[0]),)] += 1
        seconds[(int(digits[1]) if len(digits) > 1 else 0,)] += 1
    samples = sorted(map(float, texts))
    median = samples[(len(samples) - 1) // 2]
    median_str = str(int(median)) if median.is_integer() else f"{median:g}"
    rows = []
    for name in laws:
        law, _ = law_table(name, None, None)
        stats = _row_stats(firsts if name == "nb1" else seconds, law)
        kind = "benford-first" if name == "nb1" else "benford-second"
        rows.append({"label": f"{kind} samples", "m": str(stats["m"]), "median": median_str,
                     "p": stats["p"], "posterior": stats["posterior"], "ulb": stats["ulb"], "warning": None})
    return rows, len(texts)


def _check_voting(expect: dict, run_dir: Path, rows: list) -> list:
    # the pooled counts include a replicate that is never written, so only
    # the written units and the shape of the report can be re-derived here
    lines = (run_dir / "voting.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "unit,candidate_a,candidate_b" or len(lines) != expect["units"] + 1:
        return ["voting.csv header or row count is wrong"]
    nonzero = 0
    for j, line in enumerate(lines[1:]):
        unit, a, b = (int(x) for x in line.split(","))
        if unit != j or a < 0 or b < 0 or a + b > expect["bound"]:
            return [f"voting.csv row {j + 1} is out of range: {line!r}"]
        nonzero += a > 0
    labels = ["benford-first pooled", "benford-second pooled", "benford-joint(2) pooled",
              f"restricted(benford-second, N<={expect['bound']}) pooled"]
    if [r[0] for r in rows] != labels[: len(expect["laws"])]:
        return [f"voting report labels {[r[0] for r in rows]!r}"]
    m = [int(r[1]) for r in rows]
    if not nonzero <= m[0] <= nonzero + expect["units"] or not m[1] == m[2] == m[3] <= m[0]:
        return [f"voting report counts {m} inconsistent with {nonzero} nonzero written units"]
    if not all(0.0 <= float(r[k]) <= 1.0 for r in rows for k in (3, 4)):
        return ["voting report posterior or p-value out of [0, 1]"]
    return []


def oracle_problems(expect: dict, exit_code: int, stdout: bytes, run_dir: Path) -> list:
    """Every way a run's outputs disagree with the oracle; empty when they agree."""
    try:
        return _oracle_problems(expect, exit_code, stdout, run_dir)
    except (ValueError, IndexError, OSError) as exc:
        return [f"outputs cannot be read as expected: {exc!r}"]


def _oracle_problems(expect: dict, exit_code: int, stdout: bytes, run_dir: Path) -> list:
    text = stdout.decode("utf-8")
    kind = expect["kind"]
    rows, extra = _parse(text, expect.get("format", "text"))
    if kind == "voting":
        problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
        return problems + _check_voting(expect, run_dir, rows)
    if kind == "mixture":
        want, n = _mixture_expect(run_dir, expect["laws"])
        problems = [] if n == expect["samples"] else [f"mixture.csv holds {n} samples"]
        codes = {0}
    else:
        want = expect["rows"]
        codes = _expected_exit(want)
        problems = _check_tables(expect, run_dir) if expect["tables"] else []
    if exit_code not in codes:
        problems.append(f"exit code {exit_code}, expected one of {sorted(codes)}")
    problems += _compare_rows(want, rows)
    if expect.get("format", "text") == "text":
        warnings = [r["warning"] for r in want if r["warning"]]
        if extra != warnings:
            problems.append(f"warning lines {extra[:3]!r} differ from {warnings[:3]!r}")
    return problems
