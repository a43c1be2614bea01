"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import math
import time
from fractions import Fraction

import numpy as np

from golden import CNB1_800_TABLE, CNB2_800_TABLE, NB1_TABLE, NB2_TABLE
from oracles import exact_log_b01, mp_gamma_q

from digitscreen.cli import main
from digitscreen.digits import CountVector, DatasetColumn
from digitscreen.inference import (
    chi_squared_pvalue,
    log_bayes_factor_uniform,
    screen,
    universal_lower_bound,
)
from digitscreen.laws import (
    DigitDistribution,
    RestrictionSpec,
    count_with_digit,
    nbl_first,
    nbl_joint,
    nbl_second,
    restricted_law,
    uniform_law,
)
from digitscreen.simulate import conformance_experiment, default_voting_config


def _by_digit(law: DigitDistribution) -> dict:
    return dict(zip(law.domain, law.probs))


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_law_tables():
    nb1, nb2 = _by_digit(nbl_first()), _by_digit(nbl_second())
    ok = all(abs(nb1[d] - v) < 0.0005 for d, v in NB1_TABLE.items()) and all(
        abs(nb2[d] - v) < 0.0005 for d, v in NB2_TABLE.items()
    )
    _verdict(1, "first/second digit law tables", ok)


def test_criterion_02_restricted_law_tables():
    start = time.perf_counter()
    cnb1 = _by_digit(restricted_law(nbl_first(), RestrictionSpec(upper=800)))
    cnb2 = _by_digit(restricted_law(nbl_second(), RestrictionSpec(upper=800)))
    ok = all(abs(cnb1[d] - v) < 0.0005 for d, v in CNB1_800_TABLE.items())
    ok &= all(abs(cnb2[d] - v) < 0.0005 for d, v in CNB2_800_TABLE.items())
    ok &= count_with_digit(2, 1, RestrictionSpec(upper=800)) == 111
    # brute-force enumeration oracle over 1..800, both digit positions
    for i, domain in ((1, range(1, 10)), (2, range(10))):
        for d in domain:
            brute = sum(1 for v in range(1, 801) if len(str(v)) >= i and int(str(v)[i - 1]) == d)
            ok &= count_with_digit(d, i, RestrictionSpec(upper=800)) == brute
    elapsed = time.perf_counter() - start
    _verdict(2, "restricted law at K=800", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_03_no_correction_identity():
    nb1 = nbl_first()
    exact = restricted_law(nb1, RestrictionSpec(upper=9)).probs == nb1.probs
    within = all(
        abs(_by_digit(restricted_law(nb1, RestrictionSpec(upper=10**j - 1)))[d] - _by_digit(nb1)[d]) <= 1e-12
        for j in range(1, 7)
        for d in range(1, 10)
    )
    _verdict(3, "complete decades leave the law unchanged", exact and within)


def test_criterion_04_ulb_calibration():
    ok = abs(universal_lower_bound(0.05) - 0.29) <= 0.005
    ok &= abs(universal_lower_bound(0.01) - 0.11) <= 0.005
    ok &= abs(universal_lower_bound(0.001) - 0.0184) <= 0.0005
    ok &= abs(universal_lower_bound(1 / math.e) - 0.5) <= 1e-12
    _verdict(4, "universal lower bound calibration", ok)


def test_criterion_05_bayes_factor_oracle():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(2025))
    ok = True
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(0, 13))
        cuts = sorted(rng.integers(0, n + 1, k - 1).tolist())
        counts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        raw = [int(rng.integers(1, 10)) for _ in range(k)]
        probs = [Fraction(r, sum(raw)) for r in raw]
        domain = tuple(range(k))
        law = DigitDistribution("oracle-case", domain, tuple(map(float, probs)))
        cv = CountVector(domain, counts)
        err = abs(log_bayes_factor_uniform(cv, law) - exact_log_b01(counts, probs))
        err /= max(1.0, abs(exact_log_b01(counts, probs)))
        worst = max(worst, err)
        ok &= err <= 1e-12
    empty = CountVector(tuple(range(1, 10)), (0,) * 9)
    ok &= log_bayes_factor_uniform(empty, nbl_first()) == 0.0
    elapsed = time.perf_counter() - start
    _verdict(5, "exact Bayes factor oracle", ok and elapsed < 10.0,
             f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_joint_marginals():
    joint = _by_digit(nbl_joint(2))
    nb1, nb2 = _by_digit(nbl_first()), _by_digit(nbl_second())
    ok = all(
        abs(math.fsum(joint[(d1, d2)] for d2 in range(10)) - nb1[d1]) <= 1e-12 for d1 in range(1, 10)
    )
    ok &= all(
        abs(math.fsum(joint[(d1, d2)] for d1 in range(1, 10)) - nb2[d2]) <= 1e-12 for d2 in range(10)
    )
    _verdict(6, "joint law marginals", ok)


def _second_digit_column(law, n, seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    edges = np.cumsum(law.probs)
    edges[-1] = 1.0
    picks = np.searchsorted(edges, rng.random(n), side="right")
    return DatasetColumn("synthetic", tuple(10 + int(p) for p in picks))


def test_criterion_07_null_conformance_property():
    start = time.perf_counter()
    nb2 = nbl_second()
    conforming = screen(_second_digit_column(nb2, 19_064, seed=11), nb2)
    uniform = screen(_second_digit_column(uniform_law(2), 19_064, seed=12), nb2)
    ok = conforming.posterior_h0 > 0.99
    ok &= uniform.posterior_h0 < 1e-6 and uniform.p_value < 1e-6
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "null accepted, uniform rejected at n=19064",
        ok and elapsed < 5.0,
        f"null posterior {conforming.posterior_h0:.6f}, uniform p {uniform.p_value:.2e}, {elapsed:.2f}s",
    )


def test_criterion_08_restricted_contrast():
    start = time.perf_counter()
    laws = [nbl_second(), restricted_law(nbl_second(), RestrictionSpec(upper=2250))]
    wins = 0
    for seed in range(1, 11):
        exp = conformance_experiment(default_voting_config(seed=seed), laws)
        wins += exp.results[1].pooled.p_value > exp.results[0].pooled.p_value
    elapsed = time.perf_counter() - start
    _verdict(8, "restricted law fits the bounded voting model better",
             wins >= 9 and elapsed < 60.0, f"{wins}/10 seeds, {elapsed:.1f}s")


def test_criterion_09_pvalue_accuracy():
    worst = 0.0
    count = 0
    for df in (8, 9, 89):
        a = df / 2.0
        # stay within the range where the tail is representable in doubles
        hi = 1100.0 if df < 50 else 1600.0
        grid = np.geomspace(0.5, hi, 33)
        if df == 8:
            grid = np.append(grid, 16.919)
        for chi2 in grid:
            ours = chi_squared_pvalue(float(chi2), df)
            ref = mp_gamma_q(a, chi2 / 2.0)
            worst = max(worst, abs(ours - ref) / ref)
            count += 1
    _verdict(9, "chi-squared p-value vs quadrature oracle", count >= 100 and worst < 1e-8,
             f"{count} grid points, worst rel err {worst:.2e}")


def test_criterion_10_cli_integration(tmp_path, capsys):
    fixture = tmp_path / "votes.csv"
    fixture.write_text("unit,north,south\nA,2,9\nB,1472,358\nC,6033,2741\n")
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    code1 = main(["screen", str(fixture), "--columns", "north,south", "--tests", "nb1,nb2",
                  "--out", str(out1)])
    code2 = main(["screen", str(fixture), "--columns", "north,south", "--tests", "nb1,nb2",
                  "--out", str(out2)])
    header = out1.read_text().splitlines()[0].split()
    ok = header == ["test", "m", "Median", "P(H0|data)", "p-value", "P_lb(H0|data)"]
    ok &= out1.read_bytes() == out2.read_bytes()
    ok &= code1 == code2
    # exit-status gate: 0 iff every posterior clears the default 0.5 threshold,
    # 2 on any rejection, 1 on error
    rows = [line.split() for line in out1.read_text().splitlines()[2:]
            if line and not line.startswith(("warning", "error"))]
    posteriors = [float(r[4]) for r in rows]
    expected_code = 0 if all(p >= 0.5 for p in posteriors) else 2
    ok &= code1 == expected_code
    ok &= main(["screen", str(fixture), "--columns", "missing", "--tests", "nb1"]) == 1
    capsys.readouterr()
    _verdict(10, "CLI report layout and exit gate", ok, f"exit {code1}")
