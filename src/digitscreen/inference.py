"""Conformance measures: chi-squared p-values, the universal lower bound
calibration, and exact uniform-prior Bayes factors.

The Bayes factor compares H0 (digit proportions equal the reference law
exactly) against a uniform prior over the whole probability simplex; it is
evaluated entirely in log space because observed totals reach tens of
thousands and the factorials involved overflow doubles long before that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .digits import (
    EXCLUDE_SHORT,
    CountVector,
    DatasetColumn,
    analyzable_values,
    digit_frequencies,
    joint_frequencies,
)
from .laws import DigitDistribution
from .special import regularized_gamma_q

# Sellke-Bayarri-Berger calibration is valid for p below 1/e
_ULB_P_MAX = 1.0 / math.e

# chi-squared asymptotics are shaky once an expected cell count drops below 5
SMALL_EXPECTED_COUNT = 5.0


@dataclass(frozen=True)
class HypothesisPrior:
    """Prior probability of the null; the alternative gets the complement."""

    prior_h0: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.prior_h0 < 1.0:
            raise ValueError(f"prior_h0 must lie strictly between 0 and 1, got {self.prior_h0!r}")


@dataclass(frozen=True)
class TestReport:
    """One screening result for a column against a reference law.

    ``m`` is the number of units whose digit entered this test (it shrinks as
    the digit position grows under exclude-short), ``ulb`` is the universal
    lower bound on P(H0|data), or None when the p-value exceeds 1/e and the
    bound is simply reported as "> 0.5".
    """

    __test__ = False  # not a pytest class, despite the name

    law: str
    m: int
    median_count: float
    chi2: float
    df: int
    p_value: float
    ulb: float | None
    log_b01: float
    posterior_h0: float
    small_expected: tuple = ()


def chi_squared_stat(obs: CountVector, ref: DigitDistribution) -> tuple[float, int]:
    """Goodness-of-fit statistic n * sum_d (p_d - f_d)^2 / p_d and its df."""
    if obs.domain != ref.domain:
        raise ValueError(f"domain mismatch: observed {obs.domain[:3]}..., reference {ref.domain[:3]}...")
    n = obs.n
    if n == 0:
        raise ValueError("no analyzable values")
    if any(ref.probs[d] <= 0.0 for d in ref.domain):
        raise ValueError(f"reference law {ref.kind!r} has zero-probability cells; chi-squared undefined")
    f = obs.proportions()
    chi2 = n * math.fsum((ref.probs[d] - f[d]) ** 2 / ref.probs[d] for d in ref.domain)
    return chi2, len(ref.domain) - 1


def chi_squared_pvalue(chi2: float, df: int) -> float:
    """Upper-tail probability P(chi2_df >= chi2) via the regularized incomplete gamma."""
    if chi2 < 0.0 or not math.isfinite(chi2):
        raise ValueError(f"chi2 must be finite and nonnegative, got {chi2!r}")
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    return regularized_gamma_q(0.5 * df, 0.5 * chi2)


def universal_lower_bound(p: float) -> float | None:
    """Minimum posterior probability of H0 compatible with a p-value.

    Returns 1 / (1 + [-e * p * ln p]^(-1)) for p <= 1/e (equal priors), and
    None above that threshold, where the bound is only reportable as "> 0.5".
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p-value must lie in (0, 1], got {p!r}")
    if p > _ULB_P_MAX:
        return None
    return 1.0 / (1.0 + 1.0 / (-math.e * p * math.log(p)))


def log_bayes_factor_uniform(obs: CountVector, ref: DigitDistribution) -> float:
    """ln B01 for exact reference proportions vs a uniform prior on the simplex.

    ln B01 = sum_d n_d ln p_d - ln(k-1)! - sum_d ln n_d! + ln(n+k-1)!,
    all via log-gamma. A count on a zero-probability cell makes the null
    impossible: returns -inf.
    """
    if obs.domain != ref.domain:
        raise ValueError(f"domain mismatch: observed {obs.domain[:3]}..., reference {ref.domain[:3]}...")
    k = len(obs.domain)
    n = obs.n
    if n == 0:
        return 0.0  # Gamma(k) * 1 / Gamma(k): no data, no evidence
    loglik = 0.0
    for d in obs.domain:
        c = obs.counts[d]
        if c == 0:
            continue
        p = ref.probs[d]
        if p == 0.0:
            return -math.inf
        loglik += c * math.log(p)
    # zero-count cells contribute ln Gamma(1) = 0 and are skipped
    log_marginal = -math.lgamma(float(k)) - math.fsum(
        math.lgamma(c + 1.0) for c in obs.counts.values() if c > 0
    )
    return loglik + log_marginal + math.lgamma(float(n + k))


def posterior_h0(log_b01: float, prior: HypothesisPrior = HypothesisPrior()) -> float:
    """P(H0 | data) from a log Bayes factor: logistic of log B01 + log prior odds."""
    t = log_b01 + math.log(prior.prior_h0 / (1.0 - prior.prior_h0))
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _lower_median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no analyzable values")
    return ordered[(len(ordered) - 1) // 2]


def report_from_counts(
    cv: CountVector,
    analyzed: list,
    law: DigitDistribution,
    prior: HypothesisPrior = HypothesisPrior(),
) -> TestReport:
    """Assemble a TestReport from an already-tabulated count vector."""
    chi2, df = chi_squared_stat(cv, law)
    p = chi_squared_pvalue(chi2, df)
    small = tuple(d for d in cv.domain if cv.n * law.probs[d] < SMALL_EXPECTED_COUNT)
    log_b01 = log_bayes_factor_uniform(cv, law)
    return TestReport(
        law=law.kind,
        m=cv.n,
        median_count=_lower_median(analyzed),
        chi2=chi2,
        df=df,
        p_value=p,
        ulb=universal_lower_bound(p) if p > 0.0 else 0.0,
        log_b01=log_b01,
        posterior_h0=posterior_h0(log_b01, prior),
        small_expected=small,
    )


def screen(
    column: DatasetColumn,
    law: DigitDistribution,
    prior: HypothesisPrior = HypothesisPrior(),
    policy: str = EXCLUDE_SHORT,
) -> TestReport:
    """Screen one column against one law: tabulate, test, calibrate, report."""
    if law.joint_k is not None:
        cv = joint_frequencies(column, law.joint_k, policy)
        width = law.joint_k
    elif law.digit_index is not None:
        cv = digit_frequencies(column, law.digit_index, policy)
        width = law.digit_index
    else:
        raise ValueError(f"law {law.kind!r} does not define a digit position to tabulate")
    analyzed = analyzable_values(column, width, policy)
    return report_from_counts(cv, analyzed, law, prior)
