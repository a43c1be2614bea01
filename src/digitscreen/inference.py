"""Conformance measures: chi-squared p-values, the universal lower bound
calibration, and exact uniform-prior Bayes factors.

The Bayes factor compares H0 (digit proportions equal the reference law
exactly) against a uniform prior over the whole probability simplex; it is
evaluated entirely in log space because observed totals reach tens of
thousands and the factorials involved overflow doubles long before that.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

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


@dataclass(frozen=True, slots=True)
class TestReport:
    """One screening result for a column against a reference law.

    ``m`` is the number of units whose digit entered this test (it shrinks as
    the digit position grows under exclude-short), ``ulb`` is the universal
    lower bound on P(H0|data), or None when the p-value exceeds 1/e under
    equal priors and the bound is simply reported as "> 0.5". ``counts`` is
    the tally the report was computed from; it is never rendered.
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
    counts: CountVector | None = field(default=None, compare=False, repr=False)


def chi_squared_stat(obs: CountVector, ref: DigitDistribution) -> tuple[float, int]:
    """Goodness-of-fit statistic n * sum_d (p_d - f_d)^2 / p_d and its df."""
    if obs.domain != ref.domain:
        raise ValueError(f"domain mismatch: observed {obs.domain[:3]}..., reference {ref.domain[:3]}...")
    n = obs.n
    if n == 0:
        raise ValueError("no analyzable values")
    if min(ref.probs) <= 0.0:
        raise ValueError(f"reference law {ref.kind!r} has zero-probability cells; chi-squared undefined")
    # (p - f) ** 2 / p per cell, with f = n_d / n in int division and the square a libm pow (x * x differs from it
    # on some doubles)
    chi2 = n * math.fsum([(p - c / n) ** 2 / p for p, c in zip(ref.probs, obs.counts)])
    return chi2, len(ref.domain) - 1


def chi_squared_pvalue(chi2: float, df: int) -> float:
    """Upper-tail probability P(chi2_df >= chi2) via the regularized incomplete gamma."""
    if chi2 < 0.0 or not math.isfinite(chi2):
        raise ValueError(f"chi2 must be finite and nonnegative, got {chi2!r}")
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    return regularized_gamma_q(0.5 * df, 0.5 * chi2)


def universal_lower_bound(p: float, prior: HypothesisPrior = HypothesisPrior()) -> float | None:
    """Minimum posterior probability of H0 compatible with a p-value.

    Returns 1 / (1 + ((1 - pi) / pi) / (-e * p * ln p)) for p <= 1/e, where pi
    is the prior probability of H0. Above 1/e the bound on B01 is 1, so the
    bound is pi itself; under equal priors that is None, reported as "> 0.5".
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p-value must lie in (0, 1], got {p!r}")
    if p > _ULB_P_MAX:
        return None if prior.prior_h0 == 0.5 else prior.prior_h0
    odds_h1 = (1.0 - prior.prior_h0) / prior.prior_h0  # exactly 1.0 under equal priors
    return 1.0 / (1.0 + odds_h1 / (-math.e * p * math.log(p)))


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
    # zero-count cells contribute nothing to the likelihood and ln Gamma(1) = 0 to the marginal, and are skipped;
    # the log-likelihood is summed from left to right, uncompensated (sum() compensates from Python 3.12 on)
    loglik = reduce(add, [c * log_p for c, log_p in zip(obs.counts, ref.log_probs) if c], 0.0)
    if loglik == -math.inf:  # a count on a zero-probability cell makes the null impossible
        return -math.inf
    log_marginal = -math.lgamma(float(k)) - math.fsum([math.lgamma(c + 1.0) for c in obs.counts if c])
    return loglik + log_marginal + math.lgamma(float(n + k))


def posterior_h0(log_b01: float, prior: HypothesisPrior = HypothesisPrior()) -> float:
    """P(H0 | data) from a log Bayes factor: logistic of log B01 + log prior odds."""
    t = log_b01 + math.log(prior.prior_h0 / (1.0 - prior.prior_h0))
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _small_expected_cells(cv: CountVector, law: DigitDistribution) -> tuple:
    """The cells of ``cv.domain`` whose expected count n * p_d lies below SMALL_EXPECTED_COUNT."""
    return tuple([d for d, p in zip(cv.domain, law.probs) if cv.n * p < SMALL_EXPECTED_COUNT])


def report_from_counts(
    cv: CountVector,
    analyzed: np.ndarray,
    law: DigitDistribution,
    prior: HypothesisPrior = HypothesisPrior(),
) -> TestReport:
    """Assemble a TestReport from an already-tabulated count vector.

    ``analyzed`` holds the values the tally counted, in increasing order: its
    lower middle value is the report's median count. Values out of order are
    a ValueError.
    """
    analyzed = np.asarray(analyzed)
    if analyzed.size == 0:
        raise ValueError("no analyzable values")
    if not (analyzed[1:] >= analyzed[:-1]).all():
        raise ValueError("the analyzed values are not in increasing order")
    chi2, df = chi_squared_stat(cv, law)
    p = chi_squared_pvalue(chi2, df)
    small = _small_expected_cells(cv, law)
    log_b01 = log_bayes_factor_uniform(cv, law)
    return TestReport(
        law=law.kind,
        m=cv.n,
        median_count=analyzed[(analyzed.size - 1) // 2].item(),
        chi2=chi2,
        df=df,
        p_value=p,
        ulb=universal_lower_bound(p, prior) if p > 0.0 else 0.0,
        log_b01=log_b01,
        posterior_h0=posterior_h0(log_b01, prior),
        small_expected=small,
        counts=cv,
    )


def _check_restriction(column: DatasetColumn, law: DigitDistribution) -> None:
    spec = law.restriction
    if spec is None or not column.m:
        return
    # the values are in increasing order, so those outside the bounds lie at its two ends; bisect compares Python ints
    v, lower = column.values, spec.lower or 1
    if v[0].item() < lower or v[-1].item() > spec.upper:
        outside = bisect_left(v, lower, key=int) + v.size - bisect_right(v, spec.upper, key=int)
        raise ValueError(f"{outside} of {column.m} units lie outside the restriction {spec}")


def tabulate(column: DatasetColumn, law: DigitDistribution, policy: str = EXCLUDE_SHORT) -> CountVector:
    """The column's tally at the law's digit position (nb1, nb2) or prefix width (joint)."""
    if law.joint_k is not None:
        return joint_frequencies(column, law.joint_k, policy)
    if law.digit_index is None:
        raise ValueError(f"law {law.kind!r} does not define a digit position to tabulate")
    return digit_frequencies(column, law.digit_index, policy)


def screen(
    column: DatasetColumn,
    law: DigitDistribution,
    prior: HypothesisPrior = HypothesisPrior(),
    policy: str = EXCLUDE_SHORT,
) -> TestReport:
    """Screen one column against one law: tabulate, test, calibrate, report.

    A restricted law holds only for counts inside its bounds, so a column
    with any value outside them is an error, not a report.
    """
    _check_restriction(column, law)
    cv = tabulate(column, law, policy)
    analyzed = analyzable_values(column, law.joint_k or law.digit_index, policy)
    return report_from_counts(cv, analyzed, law, prior)
