"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they check: the incomplete gamma
oracle integrates the density numerically at high precision, the Bayes
factor oracle works in exact rational arithmetic, and the digit tallies read
each value's decimal string instead of dividing by powers of ten. The
digit-keyed chi-squared and ln B01 oracles pin the float operations of the
reports instead: they must agree with the library bit for bit, as must the
voting model's former scalar generator.
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np


def mp_gamma_q(a: float, x: float, dps: int = 40) -> float:
    """Upper regularized incomplete gamma by high-precision numerical integration.

    The integral starts at x, so the exponential scale e^(-x) is factored out
    first; integrating the shifted integrand keeps the quadrature
    well-conditioned arbitrarily deep in the tail.
    """
    with mpmath.workdps(dps):
        a_mp, x_mp = mpmath.mpf(a), mpmath.mpf(x)
        if x_mp == 0:
            return 1.0
        integral = mpmath.quad(
            lambda u: (x_mp + u) ** (a_mp - 1) * mpmath.e ** (-u), [0, mpmath.inf]
        )
        q = mpmath.e ** (-x_mp) * integral / mpmath.gamma(a_mp)
        # cross-check the quadrature against mpmath's own implementation,
        # in strictly relative terms so tail values cannot hide errors
        ref = mpmath.gammainc(a_mp, x_mp, mpmath.inf, regularized=True)
        assert abs(q - ref) <= abs(ref) * mpmath.mpf(10) ** (-dps + 15)
        return float(q)


def exact_log_b01(counts, probs) -> float:
    """ln B01 by exact rational arithmetic; oracle for small counts."""
    k = len(counts)
    n = sum(counts)
    b01 = Fraction(1)
    for c, p in zip(counts, probs):
        b01 *= Fraction(p) ** c
    b01 *= Fraction(math.factorial(n + k - 1), math.factorial(k - 1))
    for c in counts:
        b01 /= math.factorial(c)
    return math.log(b01.numerator) - math.log(b01.denominator)


# Chi-squared and ln B01 over dicts keyed by digit, in the order and with the
# float operations every report has used: math.fsum over (p - f) ** 2 / p (a
# libm pow, which is not always x * x), a sequential += of n_d * math.log(p_d),
# and math.lgamma per nonzero cell.


def dict_chi_squared(counts: dict, probs: dict) -> float:
    """n * sum_d (p_d - n_d / n) ** 2 / p_d over the digits of ``probs``."""
    n = sum(counts.values())
    f = {d: c / n for d, c in counts.items()}
    return n * math.fsum((probs[d] - f[d]) ** 2 / probs[d] for d in probs)


def dict_log_b01(counts: dict, probs: dict) -> float:
    """ln B01 = sum_d n_d ln p_d - ln(k-1)! - sum_d ln n_d! + ln(n+k-1)!."""
    k, n = len(counts), sum(counts.values())
    if n == 0:
        return 0.0
    loglik = 0.0
    for d in probs:
        if counts[d] == 0:
            continue
        if probs[d] == 0.0:
            return -math.inf
        loglik += counts[d] * math.log(probs[d])
    log_marginal = -math.lgamma(float(k)) - math.fsum(math.lgamma(c + 1.0) for c in counts.values() if c > 0)
    return loglik + log_marginal + math.lgamma(float(n + k))


# Digit tabulation read from decimal strings, one value at a time: the
# reference for the int64 kernel in digitscreen.digits. Under "exclude-short"
# a value with fewer than i (or k) digits is excluded; under "trailing-zero"
# it is read as if padded with zeros.


def str_digit_tally(values, i: int, policy: str) -> tuple[dict, int]:
    """(count of each i-th significant digit, number of excluded values)."""
    counter = Counter()
    excluded = 0
    for v in values:
        s = str(v)
        if len(s) < i:
            if policy == "exclude-short":
                excluded += 1
                continue
            s = s.ljust(i, "0")
        counter[int(s[i - 1])] += 1
    return dict(counter), excluded


def str_joint_tally(values, k: int, policy: str) -> tuple[dict, int]:
    """(count of each k-digit prefix tuple, number of excluded values)."""
    counter = Counter()
    excluded = 0
    for v in values:
        s = str(v)
        if len(s) < k:
            if policy == "exclude-short":
                excluded += 1
                continue
            s = s.ljust(k, "0")
        counter[tuple(int(c) for c in s[:k])] += 1
    return dict(counter), excluded


def str_analyzable(values, width: int, policy: str) -> list:
    """The values that carry a digit at position ``width`` under ``policy``."""
    return [v for v in values if policy == "trailing-zero" or len(str(v)) >= width]


def sorted_lower_median(values):
    """The lower middle element of the sorted values."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


# The voting model's former scalar generator, copied verbatim from
# digitscreen.simulate: one unit at a time, one Box-Muller normal per
# 1-element draw, and one draw per Bernoulli count. simulate.hmpm_unit_counts
# must give the same units, bit for bit.


def _unit_rng(seed: int, unit_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(unit_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _standard_normals(rng: np.random.Generator, size: int) -> np.ndarray:
    # Box-Muller on the uniform stream; 1 - u keeps the log argument in (0, 1]
    u1 = 1.0 - rng.random(size)
    u2 = rng.random(size)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _normal_scalar(rng: np.random.Generator) -> float:
    return float(_standard_normals(rng, 1)[0])


def _gamma_variate(rng: np.random.Generator, shape: float) -> float:
    # Marsaglia-Tsang squeeze; the shape < 1 case boosts through shape + 1
    if shape < 1.0:
        return _gamma_variate(rng, shape + 1.0) * (1.0 - rng.random()) ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = _normal_scalar(rng)
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = rng.random()
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
            return d * v


def _beta_variate(rng: np.random.Generator, a: float, b: float) -> float:
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return 0.0
    x = _gamma_variate(rng, a)
    y = _gamma_variate(rng, b)
    return x / (x + y)


def _bernoulli_count(rng: np.random.Generator, n: int, p: float) -> int:
    # Binomial(n, p) as a count of uniforms below p; exact and stream-stable
    if n <= 0:
        return 0
    return int(np.count_nonzero(rng.random(n) < p))


def scalar_hmpm_unit_counts(config) -> list[tuple[int, int]]:
    """The voting model's per-unit (candidate A, candidate B) counts, one unit at a time."""
    units = []
    for j in range(config.n_units):
        rng = _unit_rng(config.seed, j)
        t = _beta_variate(rng, *config.turnout_dist)
        phi = _beta_variate(rng, *config.partisan_fraction_dist)
        w = _beta_variate(rng, *config.swing_prob_dist)
        turnout = _bernoulli_count(rng, config.max_voters, t)
        partisans = _bernoulli_count(rng, turnout, phi)
        swing = turnout - partisans
        a = _bernoulli_count(rng, partisans, config.partisan_loyalty) + _bernoulli_count(rng, swing, w)
        units.append((a, turnout - a))
    return units
