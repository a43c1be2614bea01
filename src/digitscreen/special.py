"""Upper regularized incomplete gamma, in double precision.

Chi-squared tails run through `regularized_gamma_q`, which the stdlib lacks;
it is kept simple, log-space, and accurate to near machine precision. Log-gamma
itself is `math.lgamma`.
"""

from __future__ import annotations

import math

_MAX_ITER = 20_000
_EPS = 1e-16


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized P(a, x) by power series; best for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise RuntimeError(f"incomplete gamma series failed to converge for a={a}, x={x}")


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized Q(a, x) by continued fraction (modified Lentz); best for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise RuntimeError(f"incomplete gamma continued fraction failed to converge for a={a}, x={x}")


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x).

    Computed directly by continued fraction in the tail (x >= a + 1), and as
    1 - series elsewhere, so both regimes keep full relative accuracy.
    """
    if a <= 0.0 or not math.isfinite(a):
        raise ValueError(f"shape parameter must be positive and finite, got {a!r}")
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"x must be finite and nonnegative, got {x!r}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)
