"""Special-function accuracy against independent oracles (mpmath, exact factorials)."""

import math

import mpmath
import pytest

from digitscreen.special import regularized_gamma_q
from oracles import mp_gamma_q


@pytest.mark.parametrize("x", [0.5, 1.0, 1.5, 2.0, 3.7, 4.0, 4.5, 10.0, 44.5, 171.6,
                               1234.5, 1e4, 123456.0, 1e6])
def test_log_gamma_matches_lgamma(x):
    # math.lgamma at half-integer shapes (df / 2) and large counts, off the grid below
    ref = float(mpmath.loggamma(x))
    assert abs(math.lgamma(x) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_against_mpmath_grid():
    xs = [0.1 * k for k in range(1, 50)] + [10.0 * k for k in range(1, 100)] + [10.0 ** k for k in range(2, 7)]
    for x in xs:
        ref = float(mpmath.loggamma(x))
        assert abs(math.lgamma(x) - ref) <= 1e-13 * max(1.0, abs(ref)), f"x={x}"


def test_log_gamma_integer_factorials():
    fact = 1
    for n in range(2, 160):
        fact *= n - 1
        assert math.lgamma(float(n)) == pytest.approx(math.log(fact), rel=1e-14)


@pytest.mark.parametrize("a,x", [(4.0, 0.5), (4.0, 4.0), (4.0, 30.0), (4.5, 2.0),
                                 (4.5, 16.9 / 2), (44.5, 20.0), (44.5, 44.0), (44.5, 300.0)])
def test_regularized_gamma_q_oracle(a, x):
    assert regularized_gamma_q(a, x) == pytest.approx(mp_gamma_q(a, x), rel=1e-12)


def test_p_q_complementarity():
    # P from mpmath plus our Q is one, and Q meets the oracle, in both regimes
    for a in (0.5, 1.0, 4.0, 4.5, 44.5):
        for x in (0.1, 1.0, a, a + 1.0, 3 * a):
            q = regularized_gamma_q(a, x)
            assert float(mpmath.gammainc(a, 0, x, regularized=True)) + q == pytest.approx(1.0, abs=1e-14)
            assert q == pytest.approx(mp_gamma_q(a, x), rel=1e-12)


def test_q_boundaries_and_monotonicity():
    assert regularized_gamma_q(4.5, 0.0) == 1.0
    xs = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    qs = [regularized_gamma_q(4.5, x) for x in xs]
    assert all(q1 > q2 for q1, q2 in zip(qs, qs[1:]))


def test_q_rejects_bad_input():
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(-2.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(1.0, -0.5)


def test_far_tail_stays_accurate():
    # smallest representable regime still has full relative accuracy
    a, x = 4.5, 500.0
    assert regularized_gamma_q(a, x) == pytest.approx(mp_gamma_q(a, x, dps=60), rel=1e-11)
