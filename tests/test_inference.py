"""Inference layer: chi-squared, calibration bound, Bayes factors, screening."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import (
    dict_chi_squared,
    dict_log_b01,
    exact_log_b01,
    former_chi_squared_stat,
    former_log_bayes_factor_uniform,
    former_proportions_bytes,
    former_small_expected,
)
from hypothesis import example, given, settings, strategies as st

from digitscreen import cli
from digitscreen.digits import CountVector, DatasetColumn
from digitscreen.inference import (
    HypothesisPrior,
    chi_squared_pvalue,
    chi_squared_stat,
    log_bayes_factor_uniform,
    posterior_h0,
    report_from_counts,
    screen,
    _small_expected_cells,
    universal_lower_bound,
)
from digitscreen.laws import (
    DigitDistribution,
    RestrictionSpec,
    law_from_name,
    nbl_first,
    nbl_joint,
    nbl_second,
    restricted_law,
    uniform_law,
)

ULB_TABLE = [(0.05, 0.29), (0.01, 0.11), (0.001, 0.0184)]


def count_vector(counts, domain=None):
    domain = domain if domain is not None else tuple(range(1, len(counts) + 1))
    return CountVector(domain, counts)


def simple_law(probs, domain=None):
    domain = domain if domain is not None else tuple(range(1, len(probs) + 1))
    return DigitDistribution("test-law", domain, probs, digit_index=1)


class TestChiSquaredStat:
    def test_perfect_fit_is_zero(self):
        law = uniform_law(2)
        cv = CountVector(law.domain, [7] * len(law.domain))
        chi2, df = chi_squared_stat(cv, law)
        assert chi2 == 0.0
        assert df == 9

    def test_single_observation_against_first_law(self):
        # hand evaluation of n * sum (p_d - f_d)^2 / p_d with f_1 = 1
        cv = count_vector([1, 0, 0, 0, 0, 0, 0, 0, 0])
        chi2, df = chi_squared_stat(cv, nbl_first())
        assert chi2 == pytest.approx(2.32193, abs=5e-5)
        assert df == 8

    def test_doubling_counts_doubles_stat(self):
        law = nbl_second()
        counts = [(d + 2) * 3 for d in law.domain]
        cv1 = CountVector(law.domain, counts)
        cv2 = CountVector(law.domain, [2 * c for c in counts])
        chi2_1, _ = chi_squared_stat(cv1, law)
        chi2_2, _ = chi_squared_stat(cv2, law)
        assert chi2_2 == pytest.approx(2 * chi2_1, rel=1e-12)

    def test_joint_degrees_of_freedom(self):
        law = nbl_joint(2)
        cv = CountVector(law.domain, [1] * len(law.domain))
        _, df = chi_squared_stat(cv, law)
        assert df == 89

    def test_domain_mismatch(self):
        cv = count_vector([1, 0, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="domain"):
            chi_squared_stat(cv, nbl_second())

    def test_empty_counts(self):
        cv = count_vector([0] * 9)
        with pytest.raises(ValueError, match="no analyzable"):
            chi_squared_stat(cv, nbl_first())

    def test_zero_probability_cell_rejected(self):
        law = simple_law([0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="zero-probability"):
            chi_squared_stat(count_vector([1, 1, 0]), law)

    def test_label_permutation_invariance(self):
        probs = [0.2, 0.3, 0.1, 0.4]
        counts = [5, 1, 7, 2]
        base_chi2, _ = chi_squared_stat(count_vector(counts), simple_law(probs))
        base_lb = log_bayes_factor_uniform(count_vector(counts), simple_law(probs))
        rng = random.Random(7)
        for _ in range(5):
            perm = list(range(4))
            rng.shuffle(perm)
            chi2, _ = chi_squared_stat(
                count_vector([counts[j] for j in perm]), simple_law([probs[j] for j in perm])
            )
            lb = log_bayes_factor_uniform(
                count_vector([counts[j] for j in perm]), simple_law([probs[j] for j in perm])
            )
            assert chi2 == pytest.approx(base_chi2, rel=1e-12)
            assert lb == pytest.approx(base_lb, rel=1e-12)


class TestChiSquaredPvalue:
    def test_zero_statistic(self):
        assert chi_squared_pvalue(0.0, 9) == 1.0

    def test_standard_table_point(self):
        assert chi_squared_pvalue(16.919, 9) == pytest.approx(0.050, abs=5e-4)

    def test_against_scipy_grid(self):
        from scipy.stats import chi2 as scipy_chi2

        for df in (8, 9, 89):
            for x in (0.5, 2.0, df / 2, float(df), 2.0 * df, 5.0 * df):
                assert chi_squared_pvalue(x, df) == pytest.approx(
                    float(scipy_chi2.sf(x, df)), rel=1e-10
                )

    @given(st.integers(min_value=1, max_value=120), st.floats(min_value=0.0, max_value=500.0))
    def test_in_unit_interval(self, df, chi2):
        assert 0.0 <= chi_squared_pvalue(chi2, df) <= 1.0

    def test_strictly_decreasing(self):
        # grid scaled by df so the tail stays resolvable in double precision
        for df in (8, 9, 89):
            xs = [df * s for s in (0.4, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0)]
            ps = [chi_squared_pvalue(x, df) for x in xs]
            assert all(a > b for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("df", [1, 8, 9, 89])
    @pytest.mark.parametrize("chi2", [1.7e18, 2.0**63])
    def test_huge_statistic_gives_zero(self, chi2, df):
        # the tail underflows long before this; the continued fraction's stop test is never met out here
        assert chi_squared_pvalue(chi2, df) == 0.0

    def test_against_mpmath_grid(self):
        # every df a test can have (1 to 89, joint2's), chi-squared from 0 to 2^63
        xs = [0.0, 1e-3, 0.1, 0.5, *(float(v) for v in range(1, 60, 3)), *(10.0 ** e for e in range(2, 19)), 2.0**63]
        for df in range(1, 90):
            for x in xs:
                _assert_matches_mpmath(x, df)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 89), st.one_of(st.floats(0.0, 2.0**63), st.floats(-3.0, 63 * math.log10(2.0)).map(
        lambda e: 10.0**e)))
    def test_matches_mpmath(self, df, chi2):
        _assert_matches_mpmath(chi2, df)

    @given(st.integers(1, 89), st.floats(0.0, 2.0**63), st.floats(0.0, 2.0**63))
    def test_in_unit_interval_and_nonincreasing(self, df, x1, x2):
        lo, hi = sorted((x1, x2))
        p_lo, p_hi = chi_squared_pvalue(lo, df), chi_squared_pvalue(hi, df)
        assert 0.0 <= p_hi <= p_lo <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi_squared_pvalue(-1.0, 9)
        with pytest.raises(ValueError):
            chi_squared_pvalue(1.0, 0)


def _assert_matches_mpmath(chi2: float, df: int) -> None:
    """The p-value agrees with mpmath's at 40 digits: relative error at most 2.5e-13 (the worst of 220 000 random
    draws was 1.24e-13, near p = 1e-277), and at most 2e-321 absolute where p is subnormal (the worst was 7.7e-322)."""
    with mpmath.workdps(40):
        ref = float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(chi2) / 2, mpmath.inf, regularized=True))
    p = chi_squared_pvalue(chi2, df)
    assert abs(p - ref) <= 2.5e-13 * ref + 2e-321, (chi2, df, p, ref)


class TestUniversalLowerBound:
    @pytest.mark.parametrize("p,expected", ULB_TABLE)
    def test_calibration_table(self, p, expected):
        tol = 0.005 if expected >= 0.01 else 0.0005
        assert universal_lower_bound(p) == pytest.approx(expected, abs=tol)

    def test_boundary_is_half(self):
        assert universal_lower_bound(1 / math.e) == pytest.approx(0.5, abs=1e-12)

    def test_flag_above_boundary(self):
        assert universal_lower_bound(0.5) is None
        assert universal_lower_bound(1.0) is None

    @pytest.mark.parametrize("p", [0.05, 0.001, 1e-12])
    def test_calibrates_with_the_prior_odds(self, p):
        calibration = -math.e * p * math.log(p)
        assert universal_lower_bound(p, HypothesisPrior(0.05)) == pytest.approx(1 / (1 + 19 / calibration), rel=1e-12)
        assert universal_lower_bound(p, HypothesisPrior(0.8)) == pytest.approx(1 / (1 + 0.25 / calibration), rel=1e-12)
        assert universal_lower_bound(p, HypothesisPrior(0.5)) == universal_lower_bound(p) == 1 / (1 + 1 / calibration)

    @pytest.mark.parametrize("prior", [0.05, 0.8])
    def test_bound_is_the_prior_above_boundary(self, prior):
        assert universal_lower_bound(1 / math.e, HypothesisPrior(prior)) == pytest.approx(prior, abs=1e-12)
        assert universal_lower_bound(0.5, HypothesisPrior(prior)) == prior

    def test_domain(self):
        with pytest.raises(ValueError):
            universal_lower_bound(0.0)
        with pytest.raises(ValueError):
            universal_lower_bound(1.5)

    @given(st.floats(min_value=1e-300, max_value=1 / math.e, exclude_max=True))
    def test_bound_dominates_pvalue(self, p):
        bound = universal_lower_bound(p)
        assert bound is not None
        assert bound >= p
        assert bound <= 0.5


class TestLogBayesFactor:
    def test_no_data_no_evidence(self):
        cv = count_vector([0] * 9)
        assert log_bayes_factor_uniform(cv, nbl_first()) == 0.0

    def test_small_case_exact(self):
        # counts (2,1,0) on (0.5, 0.3, 0.2): B01 = 0.075 / (1/30) = 2.25
        law = simple_law([0.5, 0.3, 0.2])
        got = log_bayes_factor_uniform(count_vector([2, 1, 0]), law)
        assert got == pytest.approx(math.log(2.25), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_exact_rational_oracle(self, data):
        k = data.draw(st.integers(min_value=2, max_value=4))
        counts = data.draw(st.lists(st.integers(min_value=0, max_value=12), min_size=k, max_size=k))
        if sum(counts) > 12:
            counts = [c % 4 for c in counts]
        raw = data.draw(st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k))
        total = sum(raw)
        probs = [Fraction(r, total) for r in raw]
        law = simple_law([float(p) for p in probs], domain=tuple(range(k)))
        # oracle uses the exact fractions; implementation sees their float images,
        # so compare at the tolerance the float conversion itself allows
        cv = count_vector(counts, domain=tuple(range(k)))
        expected = exact_log_b01(counts, probs)
        assert log_bayes_factor_uniform(cv, law) == pytest.approx(expected, rel=1e-12, abs=1e-10)

    def test_impossible_cell_certain_rejection(self):
        law = simple_law([0.5, 0.5, 0.0])
        cv = count_vector([1, 1, 1])
        assert log_bayes_factor_uniform(cv, law) == -math.inf

    def test_zero_cell_with_zero_count_is_fine(self):
        law = simple_law([0.5, 0.5, 0.0])
        cv = count_vector([1, 1, 0])
        assert math.isfinite(log_bayes_factor_uniform(cv, law))

    def test_null_sample_gives_positive_evidence(self):
        # NBL2 multinomial draw, n = 1e5: the Bayes factor must favor the null
        law = nbl_second()
        counts = _multinomial_counts(law, 100_000, seed=2024)
        cv = CountVector(law.domain, counts)
        assert log_bayes_factor_uniform(cv, law) > 0


# nb1, nb2, joint2, rnb2 on N <= 2250 and rnb1 on 10 <= N <= 2250
BIT_EXACT_LAWS = (nbl_first(), nbl_second(), nbl_joint(2), law_from_name("rnb2:2250"), law_from_name("rnb1", 2250, 10))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_chi2_and_log_b01_match_the_dict_oracles_bit_for_bit(seed):
    # (p - f) ** 2 and (p - f) * (p - f) differ in about 1 of 1 700 chi-squared values, so each
    # example checks 800 random count vectors: 160 per law, scales 1 to 10^6, a fifth of the cells zero
    rng = np.random.default_rng(seed)
    for law in BIT_EXACT_LAWS:
        k = len(law.domain)
        counts = rng.integers(0, 10 ** rng.integers(1, 7, size=(160, 1)), size=(160, k))
        counts[rng.random((160, k)) < 0.2] = 0
        counts[:, rng.integers(0, k)] += 1  # every vector has a nonzero total
        probs = dict(zip(law.domain, law.probs))
        for row in counts.tolist():
            cv = CountVector(law.domain, row)
            by_digit = dict(zip(law.domain, row))
            assert chi_squared_stat(cv, law)[0] == dict_chi_squared(by_digit, probs)
            assert log_bayes_factor_uniform(cv, law) == dict_log_b01(by_digit, probs)


# every law `screen` ships: nb1, nb2, joint2, and rnb1, rnb2 (cnb an alias) under any bounds, so that a small upper
# bound leaves zero-probability cells (rnb1:5 has four), where ln B01 is -inf and chi-squared an error
SHIPPED_LAWS = st.one_of(
    st.sampled_from(["nb1", "nb2", "joint2"]).map(law_from_name),
    st.builds(law_from_name, st.sampled_from(["rnb1", "cnb1"]), st.integers(1, 2**63 - 1)),
    st.builds(law_from_name, st.sampled_from(["rnb2", "cnb2"]), st.integers(10, 2**63 - 1)),
)
# zero, small and int64 counts, and counts about 2^53, past which n_d no longer converts to a float exactly
CELL_COUNTS = st.one_of(st.just(0), st.integers(1, 3000), st.integers(2**53 - 2, 2**53 + 2), st.integers(0, 2**63 - 1))


def _bits(fn, *args):
    """What ``fn`` gives, floats as ``float.hex``, or the ValueError it raises."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return tuple(map(_bits_of, result)) if isinstance(result, tuple) else _bits_of(result)


def _bits_of(x):
    return x.hex() if isinstance(x, float) else x


@settings(max_examples=60, deadline=None)
@given(SHIPPED_LAWS, st.data(), st.integers(0, 2**32 - 1))
@example(law_from_name("rnb1:5"), None, 0)
def test_per_cell_passes_match_the_former_loops_bit_for_bit(tmp_path_factory, law, data, seed):
    # the drawn count vector (all zero cells included), then 100 random ones: x * x in place of x ** 2 changes
    # about 1 in 1 700 chi-squared values, and only a long run of them catches it
    k = len(law.domain)
    rng = np.random.default_rng(seed)
    drawn = [0] * k if data is None else data.draw(st.lists(CELL_COUNTS, min_size=k, max_size=k))
    vectors = [drawn, *rng.integers(0, 10 ** rng.integers(1, 7, size=(100, 1)), size=(100, k)).tolist()]
    if data is None:  # rnb1:5: counts on its zero-probability cells, and only on its others
        vectors += [[0, 0, 0, 0, 0, 1, 2, 3, 4], [5, 4, 3, 2, 1, 0, 0, 0, 0]]
    for counts in vectors:
        cv = CountVector(law.domain, counts)
        assert _bits(chi_squared_stat, cv, law) == _bits(former_chi_squared_stat, cv, law)
        assert _bits(log_bayes_factor_uniform, cv, law) == _bits(former_log_bayes_factor_uniform, cv, law)
        assert _small_expected_cells(cv, law) == former_small_expected(cv, law)
    out = tmp_path_factory.mktemp("proportions")
    for counts in vectors[:3]:
        cv = CountVector(law.domain, counts)
        if not cv.n:
            continue
        for fmt in ("csv", "json"):
            template = cli.proportions_template(law, fmt)
            cli.write_proportions(template, str(out / f"p.{fmt}"), cv)
            assert (out / f"p.{fmt}").read_bytes() == former_proportions_bytes(template, cv)


class TestPosterior:
    def test_even_odds(self):
        assert posterior_h0(0.0) == 0.5

    def test_three_to_one(self):
        assert posterior_h0(math.log(3.0)) == pytest.approx(0.75, rel=1e-12)

    def test_saturation_without_overflow(self):
        assert posterior_h0(-1e4) == pytest.approx(0.0, abs=1e-300)
        assert posterior_h0(1e6) == 1.0
        assert posterior_h0(-1e6) == 0.0
        assert posterior_h0(-math.inf) == 0.0

    def test_prior_shifts_posterior(self):
        assert posterior_h0(0.0, HypothesisPrior(0.9)) == pytest.approx(0.9, rel=1e-12)

    @given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
    def test_monotone_in_log_b01(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert posterior_h0(lo) <= posterior_h0(hi)

    def test_monotone_in_prior(self):
        posts = [posterior_h0(1.0, HypothesisPrior(p)) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(x < y for x, y in zip(posts, posts[1:]))

    def test_prior_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                HypothesisPrior(bad)


def _multinomial_counts(law, n, seed):
    """Inverse-transform multinomial draw, independent of numpy's own multinomial."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    edges = np.cumsum(law.probs)
    edges[-1] = 1.0
    picks = np.searchsorted(edges, rng.random(n), side="right")
    return tuple(int((picks == i).sum()) for i in range(len(law.domain)))


def _column_with_second_digits(law, n, seed):
    """A column of two-digit values 10..19 whose second digits follow `law`."""
    counts = _multinomial_counts(law, n, seed)
    values = [10 + d for d, c in zip(law.domain, counts) for _ in range(c)]
    return DatasetColumn("synthetic", tuple(values))


class TestScreen:
    def test_null_conforming_column(self):
        col = _column_with_second_digits(nbl_second(), 19_064, seed=11)
        rep = screen(col, nbl_second())
        assert rep.posterior_h0 > 0.99
        assert rep.p_value > 0.01
        assert rep.m == 19_064
        assert rep.df == 9

    def test_uniform_second_digits_rejected(self):
        col = _column_with_second_digits(uniform_law(2), 19_064, seed=12)
        rep = screen(col, nbl_second())
        assert rep.posterior_h0 < 1e-6
        assert rep.p_value < 1e-6
        assert rep.ulb is not None and rep.ulb < 1e-6

    def test_empty_column_errors(self):
        with pytest.raises(ValueError, match="no analyzable"):
            screen(DatasetColumn("empty", ()), nbl_second())

    def test_median_is_lower_middle(self):
        col = DatasetColumn("x", (10, 20, 30, 40))
        rep = screen(col, nbl_first())
        assert rep.median_count == 20

    def test_report_from_counts_takes_any_sorted_sequence(self):
        cv = CountVector(tuple(range(1, 10)), (1, 1, 1, 1, 0, 0, 0, 0, 0))
        assert report_from_counts(cv, [10, 20, 30, 40], nbl_first()).median_count == 20

    def test_report_from_counts_refuses_no_values(self):
        with pytest.raises(ValueError, match="^no analyzable values$"):
            report_from_counts(CountVector(tuple(range(1, 10)), (0,) * 9), [], nbl_first())

    @pytest.mark.parametrize("analyzed", [[20, 10, 30, 40], [10, 30, 20, 40], np.array([40, 30, 20, 10])])
    def test_report_from_counts_refuses_values_out_of_order(self, analyzed):
        # the median is read by index, so unsorted values would give a wrong one
        cv = CountVector(tuple(range(1, 10)), (1, 1, 1, 1, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="not in increasing order"):
            report_from_counts(cv, analyzed, nbl_first())

    def test_m_tracks_exclusions(self):
        col = DatasetColumn("x", (5, 7, 23, 154))
        rep1 = screen(col, nbl_first())
        rep2 = screen(col, nbl_second())
        assert rep1.m == 4
        assert rep2.m == 2

    def test_small_expected_cells_flagged(self):
        col = DatasetColumn("x", (12, 23, 34, 45, 56))
        rep = screen(col, nbl_second())
        assert rep.small_expected  # n = 5, every expected count is below 5

    def test_expected_count_of_exactly_five_is_not_flagged(self):
        # uniform on 0..9 with n = 50 expects 5 of each digit: below 5 is flagged, 5 is not
        cv = CountVector(uniform_law(2).domain, (5,) * 10)
        assert _small_expected_cells(cv, uniform_law(2)) == ()
        assert _small_expected_cells(CountVector(uniform_law(2).domain, (5,) * 9 + (4,)), uniform_law(2)) == tuple(
            range(10))

    def test_ulb_flag_for_large_pvalues(self):
        col = _column_with_second_digits(nbl_second(), 19_064, seed=11)
        rep = screen(col, nbl_second())
        if rep.p_value > 1 / math.e:
            assert rep.ulb is None

    @pytest.mark.parametrize("spec,outside", [
        (RestrictionSpec(upper=100), 2),
        (RestrictionSpec(lower=20, upper=100), 3),
    ])
    def test_restricted_law_rejects_values_outside_its_bound(self, spec, outside):
        col = DatasetColumn("x", (12, 23, 34, 100, 101, 3000))
        with pytest.raises(ValueError, match=rf"^{outside} of 6 units lie outside the restriction"):
            screen(col, restricted_law(nbl_second(), spec))

    def test_restricted_law_accepts_values_on_its_bounds(self):
        col = DatasetColumn("x", (20, 23, 34, 99, 100))
        rep = screen(col, restricted_law(nbl_second(), RestrictionSpec(lower=20, upper=100)))
        assert rep.m == 5
