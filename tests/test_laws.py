"""Reference laws: golden table values, cardinality oracle, restriction identities."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from digitscreen.digits import significant_digit
from digitscreen import laws
from digitscreen.laws import (
    DigitDistribution,
    RestrictionSpec,
    canonical_law_name,
    count_with_digit,
    law_from_name,
    nbl_first,
    nbl_joint,
    nbl_second,
    restricted_law,
    uniform_law,
)

from golden import CNB1_800_TABLE, CNB2_800_TABLE, NB1_TABLE, NB2_TABLE
from oracles import _count_upto as decade_walk

TABLE_TOL = 0.0005  # half an ulp of the printed third decimal


def by_digit(law: DigitDistribution) -> dict:
    """The law's probabilities read by digit."""
    return dict(zip(law.domain, law.probs))


def brute_force_count(d, i, lower, upper):
    return sum(
        1 for v in range(lower, upper + 1) if len(str(v)) >= i and int(str(v)[i - 1]) == d
    )


class TestFirstDigitLaw:
    def test_golden_values(self):
        law = by_digit(nbl_first())
        for d, expected in NB1_TABLE.items():
            assert abs(law[d] - expected) < TABLE_TOL, f"digit {d}"

    def test_sums_to_one_exactly(self):
        # telescoping: the float values happen to fsum to exactly 1.0
        assert math.fsum(nbl_first().probs) == 1.0

    def test_formula(self):
        law = by_digit(nbl_first())
        for d in range(1, 10):
            assert law[d] == math.log10(1 + 1 / d)


class TestSecondDigitLaw:
    def test_golden_values(self):
        law = by_digit(nbl_second())
        for d, expected in NB2_TABLE.items():
            assert abs(law[d] - expected) < TABLE_TOL, f"digit {d}"

    def test_normalized(self):
        assert math.fsum(nbl_second().probs) == pytest.approx(1.0, abs=1e-12)

    def test_less_spread_than_first(self):
        nb1, nb2 = nbl_first(), nbl_second()
        assert max(nb2.probs) - min(nb2.probs) < max(nb1.probs) - min(nb1.probs)


class TestJointLaw:
    def test_prefix_ten(self):
        assert by_digit(nbl_joint(2))[(1, 0)] == pytest.approx(math.log10(1 + 1 / 10), abs=1e-15)

    def test_second_digit_marginal(self):
        joint, second = by_digit(nbl_joint(2)), by_digit(nbl_second())
        for d2 in range(10):
            marginal = math.fsum(joint[(d1, d2)] for d1 in range(1, 10))
            assert marginal == pytest.approx(second[d2], abs=1e-12)

    def test_first_digit_marginal(self):
        joint, first = by_digit(nbl_joint(2)), by_digit(nbl_first())
        for d1 in range(1, 10):
            marginal = math.fsum(joint[(d1, d2)] for d2 in range(10))
            assert marginal == pytest.approx(first[d1], abs=1e-12)

    def test_domain_size(self):
        assert len(nbl_joint(2).domain) == 90
        assert len(nbl_joint(3).domain) == 900

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="nbl_first"):
            nbl_joint(1)
        with pytest.raises(ValueError):
            nbl_joint(7)


class TestUniformLaw:
    def test_values(self):
        assert by_digit(uniform_law(1))[3] == pytest.approx(1 / 9)
        assert by_digit(uniform_law(2))[0] == pytest.approx(1 / 10)


class TestCardinality:
    def test_known_cardinality_at_800(self):
        assert count_with_digit(2, 1, RestrictionSpec(upper=800)) == 111

    def test_derived_value_digit_eight(self):
        # brute force over 1..800: {8, 80..89, 800}
        assert count_with_digit(8, 1, RestrictionSpec(upper=800)) == 12

    def test_tiny_bound(self):
        assert count_with_digit(2, 1, RestrictionSpec(upper=9)) == 1

    def test_requires_upper_bound(self):
        with pytest.raises(ValueError, match="upper bound"):
            count_with_digit(2, 1, RestrictionSpec(lower=10))

    def test_rejects_digit_outside_domain(self):
        with pytest.raises(ValueError):
            count_with_digit(0, 1, RestrictionSpec(upper=100))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=3))
    def test_matches_enumeration(self, upper, i):
        spec = RestrictionSpec(upper=upper)
        for d in (range(1, 10) if i == 1 else range(10)):
            assert count_with_digit(d, i, spec) == brute_force_count(d, i, 1, upper), (d, i, upper)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
    def test_two_sided_matches_enumeration(self, a, b):
        lower, upper = min(a, b), max(a, b)
        spec = RestrictionSpec(lower=lower, upper=upper)
        for d in (1, 5, 9):
            assert count_with_digit(d, 1, spec) == brute_force_count(d, 1, lower, upper)

    def test_total_equals_numbers_with_enough_digits(self):
        for upper in (7, 99, 850, 12345):
            for i in (1, 2, 3):
                total = sum(count_with_digit(d, i, RestrictionSpec(upper=upper))
                            for d in (range(1, 10) if i == 1 else range(10)))
                expected = sum(1 for v in range(1, upper + 1) if len(str(v)) >= i)
                assert total == expected

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.integers(min_value=-1, max_value=10**6), st.integers(min_value=0, max_value=2**63 - 1),
                     st.integers(min_value=0, max_value=19).map(lambda e: 10**e),
                     st.integers(min_value=1, max_value=19).map(lambda e: 10**e - 1)))
    def test_closed_form_matches_the_decade_walk(self, n):
        for i in range(1, 20):
            for d in (range(1, 10) if i == 1 else range(10)):
                assert laws._count_upto(n, i, d) == decade_walk(n, i, d), (n, i, d)

    def test_agrees_with_significant_digit(self):
        spec = RestrictionSpec(upper=500)
        for d in range(1, 10):
            by_extraction = sum(1 for v in range(1, 501) if significant_digit(v, 1) == d)
            assert count_with_digit(d, 1, spec) == by_extraction


class TestRestrictedLaw:
    def test_cnb1_800_golden(self):
        law = by_digit(restricted_law(nbl_first(), RestrictionSpec(upper=800)))
        for d, expected in CNB1_800_TABLE.items():
            assert abs(law[d] - expected) < TABLE_TOL, f"digit {d}"

    def test_cnb2_800_golden(self):
        law = by_digit(restricted_law(nbl_second(), RestrictionSpec(upper=800)))
        for d, expected in CNB2_800_TABLE.items():
            assert abs(law[d] - expected) < TABLE_TOL, f"digit {d}"

    def test_k9_no_correction_exact(self):
        law = restricted_law(nbl_first(), RestrictionSpec(upper=9))
        assert law.probs == nbl_first().probs

    def test_complete_decades_no_correction(self):
        for j in range(1, 7):
            law = by_digit(restricted_law(nbl_first(), RestrictionSpec(upper=10**j - 1)))
            for d in range(1, 10):
                assert abs(law[d] - by_digit(nbl_first())[d]) <= 1e-12

    def test_empty_restriction(self):
        # integers 1..9 carry no second digit at all
        with pytest.raises(ValueError, match="empty restriction"):
            restricted_law(nbl_second(), RestrictionSpec(upper=9))

    def test_base_must_be_marginal_benford(self):
        with pytest.raises(ValueError):
            restricted_law(uniform_law(1), RestrictionSpec(upper=800))

    def test_two_sided(self):
        law = restricted_law(nbl_first(), RestrictionSpec(lower=200, upper=800))
        # digits 2..7 keep mass; 8 only via the single number 800; 9 impossible
        assert by_digit(law)[9] == 0.0
        assert by_digit(law)[1] == 0.0
        assert sum(law.probs) == pytest.approx(1.0, abs=1e-12)

    def test_kind_records_restriction(self):
        law = restricted_law(nbl_second(), RestrictionSpec(upper=2250))
        assert "2250" in law.kind and law.restriction == RestrictionSpec(upper=2250)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=10, max_value=10**5))
    def test_probabilities_normalized(self, upper):
        law = restricted_law(nbl_first(), RestrictionSpec(upper=upper))
        assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in law.probs)

    def test_scaling_cardinalities_cancels(self):
        # the law is the base times the cardinalities over one common factor, so a common scale cancels
        base, spec = nbl_first(), RestrictionSpec(upper=800)
        cards = [count_with_digit(d, 1, spec) for d in base.domain]
        assert cards == [111, 111, 111, 111, 111, 111, 111, 12, 11]
        scaled = [7.0 * p * c for p, c in zip(base.probs, cards)]
        for p, w in zip(restricted_law(base, spec).probs, scaled):
            assert p == pytest.approx(w / math.fsum(scaled), abs=1e-12)


class TestRestrictionSpec:
    def test_needs_some_bound(self):
        with pytest.raises(ValueError):
            RestrictionSpec()

    def test_ordering(self):
        with pytest.raises(ValueError):
            RestrictionSpec(lower=10, upper=5)

    @pytest.mark.parametrize("bad", [0, -5, 2.5])
    def test_positive_integers_only(self, bad):
        with pytest.raises(ValueError):
            RestrictionSpec(upper=bad)

    def test_str_forms(self):
        assert str(RestrictionSpec(upper=800)) == "N<=800"
        assert str(RestrictionSpec(lower=10, upper=800)) == "10<=N<=800"


class TestLawFromName:
    def test_plain_names(self):
        assert law_from_name("nb1") is nbl_first()
        assert law_from_name("nb2") is nbl_second()
        assert law_from_name("joint2") is nbl_joint(2)

    def test_restricted_names(self):
        assert law_from_name("rnb2:2250").restriction == RestrictionSpec(upper=2250)

    def test_restricted_needs_bound(self):
        with pytest.raises(ValueError, match="upper bound"):
            law_from_name("rnb2")

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown law"):
            law_from_name("nb7")


    @pytest.mark.parametrize("name,key", [("nb1", "nb1"), (" NB2 ", "nb2"), ("Joint2", "joint2"),
                                          ("cnb1:800", "rnb1:800"), ("CNB2", "rnb2"), ("rnb2:90", "rnb2:90"),
                                          ("rnb2:09999", "rnb2:9999")])
    def test_canonical_name_is_the_name_law_from_name_reads(self, name, key):
        assert canonical_law_name(name) == key
        upper = None if ":" in key else 2250
        assert law_from_name(name, upper) == law_from_name(key, upper)


@pytest.mark.parametrize("name", ["nb1", "nb2", "joint2", "rnb1:5", "rnb1:800", "rnb2:15", "rnb2:2250"])
def test_log_probs_are_the_math_log_of_each_probability(name):
    # held once per law for ln B01; a zero probability (rnb1:5 has four, rnb2:15 four) has the log -inf
    law = law_from_name(name)
    assert law.log_probs == tuple(math.log(p) if p else -math.inf for p in law.probs)
    assert (-math.inf in law.log_probs) == (0.0 in law.probs) == (name in ("rnb1:5", "rnb2:15"))


class TestLawNameBounds:
    @pytest.mark.parametrize("name", ["nb1:800", "nb2:500", "joint2:800"])
    def test_unrestricted_name_rejects_bound(self, name):
        with pytest.raises(ValueError, match="takes no bound"):
            law_from_name(name)

    def test_bound_in_name_and_argument_conflict(self):
        with pytest.raises(ValueError, match="already carries"):
            law_from_name("rnb2:800", upper=900)


@pytest.mark.parametrize("off", [1e-9, -1e-9, 2e-12, -2e-12])
def test_distribution_refuses_a_sum_off_by_a_billionth(off):
    with pytest.raises(ValueError, match="^probabilities of 'broken' sum to"):
        DigitDistribution("broken", (1, 2), (0.5, 0.5 + off))


@pytest.mark.parametrize("off", [5e-13, -5e-13])
def test_distribution_takes_a_sum_within_its_tolerance(off):
    # 1e-12 is the tolerance: far above fsum's rounding of a law's terms, far below any real error
    assert DigitDistribution("close", (1, 2), (0.5, 0.5 + off)).probs == (0.5, 0.5 + off)


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        DigitDistribution("broken", (1, 2), (0.6, 0.6))
    with pytest.raises(ValueError, match="negative"):
        DigitDistribution("broken", (1, 2), (1.5, -0.5))
    with pytest.raises(ValueError, match="domain"):
        DigitDistribution("broken", (1, 2), (1.0,))
