"""Digit extraction and tabulation."""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from digitscreen.digits import (
    EXCLUDE_SHORT,
    POLICIES,
    REASONS,
    TRAILING_ZERO,
    CountVector,
    DatasetColumn,
    analyzable_values,
    digit_domain,
    digit_frequencies,
    joint_domain,
    joint_frequencies,
    real_digit_frequencies,
    significant_digit,
)
from digitscreen.inference import HypothesisPrior, screen
from digitscreen.laws import nbl_first, nbl_joint, nbl_second, uniform_law
from digitscreen.simulate import screen_mixture
from oracles import (
    former_digit_frequencies,
    former_joint_frequencies,
    sorted_lower_median,
    str_analyzable,
    str_digit_tally,
    str_joint_tally,
)


def by_digit(cv: CountVector) -> dict:
    """The tally read by digit (or prefix)."""
    return dict(zip(cv.domain, cv.counts))


class TestSignificantDigit:
    def test_second_digit_of_decimal(self):
        assert significant_digit(0.154, 2) == 5

    def test_single_digit_identity(self):
        assert significant_digit(7, 1) == 7

    def test_normalization(self):
        assert significant_digit(998.5, 2) == 9
        assert significant_digit(0.00987, 1) == 9

    def test_trailing_zero_semantics(self):
        assert significant_digit(9, 2) == 0
        assert significant_digit(154, 4) == 0
        assert significant_digit(7.0, 2) == 0

    def test_decade_boundaries(self):
        for exp in range(8):
            assert significant_digit(10**exp, 1) == 1
            assert significant_digit(10**exp, 2) == 0

    def test_scientific_notation_floats(self):
        assert significant_digit(9.87e-05, 2) == 8
        assert significant_digit(1e16, 1) == 1

    @pytest.mark.parametrize("bad", [0, -3, 0.0, -0.5, float("inf"), float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            significant_digit(bad, 1)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            significant_digit(5, 0)

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=6))
    def test_decimal_shift_invariance(self, x, i, j):
        assert significant_digit(x, i) == significant_digit(x * 10**j, i)

    def test_decimal_shift_invariance_floats(self):
        for x in (0.154, 1.54, 15.4, 154.0):
            assert significant_digit(x, 1) == 1
            assert significant_digit(x, 2) == 5
            assert significant_digit(x, 3) == 4

    @given(st.integers(min_value=1, max_value=10**12))
    def test_first_digit_never_zero(self, x):
        assert 1 <= significant_digit(x, 1) <= 9


class TestDatasetColumn:
    def test_bookkeeping(self):
        col = DatasetColumn("a", (5, 7), excluded_by_reason={"ragged": 1, "negative": 0, "zero": 2})
        assert col.m == 2
        assert col.m + col.excluded_count == 5
        # the record keeps its nonzero counts, in REASONS order, and its sum is the only excluded_count
        assert list(col.excluded_by_reason.items()) == [("zero", 2), ("ragged", 1)]
        with pytest.raises(TypeError, match="excluded_count"):
            DatasetColumn("a", (5, 7), excluded_count=3)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "9", True, np.float64(3.0), 2**63])
    def test_rejects_non_positive_or_non_integer(self, bad):
        with pytest.raises(ValueError):
            DatasetColumn("a", (1, bad))

    @pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.array([True]), np.array(["9"]), np.array([3, 0]),
                                     np.array([[1, 2]]), np.array([2**63], dtype=np.uint64)],
                             ids=["float", "bool", "str", "zero", "2d", "uint64"])
    def test_rejects_bad_arrays(self, bad):
        with pytest.raises(ValueError, match="column 'a'"):
            DatasetColumn("a", bad)

    @pytest.mark.parametrize("values", [(5, 0, -3), np.array([5, -3, 0])], ids=["tuple", "array"])
    def test_smallest_value_below_one_is_named(self, values):
        with pytest.raises(ValueError, match=r"^column 'a': retained values must be integers >= 1, got -3$"):
            DatasetColumn("a", values)

    def test_uint64_array_names_the_inexact_conversion(self):
        with pytest.raises(ValueError, match=r"^column 'a': values of dtype uint64 do not convert to int64 exactly$"):
            DatasetColumn("a", np.array([1, 2], dtype=np.uint64))

    @pytest.mark.parametrize("by_reason", [{"zero": 1.5}, {"zero": True}, {"zero": -1}, {"zero": "2"}, {"bogus": 1}],
                             ids=["1.5", "True", "-1", "2", "unknown-reason"])
    def test_excluded_count_is_a_nonnegative_int(self, by_reason):
        ((reason, count),) = by_reason.items()
        with pytest.raises(ValueError) as raised:
            DatasetColumn("a", (5,), excluded_by_reason={"negative": 1, **by_reason})
        assert str(raised.value) == f"excluded_by_reason maps {REASONS} to nonnegative ints, got {reason!r}: {count!r}"

    def test_every_reason_may_pair_a_diagnostic(self):
        by_reason = {reason: 2 if reason == "zero" else 1 for reason in REASONS}
        col = DatasetColumn("x", [1], diagnostics=[f"d{i}" for i in range(6)], reasons=[*REASONS, "zero"],
                            excluded_by_reason=by_reason)
        assert col.reasons == (*REASONS, "zero") and col.excluded_by_reason == by_reason and col.excluded_count == 6

    @pytest.mark.parametrize("reasons, by_reason, message", [
        (["zero"], {}, "1 diagnostics shown for 'zero', which excluded_by_reason counts 0 times"),
        (["zero", "negative", "zero"], {"zero": 1, "negative": 1},
         "2 diagnostics shown for 'zero', which excluded_by_reason counts 1 times"),
        (["zero", "negative"], {"zero": 3},
         "1 diagnostics shown for 'negative', which excluded_by_reason counts 0 times"),
    ])
    def test_no_reason_shows_more_diagnostics_than_it_counts(self, reasons, by_reason, message):
        # a column must not show a diagnostic for an exclusion its record does not count
        with pytest.raises(ValueError) as raised:
            DatasetColumn("x", [1], diagnostics=[f"d{i}" for i in range(len(reasons))], reasons=reasons,
                          excluded_by_reason=by_reason)
        assert str(raised.value) == message

    @pytest.mark.parametrize("diagnostics, reasons", [(["a", "b"], ["zero"]), (["a"], ["zero", "zero"]),
                                                      (["a", "b"], ["zero", "nonsense"]), ([], ["zero"])])
    def test_each_diagnostic_has_one_known_reason(self, diagnostics, reasons):
        # _diagnostic_lines zips the two, so an unpaired diagnostic would be dropped without a word
        with pytest.raises(ValueError) as raised:
            DatasetColumn("x", [1, 2], diagnostics=diagnostics, reasons=reasons)
        assert str(raised.value) == f"reasons {tuple(reasons)!r} must give each diagnostic one of {REASONS}"

    @pytest.mark.parametrize("values", [(5, 2**63 - 1), [5, 2**63 - 1], np.array([5, 2**63 - 1]),
                                        iter([2**63 - 1, 5])])
    def test_values_are_a_read_only_int64_copy(self, values):
        col = DatasetColumn("a", values)
        assert col.values.dtype == np.int64 and col.values.tolist() == [5, 2**63 - 1]
        assert not col.values.flags.writeable
        if isinstance(values, np.ndarray):
            assert values.flags.writeable and not np.shares_memory(values, col.values)

    def test_library_array_is_copied_and_left_untouched(self):
        values = np.array([9, 2, 5], dtype=np.int64)
        col = DatasetColumn("a", values)
        assert values.tolist() == [9, 2, 5] and values.flags.writeable
        assert col.values.tolist() == [2, 5, 9] and not np.shares_memory(values, col.values)

    def test_adopted_array_is_sorted_in_place(self):
        values = np.array([9, 2, 5], dtype=np.int64)
        col = DatasetColumn("a", values, adopt=True)
        assert col.values is values and values.tolist() == [2, 5, 9] and not values.flags.writeable

    def test_smaller_integer_dtypes_widen(self):
        col = DatasetColumn("a", np.array([7, 300], dtype=np.uint16))
        assert col.values.dtype == np.int64 and col.values.tolist() == [7, 300]


class TestDigitFrequencies:
    def test_first_digit_counts(self):
        col = DatasetColumn("x", (154, 23, 9))
        cv = digit_frequencies(col, 1)
        assert by_digit(cv)[1] == 1 and by_digit(cv)[2] == 1 and by_digit(cv)[9] == 1
        assert cv.n == 3 and cv.excluded == 0

    def test_exclude_short_drops_one_digit_values(self):
        col = DatasetColumn("x", (154, 23, 9))
        cv = digit_frequencies(col, 2, EXCLUDE_SHORT)
        assert by_digit(cv)[5] == 1 and by_digit(cv)[3] == 1
        assert cv.n == 2 and cv.excluded == 1

    def test_trailing_zero_keeps_them_as_zero(self):
        col = DatasetColumn("x", (154, 23, 9))
        cv = digit_frequencies(col, 2, TRAILING_ZERO)
        assert by_digit(cv)[5] == 1 and by_digit(cv)[3] == 1 and by_digit(cv)[0] == 1
        assert cv.n == 3 and cv.excluded == 0

    def test_empty_column_errors(self):
        with pytest.raises(ValueError, match="no analyzable values"):
            digit_frequencies(DatasetColumn("x", ()), 1)

    def test_all_excluded_errors(self):
        with pytest.raises(ValueError, match="no analyzable values"):
            digit_frequencies(DatasetColumn("x", (1, 2, 3)), 2, EXCLUDE_SHORT)

    def test_no_analyzable_values_on_every_call(self):
        col = DatasetColumn("x", (1, 2, 3))
        for _ in range(2):
            with pytest.raises(ValueError, match="no analyzable values"):
                digit_frequencies(col, 2)
            with pytest.raises(ValueError, match="no analyzable values"):
                joint_frequencies(col, 2)
        assert digit_frequencies(col, 2, TRAILING_ZERO).counts == (3,) + (0,) * 9

    def test_each_call_tallies_the_column_afresh(self):
        col = DatasetColumn("x", (154, 23, 9))
        first, joint = digit_frequencies(col, 2), joint_frequencies(col, 2)
        assert digit_frequencies(col, 2) == first and digit_frequencies(col, 2) is not first
        assert joint_frequencies(col, 2) == joint and joint_frequencies(col, 2) is not joint
        assert digit_frequencies(col, 2, TRAILING_ZERO).n == 3 and digit_frequencies(col, 2).n == 2
        assert by_digit(joint_frequencies(col, 2, TRAILING_ZERO))[(9, 0)] == 1
        assert (9, 0) not in {d for d, c in by_digit(joint_frequencies(col, 2)).items() if c}

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            digit_frequencies(DatasetColumn("x", (12,)), 1, "drop-everything")

    @given(st.lists(st.integers(min_value=1, max_value=10**7), min_size=1, max_size=60))
    def test_sample_sizes_shrink_with_digit_index(self, values):
        col = DatasetColumn("x", tuple(values))
        sizes = []
        for i in (1, 2, 3):
            try:
                sizes.append(digit_frequencies(col, i).n)
            except ValueError:
                sizes.append(0)
        assert sizes[0] >= sizes[1] >= sizes[2]
        assert sizes[0] <= col.m


class TestJointFrequencies:
    def test_pairs(self):
        cv = joint_frequencies(DatasetColumn("x", (154, 23)), 2)
        assert by_digit(cv)[(1, 5)] == 1 and by_digit(cv)[(2, 3)] == 1
        assert cv.n == 2 and cv.domain == joint_domain(2)

    def test_too_short_everything_errors(self):
        with pytest.raises(ValueError, match="no analyzable values"):
            joint_frequencies(DatasetColumn("x", (7,)), 2)

    def test_full_century_is_flat(self):
        cv = joint_frequencies(DatasetColumn("x", tuple(range(100, 200))), 2)
        for d2 in range(10):
            assert by_digit(cv)[(1, d2)] == 10

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            joint_frequencies(DatasetColumn("x", (12,)), 1)

    def test_k_stops_at_six(self):
        # no law reads a wider prefix; joint_domain(7) alone would hold 9 * 10^6 tuples, about 1.2 GB
        with pytest.raises(ValueError, match=r"^joint prefixes are supported up to k=6, got 7$"):
            joint_domain(7)
        with pytest.raises(ValueError, match=r"^joint prefixes are supported up to k=6, got 7$"):
            joint_frequencies(DatasetColumn("x", (1234567, 2345678, 3456789)), 7)

    def test_k_must_be_an_integer(self):
        col = DatasetColumn("x", (12, 345))
        assert joint_frequencies(col, 2).n == 2
        for k in (2.0, True):
            with pytest.raises(ValueError, match="digit index must be a positive integer"):
                joint_frequencies(col, k)

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=60))
    def test_marginalizing_joint_reproduces_first_digit(self, values):
        col = DatasetColumn("x", tuple(values))
        long_enough = tuple(v for v in values if v >= 10)
        try:
            joint = joint_frequencies(col, 2)
        except ValueError:
            assert not long_enough
            return
        first = digit_frequencies(DatasetColumn("x", long_enough), 1)
        for d1 in range(1, 10):
            assert sum(by_digit(joint)[(d1, d2)] for d2 in range(10)) == by_digit(first)[d1]


class TestCountVector:
    def test_proportions_sum_to_one(self):
        cv = CountVector(tuple(range(1, 10)), (3, 1, 0, 0, 0, 0, 0, 0, 0))
        assert sum(cv.proportions()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("counts", [(), (1,) * 8, (1,) * 10], ids=["empty", "short", "long"])
    def test_rejects_counts_not_aligned_with_domain(self, counts):
        with pytest.raises(ValueError, match="counts for a domain of 9 cells"):
            CountVector(tuple(range(1, 10)), counts)

    @pytest.mark.parametrize("count", [2.7, 2.0, True, np.float64(2.0), np.True_], ids=repr)
    def test_rejects_non_integer_counts(self, count):
        with pytest.raises(ValueError, match="counts must be integers"):
            CountVector(tuple(range(1, 10)), [count] + [0] * 8)

    def test_numpy_integer_counts_become_ints(self):
        cv = CountVector(tuple(range(1, 10)), np.arange(9, dtype=np.uint8))
        assert cv.counts == tuple(range(9)) and all(type(c) is int for c in cv.counts) and cv.n == 36


@pytest.mark.parametrize("policy", POLICIES)
def test_tallies_at_any_position(policy):
    values = [1234, 9, 2**63 - 1, 10, 1, 10**18, 99]
    col = DatasetColumn("x", values)
    assert col.values.tolist() == sorted(values)
    # positions past the 19 digits of int64 and past the range of a byte
    for i in (20, 255, 256, 300):
        assert analyzable_values(col, i, policy).tolist() == sorted(str_analyzable(values, i, policy))
        counts, excluded = str_digit_tally(values, i, policy)
        if not counts:
            with pytest.raises(ValueError, match="no analyzable values"):
                digit_frequencies(col, i, policy)
            continue
        cv = digit_frequencies(col, i, policy)
        assert by_digit(cv) == {d: counts.get(d, 0) for d in digit_domain(i)} and cv.excluded == excluded


def test_real_digit_frequencies():
    cv = real_digit_frequencies([0.154, 23.0, 9.1, 0.5], 1)
    assert by_digit(cv)[1] == 1 and by_digit(cv)[2] == 1 and by_digit(cv)[9] == 1 and by_digit(cv)[5] == 1


def test_analyzable_values_matches_policy():
    col = DatasetColumn("x", (154, 23, 9))
    assert analyzable_values(col, 2, EXCLUDE_SHORT).tolist() == [23, 154]
    assert analyzable_values(col, 2, TRAILING_ZERO).tolist() == [9, 23, 154]
    # a view of the values, not a copy
    assert np.shares_memory(analyzable_values(col, 2, EXCLUDE_SHORT), col.values)


# Draws weighted toward the decade edges 10^e - 1, 10^e and 10^e + 1, where a
# digit count or a prefix is most easily off by one, across the int64 range.
DECADE_EDGES = sorted({x for e in range(19) for x in (10**e - 1, 10**e, 10**e + 1) if 1 <= x < 2**63}
                      | {2**63 - 1})
COUNTS = st.one_of(st.sampled_from(DECADE_EDGES), st.integers(1, 2**63 - 1), st.integers(1, 10**4))


@pytest.mark.parametrize("policy", POLICIES)
class TestKernelMatchesStringOracle:
    @given(st.lists(COUNTS, max_size=40))
    def test_digit_frequencies(self, policy, values):
        col = DatasetColumn("x", values)
        for i in range(1, 21):
            counts, excluded = str_digit_tally(values, i, policy)
            if not counts:
                with pytest.raises(ValueError, match="no analyzable values"):
                    digit_frequencies(col, i, policy)
                continue
            cv = digit_frequencies(col, i, policy)
            assert cv.counts == tuple(counts.get(d, 0) for d in digit_domain(i))
            assert cv.excluded == excluded and cv.domain == digit_domain(i)

    @given(st.lists(COUNTS, max_size=40))
    def test_joint_frequencies(self, policy, values):
        col = DatasetColumn("x", values)
        for k in (2, 3, 4):
            counts, excluded = str_joint_tally(values, k, policy)
            if not counts:
                with pytest.raises(ValueError, match="no analyzable values"):
                    joint_frequencies(col, k, policy)
                continue
            cv = joint_frequencies(col, k, policy)
            assert cv.counts == tuple(counts.get(d, 0) for d in joint_domain(k))
            assert cv.excluded == excluded and cv.domain == joint_domain(k)

    @given(st.lists(COUNTS, max_size=40))
    def test_analyzable_values_and_median(self, policy, values):
        col = DatasetColumn("x", values)
        for width in (1, 2, 3, 4):
            expected = sorted(str_analyzable(values, width, policy))
            analyzed = analyzable_values(col, width, policy)
            assert analyzed.tolist() == expected
            if expected:
                median = screen(col, uniform_law(width), HypothesisPrior(), policy).median_count
                assert type(median) is int and median == sorted_lower_median(expected)


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("policy", POLICIES)
@given(st.one_of(st.lists(COUNTS, max_size=40), st.lists(st.integers(1, 9), max_size=12)))
def test_prefix_table_tallies_match_the_slice_kernel(policy, values):
    # widths 1 and 2 are sums over the column's prefix table; the former per-slice kernel is the reference,
    # down to the excluded count and the error of a column of one-digit values under exclude-short
    col = DatasetColumn("x", values)
    for tally, former, width in ((digit_frequencies, former_digit_frequencies, 1),
                                 (digit_frequencies, former_digit_frequencies, 2),
                                 (joint_frequencies, former_joint_frequencies, 2)):
        assert _outcome(tally, col, width, policy) == _outcome(former, DatasetColumn("x", values), width, policy)


@pytest.mark.parametrize("policy", POLICIES)
@given(st.lists(COUNTS, max_size=40))
def test_tallies_skip_no_check_the_constructor_would_make(policy, values):
    # the library builds its tallies without CountVector's checks; each passes them, and holds plain ints
    col = DatasetColumn("x", values)
    for tally, width in ((digit_frequencies, 1), (digit_frequencies, 2), (digit_frequencies, 3),
                         (joint_frequencies, 2), (joint_frequencies, 3)):
        try:
            cv = tally(col, width, policy)
        except ValueError:
            continue
        assert cv == CountVector(cv.domain, cv.counts, cv.excluded)
        assert type(cv.domain) is tuple and type(cv.counts) is tuple
        assert {type(x) for x in (*cv.counts, cv.n, cv.excluded)} == {int}


@given(st.data(), st.lists(COUNTS, max_size=40))
def test_column_order_changes_nothing(data, values):
    shuffled = data.draw(st.permutations(values))
    inputs = (values, shuffled, np.array(shuffled, dtype=np.int64))
    columns = [DatasetColumn("x", v) for v in inputs]
    for col, given_values in zip(columns, inputs):
        assert col.values.tolist() == sorted(values) and not col.values.flags.writeable
        if isinstance(given_values, np.ndarray):
            assert not np.shares_memory(col.values, given_values)
    for policy in POLICIES:
        tallies = [[_outcome(digit_frequencies, col, i, policy) for i in (1, 2, 3)]
                   + [_outcome(joint_frequencies, col, 2, policy)] for col in columns]
        assert tallies[0] == tallies[1] == tallies[2]
        reports = [[_outcome(screen, col, law, HypothesisPrior(), policy) for law in (nbl_first(), nbl_second(),
                                                                                     nbl_joint(2))]
                   for col in columns]
        assert reports[0] == reports[1] == reports[2]


@given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=40))
def test_lower_median_of_floats_matches_sort(values):
    samples = np.array(values)
    median = screen_mixture(samples, nbl_first()).median_count
    assert type(median) is float and median == sorted_lower_median(values)
    assert samples.tolist() == values  # sorted in a copy


# Floats where `repr` switches notation (1e-5, 1e16), the largest 17-digit
# significand below 1e16, subnormals, and their float neighbours.
FLOAT_EDGES = sorted({y for x in (1e-5, 1e16, 9999999999999998.0, 5e-324, 2.2250738585072014e-308, 1.0, 0.1)
                      for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)) if y > 0.0})
REALS = st.one_of(
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from(FLOAT_EDGES),
    st.floats(min_value=1e-6, max_value=1e-4),
    st.floats(min_value=1e15, max_value=1e17),
    st.integers(1, 2**63 - 1),
)


@given(st.lists(REALS, max_size=30))
def test_real_digit_frequencies_match_significant_digit(values):
    for i in range(1, 21):
        tally = Counter(significant_digit(x, i) for x in values)
        if not values:
            with pytest.raises(ValueError, match="no analyzable values"):
                real_digit_frequencies(values, i)
            continue
        cv = real_digit_frequencies(values, i)
        assert cv.counts == tuple(tally.get(d, 0) for d in digit_domain(i))
        assert cv.excluded == 0 and cv.domain == digit_domain(i)


def test_real_digit_frequencies_rejects_ints_beyond_int64():
    # ints are read exactly, and the kernel holds int64 significands only
    with pytest.raises(ValueError, match="below 2\\^63"):
        real_digit_frequencies([5, 2**63], 1)


# Exact float powers of ten at the end of the scaling table and just past it,
# their neighbours, and short decimals n / 10^e, whose scaled value can land a
# rounding error below the integer their repr names (0.29 * 100 is
# 28.999999999999996, but the digits of 0.29 are "29").
POWER_EDGES = [y for x in (1e22, 1e23) for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
ARRAY_REALS = st.one_of(
    st.sampled_from(FLOAT_EDGES + POWER_EDGES + [0.29]),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308, exclude_max=True),
    st.builds(lambda n, e: n / 10**e, st.integers(1, 10**6), st.integers(0, 12)),
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
)


@given(st.lists(ARRAY_REALS, max_size=30))
def test_real_digit_frequencies_of_arrays_match_significant_digit(values):
    array = np.array(values, dtype=np.float64)
    for i in range(1, 25):
        tally = Counter(significant_digit(x, i) for x in values)
        if not values:
            with pytest.raises(ValueError, match="no analyzable values"):
                real_digit_frequencies(array, i)
            continue
        cv = real_digit_frequencies(array, i)
        assert cv.counts == tuple(tally.get(d, 0) for d in digit_domain(i))
        assert cv.excluded == 0 and cv.domain == digit_domain(i)


@pytest.mark.parametrize("offset", [-1.0, 0.0, 1.0])
def test_real_digit_frequencies_of_blocks_whatever_log10_returns(offset, monkeypatch):
    # an exponent estimate off by one puts the candidate outside its decade, where repr decides;
    # 20 000 values span two blocks of the float path
    values = np.exp(np.random.default_rng(5).normal(0.0, 8.0, 20_000))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + offset)
    for i in (1, 2, 3):
        tally = Counter(significant_digit(x, i) for x in values.tolist())
        assert real_digit_frequencies(values, i).counts == tuple(tally.get(d, 0) for d in digit_domain(i))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.0, -2.5])
def test_real_digit_frequencies_reject_what_significant_digit_rejects(bad):
    with pytest.raises(ValueError) as per_value:
        significant_digit(bad, 1)
    for values in (np.array([1.5, bad, 2.5]), [1.5, 7, bad]):
        with pytest.raises(ValueError, match=f"^{re.escape(str(per_value.value))}$"):
            real_digit_frequencies(values, 1)
