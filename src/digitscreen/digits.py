"""Significant-digit extraction and digit-frequency tabulation.

Counts are analyzed through exact integer arithmetic, never through
floating-point logarithms, so values at decade boundaries (10, 100, ...)
can never be misclassified. A column's counts are held as one read-only
int64 array, so they lie in [1, 2^63 - 1]. Their decimal digit counts ``nd``
come from a binary search against the powers 10^0..10^18, once per column.
``DatasetColumn.prefixes(k, policy)`` is the one place an exclusion policy
applies: the k-digit prefix of a value with at least k digits is
``v // 10^(nd - k)``, and a shorter value is dropped (exclude-short) or
padded with trailing zeros (trailing-zero). The k-th significant digit is
``prefix % 10``, and frequencies are ``np.bincount`` tallies of those digits
or prefixes, all in exact int64 arithmetic.

Floats (simulated samples) enter the same kernel: each becomes the integer
significand of its shortest round-trip decimal representation (0.154 -> 154,
always below 10^17), read under trailing-zero semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

EXCLUDE_SHORT = "exclude-short"
TRAILING_ZERO = "trailing-zero"
POLICIES = (EXCLUDE_SHORT, TRAILING_ZERO)

FIRST_DIGIT_DOMAIN = tuple(range(1, 10))
LATER_DIGIT_DOMAIN = tuple(range(0, 10))


def digit_domain(i: int) -> tuple[int, ...]:
    """Admissible values of the i-th significant digit (1..9 first, 0..9 after)."""
    _check_digit_index(i)
    return FIRST_DIGIT_DOMAIN if i == 1 else LATER_DIGIT_DOMAIN


@lru_cache(maxsize=None)  # one shared domain for every joint CountVector a run keeps
def joint_domain(k: int) -> tuple[tuple[int, ...], ...]:
    """All 9*10^(k-1) ordered k-digit prefixes, in lexicographic order."""
    if k < 2:
        raise ValueError("joint domain needs k >= 2")
    return tuple(product(FIRST_DIGIT_DOMAIN, *([LATER_DIGIT_DOMAIN] * (k - 1))))


def _check_digit_index(i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise ValueError(f"digit index must be a positive integer, got {i!r}")


def _digit_string(x) -> str:
    """Decimal significant digits of a positive number, most significant first.

    Integers are converted exactly. Floats use their shortest round-trip
    representation, so ``0.154`` yields ``"154"`` and ``998.5`` yields
    ``"9985"``.
    """
    if isinstance(x, bool):
        raise ValueError("x must be a positive number")
    if isinstance(x, int):
        if x <= 0:
            raise ValueError(f"x must be positive, got {x}")
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
        if x <= 0.0:
            raise ValueError(f"x must be positive, got {x}")
        s = repr(float(x))  # float() strips subclasses (e.g. numpy scalars)
        mantissa = s.split("e")[0].split("E")[0]
        return mantissa.replace(".", "").lstrip("0")
    raise ValueError(f"x must be a positive int or float, got {type(x).__name__}")


def significant_digit(x, i: int) -> int:
    """The i-th significant digit of a positive number.

    The digit is read from the normalized representation x = d1.d2d3... x 10^e
    with d1 in 1..9; positions beyond the written digits of a finite decimal
    are 0 (a real number carries infinitely many trailing zeros).
    """
    _check_digit_index(i)
    digits = _digit_string(x)
    return int(digits[i - 1]) if i <= len(digits) else 0


# 10^0 .. 10^18: every power of ten that fits in int64
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


def _count_array(name: str, values) -> np.ndarray:
    """``values`` as a fresh read-only 1-D int64 array of counts >= 1.

    A sequence must hold Python ints (bools and floats are rejected one by
    one); an array must have an integer dtype that converts to int64 exactly.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "iu" or not np.can_cast(values.dtype, np.int64):
            raise ValueError(f"column {name!r}: values must be a 1-D integer array, got {values.dtype} "
                             f"with shape {values.shape}")
        arr = values.astype(np.int64)
    else:
        values = list(values)
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"column {name!r}: retained values must be integers >= 1, got {v!r}")
        try:
            arr = np.array(values, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"column {name!r}: values must lie below 2^63") from None
    if arr.size and arr.min() < 1:
        raise ValueError(f"column {name!r}: retained values must be integers >= 1, got {arr.min().item()!r}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DatasetColumn:
    """A named column of positive integer counts, one per reporting unit.

    ``values`` is a read-only int64 array. ``excluded_count`` tallies units
    dropped on the way in (zeros, negatives, unparseable cells), so
    m + excluded_count equals the original row count.
    """

    name: str
    values: np.ndarray
    excluded_count: int = 0
    diagnostics: tuple[str, ...] = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _count_array(self.name, self.values))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        if self.excluded_count < 0:
            raise ValueError("excluded_count must be nonnegative")

    @property
    def m(self) -> int:
        """Number of retained units."""
        return self.values.size

    @cached_property
    def digit_counts(self) -> np.ndarray:
        """Number of decimal digits of each value (1 for 1..9, at most 19)."""
        return np.searchsorted(_POWERS_OF_TEN, self.values, side="right")

    def _kept(self, k: int, policy: str):
        """Index of the values that carry a k-th digit: all under trailing-zero, else those with >= k digits."""
        if policy not in POLICIES:
            raise ValueError(f"unknown exclusion policy {policy!r}; expected one of {POLICIES}")
        return slice(None) if policy == TRAILING_ZERO else self.digit_counts >= k

    def prefixes(self, k: int, policy: str = EXCLUDE_SHORT) -> np.ndarray:
        """The k-digit prefix of each value kept under ``policy``, in column order.

        A value with fewer than k digits is dropped (exclude-short) or padded
        with zeros (trailing-zero: 7 -> 70 at k = 2); a padded prefix is kept
        modulo 10^18 so that it stays in int64, which leaves its last digit 0.
        """
        kept = self._kept(k, policy)
        values, nd = self.values[kept], self.digit_counts[kept]
        prefixes = values // _POWERS_OF_TEN[np.maximum(nd - k, 0)]
        short = nd < k
        zeros = np.minimum(k - nd[short], 18)
        prefixes[short] = values[short] % _POWERS_OF_TEN[18 - zeros] * _POWERS_OF_TEN[zeros]
        return prefixes


@dataclass(frozen=True)
class CountVector:
    """Observed digit frequencies n_d over an ordered digit (or prefix) domain.

    ``excluded`` counts retained column values that could not contribute a
    digit at this position under the active exclusion policy.
    """

    digit_index: int | None
    domain: tuple
    counts: dict
    excluded: int = 0
    joint_k: int | None = None

    def __post_init__(self):
        domain = tuple(self.domain)
        object.__setattr__(self, "domain", domain)
        unknown = set(self.counts) - set(domain)
        if unknown:
            raise ValueError(f"counts outside domain: {sorted(unknown)!r}")
        filled = {d: int(self.counts.get(d, 0)) for d in domain}
        if any(c < 0 for c in filled.values()):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", filled)

    @property
    def n(self) -> int:
        """Total number of tallied digits."""
        return sum(self.counts.values())

    def proportions(self) -> dict:
        """Observed proportions f_d = n_d / n."""
        n = self.n
        if n == 0:
            raise ValueError("no analyzable values")
        return {d: c / n for d, c in self.counts.items()}


def analyzable_values(column: DatasetColumn, width: int, policy: str = EXCLUDE_SHORT) -> np.ndarray:
    """Retained values that contribute a digit at position/prefix width ``width``."""
    return column.values[column._kept(width, policy)]


def digit_frequencies(column: DatasetColumn, i: int, policy: str = EXCLUDE_SHORT) -> CountVector:
    """Tabulate the i-th significant digit of every retained value.

    Under ``exclude-short`` (the default) integers with fewer than i decimal
    digits are dropped and tallied in the result's ``excluded`` field;
    counting them as trailing zeros would spuriously inflate digit 0.
    ``trailing-zero`` applies significant_digit literally instead.
    """
    return _digit_tally(column, i, policy)


def real_digit_frequencies(values, i: int) -> CountVector:
    """Tabulate the i-th significant digit of positive reals (simulated samples).

    Each value enters the kernel as the integer significand of its shortest
    round-trip decimal (0.154 -> 154, below 10^17 for any float), read under
    trailing-zero semantics. Python ints are taken exactly: 2^63 or more is a ValueError.
    """
    try:
        significands = np.fromiter((int(_digit_string(x)) for x in values), dtype=np.int64)
    except OverflowError:
        raise ValueError("values must lie below 2^63") from None
    return _digit_tally(DatasetColumn("values", significands), i, TRAILING_ZERO)


def _digit_tally(column: DatasetColumn, i: int, policy: str) -> CountVector:
    domain = digit_domain(i)
    prefixes = column.prefixes(i, policy)
    counts = np.bincount(prefixes % 10, minlength=10)
    return _count_vector(domain, counts[list(domain)], column.m - prefixes.size, digit_index=i)


def joint_frequencies(column: DatasetColumn, k: int = 2, policy: str = EXCLUDE_SHORT) -> CountVector:
    """Tabulate ordered k-digit prefixes (d1, ..., dk) of every retained value."""
    if k < 2:
        raise ValueError("joint tabulation needs k >= 2; use digit_frequencies for a single digit")
    prefixes = column.prefixes(k, policy)
    # joint_domain(k) lists the prefixes 10^(k-1) .. 10^k - 1 in increasing order
    first = 10 ** (k - 1)
    counts = np.bincount(prefixes - first, minlength=9 * first)
    return _count_vector(joint_domain(k), counts, column.m - prefixes.size, joint_k=k)


def _count_vector(domain: tuple, counts: np.ndarray, excluded: int, digit_index: int | None = None,
                  joint_k: int | None = None) -> CountVector:
    """A CountVector from tallies aligned with ``domain``."""
    if not counts.any():
        raise ValueError("no analyzable values")
    return CountVector(digit_index=digit_index, domain=domain, counts=dict(zip(domain, counts.tolist())),
                       excluded=excluded, joint_k=joint_k)
