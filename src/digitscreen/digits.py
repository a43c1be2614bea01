"""Significant-digit extraction and digit-frequency tabulation.

Counts are analyzed through exact integer arithmetic, never through
floating-point logarithms, so values at decade boundaries (10, 100, ...)
can never be misclassified. A column's counts are held as one read-only
int64 array in increasing order, so they lie in [1, 2^63 - 1] and the values
of each decimal length n form one slice of it, cut by a binary search for
the powers 10^1..10^18, once per column. The k-digit prefixes of the n-digit
slice are ``slice // 10^(n - k)`` for n >= k, and its k-th significant digits
those prefixes modulo 10. A shorter value is dropped (exclude-short) or read
with trailing zeros (trailing-zero): its k-th digit is 0, and its k-digit
prefix ``slice * 10^(k - n)``. Frequencies are ``np.bincount`` tallies of
the digits or prefixes of each slice, all in exact int64 arithmetic. Every
tally of width 1 or 2 is a sum over one table per column, built once: the
count of each one-digit value and of each two-digit prefix of the longer
values.

Floats (simulated samples) are read as their shortest round-trip decimal
representation (0.154 -> "154"), under trailing-zero semantics, mostly
without ``repr``. In blocks of 16 384, each float x gets a decimal exponent
estimate from ``log10`` and is scaled by one exact float power of ten
(10^0..10^22, so a single IEEE rounding) to y, meant to lie in
[10^(i-1), 10^i); floor(y) is then its i-digit prefix. Both y and the scaled
shortest decimal lie within 2^-53 * y of the exact scaled value, so their
floors agree unless that value is about as close to an integer. A value
whose y lies within 2^-40 * y of an integer, whose floor(y) falls outside
[10^(i-1), 10^i) (a ``log10`` estimate off by one, or a shift beyond the
table), and every value at a position past 12 is read through ``repr``
instead, its significand (below 10^17) entering the integer kernel. A wrong
``log10`` can thus only send a value to ``repr``, never change a digit, so
the digits do not depend on numpy's SIMD ``log10`` or on the CPU dispatch
that computes it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

EXCLUDE_SHORT = "exclude-short"
TRAILING_ZERO = "trailing-zero"
POLICIES = (EXCLUDE_SHORT, TRAILING_ZERO)

FIRST_DIGIT_DOMAIN = tuple(range(1, 10))
LATER_DIGIT_DOMAIN = tuple(range(0, 10))

# why a unit is dropped before it reaches a column: its cell holds no count, or its row is not as wide as the header
REASONS = ("not-an-integer", "zero", "negative", "over-int64", "ragged")

# the widest joint prefix: no law reads a wider one, and joint_domain(7) alone would hold 9 * 10^6 tuples
MAX_JOINT_DIGITS = 6


def digit_domain(i: int) -> tuple[int, ...]:
    """Admissible values of the i-th significant digit (1..9 first, 0..9 after)."""
    _check_digit_index(i)
    return FIRST_DIGIT_DOMAIN if i == 1 else LATER_DIGIT_DOMAIN


@lru_cache(maxsize=None)  # one shared domain for every joint CountVector a run keeps
def joint_domain(k: int) -> tuple[tuple[int, ...], ...]:
    """All 9*10^(k-1) ordered k-digit prefixes, in lexicographic order, for k from 2 to MAX_JOINT_DIGITS."""
    if k < 2:
        raise ValueError("joint domain needs k >= 2")
    if k > MAX_JOINT_DIGITS:
        raise ValueError(f"joint prefixes are supported up to k={MAX_JOINT_DIGITS}, got {k}")
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


# 10^1 .. 10^18: the least value of each decimal length from 2 to 19 (all of int64)
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _count_array(name: str, values, adopt: bool = False) -> np.ndarray:
    """``values`` as a read-only 1-D int64 array of counts >= 1, in increasing order.

    An array must have an integer dtype that converts to int64 exactly, and
    is copied unless ``adopt`` says that no one else holds it (an int64
    array, then sorted in place and kept); any other iterable is read once
    and must hold Python ints (bools and floats are rejected one by one).
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "iu":
            raise ValueError(f"column {name!r}: values must be a 1-D integer array, got {values.dtype} "
                             f"with shape {values.shape}")
        if not np.can_cast(values.dtype, np.int64):
            raise ValueError(f"column {name!r}: values of dtype {values.dtype} do not convert to int64 exactly")
        arr = values.astype(np.int64, copy=not adopt)
    else:
        values = list(values)
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"column {name!r}: retained values must be integers >= 1, got {v!r}")
        try:
            arr = np.array(values, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"column {name!r}: values must lie below 2^63") from None
    arr.sort()
    if arr.size and arr[0] < 1:
        raise ValueError(f"column {name!r}: retained values must be integers >= 1, got {arr[0].item()!r}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DatasetColumn:
    """A named column of positive integer counts, one per reporting unit.

    ``values`` is a read-only int64 array of the counts in increasing order:
    nothing the screens compute depends on the order of the units, and in
    this order the values of each decimal length form one slice.
    ``excluded_by_reason`` counts the units dropped on the way in by reason
    (a key of REASONS; a simulated zero count is "zero"), each a nonnegative
    int, and keeps the nonzero ones in REASONS order; ``excluded_count`` is
    their sum, so m + excluded_count is the original row count. ``reasons``
    gives the reason of each of the ``diagnostics`` shown, no more of a
    reason than ``excluded_by_reason`` counts. ``adopt`` takes ``values``
    without a copy; ingest sets it for the array it built.
    """

    name: str
    values: np.ndarray
    excluded_count: int = field(init=False)
    diagnostics: tuple[str, ...] = field(default=(), repr=False)
    reasons: tuple[str, ...] = field(default=(), repr=False)
    excluded_by_reason: dict = field(default_factory=dict, repr=False)
    adopt: InitVar[bool] = False

    def __post_init__(self, adopt):
        object.__setattr__(self, "values", _count_array(self.name, self.values, adopt))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        object.__setattr__(self, "reasons", tuple(self.reasons))
        if len(self.reasons) != len(self.diagnostics) or not set(self.reasons) <= set(REASONS):
            raise ValueError(f"reasons {self.reasons!r} must give each diagnostic one of {REASONS}")
        by_reason = self.excluded_by_reason
        for reason, count in by_reason.items():
            if reason not in REASONS or not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ValueError(f"excluded_by_reason maps {REASONS} to nonnegative ints, got {reason!r}: {count!r}")
        object.__setattr__(self, "excluded_by_reason", {r: by_reason[r] for r in REASONS if by_reason.get(r)})
        object.__setattr__(self, "excluded_count", sum(self.excluded_by_reason.values()))
        for reason in dict.fromkeys(self.reasons):
            shown, counted = self.reasons.count(reason), self.excluded_by_reason.get(reason, 0)
            if shown > counted:
                raise ValueError(f"{shown} diagnostics shown for {reason!r}, "
                                 f"which excluded_by_reason counts {counted} times")

    @property
    def m(self) -> int:
        """Number of retained units."""
        return self.values.size

    @cached_property
    def _cuts(self) -> tuple[int, ...]:
        """``cuts[n]`` values have at most n digits (n = 0..19): the n-digit values are ``values[cuts[n - 1]:cuts[n]]``."""
        return (0, *np.searchsorted(self.values, _POWERS_OF_TEN).tolist(), self.m)

    @cached_property
    def _prefix_table(self) -> np.ndarray:
        """10 x 10 tally: cell [0, d] counts the one-digit values d, cell [a, b] the longer values with prefix ab."""
        table = np.zeros(100, dtype=np.int64)
        for n, values in _slices(self, 1):
            table += np.bincount(values // 10 ** (n - 2) if n > 2 else values, minlength=100)
        return table.reshape(10, 10)


@dataclass(frozen=True, slots=True)
class CountVector:
    """Observed digit frequencies n_d over an ordered digit (or prefix) domain.

    ``counts`` is a tuple of ints aligned with ``domain`` and ``n`` their
    total. ``excluded`` counts retained column values that could not
    contribute a digit at this position under the active exclusion policy.
    """

    domain: tuple
    counts: tuple
    excluded: int = 0
    n: int = field(init=False)

    def __post_init__(self):
        counts = tuple(self.counts)
        # one test per distinct type other than int: numpy integers become ints, floats and bools are errors
        kinds = set(map(type, counts)) - {int}
        if kinds:
            for kind in kinds:
                if not issubclass(kind, numbers.Integral) or issubclass(kind, bool):
                    raise ValueError(f"counts must be integers, got {kind.__name__}")
            counts = tuple(map(int, counts))
        if len(counts) != len(self.domain):
            raise ValueError(f"{len(counts)} counts for a domain of {len(self.domain)} cells")
        if min(counts, default=0) < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", sum(counts))

    def proportions(self) -> tuple:
        """Observed proportions f_d = n_d / n, aligned with ``domain``."""
        if self.n == 0:
            raise ValueError("no analyzable values")
        return tuple(c / self.n for c in self.counts)


def _dropped(column: DatasetColumn, k: int, policy: str) -> int:
    """How many values lack a k-th digit and are dropped under ``policy``: the first ones, or none under trailing-zero."""
    if policy not in POLICIES:
        raise ValueError(f"unknown exclusion policy {policy!r}; expected one of {POLICIES}")
    return column._cuts[min(k, 20) - 1] if policy == EXCLUDE_SHORT else 0


def _slices(column: DatasetColumn, shortest: int):
    """(n, the n-digit values) for each decimal length n >= ``shortest`` that the column holds."""
    cuts = column._cuts
    return [(n, column.values[cuts[n - 1]:cuts[n]]) for n in range(shortest, 20) if cuts[n - 1] < cuts[n]]


def analyzable_values(column: DatasetColumn, width: int, policy: str = EXCLUDE_SHORT) -> np.ndarray:
    """Retained values that contribute a digit at position/prefix width ``width``, in increasing order (a view)."""
    return column.values[_dropped(column, width, policy):]


def digit_frequencies(column: DatasetColumn, i: int, policy: str = EXCLUDE_SHORT) -> CountVector:
    """Tabulate the i-th significant digit of every retained value.

    Under ``exclude-short`` (the default) integers with fewer than i decimal
    digits are dropped and tallied in the result's ``excluded`` field;
    counting them as trailing zeros would spuriously inflate digit 0.
    ``trailing-zero`` applies significant_digit literally instead.
    A column without analyzable values raises.
    """
    domain = digit_domain(i)
    dropped = _dropped(column, i, policy)
    if i == 1:  # each one-digit value d, plus the longer values of prefixes d0..d9
        table = column._prefix_table
        return _count_vector(domain, table[0, 1:] + table[1:].sum(axis=1), dropped)
    counts = np.zeros(10, dtype=np.int64)
    counts[0] = column._cuts[min(i, 20) - 1] - dropped  # the shorter values kept, whose i-th digit is 0
    if i == 2:
        counts += column._prefix_table[1:].sum(axis=0)
    else:
        for n, values in _slices(column, i):
            counts += np.bincount((values // 10 ** (n - i) if n > i else values) % 10, minlength=10)
    return _count_vector(domain, counts, dropped)


def real_digit_frequencies(values, i: int) -> CountVector:
    """Tabulate the i-th significant digit of positive reals (simulated samples).

    ``values`` is a 1-D float64 array or a sequence of positive Python ints
    and floats. A float's digits are those of its shortest round-trip decimal
    (0.154 -> 1, 5, 4, 0, ...), read by the vector candidate of the module
    docstring (exact powers of ten up to 10^22, one rounding, then floor) and
    through ``repr`` only near a digit boundary, outside the decade or past
    position 12, so they do not depend on numpy's CPU dispatch. A Python int
    is read exactly, and 2^63 or more is a ValueError. Digits beyond the
    written ones are 0 (trailing-zero semantics), so nothing is excluded.
    """
    domain = digit_domain(i)
    exact, floats = _split_reals(values)
    counts = np.zeros(10, dtype=np.int64)
    for start in range(0, floats.size, _BLOCK):
        prefixes, risky = _float_prefixes(floats[start:start + _BLOCK], i)
        counts += np.bincount(prefixes % 10, minlength=10)
        exact.extend(int(_digit_string(x)) for x in risky.tolist())
    if exact:
        counts[list(domain)] += digit_frequencies(DatasetColumn("values", exact), i, TRAILING_ZERO).counts
    return _count_vector(domain, counts[list(domain)], 0)


# values per block of the float path, which bounds its numpy temporaries
_BLOCK = 1 << 14
# 10^0 .. 10^22 as floats: each is exact, so scaling by one rounds once
_FLOAT_POWERS_OF_TEN = np.array([float(10**j) for j in range(23)])
# a scaled value this close to an integer, relative to itself, may floor
# differently from its shortest repr (which differs from it by <= 2^-52 of it)
_NEAR_INTEGER = 2.0**-40
# from 10^12 on, 2^-40 * y exceeds 1/2: every candidate is near an integer
_MAX_CANDIDATE_DIGITS = 12


def _split_reals(values) -> tuple[list, np.ndarray]:
    """The Python ints of ``values`` (read exactly) and its floats as a float64 array.

    Raises the ValueError of ``_digit_string`` for the first value that is not
    a positive finite float or a positive int.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        ok = (values > 0.0) & (values < math.inf)
        if not ok.all():
            _digit_string(values[ok.argmin()].item())
        return [], values
    exact, floats = [], []
    for x in values:
        if isinstance(x, float) and 0.0 < x < math.inf:
            floats.append(x)
        else:
            _digit_string(x)  # raises unless x is a positive int
            exact.append(x)
    return exact, np.array(floats, dtype=np.float64)


def _float_prefixes(x: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The i-digit prefixes of the floats whose vector candidate is safe, and the other floats."""
    if i > _MAX_CANDIDATE_DIGITS:
        return np.empty(0, dtype=np.int64), x
    shift = (i - 1) - np.floor(np.log10(x)).astype(np.int64)
    top = _FLOAT_POWERS_OF_TEN.size - 1
    # one factor is 1.0, so y = x * 10^shift rounds once; a shift beyond the table leaves y outside the decade
    y = x * _FLOAT_POWERS_OF_TEN[np.clip(shift, 0, top)] / _FLOAT_POWERS_OF_TEN[np.clip(-shift, 0, top)]
    prefixes = np.floor(y)
    # the decade test also catches a log10 off by one, so no digit depends on its accuracy
    safe = ((prefixes >= _FLOAT_POWERS_OF_TEN[i - 1]) & (prefixes < _FLOAT_POWERS_OF_TEN[i])
            & (np.abs(y - np.rint(y)) > y * _NEAR_INTEGER))
    return prefixes[safe].astype(np.int64), x[~safe]


def joint_frequencies(column: DatasetColumn, k: int = 2, policy: str = EXCLUDE_SHORT) -> CountVector:
    """Tabulate ordered k-digit prefixes (d1, ..., dk) of every retained value, as ``digit_frequencies`` does digits."""
    _check_digit_index(k)
    if k < 2:
        raise ValueError("joint tabulation needs k >= 2; use digit_frequencies for a single digit")
    domain = joint_domain(k)  # refuses k past MAX_JOINT_DIGITS
    dropped = _dropped(column, k, policy)
    if k == 2:
        counts = column._prefix_table[1:].copy()
        if policy == TRAILING_ZERO:
            counts[:, 0] += column._prefix_table[0, 1:]  # the one-digit value d reads as the prefix d0
        return _count_vector(domain, counts.ravel(), dropped)
    # bincount cell p is the prefix p; joint_domain(k) lists the prefixes 10^(k-1) .. 10^k - 1 in increasing order
    first = 10 ** (k - 1)
    counts = np.zeros(10 * first, dtype=np.int64)
    for n, values in _slices(column, k if policy == EXCLUDE_SHORT else 1):
        counts += np.bincount(values // 10 ** (n - k) if n >= k else values * 10 ** (k - n), minlength=10 * first)
    return _count_vector(domain, counts[first:], dropped)


def _count_vector(domain: tuple, counts: np.ndarray, excluded: int) -> CountVector:
    """A CountVector from nonnegative int64 tallies aligned with the tuple ``domain``, built without its checks.

    Its four slots are set directly, so ``__post_init__`` does not run.
    """
    counts = tuple(counts.tolist())
    n = sum(counts)
    if not n:
        raise ValueError("no analyzable values")
    cv = object.__new__(CountVector)
    object.__setattr__(cv, "domain", domain)
    object.__setattr__(cv, "counts", counts)
    object.__setattr__(cv, "excluded", excluded)
    object.__setattr__(cv, "n", n)
    return cv
