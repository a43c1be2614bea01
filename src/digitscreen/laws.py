"""Newcomb-Benford reference distributions and count-restricted variants.

The restricted law renormalizes a base digit law by the exact number of
admissible integers carrying each digit; cardinalities come from closed-form
decade-block arithmetic, never enumeration.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .digits import FIRST_DIGIT_DOMAIN, LATER_DIGIT_DOMAIN, digit_domain, joint_domain

BENFORD_FIRST = "benford-first"
BENFORD_SECOND = "benford-second"

MAX_JOINT_DIGITS = 6
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class RestrictionSpec:
    """Admissible-count set: N <= upper, or lower <= N <= upper; the upper bound is required."""

    lower: int | None = None
    upper: int | None = None

    def __post_init__(self):
        if self.upper is None:
            raise ValueError("restriction needs an upper bound")
        for name, bound in (("lower", self.lower), ("upper", self.upper)):
            if bound is not None and (not isinstance(bound, int) or isinstance(bound, bool) or bound < 1):
                raise ValueError(f"{name} bound must be a positive integer, got {bound!r}")
        if self.lower is not None and self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    def __str__(self) -> str:
        if self.lower is None:
            return f"N<={self.upper}"
        return f"{self.lower}<=N<={self.upper}"


@dataclass(frozen=True)
class DigitDistribution:
    """A reference probability vector over a digit (or digit-prefix) domain.

    ``probs`` is a tuple of floats aligned with ``domain``, and
    ``log_probs`` their ``math.log``, with -inf for a zero probability.
    """

    kind: str
    domain: tuple
    probs: tuple
    digit_index: int | None = None
    joint_k: int | None = None
    restriction: RestrictionSpec | None = field(default=None, compare=False)
    log_probs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = tuple(map(float, self.probs))
        if len(probs) != len(self.domain):
            raise ValueError(f"{len(probs)} probabilities for a domain of {len(self.domain)} cells in {self.kind!r}")
        if any(p < 0.0 for p in probs):
            raise ValueError(f"negative probability in {self.kind!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities of {self.kind!r} sum to {total!r}, not 1")
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "log_probs", tuple(math.log(p) if p > 0.0 else -math.inf for p in probs))


@lru_cache(maxsize=None)
def nbl_first() -> DigitDistribution:
    """First-digit law: P(d) = log10(1 + 1/d) for d = 1..9."""
    probs = [math.log10(1.0 + 1.0 / d) for d in FIRST_DIGIT_DOMAIN]
    return DigitDistribution(BENFORD_FIRST, FIRST_DIGIT_DOMAIN, probs, digit_index=1)


@lru_cache(maxsize=None)
def nbl_second() -> DigitDistribution:
    """Second-digit law: P(d) = sum_j log10(1 + 1/(10j + d)) for d = 0..9, j = 1..9."""
    probs = [math.fsum(math.log10(1.0 + 1.0 / (10 * j + d)) for j in FIRST_DIGIT_DOMAIN) for d in LATER_DIGIT_DOMAIN]
    return DigitDistribution(BENFORD_SECOND, LATER_DIGIT_DOMAIN, probs, digit_index=2)


@lru_cache(maxsize=None)
def nbl_joint(k: int) -> DigitDistribution:
    """Joint law over ordered k-digit prefixes: P(d1..dk) = log10(1 + 1/(d1...dk))."""
    if not isinstance(k, int) or k < 2:
        raise ValueError("joint law needs k >= 2; use nbl_first for a single digit")
    if k > MAX_JOINT_DIGITS:
        raise ValueError(f"joint law supported up to k={MAX_JOINT_DIGITS}, got {k}")
    # joint_domain(k) lists the prefixes 10^(k-1) .. 10^k - 1 in increasing order
    probs = [math.log10(1.0 + 1.0 / value) for value in range(10 ** (k - 1), 10**k)]
    return DigitDistribution(f"benford-joint({k})", joint_domain(k), probs, joint_k=k)


@lru_cache(maxsize=None)
def uniform_law(i: int = 1) -> DigitDistribution:
    """Uniform digit distribution: 1/9 on 1..9 for i=1, 1/10 on 0..9 after."""
    domain = digit_domain(i)
    return DigitDistribution("uniform", domain, [1.0 / len(domain)] * len(domain), digit_index=i)


def _count_upto(n: int, i: int, d: int) -> int:
    """Integers in [1, n] having at least i digits with i-th significant digit d.

    An integer's i-th digit is the last digit of its i-digit prefix, and the
    m-digit integers that share a prefix fill a block of 10^(m-i). For an
    m-digit n with prefix q and remainder r (q, r = divmod(n, block)), each
    prefix ending in d counts 1 + 10 + ... + block / 10 = (block - 1) / 9
    integers in the shorter decades and, below q, a whole block in n's
    decade; q itself counts r + 1 when it ends in d. Exact Python ints.
    """
    lo = 10 ** (i - 1)  # the smallest i-digit prefix (1 when i == 1)
    if n < lo:
        return 0

    def ending_in_d(b: int) -> int:  # prefixes in [lo, b] whose last digit is d
        return (b - d) // 10 - (lo - 1 - d) // 10

    block = 10 ** (len(str(n)) - i)
    q, r = divmod(n, block)
    return (block - 1) // 9 * ending_in_d(10 * lo - 1) + block * ending_in_d(q - 1) + (r + 1 if q % 10 == d else 0)


def count_with_digit(d: int, i: int, spec: RestrictionSpec) -> int:
    """Exact number of admissible integers whose i-th significant digit is d.

    Admissible means lying in [lower, upper] (lower defaults to 1) and having
    at least i digits: the count up to upper less the count below lower, in
    closed form.
    """
    if d not in digit_domain(i):
        raise ValueError(f"digit {d} is outside the domain for position {i}")
    lower = 1 if spec.lower is None else spec.lower
    return _count_upto(spec.upper, i, d) - _count_upto(lower - 1, i, d)


def restricted_law(base: DigitDistribution, spec: RestrictionSpec) -> DigitDistribution:
    """The base digit law conditioned on counts lying in the admissible set.

    Uses the cardinality form: p(d | restriction) proportional to
    p_base(d) * #{admissible integers with i-th digit d}. Equal cardinalities
    across the domain cancel in the renormalization, so the base law is
    returned unchanged (exactly) in that case.
    """
    if base.kind not in (BENFORD_FIRST, BENFORD_SECOND):
        raise ValueError(f"restricted law is defined for {BENFORD_FIRST!r} or {BENFORD_SECOND!r} bases, got {base.kind!r}")
    cards = [count_with_digit(d, base.digit_index, spec) for d in base.domain]
    kind = f"restricted({base.kind}, {spec})"
    if not any(cards):
        raise ValueError(f"empty restriction: no admissible integers under {spec}")
    if len(set(cards)) == 1:
        return replace(base, kind=kind, restriction=spec)
    total = math.fsum(p * c for p, c in zip(base.probs, cards))
    probs = [p * c / total for p, c in zip(base.probs, cards)]
    return DigitDistribution(kind, base.domain, probs, digit_index=base.digit_index, restriction=spec)


_LAW_NAME_RE = re.compile(r"(?:(r?)nb([12])|joint2)(?::([0-9]+))?")


def canonical_law_name(name: str) -> str:
    """The name as ``law_from_name`` reads it: stripped, lowercase, with the alias cnb written rnb and a bound
    without leading zeros."""
    key = name.strip().lower()
    law, colon, bound = ("r" + key[1:] if key.startswith("cnb") else key).partition(":")
    # only ASCII digits: the name grammar reads no other, and int() would read them too
    return law + colon + (str(int(bound)) if bound.isascii() and bound.isdigit() else bound)


def distinct_laws(names, upper: int | None = None, lower: int | None = None) -> tuple:
    """``law_from_name(name, upper, lower)`` for each name; a name that selects an earlier one's law is a ValueError."""
    selected = set()
    for name in names:
        key = canonical_law_name(name)
        if key in selected:
            raise ValueError(f"test {name!r} selects the test {key} a second time")
        selected.add(key)
    return tuple(law_from_name(name, upper, lower) for name in names)


def law_from_name(name: str, upper: int | None = None, lower: int | None = None) -> DigitDistribution:
    """Build a law from its name: nb1, nb2, joint2, rnb1, rnb2 (cnb1, cnb2 are aliases).

    A restricted law takes its upper bound either in the name (rnb2:K) or
    from `upper`, and an optional lower bound from `lower`. The unrestricted
    laws ignore `upper` and `lower`, so one pair of bounds can serve a list of
    names, but a bound written into their name is an error.
    """
    m = _LAW_NAME_RE.fullmatch(canonical_law_name(name))
    if not m:
        raise ValueError(f"unknown law name {name!r}; expected nb1, nb2, joint2, rnb1:K or rnb2:K")
    restricted, digit, bound = m.groups()
    base = nbl_joint(2) if digit is None else nbl_first() if digit == "1" else nbl_second()
    if not restricted:
        if bound is not None:
            raise ValueError(f"law {name!r} is unrestricted and takes no bound; use rnb1:K or rnb2:K")
        return base
    if bound is not None:
        if upper is not None or lower is not None:
            raise ValueError(f"law {name!r} already carries its bound; give no separate bounds")
        upper = int(bound)
    if upper is None:
        raise ValueError(f"restricted law {name!r} needs an upper bound: {name.strip()}:K, or --bound K in screen")
    return restricted_law(base, RestrictionSpec(lower=lower, upper=upper))
