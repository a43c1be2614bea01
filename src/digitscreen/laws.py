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
    """Admissible-count set: N <= upper, N >= lower, or lower <= N <= upper."""

    lower: int | None = None
    upper: int | None = None

    def __post_init__(self):
        if self.lower is None and self.upper is None:
            raise ValueError("restriction needs a lower bound, an upper bound, or both")
        for name, bound in (("lower", self.lower), ("upper", self.upper)):
            if bound is not None and (not isinstance(bound, int) or isinstance(bound, bool) or bound < 1):
                raise ValueError(f"{name} bound must be a positive integer, got {bound!r}")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    def __str__(self) -> str:
        if self.lower is None:
            return f"N<={self.upper}"
        if self.upper is None:
            return f"N>={self.lower}"
        return f"{self.lower}<=N<={self.upper}"


@dataclass(frozen=True)
class DigitDistribution:
    """A reference probability vector over a digit (or digit-prefix) domain."""

    kind: str
    domain: tuple
    probs: dict
    digit_index: int | None = None
    joint_k: int | None = None
    restriction: RestrictionSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        domain = tuple(self.domain)
        object.__setattr__(self, "domain", domain)
        if set(self.probs) != set(domain):
            raise ValueError(f"probability keys do not match domain for {self.kind!r}")
        ordered = {d: float(self.probs[d]) for d in domain}
        if any(p < 0.0 for p in ordered.values()):
            raise ValueError(f"negative probability in {self.kind!r}")
        total = math.fsum(ordered.values())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities of {self.kind!r} sum to {total!r}, not 1")
        object.__setattr__(self, "probs", ordered)

    def __getitem__(self, d) -> float:
        return self.probs[d]


@lru_cache(maxsize=None)
def nbl_first() -> DigitDistribution:
    """First-digit law: P(d) = log10(1 + 1/d) for d = 1..9."""
    probs = {d: math.log10(1.0 + 1.0 / d) for d in FIRST_DIGIT_DOMAIN}
    return DigitDistribution(BENFORD_FIRST, FIRST_DIGIT_DOMAIN, probs, digit_index=1)


@lru_cache(maxsize=None)
def nbl_second() -> DigitDistribution:
    """Second-digit law: P(d) = sum_j log10(1 + 1/(10j + d)) for d = 0..9, j = 1..9."""
    probs = {
        d: math.fsum(math.log10(1.0 + 1.0 / (10 * j + d)) for j in FIRST_DIGIT_DOMAIN)
        for d in LATER_DIGIT_DOMAIN
    }
    return DigitDistribution(BENFORD_SECOND, LATER_DIGIT_DOMAIN, probs, digit_index=2)


@lru_cache(maxsize=None)
def nbl_joint(k: int) -> DigitDistribution:
    """Joint law over ordered k-digit prefixes: P(d1..dk) = log10(1 + 1/(d1...dk))."""
    if not isinstance(k, int) or k < 2:
        raise ValueError("joint law needs k >= 2; use nbl_first for a single digit")
    if k > MAX_JOINT_DIGITS:
        raise ValueError(f"joint law supported up to k={MAX_JOINT_DIGITS}, got {k}")
    domain = joint_domain(k)
    probs = {}
    for prefix in domain:
        value = 0
        for d in prefix:
            value = value * 10 + d
        probs[prefix] = math.log10(1.0 + 1.0 / value)
    return DigitDistribution(f"benford-joint({k})", domain, probs, joint_k=k)


@lru_cache(maxsize=None)
def uniform_law(i: int = 1) -> DigitDistribution:
    """Uniform digit distribution: 1/9 on 1..9 for i=1, 1/10 on 0..9 after."""
    domain = digit_domain(i)
    probs = {d: 1.0 / len(domain) for d in domain}
    return DigitDistribution("uniform", domain, probs, digit_index=i)


def _count_mod10_upto(x: int, d: int) -> int:
    # integers in [0, x] whose last decimal digit is d
    if x < d:
        return 0
    return (x - d) // 10 + 1


def _count_mod10(a: int, b: int, d: int) -> int:
    # integers in [a, b] whose last decimal digit is d
    if b < a:
        return 0
    return _count_mod10_upto(b, d) - _count_mod10_upto(a - 1, d)


def _count_upto(n: int, i: int, d: int) -> int:
    """Integers in [1, n] having at least i digits with i-th significant digit d.

    Walks the decades: an m-digit number's i-th digit is the last digit of its
    leading i-digit prefix, and each prefix owns a block of 10^(m-i)
    consecutive integers. O(log n) per call.
    """
    if n <= 0:
        return 0
    total = 0
    m = i
    prefix_lo = 10 ** (i - 1)  # smallest i-digit prefix (1 when i == 1)
    prefix_hi = 10**i - 1
    while 10 ** (m - 1) <= n:
        decade_hi = 10**m - 1
        block = 10 ** (m - i)
        if n >= decade_hi:
            total += block * _count_mod10(prefix_lo, prefix_hi, d)
        else:
            q, r = divmod(n, block)
            total += block * _count_mod10(prefix_lo, q - 1, d)
            if q >= prefix_lo and q % 10 == d:
                total += r + 1
        m += 1
    return total


def count_with_digit(d: int, i: int, spec: RestrictionSpec) -> int:
    """Exact number of admissible integers whose i-th significant digit is d.

    Admissible means lying in [lower, upper] (lower defaults to 1) and having
    at least i digits; counting a one-sided N >= lower set is impossible, so
    an upper bound is required.
    """
    if d not in digit_domain(i):
        raise ValueError(f"digit {d} is outside the domain for position {i}")
    if spec.upper is None:
        raise ValueError("cardinality requires an upper bound")
    lower = 1 if spec.lower is None else spec.lower
    return _count_upto(spec.upper, i, d) - _count_upto(lower - 1, i, d)


def _renormalize(base: DigitDistribution, weights: dict) -> dict:
    total = math.fsum(base.probs[d] * weights[d] for d in base.domain)
    return {d: base.probs[d] * weights[d] / total for d in base.domain}


def restricted_law(base: DigitDistribution, spec: RestrictionSpec) -> DigitDistribution:
    """The base digit law conditioned on counts lying in the admissible set.

    Uses the cardinality form: p(d | restriction) proportional to
    p_base(d) * #{admissible integers with i-th digit d}. Equal cardinalities
    across the domain cancel in the renormalization, so the base law is
    returned unchanged (exactly) in that case.
    """
    if base.kind not in (BENFORD_FIRST, BENFORD_SECOND):
        raise ValueError(f"restricted law is defined for {BENFORD_FIRST!r} or {BENFORD_SECOND!r} bases, got {base.kind!r}")
    cards = {d: count_with_digit(d, base.digit_index, spec) for d in base.domain}
    kind = f"restricted({base.kind}, {spec})"
    if all(c == 0 for c in cards.values()):
        raise ValueError(f"empty restriction: no admissible integers under {spec}")
    if len(set(cards.values())) == 1:
        return replace(base, kind=kind, restriction=spec)
    probs = _renormalize(base, cards)
    return DigitDistribution(kind, base.domain, probs, digit_index=base.digit_index, restriction=spec)


_LAW_NAME_RE = re.compile(r"(?:([rc]?)nb([12])|joint2)(?::([0-9]+))?")


def law_from_name(name: str, upper: int | None = None, lower: int | None = None) -> DigitDistribution:
    """Build a law from its name: nb1, nb2, joint2, rnb1, rnb2 (cnb1, cnb2 are aliases).

    A restricted law takes its upper bound either in the name (rnb2:K) or
    from `upper`, and an optional lower bound from `lower`. The unrestricted
    laws ignore `upper` and `lower`, so one pair of bounds can serve a list of
    names, but a bound written into their name is an error.
    """
    m = _LAW_NAME_RE.fullmatch(name.strip().lower())
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
