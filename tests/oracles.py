"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they check: the incomplete gamma
oracle integrates the density numerically at high precision, the Bayes
factor oracle works in exact rational arithmetic, and the digit tallies read
each value's decimal string instead of dividing by powers of ten. The
digit-keyed chi-squared and ln B01 oracles pin the float operations of the
reports instead: they must agree with the library bit for bit, as must the
former per-cell chi-squared, ln B01 and proportions fill, the voting model's
former scalar generator and head readers, the mixture's former whole-array
sampler, and the former `--proportions` writer; the former decade walk must
count exactly what its closed form counts, the former per-slice digit kernel
what the prefix table counts, and
the plain reader's former per-cell loop what its array classifier sorts.
"""

import csv
import io
import itertools
import json
import math
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from digitscreen import cli, digits, simulate


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


# The former chi-squared, ln B01, small-expected rule and `--proportions`
# fill, copied from digitscreen.inference and digitscreen.cli: one Python step
# per cell, each proportion written by `%r`. The per-cell passes that replaced
# them (list comprehensions summed by math.fsum or functools.reduce, a memo of
# each proportion's text) must give the same bits.


def former_chi_squared_stat(obs, ref) -> tuple[float, int]:
    if obs.domain != ref.domain:
        raise ValueError(f"domain mismatch: observed {obs.domain[:3]}..., reference {ref.domain[:3]}...")
    n = obs.n
    if n == 0:
        raise ValueError("no analyzable values")
    if min(ref.probs) <= 0.0:
        raise ValueError(f"reference law {ref.kind!r} has zero-probability cells; chi-squared undefined")
    chi2 = n * math.fsum((p - f) ** 2 / p for p, f in zip(ref.probs, tuple(c / n for c in obs.counts)))
    return chi2, len(ref.domain) - 1


def former_log_bayes_factor_uniform(obs, ref) -> float:
    if obs.domain != ref.domain:
        raise ValueError(f"domain mismatch: observed {obs.domain[:3]}..., reference {ref.domain[:3]}...")
    k = len(obs.domain)
    n = obs.n
    if n == 0:
        return 0.0
    loglik = 0.0
    for c, p in zip(obs.counts, ref.probs):
        if c == 0:
            continue
        if p == 0.0:
            return -math.inf
        loglik += c * math.log(p)
    log_marginal = -math.lgamma(float(k)) - math.fsum(math.lgamma(c + 1.0) for c in obs.counts if c > 0)
    return loglik + log_marginal + math.lgamma(float(n + k))


def former_small_expected(cv, law) -> tuple:
    return tuple(d for d, prob in zip(cv.domain, law.probs) if cv.n * prob < 5.0)


def former_proportions_bytes(template: str, counts) -> bytes:
    """A ``cli.proportions_template`` text, its ``%s`` slots read as the former ``%r``, filled with each c / n."""
    return (template.replace("%s", "%r") % tuple(c / counts.n for c in counts.counts)).encode()


# RNBL2's digit cardinalities by the former decade walk, copied verbatim from
# digitscreen.laws: one decade at a time, and the two mod-10 helpers it
# used. laws._count_upto's closed form must give the same count.


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


# The former tally of every position and prefix width, copied from
# digitscreen.digits: one np.bincount per decimal length of a column. The
# tallies of width 1 and 2, now sums over one prefix table per column, must
# equal it.


def former_digit_frequencies(column, i: int, policy: str):
    domain = digits.digit_domain(i)
    dropped = digits._dropped(column, i, policy)
    counts = np.zeros(10, dtype=np.int64)
    counts[0] = column._cuts[min(i, 20) - 1] - dropped  # the shorter values kept, whose i-th digit is 0
    for n, values in digits._slices(column, i):
        counts += np.bincount((values // 10 ** (n - i) if n > i else values) % 10, minlength=10)
    return digits._count_vector(domain, counts[list(domain)], dropped)


def former_joint_frequencies(column, k: int, policy: str):
    dropped = digits._dropped(column, k, policy)
    # bincount cell p is the prefix p; joint_domain(k) lists the prefixes 10^(k-1) .. 10^k - 1 in increasing order
    first = 10 ** (k - 1)
    counts = np.zeros(10 * first, dtype=np.int64)
    for n, values in digits._slices(column, k if policy == digits.EXCLUDE_SHORT else 1):
        counts += np.bincount(values // 10 ** (n - k) if n >= k else values * 10 ** (k - n), minlength=10 * first)
    return digits._count_vector(digits.joint_domain(k), counts[first:], dropped)


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


# The voting model's former head readers, copied from digitscreen.simulate: the Marsaglia-Tsang loop run in Python
# over one unit's head, its uniforms h and the Box-Muller normal z at each offset, with Python's float operations.
# simulate._block_betas must give each unit the same Beta draws and cursor, bit for bit, and must find a unit's head
# too short exactly where these raise IndexError.


def head_normals(head: np.ndarray) -> list:
    """The Box-Muller normal at each offset of a unit's head, as a unit generated alone would draw it there: offset
    i reads uniforms i and i + 1."""
    return simulate._box_muller(head[:-1].copy(), head[1:].copy()).tolist()


def head_gamma_variate(h: list, z: list, cur: int, shape: float) -> tuple[float, int]:
    """Marsaglia-Tsang squeeze over a unit's head: its uniforms h, the normals z
    at each offset, and the cursor of the first unused uniform. Returns the
    variate and the cursor after it; IndexError when the head runs out.
    """
    # the shape < 1 case boosts through shape + 1, with its uniform read after that draw's
    if shape < 1.0:
        g, cur = head_gamma_variate(h, z, cur, shape + 1.0)
        return g * (1.0 - h[cur]) ** (1.0 / shape), cur + 1
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = z[cur]
        cur += 2
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = h[cur]
        cur += 1
        if u < 1.0 - 0.0331 * x**4:
            return d * v, cur
        if u > 0.0 and math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
            return d * v, cur


def head_unit_betas(h: list, z: list, betas) -> tuple[list, int]:
    """A unit's Beta draws, in order, from its head; and the cursor after them."""
    draws, cur = [], 0
    for a, b in betas:
        if b == 0.0:
            draws.append(1.0)
        elif a == 0.0:
            draws.append(0.0)
        else:
            x, cur = head_gamma_variate(h, z, cur, a)
            y, cur = head_gamma_variate(h, z, cur, b)
            draws.append(x / (x + y))
    return draws, cur


# The former `screen --proportions` writer, copied from digitscreen.cli: one
# table of (digit label, observed proportion, law probability) rows, from
# cli.proportions_table, through csv.writer or json.dumps. The files the CLI
# writes must be byte-identical to its.


def former_write_proportions(table, out_path: Path, fmt: str) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = [{"digit": d, "observed": obs, "law": law} for d, obs, law in table]
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        with out_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("digit", "observed_proportion", "law_probability"))
            writer.writerows(table)


def former_plain_cells(block: bytes, delim: int, cols, cell_count) -> tuple[list, list]:
    """The plain reader's former per-cell loop over a block of whole ``\\n``-ended rows, uncapped.

    A cell of 1 to 18 ASCII digits without a leading zero is read by
    ``int``; ``cell_count`` reads every other cell, or raises the exclusion
    whose ``reason`` it carries. Returns, per selected column, the kept counts
    in row order and the (row, reason) of every exclusion in row order.
    """
    values, reasons = [[] for _ in cols], [[] for _ in cols]
    for row, line in enumerate(block.decode().split("\n")[:-1]):
        cells = line.split(chr(delim))
        for j, c in enumerate(cols):
            cell = cells[c]
            if cell.isascii() and cell.isdigit() and cell[0] != "0" and len(cell) < 19:
                values[j].append(int(cell))
                continue
            try:
                values[j].append(cell_count(cell))
            except ValueError as exc:
                reasons[j].append((row, exc.reason))
    return values, reasons


def former_read_csv(path, selectors, delimiter=None) -> list:
    """The csv reader's former per-cell loop: ``cli._cell_count`` on every selected cell of every row.

    The file is read through ``csv.reader`` one line at a time, as
    ``cli._read_csv`` reads it; each column's counts go into an
    ``array("q")``, and three tallies per column keep its exclusion count per
    reason and its first ``cli._SHOWN`` diagnostics of each reason.
    """
    with open(path, "rb") as fh:
        return _former_read_csv(fh, path, selectors, delimiter)


def _former_read_csv(fh, path, selectors, delimiter):
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8-sig", errors="surrogateescape")
    try:
        number = 0
        between = True

        def row_lines():
            nonlocal number, between
            for i, line in enumerate(text, start=1):
                if not between or line.strip():
                    number, between = i, False
                    if not line.isascii():
                        try:
                            line.encode()
                        except UnicodeEncodeError as exc:
                            raise ValueError(f"{path}: row {i}: byte {ord(line[exc.start]) - 0xDC00:#04x} "
                                             "is not UTF-8") from None
                    yield line

        lines = row_lines()
        first = next(lines, None)
        if first is None:
            raise ValueError(f"empty input file: {path}")
        rows = csv.reader(itertools.chain([first], lines), delimiter=delimiter or cli._detect_delimiter(first))
        try:
            row = next(rows)
            found = cli._detect_delimiter(rows.dialect.delimiter.join(row))
            if delimiter is None and found != rows.dialect.delimiter:
                return _former_read_csv(fh, path, selectors, found)
            header, indices = cli._select(row, selectors)
            between = True
            values = [array("q") for _ in indices]
            counts = [[0] * len(cli.REASONS) for _ in indices]
            diagnostics = [[] for _ in indices]
            reasons = [[] for _ in indices]
            width = len(header)
            for row in rows:
                between = True
                if len(row) != width:
                    diagnostic = f"row {number}: {len(row)} cells where the header has {width}; {cli._RAGGED}"
                    for col_counts, col_diagnostics, col_reasons in zip(counts, diagnostics, reasons):
                        col_counts[cli._RAGGED_ROW] += 1
                        if col_counts[cli._RAGGED_ROW] <= cli._SHOWN:
                            col_diagnostics.append(diagnostic)
                            col_reasons.append(cli._RAGGED_ROW)
                    continue
                for idx, col_values, col_counts, col_diagnostics, col_reasons in zip(indices, values, counts,
                                                                                     diagnostics, reasons):
                    try:
                        col_values.append(cli._cell_count(row[idx]))
                    except cli._Excluded as exc:
                        col_counts[exc.reason] += 1
                        if col_counts[exc.reason] <= cli._SHOWN:
                            col_diagnostics.append(f"{header[idx]}: row {number}: {exc}")
                            col_reasons.append(exc.reason)
        except csv.Error as exc:
            raise ValueError(f"{path}: row {number}: {exc}") from None
    finally:
        text.detach()
    return [digits.DatasetColumn(header[idx], np.frombuffer(col_values, dtype=np.int64), diagnostics=col_diagnostics,
                                 reasons=[cli.REASONS[r] for r in col_reasons],
                                 excluded_by_reason=dict(zip(cli.REASONS, col_counts)))
            for idx, col_values, col_counts, col_diagnostics, col_reasons in zip(indices, values, counts, diagnostics,
                                                                                 reasons)]


# The mixture's former whole-array sampler, copied from digitscreen.simulate: membership first, then each component
# draws all its values in one array (lognormal's two uniform arrays one after the other) and redraws its bad ones
# in rounds. simulate.sample_mixture, which draws each component into its output a block at a time, must give the
# same samples, bit for bit, and fail where it fails.


@np.errstate(over="ignore")
def _former_draw_family(rng: np.random.Generator, comp, size: int) -> np.ndarray:
    p = comp.params
    if comp.family == "lognormal":
        z = simulate._box_muller(rng.random(size), rng.random(size))
        np.multiply(z, p["sigma"], out=z)
        np.add(z, p["mu"], out=z)
        return np.exp(z, out=z)
    if comp.family == "half-cauchy":
        return p["scale"] * np.tan(0.5 * np.pi * rng.random(size))
    if comp.family == "scaled-exponential":
        return -p["scale"] * np.log(1.0 - rng.random(size))
    return p["low"] + rng.random(size) * (p["high"] - p["low"])


def former_sample_mixture(config) -> np.ndarray:
    rng = np.random.default_rng(config.seed)
    cum = np.cumsum([c.weight for c in config.components])
    cum[-1] = 1.0
    membership = np.empty(config.n_samples, dtype=np.min_scalar_type(len(cum)))
    for start in range(0, config.n_samples, 1 << 16):
        block = membership[start:start + (1 << 16)]
        block[:] = np.searchsorted(cum, rng.random(block.size), side="right")
    out = np.empty(config.n_samples, dtype=float)
    for j, comp in enumerate(config.components):
        slots = membership == j
        size = int(np.count_nonzero(slots))
        if size == 0:
            continue
        draws = _former_draw_family(rng, comp, size)
        for _ in range(100):
            bad = ~((draws > 0.0) & (draws < math.inf))
            if not bad.any():
                break
            draws[bad] = _former_draw_family(rng, comp, int(bad.sum()))
        else:
            raise RuntimeError(f"component {j} ({comp.family}) kept producing non-positive or non-finite draws")
        out[slots] = draws
    return out


# The former `simulate --out` mixture writer, copied from digitscreen.cli: each
# sample's `repr`, one a line, joined a block of 2**14 samples at a time. The
# CSV rows the CLI writes must be byte-identical to its.


def former_sample_lines(samples) -> bytes:
    samples = np.asarray(samples, dtype=np.float64)
    return b"".join(("\n".join(map(repr, samples[i:i + (1 << 14)].tolist())) + "\n").encode()
                    for i in range(0, samples.size, 1 << 14))


def kernel_certifies(x: float) -> bool:
    """Whether the shortest-digit kernel writes ``x`` itself, from Python ints.

    That is when ``x`` lies in [1e-4, 2**52) and none of x and the ends of
    its rounding interval, 4m * 2**(e - 2) and (4m + 2, 4m - 1 - [m is not a
    power of two]) times 2**(e - 2) for x = m * 2**e, is a whole number of
    units of Ryu's scale 10**-i, where i = k - q, k = 2 - e and
    q = floor(log10(5**k)) - 1.
    """
    if not 1e-4 <= x < 2.0**52:
        return False
    fraction, exponent = math.frexp(x)
    m, e = int(fraction * 2**53), exponent - 53
    k = 2 - e
    q = len(str(5**k)) - 2
    return all(a * 5 ** (k - q) % 2**q for a in (4 * m, 4 * m + 2, 4 * m - 1 - (m != 2**52)))
