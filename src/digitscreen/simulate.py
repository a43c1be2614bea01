"""Synthetic data generators: distribution mixtures and a two-population
bounded voting model, with fully reproducible streams.

Reproducibility contract: every draw is derived from the raw PCG64 uniform
stream through sampling algorithms owned by this module (inverse transforms,
Box-Muller, Marsaglia-Tsang, Bernoulli counting), so identical configs give
bit-identical output on the same numpy build and CPU dispatch. Nothing more
is promised: numpy's SIMD log, exp and tan can differ in the last bit between
dispatch targets, and the shipped lognormal mixture writes different values
under AVX512 than under SSE4.2. Unit j of a voting run uses the stream
PCG64(SeedSequence(seed, spawn_key=(j,))), which makes per-unit generation
order-independent and safe to parallelize. Units are generated in blocks,
but each unit reads its own stream in the order of a unit generated alone.
Its Beta draws read a head of _HEAD uniforms: the block's Marsaglia-Tsang
tries run in lockstep numpy passes, each unit at its own cursor, with libm
(Python's math) for the powers and logs, which numpy's SIMD loops may round
otherwise. A unit whose draws would read past its head doubles the head with
its stream's next uniforms and runs the same passes again. Its Bernoulli
counts read on from there, through one buffer of 3 * max_voters reused by
every unit. A block's generators are seeded in one numpy pass that repeats
numpy's SeedSequence hash, so j is one uint32 word and n_units is at most
2^32.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import repeat

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .digits import DatasetColumn, real_digit_frequencies
from .inference import TestReport, report_from_counts, screen
from .laws import DigitDistribution, distinct_laws

# each mixture family, and the parameters it takes
_FAMILY_PARAMS = {"lognormal": ("mu", "sigma"), "half-cauchy": ("scale",), "scaled-exponential": ("scale",),
                  "uniform-range": ("low", "high")}
MIXTURE_FAMILIES = tuple(_FAMILY_PARAMS)

_MAX_REDRAW_ROUNDS = 100

# samples per block of mixture membership uniforms, which keeps that draw's
# temporaries small beside the one byte per sample that membership takes
_MEMBERSHIP_BLOCK = 1 << 16

# The voting model builds its units' generators a block at a time: 256 of them
# hold about 0.2 MB, which keeps peak memory flat, and each numpy call of the
# block's Beta passes serves that many units. Each unit draws its first _HEAD
# uniforms up front, which its three Beta draws nearly always fit in (the shipped
# model's six gamma variates end at uniform 23 in the median, past 32 in 1 unit of 25 000).
_BLOCK = 256
_HEAD = 32

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx). The pool of SeedSequence(seed) is each unit's pool
# before its spawn key word j is mixed in: a zero word pads the seed the same as a missing one, and mixing the 4
# pool words took the hash constant from _INIT_A to _INIT_A * _MULT_A^16, where mixing in j goes on (_HASH_J).
# generate_state(4, uint64) then hashes pool word i % 4 into 32-bit state word i, for i = 0..7 (_HASH_STATE);
# each hash xors a word with one constant and multiplies it by the next.
_INIT_A, _MULT_A, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_HASH_J = np.array([_INIT_A * pow(_MULT_A, k, 1 << 32) % (1 << 32) for k in range(16, 21)], np.uint32)[:, None]
_HASH_STATE = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) % (1 << 32) for i in range(9)], np.uint32)[:, None]


@dataclass(frozen=True)
class MixtureComponent:
    """One mixture component: family name, family parameters, mixing weight."""

    family: str
    params: dict
    weight: float

    def __post_init__(self):
        if self.family not in MIXTURE_FAMILIES:
            raise ValueError(f"unknown mixture family {self.family!r}; expected one of {MIXTURE_FAMILIES}")
        if self.weight < 0.0:
            raise ValueError(f"component weight must be nonnegative, got {self.weight}")
        p = dict(self.params)
        object.__setattr__(self, "params", p)
        needed = _FAMILY_PARAMS[self.family]
        missing = [k for k in needed if k not in p]
        if missing:
            raise ValueError(f"{self.family} component missing parameters {missing}")
        unknown = sorted(set(p) - set(needed))
        if unknown:
            raise ValueError(f"{self.family} component takes no parameters {unknown}")
        if not all(map(math.isfinite, (self.weight, *p.values()))):
            raise ValueError(f"{self.family} component parameters and weight must be finite")
        if self.family == "lognormal" and p["sigma"] < 0.0:
            raise ValueError("lognormal sigma must be nonnegative")
        if self.family in ("half-cauchy", "scaled-exponential") and p["scale"] <= 0.0:
            raise ValueError(f"{self.family} scale must be positive")
        if self.family == "uniform-range" and not p["low"] < p["high"]:
            raise ValueError("uniform-range needs low < high")
        if self.family == "uniform-range" and not math.isfinite(p["high"] - p["low"]):
            raise ValueError("uniform-range needs a finite width high - low")


@dataclass(frozen=True)
class MixtureConfig:
    """A weighted mixture of positive-valued sampling families."""

    components: tuple
    n_samples: int
    seed: int

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("mixture needs at least one component")
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights sum to {total}, not 1")
        _check_int("n_samples", self.n_samples, 1)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class VotingModelConfig:
    """Two-population voting model: per unit, a partisan bloc loyal to
    candidate A plus a general bloc swinging between A and B.

    The Beta(a, b) pairs describe across-unit heterogeneity; a degenerate
    pair with b == 0 (or a == 0) pins the draw at 1 (or 0).
    """

    n_units: int
    max_voters: int
    turnout_dist: tuple[float, float]
    partisan_fraction_dist: tuple[float, float]
    partisan_loyalty: float
    swing_prob_dist: tuple[float, float]
    seed: int

    def __post_init__(self):
        # a unit's spawn key is one uint32 word in _unit_rngs
        _check_int("n_units", self.n_units, 1, 1 << 32)
        _check_int("max_voters", self.max_voters, 10)
        if not 0.0 <= self.partisan_loyalty <= 1.0:
            raise ValueError("partisan_loyalty must lie in [0, 1]")
        for name in ("turnout_dist", "partisan_fraction_dist", "swing_prob_dist"):
            a, b = getattr(self, name)
            if not (0.0 <= a < math.inf and 0.0 <= b < math.inf) or a + b == 0.0:
                raise ValueError(f"{name} Beta parameters must be finite and nonnegative with a + b > 0")
        _check_int("seed", self.seed, 0)


def _check_int(name: str, value, low: int, high: int = 2**64 - 1) -> None:
    """A ValueError that names the field unless ``value`` is a Python int, not a bool, from low to high."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value > high:
        # every upper bound passed here is 2^k or 2^k - 1
        bound = f"at most 2^{high.bit_length() - 1}" if high & (high - 1) == 0 else f"below 2^{high.bit_length()}"
        raise ValueError(f"{name} must be {bound}")


class _StateWords(ISeedSequence):
    """A seed sequence whose PCG64 state words are already hashed: PCG64 seeds itself from generate_state(4, uint64)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _unit_rngs(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """The generators PCG64(SeedSequence(seed, spawn_key=(j,))) of units start <= j < stop, with their pools and
    state words hashed for all of them at once."""
    j = np.arange(start, stop).astype(np.uint32)
    key = (j ^ _HASH_J[:4]) * _HASH_J[1:]
    key ^= key >> np.uint32(16)
    pool = np.random.SeedSequence(seed).pool[:, None] * np.uint32(_MIX_L) - key * np.uint32(_MIX_R)
    pool ^= pool >> np.uint32(16)
    state = (np.tile(pool, (2, 1)) ^ _HASH_STATE[:8]) * _HASH_STATE[1:]
    state ^= state >> np.uint32(16)
    state = state.astype(np.uint64)
    # 32-bit words 2k and 2k + 1 make 64-bit word k, low half first; one C-contiguous row per unit
    words = np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in words]


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals sqrt(-2 ln(1 - u1)) cos(2 pi u2), computed in place in u1 and u2.

    Each step is one elementwise ufunc, so an element's value does not depend
    on the shape or length of the arrays; 1 - u keeps the log argument in (0, 1].
    """
    z = np.subtract(1.0, u1, out=u1)
    np.log(z, out=z)
    np.multiply(z, -2.0, out=z)
    np.sqrt(z, out=z)
    np.multiply(u2, 2.0 * np.pi, out=u2)
    np.cos(u2, out=u2)
    return np.multiply(z, u2, out=z)


def _libm(f, a: np.ndarray, *args: float) -> np.ndarray:
    """f of Python's math, applied to each element of the array a (and the further arguments): numpy's SIMD power
    and log can differ from libm in the last bit, and a unit must draw as it did when generated alone."""
    return np.fromiter(map(f, a.tolist(), *map(repeat, args)), float, a.size)


def _gammas(heads: np.ndarray, cur: np.ndarray, ok: np.ndarray, shape: float) -> np.ndarray:
    """Marsaglia-Tsang gamma variates of one shape, one for each row of heads with ok set, drawn in lockstep.

    Each unit reads its own head from its cursor in cur, which ends past its draw, in the order and with the float
    operations of a unit drawn alone; each pass tries again for the units that rejected. A unit whose draw would
    read past its head clears its ok and keeps a variate of 1.
    """
    size = heads.shape[1]
    if shape < 1.0:
        # the shape < 1 case boosts through shape + 1, with its uniform read after that draw's
        g = _gammas(heads, cur, ok, shape + 1.0)
        ok &= cur < size
        rows = np.flatnonzero(ok)
        g[rows] *= _libm(math.pow, 1.0 - heads[rows, cur[rows]], 1.0 / shape)
        cur[rows] += 1
        return g
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    g = np.ones(len(cur))
    rows = np.flatnonzero(ok)
    while rows.size:
        # a try reads the normal at uniforms at and at + 1, then u at at + 2 or, when v <= 0, the next try's normal
        at = cur[rows]
        fits = at < size - 2
        ok[rows[~fits]] = False
        rows, at = rows[fits], at[fits]
        x = _box_muller(heads[rows, at], heads[rows, at + 1])
        v = _libm(math.pow, 1.0 + c * x, 3.0)
        u = heads[rows, at + 2]
        positive = v > 0.0
        cur[rows] = at + 2 + positive
        accept = positive & (u < 1.0 - 0.0331 * _libm(math.pow, x, 4.0))
        logs = positive & ~accept & (u > 0.0)
        if logs.any():
            x, w = x[logs], v[logs]
            accept[logs] = _libm(math.log, u[logs]) < 0.5 * x * x + d - d * w + d * _libm(math.log, w)
        g[rows[accept]] = d * v[accept]
        rows = rows[~accept]
    return g


@np.errstate(invalid="raise")  # 0 / 0, when both gamma variates underflow, raises as Python's float division does
def _block_betas(heads: np.ndarray, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each unit's Beta draws from its head, one row of heads: the draws (one row per Beta pair), each unit's cursor
    after them, and whether they fit in its head (the draws and cursor of a unit that does not are meaningless)."""
    cur = np.zeros(len(heads), np.intp)
    ok = np.ones(len(heads), bool)
    draws = np.empty((len(betas), len(heads)))
    for row, (a, b) in zip(draws, betas):
        if b == 0.0:
            row[:] = 1.0
        elif a == 0.0:
            row[:] = 0.0
        else:
            x = _gammas(heads, cur, ok, a)
            y = _gammas(heads, cur, ok, b)
            np.divide(x, x + y, out=row)
    return draws, cur, ok


@np.errstate(over="ignore")  # an overflow draws inf, which sample_mixture redraws
def _draw_family(rng: np.random.Generator, comp: MixtureComponent, size: int) -> np.ndarray:
    p = comp.params
    if comp.family == "lognormal":
        z = _box_muller(rng.random(size), rng.random(size))
        np.multiply(z, p["sigma"], out=z)
        np.add(z, p["mu"], out=z)
        return np.exp(z, out=z)
    if comp.family == "half-cauchy":
        return p["scale"] * np.tan(0.5 * np.pi * rng.random(size))
    if comp.family == "scaled-exponential":
        return -p["scale"] * np.log(1.0 - rng.random(size))
    return p["low"] + rng.random(size) * (p["high"] - p["low"])


def sample_mixture(config: MixtureConfig) -> np.ndarray:
    """Draw n_samples positive reals from the weighted mixture.

    Component membership comes first from one uniform per sample, then each
    component fills its slots in declaration order; draws that are not finite
    positive reals are redrawn a bounded number of rounds.
    """
    rng = np.random.default_rng(config.seed)
    cum = np.cumsum([c.weight for c in config.components])
    cum[-1] = 1.0
    # drawn in blocks, the membership uniforms are the same stream as in one draw
    membership = np.empty(config.n_samples, dtype=np.min_scalar_type(len(cum)))
    for start in range(0, config.n_samples, _MEMBERSHIP_BLOCK):
        block = membership[start:start + _MEMBERSHIP_BLOCK]
        block[:] = np.searchsorted(cum, rng.random(block.size), side="right")
    out = np.empty(config.n_samples, dtype=float)
    for j, comp in enumerate(config.components):
        slots = membership == j
        size = int(np.count_nonzero(slots))
        if size == 0:
            continue
        draws = _draw_family(rng, comp, size)
        for _ in range(_MAX_REDRAW_ROUNDS):
            bad = ~((draws > 0.0) & (draws < math.inf))
            if not bad.any():
                break
            draws[bad] = _draw_family(rng, comp, int(bad.sum()))
        else:
            raise RuntimeError(f"component {j} ({comp.family}) kept producing non-positive or non-finite draws")
        out[slots] = draws
    return out


def hmpm_unit_counts(config: VotingModelConfig) -> list[tuple[int, int]]:
    """Raw per-unit (candidate A, candidate B) counts, zeros included.

    Per unit: turnout is Binomial(max_voters, t) with t ~ Beta(turnout_dist),
    the turnout splits into partisans and swing voters by a Beta draw, and
    each bloc votes for A with its own probability (loyalty, resp. a
    Beta-drawn swing probability); B receives the remainder, so counts can
    never exceed max_voters.

    Units are generated _BLOCK at a time: each draws its first _HEAD uniforms
    into one array, from which _block_betas draws the whole block's Beta
    variates in lockstep. Each pass makes one Marsaglia-Tsang try for every
    unit that still needs a variate, at the unit's own cursor, with numpy
    gathers, Box-Muller normals only at the offsets read, and libm for pow and
    log, so that each unit gets the draws and cursor of a unit generated
    alone. The units whose Beta draws would read past their heads double them
    with the next uniforms of their streams and run the same lockstep again.
    The Bernoulli counts read the unit's next uniforms from one buffer of
    3 * max_voters, allocated once per call: the head's rest, then one draw
    for the rest of the turnout's max_voters uniforms, then one for the
    2 * turnout after them, over which the partisans, the loyal partisans and
    the swing voters for A are counts over three slices, compared into one
    reused boolean mask. Blocks and the buffer change neither a unit's stream
    nor the order it is read in. A block's generators are seeded together, by
    _unit_rngs.
    """
    n = config.max_voters
    # the counts' buffer and mask, and the block's heads, serve every block
    shared = np.empty(3 * n), np.empty(3 * n, bool), np.empty((min(_BLOCK, config.n_units), _HEAD))
    units = []
    for start in range(0, config.n_units, _BLOCK):
        units += _block_units(config, start, *shared)
    return units


def _block_units(config: VotingModelConfig, start: int, buf: np.ndarray, below: np.ndarray,
                 heads: np.ndarray) -> list[tuple[int, int]]:
    """The counts of units start <= j < start + _BLOCK. Their generators go when it returns, before the next
    block's are made."""
    betas = (config.turnout_dist, config.partisan_fraction_dist, config.swing_prob_dist)
    n, loyalty = config.max_voters, config.partisan_loyalty
    rngs = _unit_rngs(config.seed, start, min(start + _BLOCK, config.n_units))
    heads = heads[:len(rngs)]
    for rng, head in zip(rngs, heads):
        rng.random(out=head)
    draws, cur, ok = _block_betas(heads, betas)
    heads = list(heads)
    redo = np.flatnonzero(~ok)
    while redo.size:
        # these generators have drawn exactly their heads, so their next uniforms double them
        for j in redo:
            heads[j] = np.concatenate((heads[j], rngs[j].random(heads[j].size)))
        draws[:, redo], cur[redo], ok = _block_betas(np.array([heads[j] for j in redo]), betas)
        redo = redo[~ok]
    units = []
    for rng, head, t, phi, w, k in zip(rngs, heads, *draws.tolist(), cur.tolist()):
        # the turnout's n uniforms start at the first one the Beta draws left unused, and the 2 * turnout after
        # them are the partisans among the turnout, then the loyal partisans and the swing voters for A. The
        # buffer holds the head's rest, and each draw fills what the rest does not (a zero-size draw draws nothing)
        rest = head[k:k + 3 * n]
        buf[:rest.size] = rest
        rng.random(out=buf[rest.size:n])
        turnout = int(np.count_nonzero(np.less(buf[:n], t, out=below[:n])))
        lo, hi = n + turnout, n + 2 * turnout
        rng.random(out=buf[max(rest.size, n):hi])
        mid = lo + int(np.count_nonzero(np.less(buf[n:lo], phi, out=below[n:lo])))
        # the votes for A, loyal partisans and swing voters alike, are one count
        np.less(buf[lo:mid], loyalty, out=below[lo:mid])
        np.less(buf[mid:hi], w, out=below[mid:hi])
        a = int(np.count_nonzero(below[lo:hi]))
        units.append((a, turnout - a))
    return units


def sample_hmpm(config: VotingModelConfig) -> tuple[DatasetColumn, DatasetColumn]:
    """Generate the two per-unit count columns of the voting model."""
    units = hmpm_unit_counts(config)
    return _count_column("candidate_a", [a for a, _ in units]), _count_column("candidate_b", [b for _, b in units])


def _count_column(name: str, counts: list[int]) -> DatasetColumn:
    """The column of one candidate's unit counts; a zero count has no digits, so it is excluded as "zero"."""
    return DatasetColumn(name, [c for c in counts if c], excluded_by_reason={"zero": counts.count(0)})


@dataclass(frozen=True)
class LawResult:
    """Per-law outcome of an experiment: pooled screening plus the
    per-replicate p-value and posterior distributions."""

    law: str
    pooled: TestReport
    p_values: tuple
    posteriors: tuple


@dataclass(frozen=True)
class ExperimentReport:
    """Per-law results, and replicate 0's (candidate A, candidate B) counts per unit, zeros included."""

    results: tuple
    units: list = field(default_factory=list, repr=False)


def _replicate_seed(seed: int, replicate: int) -> int:
    if replicate == 0:
        return seed
    return int(np.random.SeedSequence([seed, replicate]).generate_state(1, np.uint64)[0])


def conformance_experiment(
    config: VotingModelConfig,
    laws: list[DigitDistribution],
    replicates: int = 1,
) -> ExperimentReport:
    """Run the voting model and screen its pooled counts against each law, at equal prior odds under exclude-short.

    Pooled means the favored candidate's per-unit counts, pooled across
    replicates (digit screenings are per candidate; mixing both candidates
    would blend two different count populations). Replicate r > 0 reseeds
    deterministically from (seed, r), so extending an experiment never
    changes earlier replicates.
    """
    if not laws:
        raise ValueError("empty law list")
    _check_int("replicates", replicates, 1)
    rep_units = [hmpm_unit_counts(replace(config, seed=_replicate_seed(config.seed, r))) for r in range(replicates)]
    rep_columns = [_count_column("candidate_a", [a for a, _ in units]) for units in rep_units]
    pooled = DatasetColumn(
        "pooled",
        np.concatenate([col.values for col in rep_columns]),
        excluded_by_reason={"zero": sum(col.excluded_count for col in rep_columns)},
        adopt=True,  # the joined array is new, so no copy is needed
    )
    results = []
    for law in laws:
        rep_reports = [screen(col, law) for col in rep_columns]
        results.append(
            LawResult(
                law=law.kind,
                pooled=screen(pooled, law),
                p_values=tuple(r.p_value for r in rep_reports),
                posteriors=tuple(r.posterior_h0 for r in rep_reports),
            )
        )
    return ExperimentReport(results=tuple(results), units=rep_units[0])


def screen_mixture(samples, law: DigitDistribution) -> TestReport:
    """Screen the significant digits of real-valued samples against a marginal law, at equal prior odds."""
    _check_mixture_law(law)
    cv = real_digit_frequencies(samples, law.digit_index)
    return report_from_counts(cv, np.sort(samples), law)


def _check_mixture_law(law: DigitDistribution) -> None:
    if law.digit_index is None or law.restriction is not None:
        raise ValueError(f"mixture samples are unbounded reals, screened against nb1 or nb2 only, not {law.kind!r}")


# ---------------------------------------------------------------------------
# Config files (INI): [mixture] or [voting_model], optional [experiment]


def default_voting_config(seed: int | None = None) -> VotingModelConfig:
    """The shipped default parameterization of the voting model, read from configs/hmpm_default.ini.

    Heavy-tailed Beta shapes spread the favored candidate's counts over all
    decades up to the bound: near-full partisan units press against
    max_voters while swing-dominated units fill the lower decades.
    """
    with resources.as_file(resources.files(__package__) / "configs" / "hmpm_default.ini") as path:
        cfg = load_simulation_config(path).voting
    return cfg if seed is None else replace(cfg, seed=seed)


@dataclass(frozen=True)
class ExperimentSpec:
    law_names: tuple
    replicates: int = 1
    laws: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # no law, a bad law name or a bad replicate count fails when the config loads, before any data is written
        if not self.law_names:
            raise ValueError("[experiment] laws names no law")
        object.__setattr__(self, "laws", distinct_laws(self.law_names))
        _check_int("replicates", self.replicates, 1)


@dataclass(frozen=True)
class SimulationJob:
    """Parsed simulation config: exactly one generator, optional experiment."""

    mixture: MixtureConfig | None = None
    voting: VotingModelConfig | None = None
    experiment: ExperimentSpec | None = None

    @property
    def kind(self) -> str:
        return "mixture" if self.mixture is not None else "voting"


def _parse_beta_pair(raw: str) -> tuple[float, float]:
    parts = raw.split()
    if len(parts) != 2:
        raise ValueError(f"expected two Beta parameters 'a b', got {raw!r}")
    return float(parts[0]), float(parts[1])


def _parse_component(raw: str) -> MixtureComponent:
    """A component line: the family, then its parameters and weight as key=value items."""
    family, *items = raw.split() or [""]
    params = {}
    for item in items:
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"component parameter {item!r} is not key=value")
        if key in params:
            raise ValueError(f"component {raw!r} gives {key!r} twice")
        params[key] = float(value)
    if "weight" not in params:
        raise ValueError(f"component {raw!r} has no weight")
    weight = params.pop("weight")
    return MixtureComponent(family=family, params=params, weight=weight)


# Every section a config may hold, and each of its keys: the config field the key sets, the parser of its value,
# and whether it is required. Nothing else is read, so any other section or key is an error. "component.N" stands
# for "component" and every "component.<name>", whose values make one tuple in file order.
_SECTIONS = {
    "voting_model": {
        "n_units": ("n_units", int, True),
        "max_voters": ("max_voters", int, True),
        "turnout": ("turnout_dist", _parse_beta_pair, True),
        "partisan_fraction": ("partisan_fraction_dist", _parse_beta_pair, True),
        "partisan_loyalty": ("partisan_loyalty", float, True),
        "swing_prob": ("swing_prob_dist", _parse_beta_pair, True),
        "seed": ("seed", int, True),
    },
    "mixture": {
        "n_samples": ("n_samples", int, True),
        "seed": ("seed", int, True),
        "component.N": ("components", _parse_component, False),
    },
    "experiment": {
        "laws": ("law_names", lambda raw: tuple(name.strip() for name in raw.split(",") if name.strip()), True),
        "replicates": ("replicates", int, False),
    },
}


def load_simulation_config(path) -> SimulationJob:
    """Parse a simulation INI file (see configs/); a malformed file, a missing or unknown section or key, or a bad
    value is a ValueError."""
    # no section is special: a [DEFAULT] would lend its keys to every section, so it is unknown like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="")
    try:
        if not parser.read(path):
            raise ValueError(f"cannot read config file {path}")
        return _simulation_job(parser)
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).splitlines())) from None


def _read_section(parser: configparser.ConfigParser, name: str) -> dict:
    """The config fields that section [name] sets, each key read through the section's table."""
    table = _SECTIONS.get(name)
    if table is None:
        raise ValueError(f"unknown section [{name}] (keys: {', '.join(parser[name]) or 'none'}); a config holds "
                         "[mixture] or [voting_model], and optionally [experiment]")
    fields = {field: () for pattern, (field, _, _) in table.items() if pattern.endswith(".N")}
    for option, raw in parser.items(name):
        pattern = option if option in table else option.partition(".")[0] + ".N"
        if pattern not in table:
            raise ValueError(f"unknown key {option!r} in [{name}], which accepts {', '.join(table)}")
        field, parse, _ = table[pattern]
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ValueError(f"[{name}] {option}: {exc}") from None
        fields[field] = fields[field] + (value,) if pattern.endswith(".N") else value
    for option, (field, _, required) in table.items():
        if required and field not in fields:
            raise configparser.NoOptionError(option, name)
    return fields


def _simulation_job(parser: configparser.ConfigParser) -> SimulationJob:
    if parser.has_section("mixture") == parser.has_section("voting_model"):
        raise ValueError("config must have exactly one of [mixture] or [voting_model]")
    fields = {name: _read_section(parser, name) for name in parser.sections()}
    experiment = ExperimentSpec(**fields["experiment"]) if "experiment" in fields else None
    if "voting_model" in fields:
        return SimulationJob(voting=VotingModelConfig(**fields["voting_model"]), experiment=experiment)
    if "replicates" in fields.get("experiment", {}):
        raise ValueError("a [mixture] experiment screens one sample; replicates applies to [voting_model]")
    for law in experiment.laws if experiment else ():
        _check_mixture_law(law)
    return SimulationJob(mixture=MixtureConfig(**fields["mixture"]), experiment=experiment)
