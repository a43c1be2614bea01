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
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .digits import EXCLUDE_SHORT, DatasetColumn, real_digit_frequencies
from .inference import HypothesisPrior, TestReport, report_from_counts, screen
from .laws import DigitDistribution, law_from_name

MIXTURE_FAMILIES = ("lognormal", "half-cauchy", "scaled-exponential", "uniform-range")

_MAX_REDRAW_ROUNDS = 100

# samples per block of mixture membership uniforms, which keeps that draw's
# temporaries small beside the one byte per sample that membership takes
_MEMBERSHIP_BLOCK = 1 << 16

# The voting model builds its units' generators a block at a time; a small
# block keeps peak memory flat. Each unit draws its first _HEAD uniforms up
# front, which its three Beta draws nearly always fit in.
_BLOCK = 32
_HEAD = 64


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
        needed = {
            "lognormal": ("mu", "sigma"),
            "half-cauchy": ("scale",),
            "scaled-exponential": ("scale",),
            "uniform-range": ("low", "high"),
        }[self.family]
        missing = [k for k in needed if k not in p]
        if missing:
            raise ValueError(f"{self.family} component missing parameters {missing}")
        if self.family == "lognormal" and p["sigma"] < 0.0:
            raise ValueError("lognormal sigma must be nonnegative")
        if self.family in ("half-cauchy", "scaled-exponential") and p["scale"] <= 0.0:
            raise ValueError(f"{self.family} scale must be positive")
        if self.family == "uniform-range" and not p["low"] < p["high"]:
            raise ValueError("uniform-range needs low < high")


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
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        _check_seed(self.seed)


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
        if self.n_units < 1:
            raise ValueError("n_units must be at least 1")
        if self.max_voters < 10:
            raise ValueError("max_voters must be at least 10")
        if not 0.0 <= self.partisan_loyalty <= 1.0:
            raise ValueError("partisan_loyalty must lie in [0, 1]")
        for name in ("turnout_dist", "partisan_fraction_dist", "swing_prob_dist"):
            a, b = getattr(self, name)
            if a < 0.0 or b < 0.0 or a + b == 0.0:
                raise ValueError(f"{name} Beta parameters must be nonnegative with a + b > 0")
        _check_seed(self.seed)


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _root_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _unit_rng(seed: int, unit_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(unit_index,))
    return np.random.Generator(np.random.PCG64(ss))


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


def _head_normals(head: np.ndarray) -> np.ndarray:
    """The Box-Muller normal at each offset of the head's last axis, as a unit
    generated alone would draw it there: offset i reads uniforms i and i + 1."""
    return _box_muller(head[..., :-1].copy(), head[..., 1:].copy())


def _gamma_variate(h: list, z: list, cur: int, shape: float) -> tuple[float, int]:
    """Marsaglia-Tsang squeeze over a unit's head: its uniforms h, the normals z
    at each offset, and the cursor of the first unused uniform. Returns the
    variate and the cursor after it; IndexError when the head runs out.
    """
    # the shape < 1 case boosts through shape + 1, with its uniform read after that draw's
    if shape < 1.0:
        g, cur = _gamma_variate(h, z, cur, shape + 1.0)
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


def _unit_betas(h: list, z: list, betas) -> tuple[list, int]:
    """A unit's Beta draws, in order, from its head; and the cursor after them."""
    draws, cur = [], 0
    for a, b in betas:
        if b == 0.0:
            draws.append(1.0)
        elif a == 0.0:
            draws.append(0.0)
        else:
            x, cur = _gamma_variate(h, z, cur, a)
            y, cur = _gamma_variate(h, z, cur, b)
            draws.append(x / (x + y))
    return draws, cur


def _long_head(seed: int, unit_index: int, betas) -> tuple:
    """The unit's generator built again, for Beta draws that outrun the shared
    head: the head doubles until they fit. Returns the generator, the head,
    the draws and the cursor after them."""
    size = 2 * _HEAD
    while True:
        rng = _unit_rng(seed, unit_index)
        head = rng.random(size)
        try:
            return rng, head, *_unit_betas(head.tolist(), _head_normals(head).tolist(), betas)
        except IndexError:
            size *= 2


def _uniforms(rest: np.ndarray, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit's next n uniforms, those left in ``rest`` first; and what ``rest`` still holds."""
    if rest.size >= n:
        return rest[:n], rest[n:]
    u = np.empty(n)
    u[:rest.size] = rest
    rng.random(out=u[rest.size:])
    return u, rest[:0]


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
    component fills its slots in declaration order; non-positive draws are
    redrawn a bounded number of rounds.
    """
    rng = _root_rng(config.seed)
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
            bad = ~(draws > 0.0)
            if not bad.any():
                break
            draws[bad] = _draw_family(rng, comp, int(bad.sum()))
        else:
            raise RuntimeError(f"component {j} ({comp.family}) kept producing non-positive draws")
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
    into one array, whose Box-Muller normals at every offset come from one
    numpy pass. The Marsaglia-Tsang rejection loop then reads each unit's
    head in Python, in the order and with the float operations of a unit
    generated alone, and each Bernoulli count is one ``count_nonzero`` over
    the next uniforms of the unit's stream. Blocks change neither a unit's
    stream nor the order it is read in.
    """
    betas = (config.turnout_dist, config.partisan_fraction_dist, config.swing_prob_dist)
    units = []
    for start in range(0, config.n_units, _BLOCK):
        rngs = [_unit_rng(config.seed, j) for j in range(start, min(start + _BLOCK, config.n_units))]
        heads = np.empty((len(rngs), _HEAD))
        for rng, head in zip(rngs, heads):
            rng.random(out=head)
        normals = _head_normals(heads).tolist()
        for j, (rng, head, h, z) in enumerate(zip(rngs, heads, heads.tolist(), normals), start):
            try:
                (t, phi, w), cur = _unit_betas(h, z, betas)
            except IndexError:
                rng, head, (t, phi, w), cur = _long_head(config.seed, j, betas)
            # each count reads on from the first uniform its predecessor left unused
            u, rest = _uniforms(head[cur:], rng, config.max_voters)
            turnout = int(np.count_nonzero(u < t))
            # partisans among the turnout, then the loyal partisans and the swing voters for A
            u, _ = _uniforms(rest, rng, 2 * turnout)
            partisans = int(np.count_nonzero(u[:turnout] < phi))
            a = int(np.count_nonzero(u[turnout:turnout + partisans] < config.partisan_loyalty))
            a += int(np.count_nonzero(u[turnout + partisans:] < w))
            units.append((a, turnout - a))
    return units


def sample_hmpm(config: VotingModelConfig) -> tuple[DatasetColumn, DatasetColumn]:
    """Generate the two per-unit count columns of the voting model."""
    return _count_columns(hmpm_unit_counts(config))


def _count_columns(units: list[tuple[int, int]]) -> tuple[DatasetColumn, DatasetColumn]:
    """Each candidate's column of unit counts; a zero count has no digits, so it is excluded and tallied."""
    a_values = [a for a, _ in units if a >= 1]
    b_values = [b for _, b in units if b >= 1]
    return (
        DatasetColumn("candidate_a", a_values, excluded_count=len(units) - len(a_values)),
        DatasetColumn("candidate_b", b_values, excluded_count=len(units) - len(b_values)),
    )


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

    replicates: int
    results: tuple
    units: list = field(default_factory=list, repr=False)


def _replicate_seed(seed: int, replicate: int) -> int:
    if replicate == 0:
        return seed
    return int(np.random.SeedSequence([seed, replicate]).generate_state(1, np.uint64)[0])


def conformance_experiment(
    config: VotingModelConfig,
    laws: list[DigitDistribution],
    prior: HypothesisPrior = HypothesisPrior(),
    policy: str = EXCLUDE_SHORT,
    replicates: int = 1,
) -> ExperimentReport:
    """Run the voting model and screen its pooled counts against each law.

    Pooled means the favored candidate's per-unit counts, pooled across
    replicates (digit screenings are per candidate; mixing both candidates
    would blend two different count populations). Replicate r > 0 reseeds
    deterministically from (seed, r), so extending an experiment never
    changes earlier replicates.
    """
    if not laws:
        raise ValueError("empty law list")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    rep_units = [hmpm_unit_counts(replace(config, seed=_replicate_seed(config.seed, r))) for r in range(replicates)]
    rep_columns = [_count_columns(units)[0] for units in rep_units]
    pooled = DatasetColumn(
        "pooled",
        np.concatenate([col.values for col in rep_columns]),
        excluded_count=sum(col.excluded_count for col in rep_columns),
    )
    results = []
    for law in laws:
        rep_reports = [screen(col, law, prior, policy) for col in rep_columns]
        results.append(
            LawResult(
                law=law.kind,
                pooled=screen(pooled, law, prior, policy),
                p_values=tuple(r.p_value for r in rep_reports),
                posteriors=tuple(r.posterior_h0 for r in rep_reports),
            )
        )
    return ExperimentReport(replicates=replicates, results=tuple(results), units=rep_units[0])


def screen_mixture(
    samples,
    law: DigitDistribution,
    prior: HypothesisPrior = HypothesisPrior(),
) -> TestReport:
    """Screen the significant digits of real-valued samples against a marginal law."""
    _check_mixture_law(law)
    cv = real_digit_frequencies(samples, law.digit_index)
    return report_from_counts(cv, samples, law, prior)


def _check_mixture_law(law: DigitDistribution) -> None:
    if law.digit_index is None or law.restriction is not None:
        raise ValueError(f"mixture samples are unbounded reals, screened against nb1 or nb2 only, not {law.kind!r}")


# ---------------------------------------------------------------------------
# Config files (INI): [mixture] or [voting_model], optional [experiment]


def default_voting_config(seed: int | None = None) -> VotingModelConfig:
    """The shipped default parameterization of the voting model.

    Heavy-tailed Beta shapes spread the favored candidate's counts over all
    decades up to the bound: near-full partisan units press against
    max_voters while swing-dominated units fill the lower decades.
    """
    cfg = VotingModelConfig(
        n_units=999,
        max_voters=2250,
        turnout_dist=(0.85, 0.58),
        partisan_fraction_dist=(0.46, 0.19),
        partisan_loyalty=0.99,
        swing_prob_dist=(1.05, 0.40),
        seed=12345,
    )
    return cfg if seed is None else replace(cfg, seed=seed)


@dataclass(frozen=True)
class ExperimentSpec:
    law_names: tuple
    replicates: int = 1
    laws: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a bad law name or replicate count fails when the config loads, before any data is written
        object.__setattr__(self, "laws", tuple(law_from_name(name) for name in self.law_names))
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")


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
    parts = raw.split()
    if not parts:
        raise ValueError("empty component line")
    family, kv = parts[0], parts[1:]
    params = {}
    weight = None
    for item in kv:
        if "=" not in item:
            raise ValueError(f"component parameter {item!r} is not key=value")
        key, value = item.split("=", 1)
        if key == "weight":
            weight = float(value)
        else:
            params[key] = float(value)
    if weight is None:
        raise ValueError(f"component {raw!r} has no weight")
    return MixtureComponent(family=family, params=params, weight=weight)


def load_simulation_config(path) -> SimulationJob:
    """Parse a simulation INI file (see configs/ for annotated examples)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    has_mixture = parser.has_section("mixture")
    has_voting = parser.has_section("voting_model")
    if has_mixture == has_voting:
        raise ValueError("config must have exactly one of [mixture] or [voting_model]")
    experiment = None
    if parser.has_section("experiment"):
        sec = parser["experiment"]
        names = tuple(s.strip() for s in sec["laws"].split(",") if s.strip())
        experiment = ExperimentSpec(law_names=names, replicates=sec.getint("replicates", fallback=1))
    if has_mixture:
        sec = parser["mixture"]
        comps = tuple(
            _parse_component(value) for key, value in sec.items() if key == "component" or key.startswith("component.")
        )
        mixture = MixtureConfig(components=comps, n_samples=sec.getint("n_samples"), seed=sec.getint("seed"))
        if experiment is not None:
            if parser.has_option("experiment", "replicates"):
                raise ValueError("a [mixture] experiment screens one sample; replicates applies to [voting_model]")
            for law in experiment.laws:
                _check_mixture_law(law)
        return SimulationJob(mixture=mixture, experiment=experiment)
    sec = parser["voting_model"]
    voting = VotingModelConfig(
        n_units=sec.getint("n_units"),
        max_voters=sec.getint("max_voters"),
        turnout_dist=_parse_beta_pair(sec["turnout"]),
        partisan_fraction_dist=_parse_beta_pair(sec["partisan_fraction"]),
        partisan_loyalty=sec.getfloat("partisan_loyalty"),
        swing_prob_dist=_parse_beta_pair(sec["swing_prob"]),
        seed=sec.getint("seed"),
    )
    return SimulationJob(voting=voting, experiment=experiment)
