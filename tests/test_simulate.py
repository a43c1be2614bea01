"""Generators: determinism, structural bounds, conformance behavior."""

import importlib.resources
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from digitscreen import digits, simulate
from digitscreen.digits import DatasetColumn, _digit_string as digit_string
from digitscreen.inference import screen
from digitscreen.laws import RestrictionSpec, law_from_name, nbl_first, nbl_second, restricted_law
from digitscreen.simulate import (
    ExperimentSpec,
    MixtureComponent,
    MixtureConfig,
    VotingModelConfig,
    conformance_experiment,
    default_voting_config,
    hmpm_unit_counts,
    load_simulation_config,
    sample_hmpm,
    sample_mixture,
    screen_mixture,
)
from oracles import former_sample_mixture, head_normals, head_unit_betas, scalar_hmpm_unit_counts

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def lognormal_mixture(n_components=50, n_samples=100_000, seed=7):
    comps = tuple(
        MixtureComponent("lognormal", {"mu": 0.45 * j, "sigma": 1.5}, 1.0 / n_components)
        for j in range(n_components)
    )
    return MixtureConfig(components=comps, n_samples=n_samples, seed=seed)


class TestMixture:
    def test_determinism(self):
        cfg = lognormal_mixture(n_samples=5000)
        a = sample_mixture(cfg)
        b = sample_mixture(cfg)
        assert np.array_equal(a, b)

    def test_all_positive(self):
        cfg = MixtureConfig(
            components=(
                MixtureComponent("uniform-range", {"low": -5.0, "high": 5.0}, 0.5),
                MixtureComponent("scaled-exponential", {"scale": 3.0}, 0.25),
                MixtureComponent("half-cauchy", {"scale": 1.0}, 0.25),
            ),
            n_samples=20_000,
            seed=3,
        )
        samples = sample_mixture(cfg)
        assert samples.shape == (20_000,)
        assert np.all(samples > 0)

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
    def test_a_zero_weight_component_draws_nothing(self, at):
        # no membership uniform falls in a zero-weight component's empty interval, so it takes no draw from the
        # stream; the weights are dyadic, so the other components' cumulative sum reaches 1.0 exactly
        comps = [MixtureComponent("lognormal", {"mu": 2.0, "sigma": 1.5}, 0.25),
                 MixtureComponent("scaled-exponential", {"scale": 30.0}, 0.75)]
        zero = MixtureComponent("uniform-range", {"low": 1.0, "high": 9.0}, 0.0)
        with_zero = MixtureConfig(components=(*comps[:at], zero, *comps[at:]), n_samples=20_000, seed=4)
        with mock.patch.object(simulate, "_draw_family", wraps=simulate._draw_family) as draw:
            samples = sample_mixture(with_zero)
        assert [call.args[1] for call in draw.call_args_list] == comps
        assert np.array_equal(samples, sample_mixture(replace(with_zero, components=tuple(comps))))

    def test_a_uniform_above_the_weights_sum_picks_the_last_component(self):
        # weights that sum to 1 - 5e-10, within the config's tolerance, and a first membership uniform above that
        comps = (MixtureComponent("uniform-range", {"low": 1.0, "high": 2.0}, 0.5),
                 MixtureComponent("uniform-range", {"low": 3.0, "high": 4.0}, 0.5 - 5e-10))
        cfg = MixtureConfig(components=comps, n_samples=1000, seed=6)
        default_rng = np.random.default_rng

        class FirstUniformNearOne:
            def __init__(self, seed):
                self.rng, self.first = default_rng(seed), True

            def random(self, size):
                u = self.rng.random(size)
                if self.first:
                    u[0], self.first = np.nextafter(1.0, 0.0), False
                return u

        with (mock.patch.object(np.random, "default_rng", FirstUniformNearOne),
              mock.patch.object(simulate, "_draw_family", wraps=simulate._draw_family) as draw):
            samples = sample_mixture(cfg)
        low, high = [call.args[2] for call in draw.call_args_list]
        assert low + high == cfg.n_samples
        assert 3.0 <= samples[0] < 4.0
        assert np.count_nonzero((samples >= 1.0) & (samples < 2.0)) == low
        assert np.count_nonzero((samples >= 3.0) & (samples < 4.0)) == high

    def test_unsatisfiable_component_errors(self):
        cfg = MixtureConfig(
            components=(MixtureComponent("uniform-range", {"low": -9.0, "high": -1.0}, 1.0),),
            n_samples=100,
            seed=1,
        )
        with pytest.raises(RuntimeError, match="non-positive"):
            sample_mixture(cfg)

    def test_overflowing_draws_are_redrawn_without_a_warning(self):
        # exp(700 + 5 z) overflows for z above 1.96, in about 2 % of the draws; pytest makes numpy's warning an error
        cfg = MixtureConfig(components=(MixtureComponent("lognormal", {"mu": 700.0, "sigma": 5.0}, 1.0),),
                            n_samples=2000, seed=1)
        samples = sample_mixture(cfg)
        assert ((samples > 0.0) & (samples < math.inf)).all()

    def test_component_that_only_overflows_errors(self):
        cfg = MixtureConfig(components=(MixtureComponent("lognormal", {"mu": 1000.0, "sigma": 0.0}, 1.0),),
                            n_samples=10, seed=1)
        with pytest.raises(RuntimeError, match="non-finite"):
            sample_mixture(cfg)

    def test_uniform_range_rejects_first_digit_law(self):
        cfg = MixtureConfig(
            components=(MixtureComponent("uniform-range", {"low": 1.0, "high": 9.0}, 1.0),),
            n_samples=100_000,
            seed=5,
        )
        rep = screen_mixture(sample_mixture(cfg), nbl_first())
        assert rep.posterior_h0 < 0.01

    def test_dispersed_lognormal_mixture_conforms(self):
        rep = screen_mixture(sample_mixture(lognormal_mixture()), nbl_first())
        assert rep.posterior_h0 > 0.9

    def test_point_mass_like_component_concentrates_first_digit(self):
        cfg = MixtureConfig(
            components=(MixtureComponent("lognormal", {"mu": math.log(37.0), "sigma": 1e-9}, 1.0),),
            n_samples=1000,
            seed=9,
        )
        samples = sample_mixture(cfg)
        assert np.all((samples > 36.9) & (samples < 37.1))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MixtureConfig(
                components=(MixtureComponent("half-cauchy", {"scale": 1.0}, 0.7),),
                n_samples=10,
                seed=1,
            )

    def test_component_validation(self):
        with pytest.raises(ValueError, match="family"):
            MixtureComponent("weibull", {"scale": 1.0}, 1.0)
        with pytest.raises(ValueError, match="missing"):
            MixtureComponent("lognormal", {"mu": 0.0}, 1.0)
        with pytest.raises(ValueError, match="low < high"):
            MixtureComponent("uniform-range", {"low": 5.0, "high": 1.0}, 1.0)


    def test_transient_memory_is_bounded(self):
        # the shipped two-lognormal mixture: 8 bytes a sample for the result and 1 for membership, beside one block
        # of each component's draws
        n = 400_000
        cfg = MixtureConfig(
            components=(MixtureComponent("lognormal", {"mu": 0.0, "sigma": 2.0}, 0.5),
                        MixtureComponent("lognormal", {"mu": 4.0, "sigma": 2.5}, 0.5)),
            n_samples=n,
            seed=11,
        )
        tracemalloc.start()
        try:
            samples = sample_mixture(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.nbytes == 8 * n
        assert peak <= 11 * n + (2 << 20)

    def test_screen_reads_sorted_samples_in_place_and_copies_others(self):
        # some samples twice, so that the sorted ones hold ties
        samples = sample_mixture(lognormal_mixture(n_samples=3000, seed=2))
        samples = np.concatenate((samples, samples[:100]))
        kept = samples.copy()
        ordered = np.sort(samples)
        for law in (nbl_first(), nbl_second()):
            reports = [screen_mixture(values, law) for values in (samples.tolist(), samples)]
            with mock.patch("numpy.sort", side_effect=AssertionError("sorted samples were copied")):
                reports.append(screen_mixture(ordered, law))
            assert reports[0] == reports[1] == reports[2]
        assert np.array_equal(samples, kept)
        assert np.array_equal(ordered, np.sort(kept))
        for name in ("rnb2:1000", "joint2"):
            with pytest.raises(ValueError, match="unbounded reals"):
                screen_mixture(ordered, law_from_name(name))

    def test_float_digits_rarely_fall_back_to_repr(self, monkeypatch):
        # the vector candidate reads almost every sample; repr is for values near a digit boundary
        calls = []

        def counting(x):
            calls.append(x)
            return digit_string(x)

        resource = importlib.resources.files("digitscreen") / "configs" / "mixture_lognormal.ini"
        with importlib.resources.as_file(resource) as path:
            samples = sample_mixture(load_simulation_config(path).mixture)
        monkeypatch.setattr(digits, "_digit_string", counting)
        for law in (nbl_first(), nbl_second()):
            screen_mixture(samples, law)
        assert samples.size == 100_000 and len(calls) < 0.001 * samples.size


# each family with its parameters, with lognormals that overflow to inf in about 2 % of their draws and underflow
# to 0 in about 15 %, and a uniform range that is half negative, so that all three are redrawn in rounds
_COMPONENTS = st.sampled_from([
    ("lognormal", {"mu": 0.0, "sigma": 2.0}), ("lognormal", {"mu": 4.0, "sigma": 2.5}),
    ("lognormal", {"mu": 700.0, "sigma": 5.0}), ("lognormal", {"mu": -740.0, "sigma": 5.0}),
    ("half-cauchy", {"scale": 1.0}), ("scaled-exponential", {"scale": 3.0}),
    ("uniform-range", {"low": 1.0, "high": 9.0}), ("uniform-range", {"low": -5.0, "high": 5.0}),
])
_BLOCK = 1 << 16


@st.composite
def _mixtures(draw):
    """Mixtures of 1 to 4 components whose weights are k / total: total is a power of two in dyadic ones, and some
    k are 0. The sizes sit on either side of the sampler's block boundaries."""
    families = draw(st.lists(_COMPONENTS, min_size=1, max_size=4))
    ks = draw(st.lists(st.integers(0, 4), min_size=len(families), max_size=len(families)).filter(any))
    if draw(st.booleans()):
        ks[-1] += (1 << (sum(ks) - 1).bit_length()) - sum(ks)
    comps = tuple(MixtureComponent(family, params, k / sum(ks)) for (family, params), k in zip(families, ks))
    n = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]))
    return MixtureConfig(components=comps, n_samples=n, seed=draw(st.integers(0, 2**32)))


def _drawn(sampler, cfg):
    try:
        return sampler(cfg).tobytes()
    except RuntimeError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(_mixtures())
@example(MixtureConfig(components=(MixtureComponent("uniform-range", {"low": -5.0, "high": 5.0}, 0.25),
                                   MixtureComponent("lognormal", {"mu": 700.0, "sigma": 5.0}, 0.125),
                                   MixtureComponent("lognormal", {"mu": -740.0, "sigma": 5.0}, 0.125),
                                   MixtureComponent("scaled-exponential", {"scale": 3.0}, 0.25),
                                   MixtureComponent("half-cauchy", {"scale": 1.0}, 0.25)),
                       n_samples=3 * _BLOCK + 7, seed=8))
def test_block_sampler_matches_the_whole_array_sampler(cfg):
    assert _drawn(sample_mixture, cfg) == _drawn(former_sample_mixture, cfg)


class TestVotingModel:
    def test_determinism_bit_identical(self):
        cfg = default_voting_config(seed=77)
        assert hmpm_unit_counts(cfg) == hmpm_unit_counts(cfg)

    def test_counts_respect_bound(self):
        cfg = default_voting_config(seed=5)
        for a, b in hmpm_unit_counts(cfg):
            assert 0 <= a <= cfg.max_voters
            assert 0 <= b <= cfg.max_voters
            assert a + b <= cfg.max_voters

    def test_columns_exclude_zeros(self):
        cfg = default_voting_config(seed=5)
        col_a, col_b = sample_hmpm(cfg)
        assert all(v >= 1 for v in col_a.values)
        assert col_a.m + col_a.excluded_count == cfg.n_units
        assert col_b.m + col_b.excluded_count == cfg.n_units

    def test_fully_partisan_degenerate_model(self):
        cfg = VotingModelConfig(
            n_units=50,
            max_voters=100,
            turnout_dist=(2.0, 2.0),
            partisan_fraction_dist=(1.0, 0.0),  # point mass at 1
            partisan_loyalty=1.0,
            swing_prob_dist=(1.0, 1.0),
            seed=4,
        )
        units = hmpm_unit_counts(cfg)
        assert all(b == 0 for _, b in units)
        col_a, col_b = sample_hmpm(cfg)
        assert col_b.m == 0 and col_b.excluded_count == 50
        assert sorted(a for a, _ in units if a >= 1) == col_a.values.tolist()

    def test_tiny_turnout_gives_no_second_digits(self):
        cfg = VotingModelConfig(
            n_units=20,
            max_voters=1000,
            turnout_dist=(1.0, 0.0),
            partisan_fraction_dist=(1.0, 0.0),
            partisan_loyalty=0.004,  # nearly all units end below 10 votes
            swing_prob_dist=(0.0, 1.0),
            seed=8,
        )
        col_a, _ = sample_hmpm(cfg)
        if col_a.m and all(v < 10 for v in col_a.values):
            with pytest.raises(ValueError, match="no analyzable"):
                screen(col_a, nbl_second())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_voters"):
            default_voting_config().__class__(
                n_units=10, max_voters=5, turnout_dist=(1, 1),
                partisan_fraction_dist=(1, 1), partisan_loyalty=0.5,
                swing_prob_dist=(1, 1), seed=1,
            )
        with pytest.raises(ValueError, match="seed"):
            default_voting_config(seed=-3)

    @pytest.mark.parametrize("field,value", [("n_units", True), ("n_units", 5.0), ("max_voters", 2250.0),
                                             ("max_voters", np.int64(2250)), ("seed", False), ("seed", 2**64)])
    def test_sizes_and_seed_are_python_ints(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            replace(default_voting_config(), **{field: value})

    def test_mixture_and_replicate_counts_are_python_ints(self):
        component = MixtureComponent("lognormal", {"mu": 0.0, "sigma": 1.0}, 1.0)
        with pytest.raises(ValueError, match="^n_samples must be an integer, got 10.0$"):
            MixtureConfig((component,), n_samples=10.0, seed=1)
        for replicates in (2.0, True):
            with pytest.raises(ValueError, match="^replicates must be an integer"):
                ExperimentSpec(("nb2",), replicates=replicates)
            with pytest.raises(ValueError, match="^replicates must be an integer"):
                conformance_experiment(default_voting_config(1), [nbl_second()], replicates=replicates)

    def test_n_units_fits_one_spawn_key_word(self):
        # unit j's spawn key is one uint32 word, so j = 2^32 would wrap to unit 0's stream
        assert replace(default_voting_config(), n_units=2**32).n_units == 2**32
        with pytest.raises(ValueError, match=r"^n_units must be at most 2\^32$"):
            replace(default_voting_config(), n_units=2**32 + 1)


BETA_SHAPES = st.sampled_from([0.0, 0.19, 0.58, 0.85, 1.0, 1.05, 2.5, 30.0])
BETA_PAIRS = st.tuples(BETA_SHAPES, BETA_SHAPES).filter(lambda ab: ab[0] + ab[1] > 0.0)


@st.composite
def voting_configs(draw):
    return VotingModelConfig(
        n_units=draw(st.sampled_from([1, simulate._BLOCK - 1, simulate._BLOCK, simulate._BLOCK + 1, 300])),
        # the head's rest can cover the turnout's uniforms and part of the 2 * turnout after them
        max_voters=draw(st.sampled_from([10, 11, 20, 31, 32, 33, 500, 2250])),
        turnout_dist=draw(BETA_PAIRS),
        partisan_fraction_dist=draw(BETA_PAIRS),
        partisan_loyalty=draw(st.sampled_from([0.0, 0.99, 1.0])),
        swing_prob_dist=draw(BETA_PAIRS),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestUnitGenerators:
    """A block's generators against numpy's per-unit SeedSequence, state for state."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("start,stop", [(0, 40), (simulate._BLOCK - 3, simulate._BLOCK + 3),
                                            (2**32 - 40, 2**32)])
    def test_states_match_numpy_seeding(self, seed, start, stop):
        rngs = simulate._unit_rngs(seed, start, stop)
        assert len(rngs) == stop - start
        for j, rng in enumerate(rngs, start):
            expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,)))
            assert rng.bit_generator.state == expected.state, j


class TestVotingModelOracle:
    """The block generator against the former scalar one, unit for unit."""

    @settings(max_examples=60, deadline=None)
    @given(voting_configs())
    def test_blocks_match_scalar_oracle(self, cfg):
        assert hmpm_unit_counts(cfg) == scalar_hmpm_unit_counts(cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 42, 987654321, 2**63 + 5, 2**64 - 1])
    def test_shipped_default_matches_scalar_oracle(self, seed):
        cfg = replace(default_voting_config(seed), n_units=200)
        assert hmpm_unit_counts(cfg) == scalar_hmpm_unit_counts(cfg)

    def test_units_that_outrun_the_head_match_scalar_oracle(self, monkeypatch):
        # a 4-uniform head holds no Beta draw, so every unit with one doubles its head, once to 8 uniforms
        widths = []
        block_betas = simulate._block_betas

        def recording(heads, betas):
            widths.extend([heads.shape[1]] * len(heads))
            return block_betas(heads, betas)

        monkeypatch.setattr(simulate, "_HEAD", 4)
        monkeypatch.setattr(simulate, "_block_betas", recording)
        cfg = replace(default_voting_config(9), n_units=70, swing_prob_dist=(30.0, 2.5))
        assert hmpm_unit_counts(cfg) == scalar_hmpm_unit_counts(cfg)
        assert widths.count(8) == cfg.n_units

    def test_a_short_last_block_reads_only_its_own_heads(self, monkeypatch):
        # the last block holds 3 units; the rows of the first block's 4-uniform heads, which all ran out, are not its
        monkeypatch.setattr(simulate, "_HEAD", 4)
        cfg = replace(default_voting_config(9), n_units=simulate._BLOCK + 3, max_voters=40)
        assert hmpm_unit_counts(cfg) == scalar_hmpm_unit_counts(cfg)

    def test_bernoulli_counts_in_chunks_match_scalar_oracle(self, monkeypatch):
        # past its head, a unit draws the rest of the turnout's uniforms and then the 2 * turnout after them: at
        # most two nonempty draws, however large max_voters is
        draws = []
        unit_rngs = simulate._unit_rngs

        class RecordingRng:
            def __init__(self, rng):
                self.rng, self.sizes = rng, []
                draws.append(self.sizes)

            def random(self, size=None, out=None):
                self.sizes.append(size if out is None else out.size)
                return self.rng.random(size, out=out)

        monkeypatch.setattr(simulate, "_unit_rngs",
                            lambda seed, start, stop: [RecordingRng(rng) for rng in unit_rngs(seed, start, stop)])
        cfg = replace(default_voting_config(9), n_units=12, max_voters=40_000)
        units = hmpm_unit_counts(cfg)
        assert units == scalar_hmpm_unit_counts(cfg)
        # no unit of this run outruns its head, and some unit draws more than 2^16 uniforms at once
        assert [sizes[0] for sizes in draws] == [simulate._HEAD] * cfg.n_units
        assert all(len([size for size in sizes[1:] if size]) <= 2 for sizes in draws)
        assert max(max(sizes) for sizes in draws) > 1 << 16

    @pytest.mark.parametrize("head", [4, 31, 32, 64])
    @pytest.mark.parametrize("max_voters", [10, 31, 32, 33, 2250, 40_000])
    @pytest.mark.parametrize("degenerate", [False, True], ids=["shipped", "degenerate"])
    def test_head_size_and_count_path_change_no_unit(self, monkeypatch, head, max_voters, degenerate):
        # a head's rest may hold none, some or all of the turnout's uniforms and of the 2 * turnout after them; the
        # degenerate model draws no Beta, so its whole head, often more than the turnout's uniforms, is left to the
        # counts
        monkeypatch.setattr(simulate, "_HEAD", head)
        cfg = replace(default_voting_config(3), n_units=70 if max_voters < 40_000 else 6, max_voters=max_voters)
        if degenerate:
            cfg = replace(cfg, turnout_dist=(1.0, 0.0), partisan_fraction_dist=(1.0, 0.0), partisan_loyalty=0.5,
                          swing_prob_dist=(0.0, 1.0))
        assert hmpm_unit_counts(cfg) == scalar_hmpm_unit_counts(cfg)

    def test_oracle_sees_a_dropped_head_remainder(self, monkeypatch):
        # counting turnout from fresh uniforms, past the head's unused ones, changes the units
        block_betas = simulate._block_betas

        def past_the_head(heads, betas):
            draws, cur, ok = block_betas(heads, betas)
            return draws, np.full_like(cur, heads.shape[1]), ok

        monkeypatch.setattr(simulate, "_block_betas", past_the_head)
        cfg = replace(default_voting_config(9), n_units=40)
        assert hmpm_unit_counts(cfg) != scalar_hmpm_unit_counts(cfg)


def doubles_near(value: float, steps: int) -> list:
    """value and the doubles up to steps ulps below and above it."""
    below, above = [value], [value]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def head_reader_betas(heads: np.ndarray, betas) -> list:
    """Each head's Beta draws and cursor from the former head readers, or None where they run out of head."""
    out = []
    for head in heads:
        try:
            out.append(head_unit_betas(head.tolist(), head_normals(head), betas))
        except IndexError:
            out.append(None)
    return out


class TestBlockBetas:
    """The block Beta stage against the former per-unit head readers, bit for bit."""

    def assert_matches_head_readers(self, heads: np.ndarray, betas) -> tuple:
        """Each unit's draws and cursor equal the head readers', and its head fits them exactly where theirs does;
        returns the block stage's draws, cursors and fits."""
        draws, cur, ok = simulate._block_betas(heads, betas)
        for j, expected in enumerate(head_reader_betas(heads, betas)):
            assert bool(ok[j]) == (expected is not None), j
            if expected is not None:
                got = [x.hex() for x in draws[:, j].tolist()], int(cur[j])
                assert got == ([x.hex() for x in expected[0]], expected[1]), j
        return draws, cur, ok

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(BETA_PAIRS, BETA_PAIRS, BETA_PAIRS), st.sampled_from([4, 8, 32]), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_matches_head_readers(self, betas, head, units, seed):
        self.assert_matches_head_readers(np.random.default_rng(seed).random((units, head)), betas)

    def test_a_try_with_v_at_most_zero_reads_the_next_normal(self):
        # offset 0's normal is -3.72, so shape 1's 1 + c x = 1 - 3.72 / sqrt(6) is below 0: the try reads no u, and
        # the next one starts at uniform 2
        head = np.array([0.999, 0.5, 0.3, 0.7, 0.2, 0.6, 0.4, 0.1, 0.8, 0.35, 0.65, 0.45])
        assert 1.0 + head_normals(head)[0] / math.sqrt(6.0) < 0.0
        _, _, ok = self.assert_matches_head_readers(np.vstack([head, head[::-1]]), ((1.0, 2.5), (0.0, 1.0), (1.0, 0.0)))
        assert ok.all()

    @pytest.mark.parametrize("u,accepted", [(0.9, True), (0.99, False)])
    def test_a_try_that_fails_the_squeeze_takes_the_log_test(self, u, accepted):
        # offset 0's normal is 1.8, where the squeeze accepts only u < 1 - 0.0331 * 1.8^4 = 0.65; for shape 2.5 the
        # log test then accepts u = 0.9 and rejects u = 0.99
        head = np.array([1.0 - math.exp(-1.62), 0.0, u, 0.3, 0.2, 0.1, 0.6, 0.4, 0.5, 0.7, 0.2, 0.3])
        x = head_normals(head)[0]
        d = 2.5 - 1.0 / 3.0
        v = (1.0 + 1.0 / math.sqrt(9.0 * d) * x) ** 3
        assert u >= 1.0 - 0.0331 * x**4
        assert (math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v)) == accepted
        _, _, ok = self.assert_matches_head_readers(head[None], ((2.5, 30.0), (1.0, 0.0), (1.0, 0.0)))
        assert ok.all()

    # A uniform of exactly 0, and the float ties below, come from a generator about once in 2^53 tries; each
    # decides a try, so heads that reach them are built here. A tie that depends on numpy's Box-Muller normal is
    # searched for on the CPU the test runs on.

    def test_a_try_with_v_exactly_zero_reads_the_next_normal(self):
        # offset 0's normal is about -3, and a shape whose 1 + c x is exactly 0 there makes v = 0, which takes the
        # v <= 0 branch: the try reads no u (the log test would take log 0)
        for u1 in np.linspace(0.9885, 0.9892, 50).tolist():
            head = np.array([u1, 0.5, 0.3, 0.3, 0.2, 0.1, 0.6, 0.4, 0.5, 0.7, 0.2, 0.3])
            x = head_normals(head)[0]
            shapes = [s for s in doubles_near(x * x / 9.0 + 1.0 / 3.0, 30)
                      if 1.0 + 1.0 / math.sqrt(9.0 * (s - 1.0 / 3.0)) * x == 0.0]
            if shapes:
                break
        assert shapes
        _, _, ok = self.assert_matches_head_readers(head[None], ((shapes[0], 2.5), (1.0, 0.0), (1.0, 0.0)))
        assert ok.all()

    @pytest.mark.parametrize("u1,accepted", [(0.7, True), (0.99, False)])
    def test_a_zero_u_passes_only_the_squeeze(self, u1, accepted):
        # offset 0's normal is 1.55 (u1 = 0.7) or 3.03 (u1 = 0.99): u = 0 is below the squeeze 1 - 0.0331 x^4 at the
        # first, and at the second the log test, which takes only u > 0, rejects it
        head = np.array([u1, 0.0, 0.0, 0.3, 0.2, 0.1, 0.6, 0.4, 0.5, 0.7, 0.2, 0.3])
        assert (0.0 < 1.0 - 0.0331 * head_normals(head)[0] ** 4) == accepted
        _, cur, ok = self.assert_matches_head_readers(head[None], ((2.5, 1.0), (1.0, 0.0), (1.0, 0.0)))
        assert ok.all() and cur.tolist() == [6 if accepted else 9]

    def test_a_u_on_the_squeeze_bound_takes_the_log_test(self):
        # the squeeze accepts u < 1 - 0.0331 x^4 only; for a normal near 0 the bound is just below 1, where the log
        # test's right-hand side is all rounding, and it can reject a u on the bound
        d = 2.5 - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        for u2 in np.linspace(0.2499, 0.24998, 2000).tolist():
            x = head_normals(np.array([0.5, u2]))[0]
            u = 1.0 - 0.0331 * x**4
            v = (1.0 + c * x) ** 3
            rejected = 0.0 < u < 1.0 and not math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v)
            if rejected:
                break
        assert rejected
        head = np.array([0.5, u2, u, 0.3, 0.2, 0.1, 0.6, 0.4, 0.5, 0.7, 0.2, 0.3])
        _, cur, ok = self.assert_matches_head_readers(head[None], ((2.5, 1.0), (1.0, 0.0), (1.0, 0.0)))
        assert ok.all() and cur.tolist() == [9]

    def test_a_u_whose_log_ties_the_log_test_is_rejected(self):
        # the log test accepts log u < 0.5 x^2 + d - d v + d log v only, so a u above the squeeze whose log equals the
        # right-hand side exactly is rejected
        d = 2.5 - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        for u2 in np.linspace(0.0, 0.05, 400).tolist():
            x = head_normals(np.array([0.7, u2]))[0]
            v = (1.0 + c * x) ** 3
            bound = 0.5 * x * x + d - d * v + d * math.log(v)
            ties = [u for u in doubles_near(math.exp(bound), 4)
                    if math.log(u) == bound and 1.0 - 0.0331 * x**4 <= u < 1.0]
            if ties:
                break
        assert ties
        head = np.array([0.7, u2, ties[0], 0.3, 0.2, 0.1, 0.6, 0.4, 0.5, 0.7, 0.2, 0.3])
        _, _, ok = self.assert_matches_head_readers(head[None], ((2.5, 1.0), (1.0, 0.0), (1.0, 0.0)))
        assert ok.all()

    def test_degenerate_pairs_read_no_uniform(self):
        heads = np.random.default_rng(5).random((6, 4))
        draws, cur, ok = self.assert_matches_head_readers(heads, ((1.0, 0.0), (0.0, 2.5), (0.0, 0.19)))
        assert draws.tolist() == [[1.0] * 6, [0.0] * 6, [0.0] * 6] and cur.tolist() == [0] * 6 and ok.all()
        self.assert_matches_head_readers(heads, ((0.58, 0.0), (0.85, 2.5), (0.0, 30.0)))

    @pytest.mark.parametrize("head,shape,fits", [
        ([0.3, 0.2, 0.1], 0.5, False),  # the try fits, and the boost's uniform is the one past the head
        ([0.3, 0.2, 0.1, 0.5, 0.3, 0.2, 0.1], 0.5, True),
        ([0.999, 0.5, 0.3], 1.0, False),  # a try with v <= 0 fits, and the next one's normal does not
        ([0.999, 0.5, 0.3, 0.7], 1.0, False),  # the next try's normal fits, and its u does not
        ([0.999, 0.5, 0.3, 0.7, 0.2, 0.3, 0.2, 0.1], 1.0, True),
    ])
    def test_a_head_that_runs_out_is_reported(self, head, shape, fits):
        # where the head fits, the pair's second variate accepts its first try, on the head's last three uniforms
        _, _, ok = self.assert_matches_head_readers(np.array([head]), ((shape, 1.0), (1.0, 0.0), (1.0, 0.0)))
        assert ok.tolist() == [fits]

    def test_power_and_log_are_libm(self):
        # numpy's SIMD power can round the last bit differently from libm's pow (on AVX-512, np.power(w, 3.0)
        # differs on about 5 % of values); the block stage must give libm's bits
        heads = np.random.default_rng(11).random((2048, 32))
        self.assert_matches_head_readers(heads, ((2.5, 30.0), (1.05, 0.19), (0.58, 0.85)))
        w = 1.0 + np.array([head_normals(head)[0] for head in heads]) / math.sqrt(9.0 * (2.5 - 1.0 / 3.0))
        sample = np.random.default_rng(0).random(250_000) + 0.5
        if (np.power(sample, 3.0) != [x**3 for x in sample.tolist()]).any():
            # so some unit's first try here reads a v that numpy's power would give differently
            assert (np.power(w, 3.0) != [x**3 for x in w.tolist()]).any()

    def test_beta_of_two_underflowing_gammas_is_an_error(self):
        # with shapes this small both gamma variates of a pair can underflow to 0, and 0 / 0 is no Beta draw
        cfg = replace(default_voting_config(1), n_units=2000, max_voters=10, turnout_dist=(0.001, 0.001))
        with pytest.raises(ZeroDivisionError):
            scalar_hmpm_unit_counts(cfg)
        with pytest.raises(ValueError, match=r"Beta\(0\.001, 0\.001\): both of its gamma variates underflowed to 0"):
            hmpm_unit_counts(cfg)


class TestConformanceExperiment:
    LAWS = None

    @classmethod
    def laws(cls):
        if cls.LAWS is None:
            cls.LAWS = [nbl_second(), restricted_law(nbl_second(), RestrictionSpec(upper=2250))]
        return cls.LAWS

    def test_one_report_per_law(self):
        exp = conformance_experiment(default_voting_config(seed=1), self.laws())
        assert len(exp.results) == 2
        assert exp.results[0].law == "benford-second"
        assert len(exp.results[0].p_values) == 1

    def test_empty_law_list(self):
        with pytest.raises(ValueError, match="empty law list"):
            conformance_experiment(default_voting_config(seed=1), [])

    def test_bound_below_max_voters_is_an_error(self):
        below = restricted_law(nbl_second(), RestrictionSpec(upper=800))
        with pytest.raises(ValueError, match="units lie outside the restriction N<=800"):
            conformance_experiment(default_voting_config(seed=1), [below])

    def test_replicates_extend_prefix_stably(self):
        cfg = default_voting_config(seed=3)
        two = conformance_experiment(cfg, self.laws(), replicates=2)
        three = conformance_experiment(cfg, self.laws(), replicates=3)
        assert two.results[0].p_values == three.results[0].p_values[:2]
        assert len(three.results[0].posteriors) == 3

    def test_experiment_hands_its_pooled_array_over(self):
        # the replicates' joined counts are a new array, which the pooled column sorts in place instead of copying
        cfg = replace(default_voting_config(seed=3), n_units=40)
        with mock.patch.object(DatasetColumn, "__post_init__", autospec=True,
                               side_effect=DatasetColumn.__post_init__) as post_init:
            conformance_experiment(cfg, self.laws()[:1], replicates=2)
        built = [(call.args[0], call.args[1]) for call in post_init.call_args_list]
        assert [adopt for col, adopt in built if col.name == "pooled"] == [True]  # adopt: no copy
        (pooled,) = [col for col, _ in built if col.name == "pooled"]
        replicates = [col.values.tolist() for col, _ in built if col.name == "candidate_a"]
        assert len(replicates) == 2 and pooled.values.tolist() == sorted(replicates[0] + replicates[1])

    def test_restricted_law_fits_better_on_fixed_seeds(self):
        wins = 0
        for seed in (1, 2, 3):
            exp = conformance_experiment(default_voting_config(seed=seed), self.laws())
            wins += exp.results[1].pooled.p_value > exp.results[0].pooled.p_value
        assert wins == 3


class TestConfigFiles:
    def test_shipped_default_matches_function(self):
        resource = importlib.resources.files("digitscreen") / "configs" / "hmpm_default.ini"
        with importlib.resources.as_file(resource) as path:
            job = load_simulation_config(path)
        assert job.kind == "voting"
        assert job.voting == default_voting_config()
        assert job.experiment == ExperimentSpec(law_names=("nb2", "rnb2:2250"), replicates=1)

    def test_mixture_config_roundtrip(self, tmp_path):
        path = tmp_path / "mix.ini"
        path.write_text(
            "[mixture]\nn_samples = 500\nseed = 11\n"
            "component.1 = lognormal weight=0.25 mu=0.0 sigma=1.0\n"
            "component.2 = uniform-range weight=0.75 low=1 high=99\n"
        )
        job = load_simulation_config(path)
        assert job.kind == "mixture"
        assert job.mixture.n_samples == 500
        assert job.mixture.components[1].family == "uniform-range"
        assert job.mixture.components[1].weight == 0.75
        samples = sample_mixture(job.mixture)
        assert len(samples) == 500

    def test_rejects_ambiguous_config(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mixture]\nn_samples = 5\nseed = 1\n\n[voting_model]\nn_units = 5\n")
        with pytest.raises(ValueError, match="exactly one"):
            load_simulation_config(path)

    def test_bound_on_unrestricted_law_fails_at_load(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mixture]\nn_samples = 5\nseed = 1\ncomponent.1 = lognormal weight=1 mu=0 sigma=1\n"
                        "\n[experiment]\nlaws = nb2:500\n")
        with pytest.raises(ValueError, match="takes no bound"):
            load_simulation_config(path)

    VOTING = ("[voting_model]\nn_units = 20\nmax_voters = 500\nturnout = 2 2\npartisan_fraction = 1 1\n"
              "partisan_loyalty = 0.9\nswing_prob = 1 1\nseed = 1\n")
    MIXTURE = "[mixture]\nn_samples = 50\nseed = 1\ncomponent.1 = lognormal weight=1 mu=0 sigma=1\n"

    @pytest.mark.parametrize("config,message", [
        (VOTING + "\n[experiment]\nlaws = nb2\nreplicates = 0\n", "replicates must be at least 1"),
        (MIXTURE + "\n[experiment]\nlaws = nb1, joint2\n", "screened against nb1 or nb2 only"),
        (MIXTURE + "\n[experiment]\nlaws = nb2, rnb2:50\n", r"not 'restricted\(benford-second, N<=50\)'"),
        (MIXTURE + "\n[experiment]\nlaws = cnb1:900\n", "screened against nb1 or nb2 only"),
        (MIXTURE + "\n[experiment]\nlaws = nb2\nreplicates = 3\n", "replicates applies to"),
    ], ids=["replicates-0", "mixture-joint", "mixture-rnb2", "mixture-cnb1", "mixture-replicates"])
    def test_bad_experiment_fails_before_any_file_is_written(self, tmp_path, capsys, config, message):
        from digitscreen.cli import main

        path = tmp_path / "bad.ini"
        path.write_text(config)
        with pytest.raises(ValueError, match=message):
            load_simulation_config(path)
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists() and capsys.readouterr().out == ""

    @pytest.mark.parametrize("config,message", [
        (VOTING.replace("n_units = 20\n", ""), "No option 'n_units' in section: 'voting_model'"),
        (MIXTURE.replace("n_samples = 50\n", ""), "No option 'n_samples' in section: 'mixture'"),
        (VOTING.replace("turnout = 2 2\n", ""), "No option 'turnout'"),
        (VOTING + "\n[experiment]\nreplicates = 2\n", "No option 'laws' in section: 'experiment'"),
        ("n_units = 20\n" + VOTING, "no section headers"),
        (VOTING + "\n[voting_model]\nseed = 2\n", "section 'voting_model' already exists"),
        (VOTING.replace("turnout = 2 2", "turnout = 1 nan"), "Beta parameters must be finite"),
        (VOTING.replace("turnout = 2 2", "turnout = 1 inf"), "Beta parameters must be finite"),
        (MIXTURE.replace("lognormal weight=1 mu=0 sigma=1", "uniform-range weight=1 low=1 high=inf"), "must be finite"),
        (MIXTURE.replace("lognormal weight=1 mu=0 sigma=1", "half-cauchy weight=1 scale=inf"), "must be finite"),
        (MIXTURE + "component.2 = lognormal weight=nan mu=0 sigma=1\n", "weight must be finite"),
        (MIXTURE.replace("sigma=1", "sigma=1 scale=2"), r"lognormal component takes no parameters \['scale'\]"),
        (VOTING + "\n[experiment]\nlaws = nb2\nreplicate = 3\n",
         r"unknown key 'replicate' in \[experiment\], which accepts laws, replicates$"),
        (VOTING + "maxvoters = 10\n", r"unknown key 'maxvoters' in \[voting_model\], which accepts n_units, "
                                     "max_voters, turnout, partisan_fraction, partisan_loyalty, swing_prob, seed$"),
        (MIXTURE + "n_sample = 5\n",
         r"unknown key 'n_sample' in \[mixture\], which accepts n_samples, seed, component.N$"),
        (MIXTURE + "\n[mixture_extra]\nn_samples = 5\n", r"unknown section \[mixture_extra\] \(keys: n_samples\); a "
                                                        r"config holds \[mixture\] or \[voting_model\], and optionally "
                                                        r"\[experiment\]$"),
        ("[DEFAULT]\nseed = 3\n\n" + VOTING, r"unknown section \[DEFAULT\] \(keys: seed\); a config holds "),
        (MIXTURE.replace("mu=0", "mu=0 mu=3"), r"component 'lognormal weight=1 mu=0 mu=3 sigma=1' gives 'mu' twice$"),
        (MIXTURE.replace("weight=1", "weight=0.2 weight=1"), r"gives 'weight' twice$"),
        (VOTING.replace("n_units = 20", "n_units = 5000000000"), r"^n_units must be at most 2\^32$"),
        (VOTING.replace("n_units = 20", "n_units = 1e3"),
         r"^\[voting_model\] n_units: invalid literal for int\(\) with base 10: '1e3'$"),
        (VOTING.replace("partisan_loyalty = 0.9", "partisan_loyalty = 0.9x"),
         r"^\[voting_model\] partisan_loyalty: could not convert string to float: '0.9x'$"),
        (VOTING.replace("turnout = 2 2", "turnout = 2 x"),
         r"^\[voting_model\] turnout: could not convert string to float: 'x'$"),
        (MIXTURE + "\n[experiment]\nlaws = ,\n", r"^\[experiment\] laws names no law$"),
        (VOTING + "\n[experiment]\nlaws =\n", r"^\[experiment\] laws names no law$"),
        (MIXTURE.replace("lognormal weight=1 mu=0 sigma=1", "uniform-range weight=1 low=-1e308 high=1.7e308"),
         r"^\[mixture\] component.1: uniform-range needs a finite width high - low$"),
    ], ids=["no-n_units", "no-n_samples", "no-turnout", "no-laws", "no-section-header", "duplicate-section",
            "turnout-nan", "turnout-inf", "high-inf", "scale-inf", "weight-nan", "unknown-parameter",
            "experiment-replicate", "voting-maxvoters", "mixture-n_sample", "mixture_extra-section", "default-key",
            "repeated-parameter", "repeated-weight", "n_units-5e9", "n_units-1e3", "loyalty-not-float",
            "turnout-not-float", "mixture-laws-name-none", "voting-laws-name-none", "uniform-range-infinite-width"])
    def test_malformed_config_is_a_one_line_error(self, tmp_path, capsys, config, message):
        from digitscreen.cli import main

        path = tmp_path / "bad.ini"
        path.write_text(config)
        with pytest.raises(ValueError, match=message):
            load_simulation_config(path)
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert not out.exists() and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("workload", ["sim-voting", "sim-mixture"])
    def test_benchmark_configs_load(self, tmp_path, monkeypatch, workload):
        # the benchmark generates its simulate configs itself; a stricter loader must not refuse them
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        cache, plan = workloads.plan(tmp_path, workload, 0)
        (config,) = plan["inputs"]
        job = load_simulation_config(cache / config)
        assert job.kind == plan["expect"]["kind"]
        assert [law.kind for law in job.experiment.laws] == [
            law_from_name(name).kind for name in plan["expect"]["laws"]]

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read"):
            load_simulation_config("/nonexistent/config.ini")
