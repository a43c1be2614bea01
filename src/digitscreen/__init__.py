"""digitscreen: screen per-unit count data for digit-frequency anomalies.

Library layout: `digits` extracts and tabulates significant digits, `laws`
holds the Newcomb-Benford reference distributions and their restricted
variants, `inference` turns observed counts into p-values, calibrated lower
bounds and Bayes-factor posteriors, `simulate` generates conforming and
non-conforming synthetic data, and `cli` ties everything to the command line.
"""

from .digits import (
    EXCLUDE_SHORT,
    TRAILING_ZERO,
    CountVector,
    DatasetColumn,
    digit_frequencies,
    joint_frequencies,
    real_digit_frequencies,
    significant_digit,
)
from .inference import (
    HypothesisPrior,
    TestReport,
    chi_squared_pvalue,
    chi_squared_stat,
    log_bayes_factor_uniform,
    posterior_h0,
    screen,
    universal_lower_bound,
)
from .laws import (
    DigitDistribution,
    RestrictionSpec,
    count_with_digit,
    law_from_name,
    nbl_first,
    nbl_joint,
    nbl_second,
    restricted_law,
    uniform_law,
)
# `simulate` (and configparser with it) loads on first use of one of its names, so `screen` never pays its import;
# Python calls this only for a name the module does not hold, so only the simulate names of `__all__` reach it
def __getattr__(name: str):
    if name in __all__:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "EXCLUDE_SHORT",
    "TRAILING_ZERO",
    "CountVector",
    "DatasetColumn",
    "DigitDistribution",
    "HypothesisPrior",
    "MixtureComponent",
    "MixtureConfig",
    "RestrictionSpec",
    "TestReport",
    "VotingModelConfig",
    "chi_squared_pvalue",
    "chi_squared_stat",
    "conformance_experiment",
    "count_with_digit",
    "default_voting_config",
    "digit_frequencies",
    "joint_frequencies",
    "law_from_name",
    "log_bayes_factor_uniform",
    "nbl_first",
    "nbl_joint",
    "nbl_second",
    "posterior_h0",
    "real_digit_frequencies",
    "restricted_law",
    "sample_hmpm",
    "sample_mixture",
    "screen",
    "significant_digit",
    "uniform_law",
    "universal_lower_bound",
]
