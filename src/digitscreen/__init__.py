"""digitscreen: screen per-unit count data for digit-frequency anomalies.

Library layout: `digits` extracts and tabulates significant digits, `laws`
holds the Newcomb-Benford reference distributions and their restricted
variants, `inference` turns observed counts into p-values, calibrated lower
bounds and Bayes-factor posteriors, `simulate` generates conforming and
non-conforming synthetic data, and `cli` ties everything to the command line.
"""

import importlib

# the modules that define the names of `__all__`, searched in this order; `special` is public as a module only
_MODULES = ("digits", "inference", "laws", "simulate")


# a bare `import digitscreen` loads no module: each loads on first use of one of its names, so `screen` never pays
# for `simulate` (or configparser); Python calls this only for a name the package does not hold
def __getattr__(name: str):
    if name in (*_MODULES, "special"):
        return importlib.import_module(f".{name}", __name__)
    if name in __all__:
        return next(getattr(module, name) for module in map(__getattr__, _MODULES) if hasattr(module, name))
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
