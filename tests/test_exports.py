"""The package's public names, pinned.

A change that adds or drops an export edits `EXPORTS` and says so in
CHANGES.md, so the export count is read here rather than counted by hand.
"""

import types

import seqconformal

EXPORTS = [
    "BivariateGaussian", "ConfigError", "CrypticPair", "EfficiencyRecord",
    "Example", "IntervalSeries", "InvarianceReport", "JumperConfig",
    "KSReport", "LikelihoodRatio", "Mahalanobis", "OracleMahalanobisEnsemble",
    "PValue", "PredictiveOracle", "RandomStream", "ScenarioConfig",
    "ScenarioSummary", "columns", "conditional_mean", "cryptic_shift",
    "efficiency_series", "interval_series", "ks_uniform", "log10_capital",
    "run_ctm", "run_replications", "run_scenario", "run_transducer", "sample",
    "sample_arrays", "smoothed_pvalues", "verify_conditions",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package when imported; they are
    # not exports.
    public = sorted(name for name, value in vars(seqconformal).items()
                    if not name.startswith("_")
                    and not isinstance(value, types.ModuleType))
    assert public == sorted(EXPORTS)
