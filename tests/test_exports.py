"""The package's public names, pinned.

A change that adds or drops an export edits `EXPORTS` and says so in
CHANGES.md, so the export count is read here rather than counted by hand.
"""

import types

import seqconformal
from seqconformal import (conformity, gaussian, intervals, martingale,
                          transducer)

EXPORTS = [
    "BivariateGaussian", "ConfigError", "CrypticPair", "IntervalSeries",
    "JumperConfig", "KSReport", "LikelihoodRatio", "Mahalanobis",
    "OracleMahalanobisEnsemble", "PredictiveOracle", "RandomStream",
    "ScenarioConfig", "ScenarioSummary", "conditional_mean", "cryptic_shift",
    "efficiency_series", "interval_series", "ks_uniform", "log10_capital",
    "oracle_law", "run_ctm", "run_replications", "run_scenario",
    "run_transducer", "sample", "sample_arrays", "smoothed_pvalues",
]

# The per-example adapters live in one block at the end of `scenario.py`.
ADAPTERS = ("Example", "PValue", "EfficiencyRecord", "sample", "columns",
            "run_transducer", "run_ctm", "efficiency_series")


def test_public_names_are_pinned():
    # Submodules become attributes of the package when imported; they are
    # not exports.
    public = sorted(name for name, value in vars(seqconformal).items()
                    if not name.startswith("_")
                    and not isinstance(value, types.ModuleType))
    assert public == sorted(EXPORTS)


def test_stage_modules_hold_no_adapter():
    for module in (gaussian, conformity, transducer, martingale, intervals):
        assert not set(ADAPTERS) & set(vars(module)), module.__name__


def test_transducer_sees_only_scores():
    # Neither module nor any name of conformity or gaussian is in transducer.
    for value in vars(transducer).values():
        assert value not in (conformity, gaussian)
        assert getattr(value, "__module__", None) not in (
            conformity.__name__, gaussian.__name__)
