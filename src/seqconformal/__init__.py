"""Sequential conformal testing toolkit.

Online smoothed conformal transducers, Simple Jumper test martingales,
conformal prediction intervals, and the construction of mean shifts that
are invisible to the predictive-oracle conformity measure.

Importing the package loads no numpy: the exports that need it are
imported from their modules on first use (`__getattr__`).
"""

import importlib

from .config import ConfigError, ScenarioConfig
from .conformity import (LikelihoodRatio, Mahalanobis,
                         OracleMahalanobisEnsemble, PredictiveOracle)
from .cryptic import cryptic_shift, oracle_law
from .gaussian import BivariateGaussian, conditional_mean
from .martingale import JumperConfig

# Each numpy-backed export, and the module it is imported from.
_LAZY = {
    **dict.fromkeys(("Monitor", "ScenarioSummary", "efficiency_series",
                     "run_ctm", "run_replications", "run_scenario",
                     "run_transducer", "sample"), "scenario"),
    "sample_arrays": "gaussian",
    "RandomStream": "rng",
    "IntervalSeries": "intervals",
    "KSReport": "stats",
    "ks_uniform": "stats",
}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
