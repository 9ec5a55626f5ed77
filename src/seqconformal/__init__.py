"""Sequential conformal testing toolkit.

Online smoothed conformal transducers, Simple Jumper test martingales,
conformal prediction intervals, and the construction of mean shifts that
are invisible to the predictive-oracle conformity measure.
"""

from .conformity import (LikelihoodRatio, Mahalanobis,
                         OracleMahalanobisEnsemble, PredictiveOracle)
from .cryptic import cryptic_shift, oracle_law
from .gaussian import BivariateGaussian, conditional_mean, sample_arrays
from .intervals import IntervalSeries
from .martingale import JumperConfig
from .rng import RandomStream
from .scenario import (ConfigError, Monitor, ScenarioConfig,
                       ScenarioSummary, efficiency_series, run_ctm,
                       run_replications, run_scenario, run_transducer,
                       sample)
from .stats import KSReport, ks_uniform

__version__ = "0.1.0"
