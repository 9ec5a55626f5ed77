"""Sequential conformal testing toolkit.

Online smoothed conformal transducers, Simple Jumper test martingales,
conformal prediction intervals, and the construction of mean shifts that
are invisible to the predictive-oracle conformity measure.
"""

from .conformity import (LikelihoodRatio, Mahalanobis,
                         OracleMahalanobisEnsemble, PredictiveOracle)
from .cryptic import (CrypticPair, InvarianceReport, cryptic_shift,
                      verify_conditions)
from .gaussian import (BivariateGaussian, Example, columns, conditional_mean,
                       sample, sample_arrays)
from .intervals import (EfficiencyRecord, IntervalSeries, efficiency_series,
                        interval_series)
from .martingale import JumperConfig, log10_capital, run_ctm
from .rng import RandomStream
from .scenario import (ConfigError, ScenarioConfig, ScenarioSummary,
                       run_replications, run_scenario)
from .stats import KSReport, ks_uniform
from .transducer import PValue, run_transducer, smoothed_pvalues

__version__ = "0.1.0"
