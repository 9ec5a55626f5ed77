"""Sequential conformal testing toolkit.

Online smoothed conformal transducers, Simple Jumper test martingales,
conformal prediction intervals, and the construction of mean shifts that
are invisible to the predictive-oracle conformity measure.
"""

from .conformity import (ConvexEnsemble, LikelihoodRatio, Mahalanobis,
                         PredictiveOracle, lr_score, mahalanobis_score,
                         oracle_mahalanobis_ensemble, oracle_score)
from .cryptic import (CrypticPair, InvarianceReport, cryptic_line,
                      cryptic_shift, verify_conditions)
from .gaussian import (BivariateGaussian, Example, columns,
                       conditional_density, conditional_mean,
                       conditional_variance, residual, sample, sample_arrays)
from .intervals import (EfficiencyRecord, IntervalSeries, PredictionInterval,
                        efficiency_series, interval_series, predict_interval)
from .martingale import (CapitalState, JumperConfig, betting_function,
                         initial_state, jumper_step, log10_capital, run_ctm)
from .rng import RandomStream
from .scenario import (ConfigError, ScenarioConfig, ScenarioSummary,
                       run_replications, run_scenario)
from .stats import (KSReport, histogram, ks_uniform, lag1_autocorrelation,
                    two_sample_ks)
from .transducer import (PValue, ScoreStore, observe, run_transducer,
                         smoothed_pvalues)

__version__ = "0.1.0"
