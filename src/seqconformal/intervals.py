"""Conformal prediction intervals from the predictive-oracle measure.

The oracle measure is a fixed function of (x, y), so the candidate-label
sweep collapses to inverting a Gaussian density level set against a
quantile of the previously stored scores: a label y is kept when its
density exceeds the ceil(eps * (size + 1))-th smallest stored score.
Excluding the candidate from its own bag changes ranks by at most 1,
an O(1/n) effect. Intervals are built from unsmoothed p-values and are
therefore deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .conformity import oracle_score
from .gaussian import (BivariateGaussian, Example, conditional_mean,
                       conditional_variance)
from .transducer import ScoreStore

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PredictionInterval:
    lower: float
    upper: float
    center: float
    step_index: int

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper


@dataclass(frozen=True)
class EfficiencyRecord:
    step: int
    center: float
    lower: float
    upper: float
    width: float
    covered: bool


def predict_interval(q0: BivariateGaussian, store: ScoreStore, x: float,
                     epsilon: float, step_index: int = 0) -> PredictionInterval:
    """Level-(1 - epsilon) interval for Y at x against the stored scores.

    The threshold is the lower order statistic at rank
    ceil(epsilon * (size + 1)), a conservative tie-breaking choice.
    """
    if store.size == 0:
        raise ValueError("score store is empty")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    rank = min(math.ceil(epsilon * (store.size + 1)), store.size)
    threshold = store.kth_smallest(rank)
    center = conditional_mean(q0, x)
    sigma_c = math.sqrt(conditional_variance(q0))
    peak = 1.0 / (sigma_c * math.sqrt(_TWO_PI))
    if threshold >= peak:
        halfwidth = 0.0
    elif threshold <= 0.0:
        raise ValueError("stored scores must be positive oracle densities")
    else:
        halfwidth = sigma_c * math.sqrt(-2.0 * math.log(threshold / peak))
    return PredictionInterval(lower=center - halfwidth,
                              upper=center + halfwidth,
                              center=center,
                              step_index=step_index)


def efficiency_series(stream: Sequence[Example], q0: BivariateGaussian,
                      epsilon: float) -> list[EfficiencyRecord]:
    """Online width/coverage trace over a stream.

    At step n the interval for x_n uses the scores of z_1..z_{n-1}; z_n
    is admitted to the store afterwards. The first step has no scores to
    predict from, so records start at step 2.
    """
    if len(stream) < 2:
        raise ValueError("stream must contain at least two examples")
    store = ScoreStore()
    records: list[EfficiencyRecord] = []
    for step, z in enumerate(stream, start=1):
        if step > 1:
            interval = predict_interval(q0, store, z.x, epsilon, step_index=step)
            records.append(EfficiencyRecord(
                step=step,
                center=interval.center,
                lower=interval.lower,
                upper=interval.upper,
                width=interval.width,
                covered=interval.contains(z.y),
            ))
        store.insert(oracle_score(q0, z))
    return records
