"""Conformal prediction intervals from the predictive-oracle measure.

The oracle measure is a fixed function of (x, y), so the candidate-label
sweep collapses to inverting a Gaussian density level set against a
quantile of the previously stored scores: a label y is kept when its
density exceeds the ceil(eps * (size + 1))-th smallest stored score.
Excluding the candidate from its own bag changes ranks by at most 1,
an O(1/n) effect. Intervals are built from unsmoothed p-values and are
therefore deterministic.

`predict_interval` answers one query against a `ScoreStore`;
`interval_series` runs a whole stream and tracks the threshold with a
two-heap streaming order statistic, O(log n) per step, and
`efficiency_series` gives its result as one record per step.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def _peak(sigma_c: float) -> float:
    """Largest value of the conditional density, at the conditional mean."""
    return 1.0 / (sigma_c * math.sqrt(_TWO_PI))


def _halfwidth(threshold: float, sigma_c: float, peak: float) -> float:
    """Half-width of the level set {y: density(y) >= threshold}."""
    if threshold >= peak:
        return 0.0
    if threshold <= 0.0:
        raise ValueError("stored scores must be positive oracle densities")
    return sigma_c * math.sqrt(-2.0 * math.log(threshold / peak))


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
    center = conditional_mean(q0, x)
    sigma_c = math.sqrt(conditional_variance(q0))
    halfwidth = _halfwidth(store.kth_smallest(rank), sigma_c,
                           _peak(sigma_c))
    return PredictionInterval(lower=center - halfwidth,
                              upper=center + halfwidth,
                              center=center,
                              step_index=step_index)


@dataclass(frozen=True)
class IntervalSeries:
    """The online intervals of steps 2..n, one array entry per step."""

    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    width: np.ndarray
    covered: np.ndarray  # bool


def interval_series(stream: Sequence[Example], q0: BivariateGaussian,
                    epsilon: float) -> IntervalSeries:
    """Online intervals over a stream, as arrays.

    At step n the interval for x_n uses the scores of z_1..z_{n-1}; z_n
    is admitted to the store afterwards. The first step has no scores to
    predict from, so the arrays start at step 2. Equal to
    `predict_interval` at every step against a store of the earlier scores.

    The threshold rank ceil(epsilon * (m + 1)), capped at m, never falls
    and grows by at most one as the store size m grows, so the k smallest
    scores stay in a max-heap (stored negated) and the rest in a min-heap;
    the threshold is the top of the max-heap.
    """
    if len(stream) < 2:
        raise ValueError("stream must contain at least two examples")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    sigma_c = math.sqrt(conditional_variance(q0))
    peak = _peak(sigma_c)
    lowest: list[float] = []  # negated
    rest: list[float] = []
    halfwidths = []
    for m in range(1, len(stream)):  # m scores are stored at step m + 1
        alpha = oracle_score(q0, stream[m - 1])
        # The larger of alpha and the top of lowest moves on to rest.
        heapq.heappush(rest, -heapq.heappushpop(lowest, -alpha))
        if len(lowest) < min(math.ceil(epsilon * (m + 1)), m):
            heapq.heappush(lowest, -heapq.heappop(rest))
        halfwidths.append(_halfwidth(-lowest[0], sigma_c, peak))
    halfwidth = np.array(halfwidths)
    center = conditional_mean(q0, np.array([z.x for z in stream[1:]]))
    lower = center - halfwidth
    upper = center + halfwidth
    ys = np.array([z.y for z in stream[1:]])
    return IntervalSeries(center=center, lower=lower, upper=upper,
                          width=upper - lower,
                          covered=(lower <= ys) & (ys <= upper))


def efficiency_series(stream: Sequence[Example], q0: BivariateGaussian,
                      epsilon: float) -> list[EfficiencyRecord]:
    """`interval_series` as one record per step, from step 2."""
    s = interval_series(stream, q0, epsilon)
    return [EfficiencyRecord(step, center, lower, upper, width, covered)
            for step, center, lower, upper, width, covered in zip(
                range(2, len(stream) + 1), s.center.tolist(),
                s.lower.tolist(), s.upper.tolist(), s.width.tolist(),
                s.covered.tolist())]
