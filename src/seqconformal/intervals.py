"""Conformal prediction intervals from the predictive-oracle measure.

The oracle score of (x, y) is the conditional density of y at x under
Q0, a decreasing function of |r| with r = y - E_Q0[Y | X = x]. The
candidate-label sweep therefore collapses to an order statistic: a label
y is kept when its density is at least the k-th smallest stored score,
k = ceil(eps * (size + 1)), and that is when its |r| is at most the k-th
largest stored |r|. The interval is the conditional mean plus or minus
that |r|, with no density, exp or log computed, so no score can
underflow it. Excluding the candidate from its own bag changes ranks by
at most 1, an O(1/n) effect. Intervals are built from unsmoothed
p-values and are therefore deterministic.

`predict_interval` answers one query against a `ScoreStore` of |r|;
`interval_series` runs a whole stream, given as x and y arrays, and
tracks the threshold with a two-heap streaming order statistic, O(log n)
per step, and `efficiency_series` gives its result as one record per
step.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import BivariateGaussian, Example, columns, conditional_mean
from .transducer import ScoreStore


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


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


def predict_interval(q0: BivariateGaussian, store: ScoreStore, x: float,
                     epsilon: float, step_index: int = 0) -> PredictionInterval:
    """Level-(1 - epsilon) interval for Y at x against the stored |r|.

    The store holds the absolute residuals |y - E_Q0[Y | x]| of the
    earlier examples. The half-width is the upper order statistic at rank
    ceil(epsilon * (size + 1)), a conservative tie-breaking choice.
    """
    if store.size == 0:
        raise ValueError("score store is empty")
    _check_epsilon(epsilon)
    rank = min(math.ceil(epsilon * (store.size + 1)), store.size)
    center = conditional_mean(q0, x)
    halfwidth = store.kth_smallest(store.size + 1 - rank)
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


def interval_series(xs: np.ndarray, ys: np.ndarray, q0: BivariateGaussian,
                    epsilon: float) -> IntervalSeries:
    """Online intervals over a stream of examples (xs[i], ys[i]), as arrays.

    At step n the interval for x_n uses the |r| of z_1..z_{n-1}; z_n is
    admitted to the store afterwards. The first step has nothing to
    predict from, so the arrays start at step 2. Equal to
    `predict_interval` at every step against a store of the earlier |r|.

    The threshold rank ceil(epsilon * (m + 1)), capped at m, never falls
    and grows by at most one as the store size m grows, so the k largest
    |r| stay in a min-heap and the rest in a max-heap (stored negated);
    the half-width is the top of the min-heap.
    """
    if len(xs) < 2:
        raise ValueError("stream must contain at least two examples")
    _check_epsilon(epsilon)
    center = conditional_mean(q0, xs)
    abs_r = np.abs(ys - center).tolist()
    m = np.arange(1, len(xs))  # m residuals are stored at step m + 1
    # The same float product and ceil as predict_interval's rank.
    rank = np.minimum(np.ceil(epsilon * (m + 1)), m)
    grows = (np.diff(rank, prepend=0.0) > 0).tolist()
    push, pushpop, pop = heapq.heappush, heapq.heappushpop, heapq.heappop
    largest: list[float] = []
    rest: list[float] = []  # negated
    halfwidths = []
    for r, grow in zip(abs_r, grows):
        # The smaller of r and the top of largest moves on to rest.
        push(rest, -pushpop(largest, r))
        if grow:
            push(largest, -pop(rest))
        halfwidths.append(largest[0])
    halfwidth = np.array(halfwidths)
    center = center[1:]
    lower = center - halfwidth
    upper = center + halfwidth
    ys = ys[1:]
    return IntervalSeries(center=center, lower=lower, upper=upper,
                          width=upper - lower,
                          covered=(lower <= ys) & (ys <= upper))


def efficiency_series(stream: Sequence[Example], q0: BivariateGaussian,
                      epsilon: float) -> list[EfficiencyRecord]:
    """`interval_series` as one record per step, from step 2."""
    s = interval_series(*columns(stream), q0, epsilon)
    return [EfficiencyRecord(step, center, lower, upper, width, covered)
            for step, center, lower, upper, width, covered in zip(
                range(2, len(stream) + 1), s.center.tolist(),
                s.lower.tolist(), s.upper.tolist(), s.width.tolist(),
                s.covered.tolist())]
