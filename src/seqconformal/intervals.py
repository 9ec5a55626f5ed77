"""Conformal prediction intervals from the predictive-oracle measure.

The oracle score of (x, y) is -r^2 / (2 Var_Q0[Y | X]), a decreasing
function of |r| with r = y - E_Q0[Y | X = x]. The candidate-label sweep
therefore collapses to an order statistic: a label y is kept when its
score is at least the k-th smallest stored score,
k = ceil(eps * (size + 1)), and that is when its |r| is at most the k-th
largest stored |r|. The interval is the conditional mean plus or minus
that |r|, and no score is computed. Excluding the candidate from its
own bag changes ranks by at most 1, an O(1/n) effect. Intervals are
built from unsmoothed p-values and are therefore deterministic.

`interval_series` runs a whole stream, given as x and y arrays, and
tracks the threshold with a two-heap streaming order statistic, O(log n)
per step; `efficiency_series` gives its result as one record per step.
The loop reads one `tolist()` block of `BLOCK_STEPS` steps at a time into
a float64 array. Only the growths of the rank still to come take |r| out
of the heap of the smaller ones, each its largest, so that heap keeps just
that many largest values: no other can reach an interval.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import BivariateGaussian, Example, columns, conditional_mean
from .martingale import BLOCK_STEPS


@dataclass(frozen=True)
class EfficiencyRecord:
    step: int
    center: float
    lower: float
    upper: float
    width: float
    covered: bool


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
    predict from, so the arrays start at step 2; they are empty for a
    stream of fewer than two examples. The half-width at step m + 1 is the
    k-th largest of the m stored |r|, at the conservative rank
    k = ceil(epsilon * (m + 1)), capped at m.

    k never falls and grows by at most one as m grows, so the k largest
    |r| stay in a min-heap and the rest in a max-heap (stored negated);
    the half-width is the top of the min-heap.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    n = len(xs)
    center = conditional_mean(q0, xs)
    abs_r = np.abs(ys - center)
    def rank(m):  # k at m stored |r|, as a float; rank(0) is 0
        return np.minimum(np.ceil(epsilon * (m + 1)), m)
    push, pushpop, pop = heapq.heappush, heapq.heappushpop, heapq.heappop
    largest: list[float] = []  # one value per growth of k so far
    rest: list[float] = []  # negated
    halfwidth = np.empty(max(n - 1, 0))
    for start in range(0, n - 1, BLOCK_STEPS):
        left = int(rank(n - 1)) - len(largest)  # growths still to come
        if len(rest) > 2 * left:  # trimming costs O(1) per step this way
            rest = sorted(rest)[:left]  # a sorted list is a heap
        stop = min(start + BLOCK_STEPS, n - 1)
        grows = np.diff(rank(np.arange(start, stop + 1))) > 0
        halfwidths = []
        for r, grow in zip(abs_r[start:stop].tolist(), grows.tolist()):
            # The smaller of r and the top of largest moves on to rest.
            push(rest, -pushpop(largest, r))
            if grow:
                push(largest, -pop(rest))
            halfwidths.append(largest[0])
        halfwidth[start:stop] = halfwidths
    del abs_r
    center = center[1:]
    upper = center + halfwidth
    lower = np.subtract(center, halfwidth, out=halfwidth)
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
