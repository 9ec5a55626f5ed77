"""Conformal prediction intervals from the predictive-oracle measure.

The oracle score of (x, y) is -(r / Sd_Q0[Y | X])^2 / 2, a decreasing
function of |r| with r = y - E_Q0[Y | X = x]. The candidate-label sweep
therefore collapses to an order statistic: a label y is kept when its
score is at least the k-th smallest stored score,
k = ceil(eps * (size + 1)), and that is when its |r| is at most the k-th
largest stored |r|. The interval is the conditional mean plus or minus
that |r|, and no score is computed. Excluding the candidate from its
own bag changes ranks by at most 1, an O(1/n) effect. Intervals are
built from unsmoothed p-values and are therefore deterministic.

`interval_block` runs a block of a stream, given as x and y arrays, and
tracks the threshold with a two-heap streaming order statistic, O(log n)
per step. The heaps carry the stream's state from one block to the next:
`heaps` is (largest, rest, top, floor), described below, and top is also
the half-width owed to the first example of the next block. The last
example of the stream is never admitted: no interval uses it.
A stream starts from `new_heaps`.
The loop reads one `tolist()` sub-block of `BLOCK_STEPS` steps at a time
into a float64 array. Only the growths of the rank still to come
take |r| out of the heap of the smaller ones, each its largest, so that
heap keeps just that many largest values: no other can reach an interval.

Two tests keep most |r| away from the heaps. The top of the heap of the
larger ones is kept in a local, and an |r| replaces it only when it is
greater; otherwise it goes on toward the heap of the smaller ones with no
heap call. And each trim sets a floor, the smallest value it kept, below
which no later |r| is pushed. This is exact: after a trim with `left`
growths to come, that heap holds `left` values at or above the floor, and
each of at most `left` pops takes its largest, so a value below the floor
is never popped. The floor stays valid until the next trim replaces it:
each pop removes at most one of the values the trim kept and leaves one
pop fewer to come.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import BivariateGaussian, conditional_mean
from .martingale import BLOCK_STEPS


@dataclass(frozen=True)
class IntervalSeries:
    """The online intervals of steps 2..n, one array entry per step."""

    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    width: np.ndarray
    covered: np.ndarray  # bool


Heaps = tuple[list[float], list[float], float, float]


def new_heaps() -> Heaps:
    """The heaps of a stream before its first example: largest, one value
    per growth of k so far; rest, negated; top, largest[0] and the
    half-width; and floor, below which no |r| can reach largest."""
    return [], [], math.inf, -math.inf


def interval_block(xs: np.ndarray, ys: np.ndarray, first: int, n: int,
                   q0: BivariateGaussian, epsilon: float,
                   heaps: Heaps) -> tuple[IntervalSeries, Heaps]:
    """The intervals of a block of examples (xs[i], ys[i]), examples
    first, first + 1, ... of an n-example stream, given the heaps after
    the examples before it; and the heaps after the block. Example 0 has
    no interval, so a block from 0 gives one interval fewer than its
    examples.

    k never falls and grows by at most one as m grows, so the k largest
    |r| stay in a min-heap and the rest in a max-heap (stored negated);
    the half-width is the top of the min-heap. ValueError unless
    0 < epsilon < 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    center = conditional_mean(q0, xs)
    abs_r = np.abs(ys - center)
    def rank(m):  # k at m stored |r|, as a float; rank(0) is 0
        return np.minimum(np.ceil(epsilon * (m + 1)), m)
    push, replace, pop = heapq.heappush, heapq.heapreplace, heapq.heappop
    largest, rest, top, floor = heaps
    # halfwidth[i] is that of example first + i: the first is owed.
    halfwidth = np.empty(len(xs) + 1)
    halfwidth[0] = top
    admit = max(min(first + len(xs), n - 1) - first, 0)
    for start in range(0, admit, BLOCK_STEPS):
        left = int(rank(n - 1)) - len(largest)  # growths still to come
        if len(rest) > 2 * left:  # trimming costs O(1) per step this way
            rest = sorted(rest)[:left]  # a sorted list is a heap
            floor = -rest[-1] if rest else math.inf
        stop = min(start + BLOCK_STEPS, admit)
        grows = np.diff(rank(np.arange(first + start, first + stop + 1))) > 0
        halfwidths = []
        for r, grow in zip(abs_r[start:stop].tolist(), grows.tolist()):
            # The smaller of r and top moves on toward rest.
            if r > top:
                r = replace(largest, r)
                top = largest[0]
            if not r < floor:  # a NaN |r| is pushed too
                push(rest, -r)
            if grow:
                push(largest, -pop(rest))
                top = largest[0]
            halfwidths.append(top)
        halfwidth[start + 1:stop + 1] = halfwidths
    del abs_r
    skip = 1 if first == 0 else 0  # example 0 has no interval
    center = center[skip:]
    halfwidth = halfwidth[skip:len(xs)]
    upper = center + halfwidth
    lower = np.subtract(center, halfwidth, out=halfwidth)
    ys = ys[skip:]
    return IntervalSeries(center=center, lower=lower, upper=upper,
                          width=upper - lower,
                          covered=(lower <= ys) & (ys <= upper)), (
        largest, rest, top, floor)
