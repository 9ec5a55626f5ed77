"""Smoothed conformal transducer.

Emits one smoothed p-value per example of a stream:

    p_n = (#{i <= n: a_i < a_n} + tau_n * #{i <= n: a_i == a_n}) / n

where a_i is the conformity score of the i-th example, so the bag
already includes the new example's score, and tau_n is a fresh uniform
tie-breaking draw. Under exchangeable data the emitted
p-values are IID uniform on (0, 1], for any conformity measure.

`smoothed_pvalues` computes every p-value of a stream in one array pass:
both counts come from O(n log n) rank queries over rank-compressed
scores, and the taus are drawn as one block. `ScoreStore` and `observe`
are the same computation one step at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .conformity import ConformityMeasure
from .gaussian import Example
from .rng import RandomStream


class ScoreStore:
    """Sorted multiset of scores with rank queries.

    Backed by a sorted buffer: O(log n) rank queries, O(n) memmove on
    insert. Folding a whole stream through it therefore costs O(n^2),
    which is why the stream stages do not use it; it serves single-step
    queries (`observe`, `predict_interval`).
    """

    def __init__(self):
        self._scores: list[float] = []

    @property
    def size(self) -> int:
        return len(self._scores)

    def insert(self, alpha: float) -> None:
        insort(self._scores, alpha)

    def count_less(self, alpha: float) -> int:
        return bisect_left(self._scores, alpha)

    def count_equal(self, alpha: float) -> int:
        return bisect_right(self._scores, alpha) - bisect_left(self._scores, alpha)

    def kth_smallest(self, k: int) -> float:
        """1-based order statistic."""
        if not 1 <= k <= len(self._scores):
            raise IndexError(f"rank {k} out of range for store of size {len(self._scores)}")
        return self._scores[k - 1]


@dataclass(frozen=True)
class PValue:
    value: float
    step_index: int


def observe(store: ScoreStore, alpha_n: float, tau: float) -> PValue:
    """Smoothed p-value of alpha_n against the store.

    alpha_n must already have been inserted (the bag includes the new
    example), so count_equal >= 1 and the result lies in [tau/n, 1].
    """
    if store.size == 0:
        raise ValueError("score store is empty")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    p = (store.count_less(alpha_n) + tau * store.count_equal(alpha_n)) / store.size
    return PValue(p, store.size)


def _earlier_counts(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each i, #{j < i: s_j < s_i} and #{j < i: s_j == s_i}.

    The scores are compressed to ranks and laid out as a wavelet matrix
    (Claude, Navarro & Ordonez, "The wavelet matrix", 2015): one level per
    rank bit, top bit first, each level a stable partition of the one above
    by that bit, clear bits first. At every level the earlier elements that
    share element i's higher bits sit in one run [start, end), and i itself
    sits at end. Where i has the bit set, the clear-bit elements of that
    run are the earlier scores below it that first differ from it at this
    bit. After the last level the run holds the earlier equal scores. All n
    queries descend together: O(n log n) time, O(n) memory.
    """
    n = len(scores)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    _, ranks = np.unique(scores, return_inverse=True)
    less = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.int64)
    end = np.arange(n, dtype=np.int64)
    level = ranks.copy()  # the ranks in the order of the current level
    zeros = np.zeros(n + 1, dtype=np.int64)  # clear bits before each position
    for bit in reversed(range(int(ranks.max()).bit_length())):
        np.cumsum((level >> bit) & 1 == 0, out=zeros[1:])
        one = (ranks >> bit) & 1
        zs, ze = zeros[start], zeros[end]
        less += (ze - zs) * one
        # Clear bit: the run maps to [zs, ze). Set bit: past all zeros[-1]
        # clear bits, to [start - zs, end - ze) shifted by zeros[-1].
        start = zs + one * (start + zeros[-1] - 2 * zs)
        end = ze + one * (end + zeros[-1] - 2 * ze)
        level[end] = ranks
    return less, end - start


def smoothed_pvalues(measure: ConformityMeasure, stream: Iterable[Example],
                     rng: RandomStream) -> np.ndarray:
    """The p-value of every example of the stream, as a float64 array.

    The measure is reset and scores the stream in order; one tie-breaking
    uniform is drawn per example, the same draws as one `rng.uniform()`
    call per step. Equal bit for bit to folding `ScoreStore.insert` and
    `observe` over the stream.
    """
    measure.reset()
    scores = np.array([measure.score(z) for z in stream], dtype=np.float64)
    n = len(scores)
    taus = rng.uniforms(n)
    less, equal = _earlier_counts(scores)
    # The same IEEE operations as observe: int + float * int, then / int.
    return (less + taus * (equal + 1)) / np.arange(1, n + 1)


def run_transducer(measure: ConformityMeasure,
                   stream: Iterable[Example],
                   rng: RandomStream) -> list[PValue]:
    """Feed a stream through the transducer, one p-value per example.

    One tie-breaking uniform is consumed per example. Stateful measures
    (the convex ensemble) are reset at the start of the run.
    """
    values = smoothed_pvalues(measure, stream, rng).tolist()
    return [PValue(v, i) for i, v in enumerate(values, start=1)]
