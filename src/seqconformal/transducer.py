"""Smoothed conformal transducer.

Emits one smoothed p-value per example of a stream:

    p_n = (#{i <= n: a_i < a_n} + tau_n * #{i <= n: a_i == a_n}) / n

where a_i is the conformity score of the i-th example, so the bag
already includes the new example's score, and tau_n is a fresh uniform
tie-breaking draw from [0, 1). Under exchangeable data the p-values are
IID uniform on [0, 1) for any conformity measure that is a fixed function
of the example and its bag; every measure in `conformity` is one. Float64
p-values lie in [0, 1]: p_n = 0 needs tau_n = 0.0, p_n = 1 a numerator
that rounds up to n, each a chance of at most n * 2^-53 per step.

`pvalue_block` takes the scores of a block of the stream, in stream order,
and the scores of the steps before it as a sorted array, the bag; it
computes the block's p-values in one array pass. The counts within the
block come from O(b log b) rank queries over rank-compressed scores, in
int32 below 2^31 scores; the earlier scores add a binary search of the
bag per distinct score of the block. The taus are drawn as one block,
which the formula then updates in place. `add_to_bag` merges a block into
the bag, so a run holds the bag (8 B per step) and O(b) working arrays.
A whole stream is one block with an empty bag.
"""

from __future__ import annotations

import numpy as np

from .rng import RandomStream


def _earlier_counts(scores: np.ndarray,
                    bag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each i, #{s < s_i} and #{s == s_i} over the earlier scores: the
    scores s_j, j < i, and every score of the sorted array bag.

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
    dtype = np.int32 if len(bag) + n < 2**31 else np.int64
    values, ranks = np.unique(scores, return_inverse=True)
    ranks = ranks.astype(dtype)
    less = np.zeros(n, dtype)
    tied = 0
    if len(bag):
        below = np.searchsorted(bag, values)
        # A value not below its bag entry equals it, or is a NaN there
        # (numpy sorts NaN last); only those need the second search.
        hit = np.flatnonzero(below < len(bag))
        hit = hit[~(values[hit] < bag[below[hit]])]
        ties = np.zeros(len(values), dtype)
        ties[hit] = np.searchsorted(bag, values[hit], "right") - below[hit]
        less += below[ranks]
        tied = ties[ranks]
    del values
    start = np.zeros(n, dtype)
    end = np.arange(n, dtype=dtype)
    level = ranks.copy()  # the ranks in the order of the current level
    zeros = np.zeros(n + 1, dtype)  # clear bits before each position
    for bit in reversed(range(int(ranks.max(initial=0)).bit_length())):
        np.cumsum((level >> bit) & 1 == 0, out=zeros[1:])
        one = (ranks >> bit) & 1
        zs, ze = zeros[start], zeros[end]
        less += (ze - zs) * one
        # Clear bit: the run maps to [zs, ze). Set bit: past all zeros[-1]
        # clear bits, to [start - zs, end - ze) shifted by zeros[-1].
        start = zs + one * (start + zeros[-1] - 2 * zs)
        end = ze + one * (end + zeros[-1] - 2 * ze)
        level[end] = ranks
    return less, end - start + tied


def pvalue_block(scores: np.ndarray, bag: np.ndarray,
                 rng: RandomStream) -> np.ndarray:
    """The p-value of each score of a block, in stream order, as a float64
    array, where the sorted array bag holds the scores of the steps before
    the block.

    One tie-breaking uniform is drawn per example, the same draws as one
    `rng.uniforms(1)` call per step. Equal bit for bit to inserting each
    score into a sorted bag and evaluating the formula above one step at a
    time.
    """
    less, equal = _earlier_counts(scores, bag)
    n, m = len(less), len(bag)
    # int + float * int, then / int, as one step at a time, on the taus.
    pvalues = rng.uniforms(n)
    pvalues *= equal + 1
    pvalues += less
    pvalues /= np.arange(m + 1, m + n + 1)
    return pvalues


def add_to_bag(bag: np.ndarray, size: int, scores: np.ndarray) -> None:
    """Merge scores into the bag bag[:size], which is sorted, so that
    bag[:size + len(scores)] is sorted."""
    stop = size + len(scores)
    bag[size:stop] = scores
    bag[size:stop].sort()
    # numpy's stable sort is a timsort: it merges the two sorted runs in
    # O(stop) time and O(len(scores)) memory.
    bag[:stop].sort(kind="stable")
