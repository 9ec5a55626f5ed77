"""Smoothed conformal transducer.

Emits one smoothed p-value per example of a stream:

    p_n = (#{i <= n: a_i < a_n} + tau_n * #{i <= n: a_i == a_n}) / n

where a_i is the conformity score of the i-th example, so the bag
already includes the new example's score, and tau_n is a fresh uniform
tie-breaking draw. Under exchangeable data the emitted
p-values are IID uniform on (0, 1], for any conformity measure that is a
fixed function of the example and its bag; every measure in
`conformity` is one.

`smoothed_pvalues` takes the scores of a stream, in stream order, and
computes every p-value in one array pass: both counts come from
O(n log n) rank queries over rank-compressed scores, in int32 below 2^31
scores, and the taus are drawn as one block, which the formula then
updates in place.
"""

from __future__ import annotations

import numpy as np

from .rng import RandomStream


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
    dtype = np.int32 if n < 2**31 else np.int64
    ranks = np.unique(scores, return_inverse=True)[1].astype(dtype)
    less = np.zeros(n, dtype)
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
    return less, end - start


def smoothed_pvalues(scores: np.ndarray, rng: RandomStream) -> np.ndarray:
    """The p-value of each of a stream's scores, in stream order, as a
    float64 array.

    One tie-breaking uniform is drawn per example, the same draws as one
    `rng.uniforms(1)` call per step. Equal bit for bit to inserting each
    score into a sorted bag and evaluating the formula above one step at a
    time.
    """
    less, equal = _earlier_counts(scores)
    n = len(less)
    # int + float * int, then / int, as one step at a time, on the taus.
    pvalues = rng.uniforms(n)
    pvalues *= equal + 1
    pvalues += less
    pvalues /= np.arange(1, n + 1)
    return pvalues
