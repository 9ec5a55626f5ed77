"""The block loop: each stage's state carried across block seams.

A run cuts its stream into blocks of `RUN_BLOCK` steps and carries each
stage's state from one block to the next. Cut anywhere, the stages must
give the bits of one block: the p-values (the sorted bag of earlier
scores), the log10 capitals (the Jumper's capitals, total and scale), the
intervals (the heaps and the half-width owed to the next block) and the
coverage and width sums of each phase.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqconformal import (BivariateGaussian, JumperConfig, Mahalanobis,
                          RandomStream, ScenarioConfig, interval_series,
                          log10_capital, run_scenario, smoothed_pvalues)
from seqconformal import scenario
from seqconformal.intervals import IntervalSeries, interval_block, new_heaps
from seqconformal.martingale import capital_block, jumper_start
from seqconformal.scenario import RUN_BLOCK, _add_to_phases, _PhaseSums
from seqconformal.transducer import add_to_bag, pvalue_block

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
Q0 = BivariateGaussian(0.0, 0.0, 1.0, 1.0, 0.5)
JUMPER = JumperConfig()
# Coordinates from a small pool, so that equal examples, and so equal
# scores, fall on both sides of a seam; +-1e200 is so far out that its
# Mahalanobis score overflows to -inf, and all such examples tie.
COORDINATES = st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 1e200, -1e200])


def in_blocks(xs, ys, n_pre, edges, epsilon, seed):
    """Every stage over the stream cut at edges: the p-values, the log10
    capitals from step 0, the interval columns and each phase's means."""
    n = len(xs)
    with np.errstate(over="ignore"):
        scores = Mahalanobis(Q0).scores(xs, ys)
    rng = RandomStream(seed)
    bag = np.empty(n)
    state, heaps = jumper_start(JUMPER), new_heaps()
    pvalues = [np.array([])]
    logs = [log10_capital(JUMPER, [])]
    columns = {f.name: [] for f in dataclasses.fields(IntervalSeries)}
    sums = _PhaseSums(), _PhaseSums()
    for lo, hi in zip(edges, edges[1:]):
        pvalues.append(pvalue_block(scores[lo:hi], bag[:lo], rng))
        add_to_bag(bag, lo, scores[lo:hi])
        logs.append(np.empty(hi - lo))
        state = capital_block(JUMPER, pvalues[-1], state, logs[-1])
        block, heaps = interval_block(xs[lo:hi], ys[lo:hi], lo, n, Q0,
                                      epsilon, heaps)
        for name, column in columns.items():
            column.append(getattr(block, name))
        _add_to_phases(sums, block, max(lo, 1), n_pre)
    return (np.concatenate(pvalues), np.concatenate(logs),
            {name: np.concatenate(c) for name, c in columns.items()},
            [s.means() for s in sums])


@st.composite
def split_streams(draw):
    """A stream of 1..60 examples, its change point, and block edges from
    0 to n with blocks of 1..n steps; a third of the time the change point
    is an edge, otherwise it may fall inside a block."""
    n = draw(st.integers(1, 60))
    points = st.lists(COORDINATES, min_size=n, max_size=n)
    xs, ys = np.array(draw(points)), np.array(draw(points))
    n_pre = draw(st.integers(0, n))
    inner = set(draw(st.lists(st.integers(1, n - 1), max_size=n))
                if n > 1 else [])
    if 0 < n_pre < n and draw(st.integers(0, 2)) == 0:
        inner.add(n_pre)
    return xs, ys, n_pre, [0, *sorted(inner), n]


@given(stream=split_streams(), epsilon=st.sampled_from([0.05, 0.3, 0.9]),
       seed=st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_block_states_give_the_bits_of_one_block(stream, epsilon, seed):
    xs, ys, n_pre, edges = stream
    pvalues, logs, columns, means = in_blocks(xs, ys, n_pre, edges, epsilon,
                                              seed)
    one_p, one_logs, one_columns, one_means = in_blocks(
        xs, ys, n_pre, [0, len(xs)], epsilon, seed)
    with np.errstate(over="ignore"):
        want_p = smoothed_pvalues(Mahalanobis(Q0).scores(xs, ys),
                                  RandomStream(seed))
    assert pvalues.tobytes() == one_p.tobytes() == want_p.tobytes()
    assert logs.tobytes() == one_logs.tobytes() == \
        log10_capital(JUMPER, want_p).tobytes()
    series = interval_series(xs, ys, Q0, epsilon)
    for name, column in columns.items():
        assert column.tobytes() == one_columns[name].tobytes() == \
            getattr(series, name).tobytes(), name
    assert repr(means) == repr(one_means)


# Scores as the transducer sees them: equal, signed zeros, infinite and NaN.
SCORES = st.sampled_from([-math.inf, -2.0, -0.0, 0.0, 1.5, math.inf,
                          math.nan])


@given(scores=st.lists(SCORES, min_size=1, max_size=60),
       cuts=st.lists(st.integers(1, 59), max_size=10),
       seed=st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_bag_counts_ties_across_seams(scores, cuts, seed):
    # Equal scores on both sides of a seam count as equal, as in one
    # block: -inf with -inf, 0.0 with -0.0, and NaN with NaN (numpy's
    # unique takes all NaNs as one value).
    scores = np.array(scores)
    edges = [0, *sorted({c for c in cuts if c < len(scores)}), len(scores)]
    rng, bag, got = RandomStream(seed), np.empty(len(scores)), []
    for lo, hi in zip(edges, edges[1:]):
        got.append(pvalue_block(scores[lo:hi], bag[:lo], rng))
        add_to_bag(bag, lo, scores[lo:hi])
    want = smoothed_pvalues(scores, RandomStream(seed))
    assert np.concatenate(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [RUN_BLOCK - 1, RUN_BLOCK, RUN_BLOCK + 1,
                               2 * RUN_BLOCK + 1])
def test_run_summary_across_run_blocks(monkeypatch, n):
    # The change point two thirds of the way in: inside the first block,
    # or for 2 RUN_BLOCK + 1 steps inside the second.
    cfg = dataclasses.replace(
        ScenarioConfig.from_file(SCENARIOS / "ensemble_cryptic.cfg"),
        n_pre=2 * n // 3, n_post=n - 2 * n // 3)
    blocks = run_scenario(cfg, write_artifacts=False)
    monkeypatch.setattr(scenario, "RUN_BLOCK", n)
    assert repr(blocks) == repr(run_scenario(cfg, write_artifacts=False))
