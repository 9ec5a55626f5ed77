"""A Monitor fed in blocks: each stage's state carried across block seams.

A `Monitor` takes its stream in blocks of any size and carries each
stage's state from one block to the next. Cut anywhere, it must give the
bits of `run_scenario`, which feeds it blocks of `RUN_BLOCK` steps: the
p-values (the sorted bag of earlier scores), the log10 capitals (the
Jumper's capitals, total and scale), the intervals (the heaps and the
half-width owed to the next block) and the summary (the coverage and
width sums of each phase).
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqconformal import (BivariateGaussian, ConfigError, Monitor,
                          RandomStream, ScenarioConfig, run_scenario)
from seqconformal import scenario
from seqconformal.config import MeasureSpec
from seqconformal.intervals import IntervalSeries
from seqconformal.scenario import RUN_BLOCK
from seqconformal.transducer import add_to_bag, pvalue_block

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
Q0 = BivariateGaussian(0.0, 0.0, 1.0, 1.0, 0.5)
# A post-change model so far out that the Mahalanobis score of every post
# example overflows to -inf: all such examples tie, on both sides of a seam.
FAR = BivariateGaussian(1e200, 0.0, 1.0, 1.0, 0.5)
COLUMNS = ("pvalue", "log10_capital",
           *(f.name for f in dataclasses.fields(IntervalSeries)))


def config(n_pre, n_post, post=Q0, epsilon=0.05, seed=7):
    return ScenarioConfig(Q0, post, n_pre, n_post, seed,
                          measure=MeasureSpec("mahalanobis"),
                          epsilon=epsilon)


def run_columns(cfg):
    """run_scenario's draws, p-values, log10 capitals from step 1 and
    interval columns, read back from its artifacts (%.17g round-trips
    floats), and its summary."""
    with tempfile.TemporaryDirectory() as out:
        summary = run_scenario(cfg, output_dir=Path(out))

        def column(name, i):
            rows = (Path(out) / name).read_text().splitlines()[1:]
            return np.array([float(row.split(",")[i]) for row in rows])

        names = ("center", "lower", "upper", "width")
        return (column("stream.csv", 1), column("stream.csv", 2), {
            "pvalue": column("pvalues.csv", 1),
            "log10_capital": column("martingale.csv", 1)[1:],
            **{name: column("intervals.csv", i + 1)
               for i, name in enumerate(names)},
            "covered": column("intervals.csv", 5) == 1.0}, summary)


def assert_bits_of_run(cfg, edges):
    """A Monitor fed run_scenario's stream cut at edges gives its bits."""
    xs, ys, want, summary = run_columns(cfg)
    monitor = Monitor(cfg)
    blocks = [monitor.feed(xs[lo:hi], ys[lo:hi])
              for lo, hi in zip(edges, edges[1:])]
    got = {"pvalue": [b.pvalues for b in blocks],
           "log10_capital": [b.log10_capital for b in blocks],
           **{name: [getattr(b.intervals, name) for b in blocks]
              for name in COLUMNS[2:]}}
    for name in COLUMNS:
        column = np.concatenate(got[name])
        assert column.dtype == want[name].dtype, name
        assert column.tobytes() == want[name].tobytes(), name
    assert repr(monitor.finish()) == repr(summary)


@st.composite
def split_streams(draw):
    """A stream of 1..60 examples, its change point, and block edges from
    0 to n with blocks of 1..n steps; a third of the time the change point
    is an edge, otherwise it may fall inside a block."""
    n = draw(st.integers(1, 60))
    n_pre = draw(st.integers(0, n))
    inner = set(draw(st.lists(st.integers(1, n - 1), max_size=n))
                if n > 1 else [])
    if 0 < n_pre < n and draw(st.integers(0, 2)) == 0:
        inner.add(n_pre)
    return n_pre, n - n_pre, [0, *sorted(inner), n]


@given(stream=split_streams(), post=st.sampled_from([Q0, FAR]),
       epsilon=st.sampled_from([0.05, 0.3, 0.9]),
       seed=st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_monitor_in_blocks_gives_the_bits_of_run_scenario(stream, post,
                                                          epsilon, seed):
    n_pre, n_post, edges = stream
    assert_bits_of_run(config(n_pre, n_post, post, epsilon, seed), edges)


@pytest.mark.parametrize("post", [Q0, FAR])
def test_one_example_at_a_time(post):
    assert_bits_of_run(config(300, 300, post), list(range(601)))


@pytest.mark.parametrize("fed,x,y", [(600, 1, 1), (599, 2, 2), (0, 601, 601),
                                     (5, 0, 0), (5, 3, 1), (5, 1, 3)])
def test_a_block_past_the_end_empty_or_ragged_raises(fed, x, y):
    monitor = Monitor(config(300, 300))
    if fed:
        monitor.feed(np.zeros(fed), np.ones(fed))
    with pytest.raises(ValueError, match=f"{fed} of 600 examples fed: {x} x "
                       f"and {y} y are not 1 to {600 - fed} of each"):
        monitor.feed(np.zeros(x), np.ones(y))


def test_a_stream_too_long_to_allocate_is_a_config_error():
    # numpy refuses 10**30 steps before it allocates anything.
    with pytest.raises(ConfigError, match=r"'n_pre/n_post': a stream of "
                       rf"{10**30 + 300} steps cannot be allocated: "):
        Monitor(config(10**30, 300))


@pytest.mark.parametrize("fed", [0, 1, 599])
def test_finish_before_the_end_raises(fed):
    monitor = Monitor(config(300, 300))
    if fed:
        monitor.feed(np.zeros(fed), np.ones(fed))
    with pytest.raises(ValueError, match=f"finish after {fed} of 600 "
                       "examples"):
        monitor.finish()


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
    want = pvalue_block(scores, np.empty(0), RandomStream(seed))
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
