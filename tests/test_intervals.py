import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ScoreStore, predict_interval
from seqconformal import intervals
from seqconformal import (BivariateGaussian, RandomStream, conditional_mean,
                          interval_series, sample_arrays)
from seqconformal.intervals import IntervalSeries
from seqconformal.martingale import BLOCK_STEPS

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)
SIGMA_C = math.sqrt(0.75)


class TestIntervalSeries:
    def test_short_stream_gives_empty_arrays(self):
        # The arrays start at step 2, so there is nothing to predict.
        for n in (0, 1):
            series = interval_series(np.zeros(n), np.zeros(n), Q0, 0.05)
            for name in ("center", "lower", "upper", "width", "covered"):
                assert getattr(series, name).shape == (0,), (n, name)
            assert series.covered.dtype == bool

    def test_arrays_start_at_step_two(self):
        series = interval_series(*sample_arrays(Q0, RandomStream(2), 50), Q0,
                                 0.05)
        assert len(series.width) == 49

    def test_constant_stream_degenerates(self):
        series = interval_series(np.zeros(40), np.zeros(40), Q0, 0.05)
        # all scores tie at the peak, so every interval is the point mass
        assert (series.width == 0.0).all()
        assert series.covered.all()

    # x = 0 puts every center at 0. Before the 21st example the 20 stored
    # |r| are 20, 19, ..., 1; rank ceil(eps * 21) from the top is the
    # half-width: at eps 0.1, rank 3 is 18.
    @pytest.mark.parametrize("eps,halfwidth", [(0.01, 20.0), (0.05, 19.0),
                                               (0.1, 18.0), (0.2, 16.0),
                                               (0.5, 10.0), (0.9, 2.0)])
    def test_halfwidth_is_upper_order_statistic(self, eps, halfwidth):
        ys = np.arange(20.0, -1.0, -1.0)
        series = interval_series(np.zeros(21), ys, Q0, eps)
        assert (series.lower[-1], series.upper[-1]) == (-halfwidth, halfwidth)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.5])
    def test_threshold_one_sd_from_mean(self, eps):
        series = interval_series(np.zeros(100), np.full(100, SIGMA_C), Q0,
                                 eps)
        assert (series.width == 2 * SIGMA_C).all()

    def test_zero_residuals_degenerate_at_the_conditional_mean(self):
        # Every example sits at E[Y | X = 2] = 1, the score peak.
        series = interval_series(np.full(30, 2.0), np.full(30, 1.0), Q0,
                                 0.05)
        assert (series.width == 0.0).all()
        assert (series.center == 1.0).all()
        assert series.covered.all()

    def test_center_is_the_conditional_mean(self):
        xs, ys = sample_arrays(Q0, RandomStream(1), 500)
        series = interval_series(xs, ys, Q0, 0.05)
        assert series.center.tolist() == conditional_mean(Q0, xs[1:]).tolist()

    def test_width_nonincreasing_in_epsilon(self):
        xs, ys = sample_arrays(Q0, RandomStream(1), 1000)
        widths = [interval_series(xs, ys, Q0, eps).width
                  for eps in (0.01, 0.05, 0.1, 0.3)]
        for wider, narrower in zip(widths, widths[1:]):
            assert (wider >= narrower).all()

    def test_coverage_at_nominal_level(self):
        rng = RandomStream(5)
        series = interval_series(*sample_arrays(Q0, rng, 5000), Q0, 0.05)
        coverage = np.mean(series.covered)
        assert coverage == pytest.approx(0.95, abs=0.02)

    def test_miscoverage_bounded_under_exchangeability(self):
        eps = 0.05
        rng = RandomStream(6)
        series = interval_series(*sample_arrays(Q0, rng, 3000), Q0, eps)
        miss = np.mean(~series.covered)
        se = math.sqrt(eps * (1 - eps) / series.covered.size)
        assert miss <= eps + 3 * se

    def test_width_matches_bounds(self):
        series = interval_series(*sample_arrays(Q0, RandomStream(7), 100),
                                 Q0, 0.1)
        assert series.width == pytest.approx(series.upper - series.lower)
        assert ((series.lower <= series.center)
                & (series.center <= series.upper)).all()


def reference_series(xs, ys, q0, epsilon):
    """predict_interval at every step against a store of the earlier |r|."""
    store = ScoreStore()
    rows = []
    for step, (x, y) in enumerate(zip(xs.tolist(), ys.tolist()), start=1):
        if step > 1:
            center, lower, upper = predict_interval(q0, store, x, epsilon)
            rows.append((center, lower, upper, upper - lower,
                         lower <= y <= upper))
        store.insert(abs(y - conditional_mean(q0, x)))
    center, lower, upper, width, covered = np.array(
        rows, dtype=np.float64).reshape(-1, 5).T
    return IntervalSeries(center=center, lower=lower, upper=upper,
                          width=width, covered=covered == 1.0)


class TestStreamingThreshold:
    # Integer coordinates make many residuals tie exactly.
    @given(points=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=0, max_size=300),
           epsilon=st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_equals_predict_interval_bit_for_bit(self, points, epsilon):
        xs, ys = np.array(points, dtype=np.float64).reshape(-1, 2).T
        assert_same_bits(interval_series(xs, ys, Q0, epsilon),
                         reference_series(xs, ys, Q0, epsilon))

    @pytest.mark.parametrize("epsilon", [0.01, 0.5])
    def test_sampled_stream_bit_for_bit(self, epsilon):
        q1 = BivariateGaussian(1.0, 2.0, 1.0, 1.0, 0.5)
        xs, ys = np.concatenate([sample_arrays(Q0, RandomStream(9), 400),
                                 sample_arrays(q1, RandomStream(10), 400)],
                                axis=1)
        assert_same_bits(interval_series(xs, ys, Q0, epsilon),
                         reference_series(xs, ys, Q0, epsilon))

    def test_all_equal_scores(self):
        xs = np.full(30, 1.0)
        ys = np.full(30, 0.5 + 0.5 * math.sqrt(0.75))
        assert_same_bits(interval_series(xs, ys, Q0, 0.01),
                         reference_series(xs, ys, Q0, 0.01))

    def test_far_residual_sets_the_interval(self):
        # As a density, the oracle score of y = 100 at x = 0 would underflow
        # to 0.0. Its |r| = 100 is the largest stored residual and the
        # half-width.
        xs, ys = np.zeros(3), np.array([100.0, 0.0, 0.0])
        want = IntervalSeries(center=np.zeros(2), lower=np.full(2, -100.0),
                              upper=np.full(2, 100.0), width=np.full(2, 200.0),
                              covered=np.ones(2, dtype=bool))
        assert_same_bits(interval_series(xs, ys, Q0, 0.05), want)
        assert_same_bits(reference_series(xs, ys, Q0, 0.05), want)

    def test_bad_epsilon_rejected(self):
        xs, ys = sample_arrays(Q0, RandomStream(12), 10)
        for epsilon in (0.0, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                interval_series(xs, ys, Q0, epsilon)


def assert_same_bits(got, want):
    for name in ("center", "lower", "upper", "width", "covered"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


B = BLOCK_STEPS


def falling(n):
    """n distinct |r|, largest first (abs of normals, sorted)."""
    return np.sort(np.abs(np.random.default_rng(n).standard_normal(n)))[::-1]


def falling_late(n, epsilon):
    """`falling`, but at the step of the last growth of k, the |r| halfway
    between the k-th and (k - 1)-th largest of the others, k = the last k.

    Once the smaller heap has been trimmed, those two are the smallest
    values it keeps. The late |r| lies between them, and the last growth
    takes it: a floor one rank too high would drop it, and the last
    interval would change."""
    ys = falling(n)
    m = np.arange(n)
    rank = np.minimum(np.ceil(epsilon * (m + 1)), m).astype(int)
    k = rank[n - 1]
    last_growth = int(np.argmax(rank[1:] == k))  # 0-based, among the |r|
    if k >= 2:
        ys[last_growth] = (ys[k - 1] + ys[k - 2]) / 2
    return ys


PATTERNS = {
    # x = 0 puts every center at 0, so |r| = |y|. Integers make ties
    # everywhere, at the floor value too.
    "integers": lambda n, epsilon: np.random.default_rng(n - 1).integers(
        -20, 21, n).astype(float),
    "falling": lambda n, epsilon: falling(n),
    "rising": lambda n, epsilon: falling(n)[::-1].copy(),
    "falling_late": falling_late,
}


class TestBlockBoundaries:
    """The loop reads BLOCK_STEPS steps per block, trims the smaller heap
    between blocks and drops every later |r| below the smallest value a
    trim kept; the intervals must equal `reference_series`, which keeps
    every |r|, bit for bit."""

    # Stream lengths whose n - 1 intervals end one short of, on, and one
    # past a block boundary, and one past the second and the third.
    @pytest.mark.parametrize("intervals_count",
                             [B - 1, B, B + 1, 2 * B + 1, 3 * B + 1])
    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.5, 0.9])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_equals_predict_interval(self, pattern, intervals_count,
                                     epsilon):
        n = intervals_count + 1
        ys = PATTERNS[pattern](n, epsilon)
        xs = np.zeros(n)
        assert_same_bits(interval_series(xs, ys, Q0, epsilon),
                         reference_series(xs, ys, Q0, epsilon))

    def test_trimming_drops_values(self, monkeypatch):
        # At epsilon = 1/2 over 4B intervals, k at m stored |r| is
        # m // 2 + 1 for m >= 1 (ceil((m + 1) / 2)), so the last k is
        # 2B + 1. With |r| falling along the stream no |r| passes the top
        # of largest, so each |r| is pushed onto rest, unless it is below
        # the floor, and each growth moves the top of rest to largest.
        # Blocks 0, 1 and 2 push all 3B of their |r| and pop 1.5B + 1. At
        # the start of block 3 (m = 3B) largest holds 1.5B + 1 values and
        # rest 1.5B - 1; 0.5B growths are left, fewer than half of rest,
        # so rest keeps its 0.5B largest, drops B - 1 values and sets the
        # floor to the smallest kept. Every |r| of block 3 is below the
        # floor and is not pushed, and the 0.5B pops empty rest, where a
        # loop that keeps every |r| ends with 4B - (2B + 1) values.
        heaps = {}  # the heaps the loop last pushed onto or popped, by role
        pushes = {"largest": 0, "rest": 0}

        def push(heap, item):
            # rest holds negated |r|; every |r| here is positive
            role = "rest" if item < 0 else "largest"
            heaps[role] = heap
            pushes[role] += 1
            heapq.heappush(heap, item)

        def replace(heap, item):
            raise AssertionError("no |r| passes the top of largest")

        def pop(heap):
            heaps["rest"] = heap  # the trim makes a new list
            return heapq.heappop(heap)

        class CountingHeapq:
            heappush = staticmethod(push)
            heapreplace = staticmethod(replace)
            heappop = staticmethod(pop)

        n = 4 * B + 1
        ys = falling(n)
        xs = np.zeros(n)
        want = reference_series(xs, ys, Q0, 0.5)
        monkeypatch.setattr(intervals, "heapq", CountingHeapq)
        got = interval_series(xs, ys, Q0, 0.5)
        largest, rest = heaps["largest"], heaps["rest"]
        assert len(largest) == pushes["largest"] == 2 * B + 1
        assert pushes["rest"] == 3 * B
        assert len(rest) == 0
        # The growths take exactly the kept values, and the last of them,
        # the 2B + 1-th largest |r|, is the last half-width: rest keeping
        # one fewer would change the last interval.
        assert got.upper[-1] == ys[2 * B]
        assert_same_bits(got, want)
