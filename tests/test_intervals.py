import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ScoreStore, predict_interval, store_of, two_heap_series
from seqconformal import intervals
from seqconformal import (BivariateGaussian, EfficiencyRecord, Example,
                          RandomStream, columns, conditional_mean,
                          efficiency_series, interval_series, sample)
from seqconformal.martingale import BLOCK_STEPS

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)
SIGMA_C = math.sqrt(0.75)


class TestPredictInterval:
    def test_zero_residuals_degenerate(self):
        # every stored example sat at the conditional mean, the score peak
        store = store_of([0.0] * 100)
        interval = predict_interval(Q0, store, 2.0, 0.05)
        assert interval.width == 0.0
        assert interval.center == pytest.approx(1.0)

    def test_threshold_one_std_from_mean(self):
        store = store_of([SIGMA_C] * 100)
        interval = predict_interval(Q0, store, 0.0, 0.05)
        assert interval.width == pytest.approx(2 * SIGMA_C)

    def test_halfwidth_is_upper_order_statistic(self):
        # 20 stored |r| = 1..20 at eps 0.1: rank ceil(0.1 * 21) = 3 from the
        # top is 18
        store = store_of([float(r) for r in range(20, 0, -1)])
        interval = predict_interval(Q0, store, 2.0, 0.1)
        assert (interval.lower, interval.upper) == (1.0 - 18.0, 1.0 + 18.0)

    def test_contains_conditional_mean(self):
        stream = sample(Q0, RandomStream(1), 500)
        store = store_of([abs(z.y - 0.5 * z.x) for z in stream])
        for x in (-2.0, 0.0, 3.0):
            interval = predict_interval(Q0, store, x, 0.05)
            assert interval.lower <= interval.center <= interval.upper

    def test_width_nonincreasing_in_epsilon(self):
        rng = np.random.default_rng(0)
        store = store_of(list(3.0 * rng.random(1000)))
        widths = [predict_interval(Q0, store, 0.0, eps).width
                  for eps in (0.01, 0.05, 0.1, 0.3)]
        assert widths == sorted(widths, reverse=True)

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            predict_interval(Q0, ScoreStore(), 0.0, 0.05)

    def test_bad_epsilon_rejected(self):
        store = store_of([0.1])
        with pytest.raises(ValueError):
            predict_interval(Q0, store, 0.0, 0.0)


class TestEfficiencySeries:
    def test_short_stream_gives_empty_arrays(self):
        # The arrays start at step 2, so there is nothing to predict.
        for n in (0, 1):
            series = interval_series(np.zeros(n), np.zeros(n), Q0, 0.05)
            for name in ("center", "lower", "upper", "width", "covered"):
                assert getattr(series, name).shape == (0,), (n, name)
            assert series.covered.dtype == bool

    def test_records_start_at_step_two(self):
        stream = sample(Q0, RandomStream(2), 50)
        records = efficiency_series(stream, Q0, 0.05)
        assert [r.step for r in records] == list(range(2, 51))

    def test_constant_stream_degenerates(self):
        stream = [Example(0.0, 0.0)] * 40
        records = efficiency_series(stream, Q0, 0.05)
        # all scores tie at the peak, so every interval is the point mass
        assert all(r.width == 0.0 for r in records)
        assert all(r.covered for r in records)

    def test_coverage_at_nominal_level(self):
        rng = RandomStream(5)
        stream = sample(Q0, rng, 5000)
        records = efficiency_series(stream, Q0, 0.05)
        coverage = np.mean([r.covered for r in records])
        assert coverage == pytest.approx(0.95, abs=0.02)

    def test_miscoverage_bounded_under_exchangeability(self):
        eps = 0.05
        rng = RandomStream(6)
        stream = sample(Q0, rng, 3000)
        records = efficiency_series(stream, Q0, eps)
        miss = np.mean([not r.covered for r in records])
        se = math.sqrt(eps * (1 - eps) / len(records))
        assert miss <= eps + 3 * se

    def test_width_matches_record_bounds(self):
        stream = sample(Q0, RandomStream(7), 100)
        for r in efficiency_series(stream, Q0, 0.1):
            assert r.width == pytest.approx(r.upper - r.lower)
            assert r.lower <= r.center <= r.upper


def reference_records(stream, q0, epsilon):
    """predict_interval at every step against a store of the earlier |r|."""
    store = ScoreStore()
    records = []
    for step, z in enumerate(stream, start=1):
        if step > 1:
            interval = predict_interval(q0, store, z.x, epsilon,
                                        step_index=step)
            records.append(EfficiencyRecord(
                step=step, center=interval.center, lower=interval.lower,
                upper=interval.upper, width=interval.width,
                covered=interval.contains(z.y)))
        store.insert(abs(z.y - conditional_mean(q0, z.x)))
    return records


class TestStreamingThreshold:
    # Integer coordinates make many residuals tie exactly.
    @given(points=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=0, max_size=300),
           epsilon=st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_equals_predict_interval_bit_for_bit(self, points, epsilon):
        stream = [Example(float(x), float(y)) for x, y in points]
        got = efficiency_series(stream, Q0, epsilon)
        assert repr(got) == repr(reference_records(stream, Q0, epsilon))

    @pytest.mark.parametrize("epsilon", [0.01, 0.5])
    def test_sampled_stream_bit_for_bit(self, epsilon):
        q1 = BivariateGaussian(1.0, 2.0, 1.0, 1.0, 0.5)
        stream = (sample(Q0, RandomStream(9), 400)
                  + sample(q1, RandomStream(10), 400))
        got = efficiency_series(stream, Q0, epsilon)
        assert repr(got) == repr(reference_records(stream, Q0, epsilon))

    def test_arrays_match_records(self):
        stream = sample(Q0, RandomStream(11), 200)
        series = interval_series(*columns(stream), Q0, 0.05)
        records = efficiency_series(stream, Q0, 0.05)
        assert series.width.tolist() == [r.width for r in records]
        assert series.covered.tolist() == [r.covered for r in records]

    def test_all_equal_scores(self):
        stream = [Example(1.0, 0.5 + 0.5 * math.sqrt(0.75))] * 30
        assert (repr(efficiency_series(stream, Q0, 0.01))
                == repr(reference_records(stream, Q0, 0.01)))

    def test_far_residual_sets_the_interval(self):
        # As a density, the oracle score of y = 100 at x = 0 would underflow
        # to 0.0. Its |r| = 100 is the largest stored residual and the
        # half-width.
        stream = [Example(0.0, 100.0), Example(0.0, 0.0), Example(0.0, 0.0)]
        want = [EfficiencyRecord(step, 0.0, -100.0, 100.0, 200.0, True)
                for step in (2, 3)]
        assert efficiency_series(stream, Q0, 0.05) == want
        assert reference_records(stream, Q0, 0.05) == want

    def test_bad_epsilon_rejected(self):
        stream = sample(Q0, RandomStream(12), 10)
        for epsilon in (0.0, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                efficiency_series(stream, Q0, epsilon)


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
    trim kept; the intervals must equal those of one loop that keeps every
    |r| (`reference.two_heap_series`) bit for bit."""

    # Stream lengths whose n - 1 intervals end one short of, on, and one
    # past a block boundary, and one past the second and the third.
    @pytest.mark.parametrize("intervals_count",
                             [B - 1, B, B + 1, 2 * B + 1, 3 * B + 1])
    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.5, 0.9])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_equals_untrimmed_two_heap_loop(self, pattern, intervals_count,
                                            epsilon):
        n = intervals_count + 1
        ys = PATTERNS[pattern](n, epsilon)
        xs = np.zeros(n)
        assert_same_bits(interval_series(xs, ys, Q0, epsilon),
                         two_heap_series(xs, ys, Q0, epsilon))

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
        want = two_heap_series(xs, ys, Q0, 0.5)
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
