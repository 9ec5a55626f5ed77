import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ScoreStore, predict_interval, store_of
from seqconformal import (BivariateGaussian, EfficiencyRecord, Example,
                          RandomStream, columns, efficiency_series,
                          interval_series, residual, sample)

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
        store.insert(abs(residual(q0, z.x, z.y)))
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
