import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ScoreStore, lag1_autocorrelation, observe, store_of
from seqconformal import (BivariateGaussian, PredictiveOracle, RandomStream,
                          ks_uniform, sample_arrays, smoothed_pvalues)

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)


def oracle_scores(rng: RandomStream, n: int) -> np.ndarray:
    """The oracle scores of n examples drawn from Q0 by rng."""
    return PredictiveOracle(Q0).scores(*sample_arrays(Q0, rng, n))


class TestScoreStore:
    def test_rank_counts_partition(self):
        store = store_of([1.0, 2.0, 2.0, 3.0])
        for alpha in (0.5, 1.0, 2.0, 2.5, 3.0, 9.0):
            less = store.count_less(alpha)
            equal = store.count_equal(alpha)
            greater = store.size - less - equal
            assert less + equal + greater == store.size
            assert greater >= 0

    def test_kth_smallest(self):
        store = store_of([3.0, 1.0, 2.0])
        assert [store.kth_smallest(k) for k in (1, 2, 3)] == [1.0, 2.0, 3.0]
        with pytest.raises(IndexError):
            store.kth_smallest(0)
        with pytest.raises(IndexError):
            store.kth_smallest(4)


class TestObserve:
    def test_first_example_returns_tau(self):
        store = store_of([42.0])
        assert observe(store, 42.0, 0.37) == pytest.approx(0.37)

    def test_hand_computed_smoothing(self):
        store = store_of([1.0, 2.0, 3.0])
        assert observe(store, 3.0, 0.5) == pytest.approx((2 + 0.5) / 3)

    def test_all_ties_extremes(self):
        store = store_of([5.0, 5.0, 5.0])
        assert observe(store, 5.0, 0.0) == 0.0
        assert observe(store, 5.0, 1.0) == 1.0

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            observe(ScoreStore(), 1.0, 0.5)

    def test_bad_tau_rejected(self):
        store = store_of([1.0])
        with pytest.raises(ValueError):
            observe(store, 1.0, 1.5)

    @given(base=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           lo=st.floats(-100, 100), hi=st.floats(-100, 100),
           tau=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_alpha(self, base, lo, hi, tau):
        a1, a2 = sorted((lo, hi))
        p1 = observe(store_of(base + [a1]), a1, tau)
        p2 = observe(store_of(base + [a2]), a2, tau)
        assert p1 <= p2 + 1e-12


class TestSmoothedPvalues:
    def test_empty_stream(self):
        pvals = smoothed_pvalues(np.empty(0), RandomStream(1))
        assert pvals.shape == (0,) and pvals.dtype == np.float64

    def test_one_pvalue_per_example_in_order(self):
        scores = oracle_scores(RandomStream(2).substream(0), 100)
        pvals = smoothed_pvalues(scores, RandomStream(2).substream(1))
        assert len(pvals) == 100
        # p-value i depends on scores 1..i only
        head = smoothed_pvalues(scores[:40], RandomStream(2).substream(1))
        assert head.tolist() == pvals[:40].tolist()

    def test_pvalues_in_unit_interval(self):
        scores = oracle_scores(RandomStream(3).substream(0), 500)
        pvals = smoothed_pvalues(scores, RandomStream(3).substream(1))
        assert ((0.0 < pvals) & (pvals <= 1.0)).all()

    def test_deterministic_given_seed(self):
        scores = oracle_scores(RandomStream(4).substream(0), 200)
        a = smoothed_pvalues(scores, RandomStream(9))
        b = smoothed_pvalues(scores, RandomStream(9))
        assert a.tobytes() == b.tobytes()

    def test_uniform_under_iid(self):
        # KS uniformity at alpha=0.01 should hold for nearly every seed
        rejections = 0
        for seed in range(20):
            rng = RandomStream(300 + seed)
            pvals = smoothed_pvalues(oracle_scores(rng.substream(0), 2000),
                                     rng.substream(1))
            rejections += ks_uniform(pvals, alpha=0.01).reject
        assert rejections <= 2

    def test_lag1_autocorrelation_near_zero(self):
        n = 5000
        rng = RandomStream(77)
        pvals = smoothed_pvalues(oracle_scores(rng.substream(0), n),
                                 rng.substream(1))
        assert abs(lag1_autocorrelation(pvals)) < 4 / np.sqrt(n)


def reference_pvalues(scores, rng):
    """Fold ScoreStore.insert and observe over the scores, one step at a time."""
    store = ScoreStore()
    out = []
    for alpha in scores:
        store.insert(alpha)
        out.append(observe(store, alpha, rng.uniforms(1).item()))
    return out


class TestArrayPass:
    @given(scores=st.one_of(
               st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
                        min_size=1, max_size=300),
               st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
               st.builds(lambda n, s: [s] * n, st.integers(1, 300),
                         st.integers(0, 5).map(float))),
           seed=st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_equals_per_step_reference_bit_for_bit(self, scores, seed):
        got = smoothed_pvalues(np.array(scores), RandomStream(seed))
        want = reference_pvalues(scores, RandomStream(seed))
        assert got.tobytes() == np.array(want).tobytes()
