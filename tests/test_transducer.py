import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ScoreStore, observe
from seqconformal import (BivariateGaussian, PredictiveOracle, RandomStream,
                          sample_arrays, smoothed_pvalues)

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)


def oracle_scores(rng: RandomStream, n: int) -> np.ndarray:
    """The oracle scores of n examples drawn from Q0 by rng."""
    return PredictiveOracle(Q0).scores(*sample_arrays(Q0, rng, n))


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
        assert ((0.0 <= pvals) & (pvals <= 1.0)).all()

    def test_extreme_taus_reach_both_ends(self):
        # tau = 0.0 with no smaller earlier score gives p = 0, and the
        # largest tau, 1 - 2**-53, rounds 1 + tau up to 2, so p = 2 / 2:
        # float64 p-values lie in [0, 1], both ends included.
        class Taus:
            def uniforms(self, n):
                return np.array([0.0, 1.0 - 2.0**-53])
        pvals = smoothed_pvalues(np.array([1.0, 2.0]), Taus())
        assert pvals.tolist() == [0.0, 1.0]

    def test_deterministic_given_seed(self):
        scores = oracle_scores(RandomStream(4).substream(0), 200)
        a = smoothed_pvalues(scores, RandomStream(9))
        b = smoothed_pvalues(scores, RandomStream(9))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("score", [42.0, 0.0, -np.inf])
    def test_one_score_gives_its_tau(self, score):
        pvals = smoothed_pvalues(np.array([score]), RandomStream(5))
        assert pvals.tolist() == RandomStream(5).uniforms(1).tolist()

    @pytest.mark.parametrize("score", [5.0, -np.inf])
    def test_all_ties_give_their_taus(self, score):
        # Every earlier score ties, so p_n = tau_n * n / n.
        pvals = smoothed_pvalues(np.full(50, score), RandomStream(8))
        assert pvals == pytest.approx(RandomStream(8).uniforms(50),
                                      rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("order", ["increasing", "decreasing"])
    def test_monotone_stream_ranks_last_or_first(self, order):
        # Increasing scores put all n - 1 earlier ones below a_n, so
        # p_n = (n - 1 + tau_n) / n; decreasing ones put none, p_n = tau_n / n.
        n = 50
        steps = np.arange(1.0, n + 1)
        scores, less = ((steps, steps - 1) if order == "increasing"
                        else (-steps, np.zeros(n)))
        pvals = smoothed_pvalues(scores, RandomStream(7))
        taus = RandomStream(7).uniforms(n)
        assert pvals.tolist() == ((taus + less) / steps).tolist()

    def test_hand_computed_smoothing(self):
        # At step 3 two earlier scores lie below 3 and none ties with it.
        pvals = smoothed_pvalues(np.array([1.0, 2.0, 3.0]), RandomStream(6))
        tau = RandomStream(6).uniforms(3)[2]
        assert pvals[2] == (2 + tau) / 3

    @given(base=st.lists(st.floats(-100, 100), max_size=30),
           lo=st.floats(-100, 100), hi=st.floats(-100, 100),
           seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_last_pvalue_monotone_in_last_score(self, base, lo, hi, seed):
        # The same seed draws the same taus for both streams.
        a1, a2 = sorted((lo, hi))
        p1 = smoothed_pvalues(np.array(base + [a1]), RandomStream(seed))[-1]
        p2 = smoothed_pvalues(np.array(base + [a2]), RandomStream(seed))[-1]
        assert p1 <= p2 + 1e-12

    def test_lag1_autocorrelation_near_zero(self):
        n = 5000
        rng = RandomStream(77)
        pvals = smoothed_pvalues(oracle_scores(rng.substream(0), n),
                                 rng.substream(1))
        assert abs(np.corrcoef(pvals[:-1], pvals[1:])[0, 1]) < 4 / np.sqrt(n)


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
