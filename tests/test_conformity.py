import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import RunningMoments, score_fold
from seqconformal import (BivariateGaussian, ConvexEnsemble, Example,
                          LikelihoodRatio, Mahalanobis, PredictiveOracle,
                          RandomStream, columns, cryptic_shift,
                          oracle_mahalanobis_ensemble, sample, sample_arrays,
                          two_sample_ks)

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)


class TestOracleScore:
    def test_peak(self):
        # at the conditional mean the score is the density peak 1/sqrt(2 pi * 0.75)
        z = Example(2.0, 1.0)
        assert PredictiveOracle(Q0).score(z) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi * 0.75))

    def test_symmetric_about_conditional_mean(self):
        oracle = PredictiveOracle(Q0)
        assert oracle.score(Example(2.0, 1.0 + 0.4)) == pytest.approx(
            oracle.score(Example(2.0, 1.0 - 0.4)))

    def test_independent_of_x_when_uncorrelated(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.0)
        assert PredictiveOracle(q).score(Example(0.0, 0.7)) == pytest.approx(
            PredictiveOracle(q).score(Example(100.0, 0.7)))


class TestMahalanobisScore:
    def test_zero_at_center(self):
        assert Mahalanobis(Q0).score(Example(0.0, 0.0)) == 0.0

    def test_identity_covariance(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.0)
        assert Mahalanobis(q).score(Example(3.0, 4.0)) == pytest.approx(-25.0)

    def test_correlated_frozen_value(self):
        # hand-inverted 2x2: quad form of (1,1) under rho_cov=0.5 is 4/3
        assert Mahalanobis(Q0).score(Example(1.0, 1.0)) == pytest.approx(-4.0 / 3.0)

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = Example(*rng.uniform(-10, 10, 2))
            assert Mahalanobis(Q0).score(z) <= 0.0


class TestLikelihoodRatioScore:
    def test_identical_models_give_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = Example(*rng.uniform(-5, 5, 2))
            assert LikelihoodRatio(Q0, Q0).score(z) == pytest.approx(
                0.0, abs=1e-12)

    def test_equidistant_point(self):
        q0 = BivariateGaussian(0, 0, 1, 1, 0.0)
        q1 = BivariateGaussian(2, 0, 1, 1, 0.0)
        assert LikelihoodRatio(q0, q1).score(Example(1.0, 0.0)) == pytest.approx(
            0.0, abs=1e-12)

    def test_monotone_in_raw_ratio(self):
        q0 = BivariateGaussian(0, 0, 1, 1, 0.0)
        q1 = BivariateGaussian(2, 0, 1, 1, 0.0)
        # moving toward q1's mean raises q1/q0, so the score must fall
        scores = [LikelihoodRatio(q0, q1).score(Example(x, 0.0))
                  for x in (-1.0, 0.0, 1.0, 2.0)]
        assert scores == sorted(scores, reverse=True)


class TestRunningMoments:
    def test_first_score_standardizes_to_zero(self):
        m = RunningMoments()
        m.push(123.4)
        assert m.standardize(123.4) == 0.0

    def test_matches_population_formula(self):
        xs = [1.0, 4.0, -2.0, 7.5]
        m = RunningMoments()
        for x in xs:
            m.push(x)
        assert m.mean == pytest.approx(np.mean(xs))
        assert m.std == pytest.approx(np.std(xs))


class TestConvexEnsemble:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            ConvexEnsemble([])
        with pytest.raises(ValueError):
            ConvexEnsemble([(PredictiveOracle(Q0), 0.7),
                            (Mahalanobis(Q0), 0.7)])
        with pytest.raises(ValueError):
            ConvexEnsemble([(PredictiveOracle(Q0), 1.5),
                            (Mahalanobis(Q0), -0.5)])

    def test_single_component_monotone_per_state(self):
        # with the state after the same 50 examples, the standardized score
        # of one more is a strictly increasing function of its raw score
        xs, ys = sample_arrays(Q0, RandomStream(4), 50)
        ens = ConvexEnsemble([(Mahalanobis(Q0), 1.0)])
        standardized = []
        for x in np.linspace(6.0, 0.0, 20):  # the raw score -x^2/0.75 rises
            ens.reset()
            standardized.append(
                ens.scores(np.append(xs, x), np.append(ys, 0.0))[-1])
        assert standardized == sorted(set(standardized))

    def test_zero_weight_component_is_inert(self):
        stream = sample(Q0, RandomStream(8), 200)
        only = ConvexEnsemble([(PredictiveOracle(Q0), 1.0)])
        padded = ConvexEnsemble([(PredictiveOracle(Q0), 1.0),
                                 (Mahalanobis(Q0), 0.0)])
        a = [only.score(z) for z in stream]
        b = [padded.score(z) for z in stream]
        assert a == pytest.approx(b)

    def test_reset_clears_state(self):
        ens = oracle_mahalanobis_ensemble(Q0, 0.5)
        stream = sample(Q0, RandomStream(9), 100)
        first = [ens.score(z) for z in stream]
        ens.reset()
        again = [ens.score(z) for z in stream]
        assert first == again

    def test_mahalanobis_component_collapses_after_cryptic_shift(self):
        # the cryptic mean shift moves the Mahalanobis component many
        # running-stds away from its pre-change level
        pair = cryptic_shift(Q0, 20.0)
        rng = RandomStream(10)
        stream = sample(Q0, rng.substream(0), 2000) + sample(
            pair.q1, rng.substream(1), 2000)
        standardized = ConvexEnsemble([(Mahalanobis(Q0), 1.0)]).scores(
            *columns(stream))
        # once post scores dominate the running moments the z-scores
        # re-center, so the drop is sharpest just after the change
        early_post_mean = np.mean(standardized[2000:2100])
        assert early_post_mean < -5.0


class TestScoreDistributionInvariance:
    def test_oracle_scores_identically_distributed_across_cryptic_shift(self):
        pair = cryptic_shift(Q0, 20.0)
        rng = RandomStream(12)
        oracle = PredictiveOracle(Q0)
        a = oracle.scores(*sample_arrays(Q0, rng.substream(0), 10_000))
        b = oracle.scores(*sample_arrays(pair.q1, rng.substream(1), 10_000))
        assert not two_sample_ks(a, b, alpha=0.01).reject


# Under Q0 the conditional mean at x = 0 is 0.0, so this y is the residual.
# Python's y ** 2 (libm pow) and numpy's y * y differ in its last bit, and
# so do the oracle densities computed from them.
POW_NOT_SQUARE = 1.1445772631495523

MEASURES = {
    "oracle": lambda: PredictiveOracle(Q0),
    "mahalanobis": lambda: Mahalanobis(Q0),
    "likelihood_ratio": lambda: LikelihoodRatio(
        Q0, BivariateGaussian(1.0, 2.0, 1.5, 0.8, -0.3)),
    "ensemble": lambda: oracle_mahalanobis_ensemble(Q0, 0.3),
}


class TestArrayScores:
    def test_fixed_residual_separates_pow_from_square(self):
        d = POW_NOT_SQUARE
        assert d ** 2 != d * d
        assert (PredictiveOracle(Q0).score(Example(0.0, d))
                != math.exp(-0.5 * (d * d) / 0.75)
                / math.sqrt(2 * math.pi * 0.75))

    @given(points=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                           max_size=200),
           at=st.integers(0, 200),
           kind=st.sampled_from(sorted(MEASURES)))
    @settings(max_examples=200, deadline=None)
    def test_scores_equal_fold_of_score(self, points, at, kind):
        points.insert(at, (0.0, POW_NOT_SQUARE))
        stream = [Example(x, y) for x, y in points]
        measure = MEASURES[kind]()
        want = repr(score_fold(measure, stream))
        measure.reset()
        assert repr([measure.score(z) for z in stream]) == want
        measure.reset()
        got = measure.scores(*columns(stream))
        assert got.dtype == np.float64
        assert repr(got.tolist()) == want

    def test_ensemble_scores_carry_on_from_score(self):
        stream = sample(Q0, RandomStream(13), 60)
        ens = oracle_mahalanobis_ensemble(Q0, 0.5)
        want = [ens.score(z) for z in stream]
        ens.reset()
        head = [ens.score(z) for z in stream[:25]]
        tail = ens.scores(*columns(stream[25:])).tolist()
        assert repr(head + tail) == repr(want)
        # and score carries on from scores
        fresh = oracle_mahalanobis_ensemble(Q0, 0.5)
        again = fresh.scores(*columns(stream + stream[:1])).tolist()
        assert repr(ens.score(stream[0])) == repr(again[-1])
