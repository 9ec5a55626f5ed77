import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import multivariate_normal

from reference import (conditional_density, covariance, mean,
                       quadratic_form, score_fold, two_sample_ks_rejects)
from seqconformal import (BivariateGaussian, LikelihoodRatio, Mahalanobis,
                          OracleMahalanobisEnsemble, PredictiveOracle,
                          RandomStream, cryptic_shift, ks_uniform,
                          sample_arrays, smoothed_pvalues)
from seqconformal.scenario import DATA_SUBSTREAM, TAU_SUBSTREAM

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)


class TestOracleScore:
    def test_peak(self):
        # at the conditional mean the log density minus its constant is 0
        assert PredictiveOracle(Q0).scores(2.0, 1.0) == 0.0

    def test_log_density_without_constant(self):
        rng = np.random.default_rng(3)
        peak = 1.0 / math.sqrt(2 * math.pi * 0.75)
        for x, y in rng.uniform(-5, 5, (50, 2)):
            assert PredictiveOracle(Q0).scores(x, y) == pytest.approx(
                math.log(conditional_density(Q0, x, y) / peak))

    def test_symmetric_about_conditional_mean(self):
        oracle = PredictiveOracle(Q0)
        assert oracle.scores(2.0, 1.0 + 0.4) == pytest.approx(
            oracle.scores(2.0, 1.0 - 0.4))

    def test_independent_of_x_when_uncorrelated(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.0)
        assert PredictiveOracle(q).scores(0.0, 0.7) == pytest.approx(
            PredictiveOracle(q).scores(100.0, 0.7))


class TestMahalanobisScore:
    def test_zero_at_center(self):
        assert Mahalanobis(Q0).scores(0.0, 0.0) == 0.0

    def test_identity_covariance(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.0)
        assert Mahalanobis(q).scores(3.0, 4.0) == pytest.approx(-25.0)

    def test_correlated_frozen_value(self):
        # hand-inverted 2x2: quad form of (1,1) under rho_cov=0.5 is 4/3
        assert Mahalanobis(Q0).scores(1.0, 1.0) == pytest.approx(-4.0 / 3.0)

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert Mahalanobis(Q0).scores(*rng.uniform(-10, 10, 2)) <= 0.0


class TestLikelihoodRatioScore:
    def test_identical_models_give_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            xy = rng.uniform(-5, 5, 2)
            assert LikelihoodRatio(Q0, Q0).scores(*xy) == pytest.approx(
                0.0, abs=1e-12)

    def test_equidistant_point(self):
        q0 = BivariateGaussian(0, 0, 1, 1, 0.0)
        q1 = BivariateGaussian(2, 0, 1, 1, 0.0)
        assert LikelihoodRatio(q0, q1).scores(1.0, 0.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_monotone_in_raw_ratio(self):
        q0 = BivariateGaussian(0, 0, 1, 1, 0.0)
        q1 = BivariateGaussian(2, 0, 1, 1, 0.0)
        # moving toward q1's mean raises q1/q0, so the score must fall
        scores = [LikelihoodRatio(q0, q1).scores(x, 0.0)
                  for x in (-1.0, 0.0, 1.0, 2.0)]
        assert scores == sorted(scores, reverse=True)


def random_model(rng: np.random.Generator) -> BivariateGaussian:
    sx, sy = rng.uniform(0.2, 5.0, 2)
    r = rng.uniform(-0.95, 0.95)
    return BivariateGaussian(mu_x=rng.uniform(-5, 5), mu_y=rng.uniform(-5, 5),
                             sigma_x=sx, sigma_y=sy, rho_cov=r * sx * sy)


def random_points(q: BivariateGaussian, rng: np.random.Generator):
    """40 points within 4 sds of q's mean in each coordinate."""
    return (q.mu_x + q.sigma_x * rng.uniform(-4, 4, 40),
            q.mu_y + q.sigma_y * rng.uniform(-4, 4, 40))


class TestAgainstScipyLogpdf:
    # scipy's multivariate_normal inverts the covariance matrix and takes
    # its log determinant by an eigendecomposition, so it checks the
    # standardized formulas independently, on models with sigma != 1.
    def test_mahalanobis_is_the_log_density_without_its_constant(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            q = random_model(rng)
            xs, ys = random_points(q, rng)
            cov = covariance(q)
            logpdf = multivariate_normal(mean(q), cov).logpdf(
                np.column_stack([xs, ys]))
            log_det = np.linalg.slogdet(cov)[1]
            assert Mahalanobis(q).scores(xs, ys) == pytest.approx(
                2.0 * logpdf + 2.0 * math.log(2.0 * math.pi) + log_det,
                rel=1e-9, abs=1e-9)

    def test_likelihood_ratio_is_the_log_density_ratio(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            q0, q1 = random_model(rng), random_model(rng)
            xs, ys = random_points(q0, rng)
            z = np.column_stack([xs, ys])
            want = (multivariate_normal(mean(q0), covariance(q0)).logpdf(z)
                    - multivariate_normal(mean(q1), covariance(q1)).logpdf(z))
            assert LikelihoodRatio(q0, q1).scores(xs, ys) == pytest.approx(
                want, rel=1e-9, abs=1e-9)


class TestUnwhitenedForms:
    # The kernels are sums of squares of whitened coordinates. Here they
    # meet the forms they replaced: Mahalanobis as the cross-term
    # quadratic form of covariance(q), and the ensemble composed from the
    # oracle and Mahalanobis measures. Within 4 sds and |r| <= 0.95 the
    # cross term cancels by at most 1 / (1 - |r|) = 20, so both agree to
    # 1e-12 relative to the size of the terms, 1 + u^2 + w^2.
    def test_scores_match_the_unwhitened_forms(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            q = random_model(rng)
            xs, ys = random_points(q, rng)
            m = Mahalanobis(q).scores(xs, ys)
            assert m == pytest.approx(-quadratic_form(q, xs, ys), rel=1e-12)
            o = PredictiveOracle(q).scores(xs, ys)
            for lam in (0.0, 0.3, 0.5, 1.0):
                composed = (lam * math.sqrt(2.0) * (o + 0.5)
                            + (1.0 - lam) * (m + 2.0) / 2.0)
                got = OracleMahalanobisEnsemble(q, lam).scores(xs, ys)
                assert (np.abs(got - composed) <= 1e-12 * (1.0 - m)).all()


class TestOracleMahalanobisEnsemble:
    def test_rejects_weight_outside_unit_interval(self):
        for lam in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="lam"):
                OracleMahalanobisEnsemble(Q0, lam)

    def test_end_weights_give_one_standardized_component(self):
        xs, ys = sample_arrays(Q0, RandomStream(4), 200)
        oracle = PredictiveOracle(Q0).scores(xs, ys)
        mahalanobis = Mahalanobis(Q0).scores(xs, ys)
        assert OracleMahalanobisEnsemble(Q0, 1.0).scores(xs, ys) == (
            pytest.approx(math.sqrt(2.0) * (oracle + 0.5)))
        assert OracleMahalanobisEnsemble(Q0, 0.0).scores(xs, ys) == (
            pytest.approx((mahalanobis + 2.0) / 2.0))

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_components_standardized_under_q0(self, lam):
        # each standardized component has mean 0 and sd 1 under Q0; at
        # n = 20000 the standard errors are 0.0071 (mean) and at most 0.014
        # (sd, from the kurtosis of chi2_1), and each bound is 5 of them
        scores = OracleMahalanobisEnsemble(Q0, lam).scores(
            *sample_arrays(Q0, RandomStream(5), 20_000))
        assert abs(scores.mean()) < 5 * 0.0071
        assert abs(scores.std() - 1.0) < 5 * 0.014

    def test_mahalanobis_component_collapses_after_cryptic_shift(self):
        # the cryptic mean shift moves the Mahalanobis component many
        # sds under Q0 away from its pre-change level
        q1 = cryptic_shift(Q0, 20.0)
        rng = RandomStream(10)
        pre = sample_arrays(Q0, rng.substream(0), 2000)
        post = sample_arrays(q1, rng.substream(1), 2000)
        standardized = OracleMahalanobisEnsemble(Q0, 0.0).scores(
            *np.concatenate([pre, post], axis=1))
        assert abs(np.mean(standardized[:2000])) < 0.1
        assert np.mean(standardized[2000:]) < -5.0


class TestScoreDistributionInvariance:
    def test_oracle_scores_identically_distributed_across_cryptic_shift(self):
        q1 = cryptic_shift(Q0, 20.0)
        rng = RandomStream(12)
        oracle = PredictiveOracle(Q0)
        a = oracle.scores(*sample_arrays(Q0, rng.substream(0), 10_000))
        b = oracle.scores(*sample_arrays(q1, rng.substream(1), 10_000))
        assert not two_sample_ks_rejects(a, b)


# Under Q0 the conditional mean at x = 0 is 0.0 and the conditional sd is
# sqrt(0.75), so the oracle standardizes this y to w = y / sqrt(0.75).
# Python's w ** 2 (libm pow) and numpy's w * w differ in its last bit, and
# so do the oracle scores computed from them.
POW_NOT_SQUARE = 0.6065326707917666

MEASURES = {
    "oracle": lambda: PredictiveOracle(Q0),
    "mahalanobis": lambda: Mahalanobis(Q0),
    "likelihood_ratio": lambda: LikelihoodRatio(
        Q0, BivariateGaussian(1.0, 2.0, 1.5, 0.8, -0.3)),
    "ensemble": lambda: OracleMahalanobisEnsemble(Q0, 0.3),
}


class TestArrayScores:
    def test_fixed_residual_separates_pow_from_square(self):
        w = POW_NOT_SQUARE / math.sqrt(0.75)
        assert w ** 2 != w * w
        score = PredictiveOracle(Q0).scores(0.0, POW_NOT_SQUARE)
        assert score == -0.5 * (w * w)
        assert score != -0.5 * (w ** 2)

    @given(points=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                           max_size=200),
           at=st.integers(0, 200),
           kind=st.sampled_from(sorted(MEASURES)))
    @settings(max_examples=200, deadline=None)
    def test_scores_equal_fold_of_score(self, points, at, kind):
        points.insert(at, (0.0, POW_NOT_SQUARE))
        measure = MEASURES[kind]()
        want = repr(score_fold(measure, points))
        assert repr([measure.scores(x, y) for x, y in points]) == want
        got = measure.scores(*np.array(points).T)
        assert got.dtype == np.float64
        assert repr(got.tolist()) == want

    @pytest.mark.parametrize("kind", sorted(MEASURES))
    def test_score_does_not_depend_on_position(self, kind):
        xs, ys = sample_arrays(Q0, RandomStream(13), 60)
        measure = MEASURES[kind]()
        assert (repr(measure.scores(xs[::-1], ys[::-1]).tolist())
                == repr(measure.scores(xs, ys)[::-1].tolist()))


# Each measure as the shipped configs build it; the likelihood ratio takes
# the (2, 2) post model of non_cryptic.cfg as its alternative.
SHIPPED = {
    "oracle": PredictiveOracle(Q0),
    "mahalanobis": Mahalanobis(Q0),
    "likelihood_ratio": LikelihoodRatio(Q0, BivariateGaussian(2, 2, 1, 1, 0.5)),
    "ensemble": OracleMahalanobisEnsemble(Q0, 0.5),
}


@pytest.mark.parametrize("kind", sorted(SHIPPED))
def test_pvalues_uniform_under_exchangeability(kind):
    # On exchangeable data a valid measure gives IID uniform p-values, so
    # over 100 seeds the number of KS rejections at alpha = 0.01 is
    # Binom(100, 0.01). Budget: P(Binom(100, 0.01) >= 6) = 5.35e-4 false
    # failures per measure. The streams are those of run_scenario with
    # n_pre = 4000, n_post = 0.
    rejections = 0
    for seed in range(1000, 1100):
        rng = RandomStream(seed)
        xs, ys = sample_arrays(Q0, rng.substream(DATA_SUBSTREAM), 4000)
        pvalues = smoothed_pvalues(SHIPPED[kind].scores(xs, ys),
                                   rng.substream(TAU_SUBSTREAM))
        rejections += ks_uniform(pvalues, alpha=0.01).reject
    assert rejections <= 5
