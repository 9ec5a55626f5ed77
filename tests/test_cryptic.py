import dataclasses
import math

import numpy as np
import pytest

from reference import two_sample_ks_rejects
from seqconformal import (BivariateGaussian, PredictiveOracle,
                          RandomStream, conditional_mean, cryptic_shift,
                          oracle_law, sample_arrays)
from seqconformal.gaussian import conditional_sd

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)
# Changes of Q0 that keep the oracle's w standard normal though the law of
# Y given X moves: the slope falls from 0.5 to 0.25, or its sign flips.
SLOPE_CHANGE = BivariateGaussian(3, 1.5, 2, math.sqrt(0.75), 1.0)
SIGN_FLIP = BivariateGaussian(-4, -2, 1, 0.5, -0.25)
# A pure covariance change (correlation 0.5 -> 0.81) that the oracle sees.
COVARIANCE_CHANGE = BivariateGaussian(0, 0, 1.554, 0.956, 1.207)


def random_model(rng):
    sx, sy = rng.uniform(0.3, 3, 2)
    r = rng.uniform(-0.9, 0.9)
    return BivariateGaussian(rng.uniform(-5, 5), rng.uniform(-5, 5),
                             sx, sy, r * sx * sy)


class TestCrypticShift:
    def test_paper_scenario_endpoint(self):
        q1 = cryptic_shift(Q0, 20.0)
        assert q1.mu_x == pytest.approx(20.0)
        assert q1.mu_y == pytest.approx(10.0)

    def test_zero_shift_is_identity(self):
        assert cryptic_shift(Q0, 0.0) == Q0

    def test_uncorrelated_shift_moves_x_only(self):
        q = BivariateGaussian(1.0, 2.0, 1, 1, 0.0)
        q1 = cryptic_shift(q, 5.0)
        assert q1.mu_x == pytest.approx(6.0)
        assert q1.mu_y == pytest.approx(2.0)

    def test_shifts_compose_affinely(self):
        one = cryptic_shift(cryptic_shift(Q0, 3.0), 4.0)
        direct = cryptic_shift(Q0, 7.0)
        assert one.mu_x == pytest.approx(direct.mu_x)
        assert one.mu_y == pytest.approx(direct.mu_y)

    def test_construction_keeps_the_law_of_w(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q0 = random_model(rng)
            mean, sd = oracle_law(q0, cryptic_shift(q0, rng.uniform(-30, 30)))
            assert abs(mean) <= 1e-10
            assert abs(sd - 1.0) <= 1e-10

    def test_acceptance_does_not_depend_on_the_unit_of_y(self):
        # The law of w has no unit, so a shift accepted at one unit of y is
        # accepted at every other.
        rng = np.random.default_rng(0)
        for _ in range(200):
            sx, sy = rng.uniform(0.3, 3, 2)
            r = rng.uniform(-0.9, 0.9)
            mu_x, mu_y = rng.uniform(-5, 5, 2)
            delta = rng.uniform(-30, 30)
            want = cryptic_shift(
                BivariateGaussian(mu_x, mu_y, sx, sy, r * sx * sy), delta)
            for b in (-600, 600):
                q0 = BivariateGaussian(mu_x, math.ldexp(mu_y, b), sx,
                                       math.ldexp(sy, b),
                                       math.ldexp(r * sx * sy, b))
                assert (cryptic_shift(q0, delta).mu_y
                        == math.ldexp(want.mu_y, b))

    def test_accepted_at_any_origin(self):
        # cryptic_shift sets mu_y from the expression `whiten` uses, so the
        # law of w is exactly (0, 1) however far the origin is from 0. A
        # check that recomputed the shift from the rounded means would
        # refuse most shifts from origins past 1e6 sds.
        rng = np.random.default_rng(1)
        n = 20_000
        sx, sy = rng.uniform(0.3, 3, (2, n))
        r = rng.uniform(-0.9, 0.9, n)
        sign = rng.choice([-1.0, 1.0], (2, n))
        origin = sign * 10.0 ** rng.uniform(0, 15, (2, n))
        delta = rng.uniform(-30, 30, n) * sx
        for i in range(n):
            q0 = BivariateGaussian(origin[0, i] * sx[i], origin[1, i] * sy[i],
                                   sx[i], sy[i], r[i] * sx[i] * sy[i])
            q1 = cryptic_shift(q0, delta[i])
            assert q1.mu_y == conditional_mean(q0, q1.mu_x)
            assert oracle_law(q0, q1) == (0.0, 1.0)


class TestOracleBlindness:
    def test_covariance_mismatch_is_seen(self):
        # sigma_y 1 -> 2 at the same covariance: w's sd becomes sqrt(5)
        mean, sd = oracle_law(Q0, dataclasses.replace(Q0, sigma_y=2.0))
        assert mean == 0.0
        assert sd == pytest.approx(math.sqrt(5), rel=1e-15)

    def test_off_line_shift_is_seen(self):
        mean, _ = oracle_law(Q0, dataclasses.replace(Q0, mu_y=1.0))
        assert mean != 0.0

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_shift_is_refused(self, delta):
        with pytest.raises(ValueError, match="not finite"):
            cryptic_shift(Q0, delta)

    def test_overflowing_mu_y_is_refused(self):
        # mu_x = 1e10 stays finite, but the line's mu_y = 0.5 * 1e300 * 1e10
        # overflows
        q0 = BivariateGaussian(0.0, 0.0, 1.0, 1e300, 0.5e300)
        with pytest.raises(ValueError, match="not finite"):
            cryptic_shift(q0, 1e10)

    @pytest.mark.parametrize("q1", [SLOPE_CHANGE, SIGN_FLIP],
                             ids=["slope_change", "sign_flip"])
    def test_blind_covariance_changes(self, q1):
        mean, sd = oracle_law(Q0, q1)
        assert abs(mean) <= 1e-15
        assert abs(sd - 1.0) <= 1e-15

    def test_visible_covariance_change(self):
        mean, sd = oracle_law(Q0, COVARIANCE_CHANGE)
        assert mean == 0.0
        assert sd == pytest.approx(0.6436, abs=5e-5)


class TestOracleLaw:
    def test_off_line_perturbation_mean_equals_delta(self):
        for delta in (0.1, 1.0):
            base = cryptic_shift(Q0, 20.0)
            perturbed = dataclasses.replace(base, mu_y=base.mu_y + delta)
            mean, sd = oracle_law(Q0, perturbed)
            assert mean * conditional_sd(Q0) == pytest.approx(delta,
                                                              abs=1e-10)
            assert sd == 1.0

    def test_variance_matched_covariance_change(self):
        # double sigma_y and pick the correlation that preserves the
        # conditional variance: the slope still moves, so w's sd does
        r0 = Q0.correlation
        r1 = math.sqrt(1 - (1 - r0**2) / 4)
        q1 = BivariateGaussian(0, 0, 1, 2.0, r1 * 2.0)
        mean, sd = oracle_law(Q0, q1)
        assert mean == 0.0
        assert sd > 1.1

    def test_zero_slope_at_opposite_scales(self):
        # sigma_x1 / sigma_x0 overflows to inf, but with r0 = 0 the slope
        # term is left out, not 0 * inf
        q0 = BivariateGaussian(0.0, 0.0, 1.0e-200, 1.0, 0.0)
        q1 = BivariateGaussian(0.0, 0.0, 1.0e+200, 1.0, 0.0)
        assert oracle_law(q0, q1) == (0.0, 1.0)

    def test_sampled_moments(self):
        # w under q1 is normal, so its sample mean and sd over n draws are
        # within z standard errors of the law: sd / sqrt(n) and
        # sd / sqrt(2 (n - 1)). With 200 pairs x 2 moments, |z| <= 5 fails
        # a correct law with probability about 400 * 5.7e-7 = 2.3e-4.
        rng = np.random.default_rng(22)
        n = 100_000
        worst = 0.0
        for seed in range(200):
            q0, q1 = random_model(rng), random_model(rng)
            mean, sd = oracle_law(q0, q1)
            w = q0.whiten(*sample_arrays(q1, RandomStream(seed), n))[1]
            z_mean = (w.mean() - mean) / (sd / math.sqrt(n))
            z_sd = (w.std(ddof=1) - sd) / (sd / math.sqrt(2 * (n - 1)))
            worst = max(worst, abs(z_mean), abs(z_sd))
        assert worst <= 5.0

    @pytest.mark.parametrize("q1", [SLOPE_CHANGE, SIGN_FLIP],
                             ids=["slope_change", "sign_flip"])
    def test_blind_changes_keep_the_score_law(self, q1):
        # acceptance criterion 4's protocol and bound: at most 2 of 20
        # two-sample KS tests at alpha 0.01 reject
        oracle = PredictiveOracle(Q0)
        rejections = 0
        for seed in range(100, 120):
            rng = RandomStream(seed)
            a = oracle.scores(*sample_arrays(Q0, rng.substream(0), 10_000))
            b = oracle.scores(*sample_arrays(q1, rng.substream(1), 10_000))
            rejections += two_sample_ks_rejects(a, b)
        assert 20 - rejections >= 18


class TestCrypticLine:
    def test_passes_through_pre_change_mean(self):
        q = BivariateGaussian(3.0, -2.0, 1.2, 0.7, 0.3)
        assert conditional_mean(q, q.mu_x) == pytest.approx(q.mu_y)

    def test_paper_endpoint(self):
        assert conditional_mean(Q0, 20.0) == pytest.approx(10.0)

    def test_non_cryptic_mean_is_off_the_line(self):
        assert conditional_mean(Q0, 2.0) == pytest.approx(1.0)
        assert conditional_mean(Q0, 2.0) != 2.0
