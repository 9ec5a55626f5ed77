import dataclasses
import math

import numpy as np
import pytest

from seqconformal import (BivariateGaussian, CrypticPair, cryptic_line,
                          cryptic_shift, verify_conditions)

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)


class TestCrypticShift:
    def test_paper_scenario_endpoint(self):
        pair = cryptic_shift(Q0, 20.0)
        assert pair.q1.mu_x == pytest.approx(20.0)
        assert pair.q1.mu_y == pytest.approx(10.0)

    def test_zero_shift_is_identity(self):
        pair = cryptic_shift(Q0, 0.0)
        assert pair.q1 == Q0

    def test_uncorrelated_shift_moves_x_only(self):
        q = BivariateGaussian(1.0, 2.0, 1, 1, 0.0)
        pair = cryptic_shift(q, 5.0)
        assert pair.q1.mu_x == pytest.approx(6.0)
        assert pair.q1.mu_y == pytest.approx(2.0)

    def test_shifts_compose_affinely(self):
        one = cryptic_shift(cryptic_shift(Q0, 3.0).q1, 4.0).q1
        direct = cryptic_shift(Q0, 7.0).q1
        assert one.mu_x == pytest.approx(direct.mu_x)
        assert one.mu_y == pytest.approx(direct.mu_y)

    def test_construction_satisfies_conditions(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sx, sy = rng.uniform(0.3, 3, 2)
            r = rng.uniform(-0.9, 0.9)
            q0 = BivariateGaussian(rng.uniform(-5, 5), rng.uniform(-5, 5),
                                   sx, sy, r * sx * sy)
            pair = cryptic_shift(q0, rng.uniform(-30, 30))
            report = verify_conditions(pair.q0, pair.q1)
            assert report.cond1_max_residual <= 1e-10
            assert report.cond2_residual <= 1e-10

    def test_acceptance_does_not_depend_on_the_unit_of_y(self):
        # The construction residual is checked in units of sigma_y, so a
        # shift accepted at one unit of y is accepted at every other.
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
                assert (cryptic_shift(q0, delta).q1.mu_y
                        == math.ldexp(want.q1.mu_y, b))


class TestCrypticPairValidation:
    def test_rejects_covariance_mismatch(self):
        q1 = dataclasses.replace(Q0, sigma_y=2.0)
        with pytest.raises(ValueError):
            CrypticPair(Q0, q1)

    def test_rejects_off_line_shift(self):
        q1 = dataclasses.replace(Q0, mu_y=1.0)
        with pytest.raises(ValueError):
            CrypticPair(Q0, q1)
        # a non-finite shift leaves a nan residual, which must not pass
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="off the cryptic line"):
                cryptic_shift(Q0, delta)


class TestVerifyConditions:
    def test_off_line_perturbation_residual_equals_delta(self):
        for delta in (0.1, 1.0):
            base = cryptic_shift(Q0, 20.0).q1
            perturbed = dataclasses.replace(base, mu_y=base.mu_y + delta)
            report = verify_conditions(Q0, perturbed)
            assert report.cond1_max_residual == pytest.approx(delta, abs=1e-10)
            assert report.cond2_residual == 0.0

    def test_variance_matched_covariance_change(self):
        # double sigma_y and pick the correlation that preserves the
        # conditional variance: condition 2 holds, condition 1 breaks
        r0 = Q0.correlation
        r1 = math.sqrt(1 - (1 - r0**2) / 4)
        q1 = BivariateGaussian(0, 0, 1, 2.0, r1 * 2.0)
        report = verify_conditions(Q0, q1)
        assert report.cond2_residual <= 1e-10
        assert report.cond1_max_residual > 0.1


class TestCrypticLine:
    def test_passes_through_pre_change_mean(self):
        q = BivariateGaussian(3.0, -2.0, 1.2, 0.7, 0.3)
        assert cryptic_line(q, q.mu_x) == pytest.approx(q.mu_y)

    def test_paper_endpoint(self):
        assert cryptic_line(Q0, 20.0) == pytest.approx(10.0)

    def test_non_cryptic_mean_is_off_the_line(self):
        assert cryptic_line(Q0, 2.0) == pytest.approx(1.0)
        assert cryptic_line(Q0, 2.0) != 2.0
