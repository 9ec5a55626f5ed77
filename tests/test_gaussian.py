import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from reference import conditional_density, covariance, mean
from seqconformal import (BivariateGaussian, RandomStream, conditional_mean,
                          sample_arrays)
from seqconformal.gaussian import NonFiniteDraw, conditional_sd


def random_model(rng: np.random.Generator) -> BivariateGaussian:
    sx = rng.uniform(0.3, 3.0)
    sy = rng.uniform(0.3, 3.0)
    r = rng.uniform(-0.95, 0.95)
    return BivariateGaussian(
        mu_x=rng.uniform(-5, 5), mu_y=rng.uniform(-5, 5),
        sigma_x=sx, sigma_y=sy, rho_cov=r * sx * sy,
    )


class TestValidation:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            BivariateGaussian(0, 0, 0.0, 1, 0)
        with pytest.raises(ValueError):
            BivariateGaussian(0, 0, 1, -1, 0)

    def test_rejects_degenerate_covariance(self):
        with pytest.raises(ValueError):
            BivariateGaussian(0, 0, 1, 1, 1.0)
        with pytest.raises(ValueError):
            BivariateGaussian(0, 0, 2, 1, -2.5)

    def test_correlation_derived_from_covariance(self):
        q = BivariateGaussian(0, 0, 2.0, 0.5, 0.6)
        assert q.correlation == pytest.approx(0.6)


class TestConditionalMoments:
    def test_mean_at_marginal_mean(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.5)
        assert conditional_mean(q, 0.0) == 0.0

    def test_mean_under_independence(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.0)
        assert conditional_mean(q, 7.3) == 0.0

    def test_mean_slope(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.5)
        assert conditional_mean(q, 2.0) == pytest.approx(1.0)

    def test_variance_values(self):
        assert conditional_sd(BivariateGaussian(0, 0, 1, 1, 0.0)) == 1.0
        assert conditional_sd(
            BivariateGaussian(0, 0, 1, 1, 0.5)) ** 2 == pytest.approx(0.75)
        q = BivariateGaussian(0, 0, 1, 2, 0.8 * 2)  # correlation 0.8, sigma_y 2
        assert conditional_sd(q) ** 2 == pytest.approx(1.44)

    def test_variance_does_not_depend_on_x(self):
        # the API makes this structural; spot-check density symmetry instead
        q = BivariateGaussian(1.0, -2.0, 1.5, 0.7, 0.4)
        assert conditional_sd(q) > 0
        for x in np.random.default_rng(0).uniform(-50, 50, 100):
            mu = conditional_mean(q, x)
            assert conditional_density(q, x, mu + 0.3) == pytest.approx(
                conditional_density(q, x, mu - 0.3))


class TestConditionalDensity:
    def test_peak_value_unit_variance(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.0)
        assert conditional_density(q, 3.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi))

    def test_frozen_value(self):
        # norm.pdf(0, loc=1, scale=sqrt(0.75)) = 0.23651014781891837
        q = BivariateGaussian(0, 0, 1, 1, 0.5)
        assert conditional_density(q, 2.0, 0.0) == pytest.approx(
            0.23651014781891837, rel=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            q = random_model(rng)
            x = rng.uniform(-5, 5)
            y = rng.uniform(-5, 5)
            expected = norm.pdf(y, loc=conditional_mean(q, x),
                                scale=conditional_sd(q))
            assert conditional_density(q, x, y) == pytest.approx(expected)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = random_model(rng)
            x = rng.uniform(-3, 3)
            mu = conditional_mean(q, x)
            sd = conditional_sd(q)
            total, _ = quad(lambda y: conditional_density(q, x, y),
                            mu - 8 * sd, mu + 8 * sd)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestSampling:
    def test_empty(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.5)
        xs, ys = sample_arrays(q, RandomStream(1), 0)
        assert xs.shape == ys.shape == (0,)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            sample_arrays(BivariateGaussian(0, 0, 1, 1, 0.5), RandomStream(1),
                          -1)

    def test_deterministic(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.5)
        a = sample_arrays(q, RandomStream(99), 50)
        b = sample_arrays(q, RandomStream(99), 50)
        assert np.array(a).tobytes() == np.array(b).tobytes()

    def test_shorter_stream_is_a_prefix(self):
        # Example i takes normals 2i and 2i+1; a (2, n) layout fails this.
        q = BivariateGaussian(1.0, -1.0, 1.5, 0.8, 0.6)
        xs, ys = sample_arrays(q, RandomStream(12), 10)
        xs4, ys4 = sample_arrays(q, RandomStream(12), 4)
        assert xs[:4].tolist() == xs4.tolist()
        assert ys[:4].tolist() == ys4.tolist()

    def test_empty_arrays_draw_nothing(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.5)
        rng = RandomStream(8)
        xs, ys = sample_arrays(q, rng, 0)
        assert len(xs) == len(ys) == 0
        assert rng.uniforms(4).tolist() == RandomStream(8).uniforms(4).tolist()

    @pytest.mark.parametrize("q", [
        BivariateGaussian(math.inf, 0, 1, 1, 0.5),
        BivariateGaussian(0, math.nan, 1, 1, 0.5),
        BivariateGaussian(0, 0, 1e308, 1, 0.5),  # finite, but draws overflow
    ])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_draws_rejected(self, q):
        with pytest.raises(ValueError, match="finite"):
            sample_arrays(q, RandomStream(1), 100)

    def test_first_non_finite_draw_is_named(self):
        # With sigma_x = 1e308, x is 1e308 times the unit-scale x.
        unit, _ = sample_arrays(BivariateGaussian(0, 0, 1, 1, 0),
                                RandomStream(5), 200)
        with np.errstate(over="ignore"):
            first = int(np.argmax(np.isinf(unit * 1e308)))
        assert first > 0
        with pytest.raises(NonFiniteDraw) as info:
            sample_arrays(BivariateGaussian(0, 0, 1e308, 1, 0),
                          RandomStream(5), 200)
        assert info.value.index == first
        assert info.value.x == math.copysign(math.inf, unit[first])
        assert f"draw {first} " in str(info.value)

    def test_whiten_of_arrays_matches_floats(self):
        q = BivariateGaussian(1.0, -1.0, 1.5, 0.8, 0.6)
        xs, ys = sample_arrays(q, RandomStream(6), 50)
        want = [q.whiten(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        us, ws = q.whiten(xs, ys)
        assert list(zip(us.tolist(), ws.tolist())) == want

    def test_whiten_returns_the_sampled_normals(self):
        # sample_arrays maps normals 2i and 2i+1 to example i; whiten maps
        # them back, up to the rounding of the two maps.
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = random_model(rng)
            seed = int(rng.integers(1000))
            z1, z2 = RandomStream(seed).normals(400).reshape(200, 2).T
            us, ws = q.whiten(*sample_arrays(q, RandomStream(seed), 200))
            assert us == pytest.approx(z1, rel=1e-9, abs=1e-9)
            assert ws == pytest.approx(z2, rel=1e-9, abs=1e-9)

    def test_moments(self):
        q = BivariateGaussian(0, 0, 1, 1, 0.5)
        xy = np.column_stack(sample_arrays(q, RandomStream(3), 100_000))
        assert abs(xy[:, 0].mean()) < 0.02
        assert abs(xy[:, 1].mean()) < 0.02
        assert abs(np.corrcoef(xy.T)[0, 1] - 0.5) < 0.02

    def test_covariance_entrywise(self):
        q = BivariateGaussian(1.0, -1.0, 1.5, 0.8, 0.6)
        n = 100_000
        xy = np.column_stack(sample_arrays(q, RandomStream(11), n))
        emp = np.cov(xy.T)
        target = covariance(q)
        # standard error of a covariance entry is O(sigma^2 / sqrt(n))
        for i in range(2):
            for j in range(2):
                se = math.sqrt((target[i, i] * target[j, j]
                                + target[i, j] ** 2) / n)
                assert abs(emp[i, j] - target[i, j]) < 5 * se

    def test_joint_density_matches_scipy(self):
        from scipy.stats import multivariate_normal
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = random_model(rng)
            x, y = rng.uniform(-4, 4, 2)
            ref = multivariate_normal(mean=mean(q), cov=covariance(q))
            log_det = math.log(np.linalg.det(covariance(q)))
            u, w = q.whiten(x, y)
            log_pdf = (-math.log(2 * math.pi) - 0.5 * log_det
                       - 0.5 * (u * u + w * w))
            assert log_pdf == pytest.approx(ref.logpdf([x, y]))


class TestRandomStream:
    def test_substreams_independent_of_consumption(self):
        a = RandomStream(5)
        a.uniforms(1000)
        child_after = a.substream(3)
        child_fresh = RandomStream(5).substream(3)
        assert np.array_equal(child_after.uniforms(10), child_fresh.uniforms(10))

    def test_distinct_substreams_differ(self):
        r = RandomStream(5)
        assert not np.array_equal(r.substream(0).uniforms(10),
                                  r.substream(1).uniforms(10))
