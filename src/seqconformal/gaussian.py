"""Bivariate Gaussian data model.

Parameterization (every parameter finite), closed-form conditional
quantities of Y given X, and deterministic sampling, whose draws are
IEEE's: one that overflows is inf or NaN. The off-diagonal covariance
entry is stored as a covariance; the implied correlation
``r = rho_cov / sigma_x / sigma_y`` enters the conditional-mean slope and
conditional sd, which is dimensionally correct and coincides with the
covariance reading at unit marginal variances.

`BivariateGaussian.whiten` maps (x, y) to the whitened coordinates
u = (x - mu_x) / sigma_x and w = (y - E[Y | x]) / Sd[Y | x], the two
independent standard normals that `sample_arrays` maps to (x, y). Every
quantity is computed from u, the scales and r; no scale is ever squared
or multiplied by another, so no positive finite scale overflows or
underflows them, and changing the units of x and y by powers of 2 leaves
u, w and r unchanged and scales the conditional mean and sd exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RandomStream


@dataclass(frozen=True)
class BivariateGaussian:
    """Mean vector and covariance of a bivariate Gaussian.

    sigma_x and sigma_y are standard deviations; rho_cov is the
    off-diagonal covariance entry.
    """

    mu_x: float
    mu_y: float
    sigma_x: float
    sigma_y: float
    rho_cov: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value!r} is not finite")
        if not (self.sigma_x > 0.0 and self.sigma_y > 0.0):
            raise ValueError("standard deviations must be strictly positive")
        if not abs(self.correlation) < 1.0:
            raise ValueError(
                "covariance matrix must be strictly positive definite "
                f"(|correlation| = {abs(self.correlation)} >= 1)"
            )

    @property
    def correlation(self) -> float:
        return self.rho_cov / self.sigma_x / self.sigma_y

    def whiten(self, x, y):
        """The whitened coordinates (u, w) of (x, y): u = (x - mu_x) /
        sigma_x and w = (y - E[Y | x]) / Sd[Y | x], independent standard
        normals under this model; x and y may be floats or float64
        arrays."""
        u = (x - self.mu_x) / self.sigma_x
        return u, (y - _regression(self, u)) / conditional_sd(self)


def _regression(q: BivariateGaussian, u):
    """mu_y + r sigma_y u at u = (x - mu_x) / sigma_x. A zero slope takes
    tanh(u), finite and of u's sign, so a far x gives mu_y, not 0 * inf."""
    slope = q.correlation * q.sigma_y
    if slope == 0.0:
        u = np.tanh(u) if isinstance(u, np.ndarray) else math.tanh(u)
    return q.mu_y + slope * u


def conditional_mean(q: BivariateGaussian, x):
    """E[Y | X = x] under q; x may be a float or a float64 array."""
    return _regression(q, (x - q.mu_x) / q.sigma_x)


def conditional_sd(q: BivariateGaussian) -> float:
    """Sd[Y | X = x] under q; does not depend on x."""
    r = q.correlation
    return q.sigma_y * math.sqrt(1.0 - r * r)


def sample_arrays(q: BivariateGaussian, rng: RandomStream,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n examples from q, reproducibly, as x and y float64 arrays.

    Example i is normals 2i and 2i+1 of numpy's ziggurat `standard_normal`
    (so a stream's first k examples are its k-example stream) through the
    covariance's lower Cholesky factor, plus the mean. The ziggurat calls
    no SIMD transcendental, only libm `exp`/`log1p` in rare branches, so
    for one numpy and one libm the draws are the same at every SIMD
    dispatch level. An overflowing draw is inf or NaN, with no warning.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    z1, z2 = rng.normals(2 * n).reshape(n, 2).T
    # lower Cholesky factor of the covariance matrix
    l21 = q.rho_cov / q.sigma_x
    l22 = conditional_sd(q)
    with np.errstate(over="ignore", invalid="ignore"):
        return q.mu_x + q.sigma_x * z1, q.mu_y + l21 * z1 + l22 * z2
