"""Bivariate Gaussian data model.

Parameterization, closed-form conditional quantities of Y given X, and
deterministic sampling. The off-diagonal covariance entry is stored as a
covariance; the implied correlation ``r = rho_cov / (sigma_x * sigma_y)``
is what enters the conditional-mean slope and conditional variance, which
is dimensionally correct and coincides with the covariance reading at unit
marginal variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
        if not (self.sigma_x > 0.0 and self.sigma_y > 0.0):
            raise ValueError("standard deviations must be strictly positive")
        if not abs(self.correlation) < 1.0:
            raise ValueError(
                "covariance matrix must be strictly positive definite "
                f"(|correlation| = {abs(self.correlation)} >= 1)"
            )

    @property
    def correlation(self) -> float:
        return self.rho_cov / (self.sigma_x * self.sigma_y)

    @property
    def determinant(self) -> float:
        return self.sigma_x**2 * self.sigma_y**2 - self.rho_cov**2

    def quad(self, x, y):
        """Quadratic form d^T Sigma^{-1} d of d = (x, y) - mean, with the
        2x2 inverse written out; x and y may be floats or float64 arrays."""
        dx = x - self.mu_x
        dy = y - self.mu_y
        return (self.sigma_y**2 * dx * dx - 2.0 * self.rho_cov * dx * dy
                + self.sigma_x**2 * dy * dy) / self.determinant


@dataclass(frozen=True)
class Example:
    """One observation z = (x, y) from the stream."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("example coordinates must be finite")


def conditional_mean(q: BivariateGaussian, x):
    """E[Y | X = x] under q; x may be a float or a float64 array."""
    r = q.correlation
    return q.mu_y + r * q.sigma_y * (x - q.mu_x) / q.sigma_x


def _square(v: float) -> float:
    """v**2 (libm pow, which x * x need not match); inf where it overflows."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def conditional_variance(q: BivariateGaussian) -> float:
    """Var[Y | X = x] under q; does not depend on x."""
    r = q.correlation
    return (1.0 - r * r) * _square(q.sigma_y)


def residual(q: BivariateGaussian, x, y):
    """y - E[Y | X = x] under q; x and y may be floats or float64 arrays."""
    return y - conditional_mean(q, x)


class NonFiniteDraw(ValueError):
    """A draw of `sample_arrays` that overflowed: its 0-based index among
    the draws of the call, and its (x, y)."""

    def __init__(self, index: int, x: float, y: float):
        self.index, self.x, self.y = index, x, y
        super().__init__(
            f"draw {index} is not finite: (x, y) = ({x!r}, {y!r})")


def sample_arrays(q: BivariateGaussian, rng: RandomStream,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw n examples from q, reproducibly, as x and y float64 arrays.

    Example i is normals 2i and 2i+1 of numpy's ziggurat `standard_normal`
    (so a stream's first k examples are its k-example stream) through the
    covariance's lower Cholesky factor, plus the mean. The ziggurat calls
    no SIMD transcendental, only libm `exp`/`log1p` in rare branches, so
    for one numpy and one libm the draws are the same at every SIMD
    dispatch level. The first overflowing draw raises `NonFiniteDraw`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    z1, z2 = rng.normals(2 * n).reshape(n, 2).T
    # lower Cholesky factor of the covariance matrix
    l21 = q.rho_cov / q.sigma_x
    l22 = math.sqrt(_square(q.sigma_y) - l21 * l21)
    # An overflow is reported below, with the draw it happened in.
    with np.errstate(over="ignore", invalid="ignore"):
        xs = q.mu_x + q.sigma_x * z1
        ys = q.mu_y + l21 * z1 + l22 * z2
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteDraw(i, float(xs[i]), float(ys[i]))
    return xs, ys


def sample(q: BivariateGaussian, rng: RandomStream, n: int) -> list[Example]:
    """`sample_arrays` as one `Example` per draw."""
    xs, ys = sample_arrays(q, rng, n)
    return [Example(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def columns(stream: Iterable[Example]) -> tuple[np.ndarray, np.ndarray]:
    """The x and y coordinates of a stream of examples, as float64 arrays."""
    stream = list(stream)
    return (np.array([z.x for z in stream], dtype=np.float64),
            np.array([z.y for z in stream], dtype=np.float64))
