"""Bivariate Gaussian data model.

Parameterization, closed-form conditional quantities of Y given X, and
deterministic sampling. The off-diagonal covariance entry is stored as a
covariance; the implied correlation ``r = rho_cov / sigma_x / sigma_y``
is what enters the conditional-mean slope and conditional sd, which is
dimensionally correct and coincides with the covariance reading at unit
marginal variances.

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
        return self.rho_cov / self.sigma_x / self.sigma_y

    def whiten(self, x, y):
        """The whitened coordinates (u, w) of (x, y): u = (x - mu_x) /
        sigma_x and w = (y - E[Y | x]) / Sd[Y | x], independent standard
        normals under this model; x and y may be floats or float64
        arrays."""
        u = (x - self.mu_x) / self.sigma_x
        w = ((y - (self.mu_y + self.correlation * self.sigma_y * u))
             / conditional_sd(self))
        return u, w


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
    return q.mu_y + r * q.sigma_y * ((x - q.mu_x) / q.sigma_x)


def conditional_sd(q: BivariateGaussian) -> float:
    """Sd[Y | X = x] under q; does not depend on x."""
    r = q.correlation
    return q.sigma_y * math.sqrt(1.0 - r * r)


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
    l22 = conditional_sd(q)
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
