"""Changes that are invisible to the predictive-oracle conformity measure.

The oracle scores an example by -w^2 / 2, where w is its whitened
residual from Q0's regression line E[Y | x] (`BivariateGaussian.whiten`).
w is affine in (x, y), so under any bivariate Gaussian Q1 it is normal,
and its law is fixed by two numbers: its mean and sd under Q1
(`oracle_law`). A change Q0 -> Q1 is cryptic to the oracle exactly when
they are 0 and 1, for then w, the scores and the p-value stream have the
same law before and after. That holds for every mean shift along Q0's
regression line (`cryptic_shift`, the paper's construction), and also
for covariance changes that keep the law of w, slope changes up to a
sign flip among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .gaussian import BivariateGaussian, conditional_mean, conditional_sd

_CONSTRUCTION_TOL = 1e-12


def oracle_law(q0: BivariateGaussian,
               q1: BivariateGaussian) -> tuple[float, float]:
    """Mean and sd under q1 of w, the oracle's whitened residual under q0.

    With x = mu_x1 + sigma_x1 z1 and y = mu_y1 + r1 sigma_y1 z1 + sd1 z2,
    w - E1[w] = ((r1 sigma_y1 - r0 sigma_y0 sigma_x1 / sigma_x0) z1
    + sd1 z2) / sd0, so no scale is squared. A zero slope r0 sigma_y0
    leaves its term out, as `whiten` does, so it is never 0 * inf.
    """
    slope0 = q0.correlation * q0.sigma_y
    along = slope0 * (q1.sigma_x / q0.sigma_x) if slope0 else 0.0
    sd = math.hypot(q1.correlation * q1.sigma_y - along, conditional_sd(q1))
    return q0.whiten(q1.mu_x, q1.mu_y)[1], sd / conditional_sd(q0)


@dataclass(frozen=True)
class CrypticPair:
    """Pre/post models under which the oracle's w has the same law."""

    q0: BivariateGaussian
    q1: BivariateGaussian

    def __post_init__(self):
        # `cryptic_shift` sets mu_y by the expression `whiten` uses, so its
        # pairs give exactly (0, 1) at any origin. The tolerance, in units
        # of w, serves pairs built by hand; a nan fails it.
        mean, sd = oracle_law(self.q0, self.q1)
        if not (abs(mean) <= _CONSTRUCTION_TOL
                and abs(sd - 1.0) <= _CONSTRUCTION_TOL):
            raise ValueError(
                f"change is off the cryptic line: under the post model the "
                f"oracle's w has mean {mean:.3e} and sd {sd:.3e}, not 0 and 1")


def cryptic_shift(q0: BivariateGaussian, delta_mu_x: float) -> CrypticPair:
    """Shift the mean along Q0's regression line by delta_mu_x in x."""
    mu_x = q0.mu_x + delta_mu_x
    q1 = replace(q0, mu_x=mu_x, mu_y=conditional_mean(q0, mu_x))
    return CrypticPair(q0=q0, q1=q1)
