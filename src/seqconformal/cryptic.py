"""Changes that are invisible to the predictive-oracle conformity measure.

The oracle scores an example by -w^2 / 2, where w is its whitened
residual from Q0's regression line E[Y | x] (`BivariateGaussian.whiten`).
w is affine in (x, y), so under any bivariate Gaussian Q1 it is normal,
and its law is fixed by two numbers: its mean and sd under Q1
(`oracle_law`). A change Q0 -> Q1 is cryptic to the oracle exactly when
they are 0 and 1, for then w, the scores and the p-value stream have the
same law before and after. That holds for every mean shift along Q0's
regression line (`cryptic_shift`, the paper's construction, whose law is
exactly (0, 1) at any origin), and also for covariance changes that keep
the law of w, slope changes up to a sign flip among them.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .gaussian import BivariateGaussian, conditional_mean, conditional_sd


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


def cryptic_shift(q0: BivariateGaussian,
                  delta_mu_x: float) -> BivariateGaussian:
    """Q0 with its mean shifted along its regression line by delta_mu_x in
    x. mu_y is set by the expression `whiten` uses, so `oracle_law` of the
    pair is exactly (0, 1); ValueError if the shifted mean is not finite."""
    mu_x = q0.mu_x + delta_mu_x
    mu_y = conditional_mean(q0, mu_x)
    if not (math.isfinite(mu_x) and math.isfinite(mu_y)):
        raise ValueError(f"the shifted mean ({mu_x!r}, {mu_y!r}) is not finite")
    return replace(q0, mu_x=mu_x, mu_y=mu_y)
