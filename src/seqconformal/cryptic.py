"""Cryptic mean shifts for the predictive-oracle conformity measure.

The oracle sees an example only through w, its residual from Q0's
regression line E[Y | x] in units of the conditional sd. A pair of
bivariate Gaussians with a common covariance matrix is invisible to the
oracle transducer exactly when the post-change mean lies on that line:
the conditional distribution of Y given X is then unchanged, so w is
standard normal before and after, and so is the p-value stream. The set
of such mean shifts is Q0's regression line through the pre-change mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .gaussian import BivariateGaussian, conditional_mean, conditional_sd

_CONSTRUCTION_TOL = 1e-12


def _same_covariance(q0: BivariateGaussian, q1: BivariateGaussian) -> bool:
    return (q0.sigma_x == q1.sigma_x and q0.sigma_y == q1.sigma_y
            and q0.rho_cov == q1.rho_cov)


@dataclass(frozen=True)
class CrypticPair:
    """Pre/post models with identical covariance, the post mean on Q0's
    regression line."""

    q0: BivariateGaussian
    q1: BivariateGaussian

    def __post_init__(self):
        if not _same_covariance(self.q0, self.q1):
            raise ValueError("pair must share one covariance matrix")
        # `cryptic_shift` sets mu_y by this same expression, so its pairs
        # give exactly 0 at any origin. The tolerance serves pairs built by
        # hand; in units of sigma_y, acceptance does not depend on the unit
        # of y.
        residual = abs(self.q1.mu_y - conditional_mean(self.q0, self.q1.mu_x))
        if not residual <= _CONSTRUCTION_TOL * self.q0.sigma_y:
            raise ValueError(
                f"mean shift is off the cryptic line (residual {residual:.3e})"
            )


@dataclass(frozen=True)
class InvarianceReport:
    """Residuals of the two invariance conditions, reported unthresholded."""

    cond1_max_residual: float
    cond2_residual: float


def cryptic_shift(q0: BivariateGaussian, delta_mu_x: float) -> CrypticPair:
    """Shift the mean along Q0's regression line by delta_mu_x in x."""
    mu_x = q0.mu_x + delta_mu_x
    q1 = replace(q0, mu_x=mu_x, mu_y=conditional_mean(q0, mu_x))
    return CrypticPair(q0=q0, q1=q1)


def verify_conditions(q0: BivariateGaussian,
                      q1: BivariateGaussian) -> InvarianceReport:
    """Conditional-mean and conditional-variance invariance residuals.

    The conditional-mean gap is affine in x, so its largest value over
    Q0's +-5 sigma_x window is at one of the window's two ends, and the
    gap is taken there. The variance residual |var0 - var1| is taken from
    the conditional sds as |sd0 - sd1| (sd0 + sd1), so no sd is squared;
    it is exactly 0 for equal sds.
    """
    ends = (q0.mu_x - 5 * q0.sigma_x, q0.mu_x + 5 * q0.sigma_x)
    cond1 = max(abs(conditional_mean(q0, x) - conditional_mean(q1, x))
                for x in ends)
    sd0, sd1 = conditional_sd(q0), conditional_sd(q1)
    cond2 = abs(sd0 - sd1) * (sd0 + sd1)
    return InvarianceReport(cond1_max_residual=cond1, cond2_residual=cond2)
