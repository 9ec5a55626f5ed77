"""Cryptic mean shifts for the predictive-oracle conformity measure.

A pair of bivariate Gaussians with a common covariance matrix is
invisible to the oracle transducer exactly when the shift in mu_y is
r * (sigma_y / sigma_x) times the shift in mu_x: the conditional
distribution of Y given X is then unchanged, so the conformity-score
distribution (and hence the p-value stream) is unchanged too. The set of
such mean shifts is a line through the pre-change mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .gaussian import BivariateGaussian, conditional_mean, conditional_sd

_CONSTRUCTION_TOL = 1e-12


def _slope(q0: BivariateGaussian) -> float:
    """Slope of the line of undetectable mean shifts."""
    return q0.correlation * q0.sigma_y / q0.sigma_x


def _same_covariance(q0: BivariateGaussian, q1: BivariateGaussian) -> bool:
    return (q0.sigma_x == q1.sigma_x and q0.sigma_y == q1.sigma_y
            and q0.rho_cov == q1.rho_cov)


@dataclass(frozen=True)
class CrypticPair:
    """Pre/post models with identical covariance and on-line mean shift."""

    q0: BivariateGaussian
    q1: BivariateGaussian

    def __post_init__(self):
        if not _same_covariance(self.q0, self.q1):
            raise ValueError("pair must share one covariance matrix")
        residual = abs((self.q1.mu_y - self.q0.mu_y)
                       - _slope(self.q0) * (self.q1.mu_x - self.q0.mu_x))
        # in units of sigma_y: acceptance does not depend on the unit of y
        if not residual <= _CONSTRUCTION_TOL * self.q0.sigma_y:
            raise ValueError(
                f"mean shift is off the cryptic line (residual {residual:.3e})"
            )


@dataclass(frozen=True)
class InvarianceReport:
    """Residuals of the two invariance conditions, reported unthresholded."""

    cond1_max_residual: float
    cond2_residual: float


def cryptic_line(q0: BivariateGaussian, x: float) -> float:
    """y-coordinate at x of the line of undetectable mean shifts."""
    return q0.mu_y + _slope(q0) * (x - q0.mu_x)


def cryptic_shift(q0: BivariateGaussian, delta_mu_x: float) -> CrypticPair:
    """Shift the mean along the cryptic line by delta_mu_x in x."""
    q1 = replace(q0,
                 mu_x=q0.mu_x + delta_mu_x,
                 mu_y=q0.mu_y + _slope(q0) * delta_mu_x)
    return CrypticPair(q0=q0, q1=q1)


def verify_conditions(q0: BivariateGaussian,
                      q1: BivariateGaussian) -> InvarianceReport:
    """Probe conditional-mean and conditional-variance invariance.

    The conditional mean is affine in x, so the +-5 sigma probe grid is
    redundant-by-design evidence: agreement at any two points already
    implies identity. The variance residual |var0 - var1| is taken from the
    conditional sds as |sd0 - sd1| (sd0 + sd1), so no sd is squared; it is
    exactly 0 for equal sds.
    """
    grid = [q0.mu_x + k * q0.sigma_x for k in range(-5, 6)]
    cond1 = max(abs(conditional_mean(q0, x) - conditional_mean(q1, x))
                for x in grid)
    sd0, sd1 = conditional_sd(q0), conditional_sd(q1)
    cond2 = abs(sd0 - sd1) * (sd0 + sd1)
    return InvarianceReport(cond1_max_residual=cond1, cond2_residual=cond2)
