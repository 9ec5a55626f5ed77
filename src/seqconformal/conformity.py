"""Conformity measures.

Every measure maps an example to a real score under one convention:
higher means more conforming. The predictive-oracle measure is the true
conditional density of Y given X under the reference model; the
Mahalanobis and likelihood-ratio measures target detection of marginal
shifts, and the convex ensemble mixes components after per-component
online standardization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import BivariateGaussian, Example, conditional_density

_STD_FLOOR = 1e-12


def oracle_score(q0: BivariateGaussian, z: Example) -> float:
    """Conditional density of z.y given z.x under the reference model."""
    return conditional_density(q0, z.x, z.y)


def mahalanobis_score(q0: BivariateGaussian, z: Example) -> float:
    """Negated squared Mahalanobis distance from the reference mean.

    Always <= 0, with 0 exactly at the mean; sensitive to marginal mean
    shifts regardless of the conditional structure.
    """
    det = q0.sigma_x**2 * q0.sigma_y**2 - q0.rho_cov**2
    dx = z.x - q0.mu_x
    dy = z.y - q0.mu_y
    quad = (q0.sigma_y**2 * dx * dx - 2.0 * q0.rho_cov * dx * dy
            + q0.sigma_x**2 * dy * dy) / det
    return -quad


def lr_score(q0: BivariateGaussian, q1: BivariateGaussian, z: Example) -> float:
    """Negative log likelihood ratio of q1 to q0 at z.

    Higher means more conforming to the reference model q0; identically
    zero when q1 == q0.
    """
    return math.log(q0.density(z.x, z.y)) - math.log(q1.density(z.x, z.y))


class ConformityMeasure:
    """Base class: a measure scores one example at a time."""

    def score(self, z: Example) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any per-stream state (no-op for stateless measures)."""


@dataclass
class PredictiveOracle(ConformityMeasure):
    q0: BivariateGaussian

    def score(self, z: Example) -> float:
        return oracle_score(self.q0, z)


@dataclass
class Mahalanobis(ConformityMeasure):
    q0: BivariateGaussian

    def score(self, z: Example) -> float:
        return mahalanobis_score(self.q0, z)


@dataclass
class LikelihoodRatio(ConformityMeasure):
    q0: BivariateGaussian
    q1: BivariateGaussian

    def score(self, z: Example) -> float:
        return lr_score(self.q0, self.q1, z)


@dataclass
class RunningMoments:
    """Welford accumulator for online mean/std (population formula)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        if self.count == 0:
            return _STD_FLOOR
        return max(math.sqrt(self._m2 / self.count), _STD_FLOOR)

    def standardize(self, x: float) -> float:
        return (x - self.mean) / self.std


class ConvexEnsemble(ConformityMeasure):
    """Convex combination of component measures on standardized scales.

    Each component score is z-scored against its own running moments
    (updated with the current score before standardizing, so the first
    score of every component standardizes to 0), then combined with the
    given weights. Holds mutable per-stream state; call reset() between
    streams.
    """

    def __init__(self, components: list[tuple[ConformityMeasure, float]]):
        if not components:
            raise ValueError("ensemble needs at least one component")
        weights = [w for _, w in components]
        if any(w < 0 for w in weights):
            raise ValueError("ensemble weights must be nonnegative")
        if not math.isclose(sum(weights), 1.0, abs_tol=1e-9):
            raise ValueError("ensemble weights must sum to 1")
        self.components = components
        self.reset()

    def reset(self) -> None:
        self._moments = [RunningMoments() for _ in self.components]

    def score(self, z: Example) -> float:
        total = 0.0
        for (measure, weight), mom in zip(self.components, self._moments):
            raw = measure.score(z)
            mom.push(raw)
            total += weight * mom.standardize(raw)
        return total


def oracle_mahalanobis_ensemble(q0: BivariateGaussian,
                                lam: float = 0.5) -> ConvexEnsemble:
    """Predictive oracle blended with Mahalanobis at weight lam on the oracle."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    return ConvexEnsemble([
        (PredictiveOracle(q0), lam),
        (Mahalanobis(q0), 1.0 - lam),
    ])
