"""Conformity measures.

Every measure maps an example to a real score under one convention:
higher means more conforming. The predictive-oracle measure is the true
conditional density of Y given X under the reference model; the
Mahalanobis and likelihood-ratio measures target detection of marginal
shifts, and the convex ensemble mixes components after per-component
online standardization.

`scores(xs, ys)` scores a whole stream given as x and y float64 arrays;
`score(z)` scores one example with Python floats, and gives the same bits.
Numpy's + - * / round as Python's do, so the array forms use them freely;
the oracle density keeps Python's `d ** 2` (libm `pow`), which differs
from numpy's square in the last bit on some residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (BivariateGaussian, Example, conditional_density,
                       conditional_variance, residual)

_STD_FLOOR = 1e-12
_TWO_PI = 2.0 * math.pi


def oracle_score(q0: BivariateGaussian, z: Example) -> float:
    """Conditional density of z.y given z.x under the reference model."""
    return conditional_density(q0, z.x, z.y)


def mahalanobis_score(q0: BivariateGaussian, z: Example) -> float:
    """Negated squared Mahalanobis distance from the reference mean.

    Always <= 0, with 0 exactly at the mean; sensitive to marginal mean
    shifts regardless of the conditional structure.
    """
    return -q0.quad(z.x, z.y)


def _lr_scores(q0: BivariateGaussian, q1: BivariateGaussian, x, y):
    """lr_score of (x, y); x and y may be floats or float64 arrays."""
    return (0.5 * (q1.quad(x, y) - q0.quad(x, y))
            + 0.5 * math.log(q1.determinant / q0.determinant))


def lr_score(q0: BivariateGaussian, q1: BivariateGaussian, z: Example) -> float:
    """Negative log likelihood ratio of q1 to q0 at z.

    Higher means more conforming to the reference model q0; identically
    zero when q1 == q0. Computed in log space,
    0.5 * (quad_1 - quad_0) + 0.5 * log(det_1 / det_0), so a point far
    from both means cannot underflow a density.
    """
    return _lr_scores(q0, q1, z.x, z.y)


class ConformityMeasure:
    """Base class: a measure scores a stream of examples."""

    def score(self, z: Example) -> float:
        raise NotImplementedError

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The score of every example (xs[i], ys[i]), in stream order."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any per-stream state (no-op for stateless measures)."""


@dataclass
class PredictiveOracle(ConformityMeasure):
    q0: BivariateGaussian

    def score(self, z: Example) -> float:
        return oracle_score(self.q0, z)

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # conditional_density per element, on Python floats
        var = conditional_variance(self.q0)
        s = math.sqrt(_TWO_PI * var)
        return np.array([math.exp(-0.5 * d ** 2 / var) / s
                         for d in residual(self.q0, xs, ys).tolist()],
                        dtype=np.float64)


@dataclass
class Mahalanobis(ConformityMeasure):
    q0: BivariateGaussian

    def score(self, z: Example) -> float:
        return mahalanobis_score(self.q0, z)

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return -self.q0.quad(xs, ys)


@dataclass
class LikelihoodRatio(ConformityMeasure):
    q0: BivariateGaussian
    q1: BivariateGaussian

    def score(self, z: Example) -> float:
        return lr_score(self.q0, self.q1, z)

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return _lr_scores(self.q0, self.q1, xs, ys)


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

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The same Welford updates as `score`, inline on Python floats,
        one component at a time; the moments carry on from, and are left
        at, the state after the last example."""
        totals = [0.0] * len(xs)
        for (measure, weight), mom in zip(self.components, self._moments):
            count, mean, m2 = mom.count, mom.mean, mom._m2
            for i, raw in enumerate(measure.scores(xs, ys).tolist()):
                count += 1
                delta = raw - mean
                mean += delta / count
                m2 += delta * (raw - mean)
                std = max(math.sqrt(m2 / count), _STD_FLOOR)
                totals[i] += weight * ((raw - mean) / std)
            mom.count, mom.mean, mom._m2 = count, mean, m2
        return np.array(totals, dtype=np.float64)


def oracle_mahalanobis_ensemble(q0: BivariateGaussian,
                                lam: float = 0.5) -> ConvexEnsemble:
    """Predictive oracle blended with Mahalanobis at weight lam on the oracle."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    return ConvexEnsemble([
        (PredictiveOracle(q0), lam),
        (Mahalanobis(q0), 1.0 - lam),
    ])
