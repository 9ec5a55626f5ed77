"""Conformity measures.

Every measure maps an example to a real score under one convention:
higher means more conforming. The predictive-oracle measure is the true
conditional density of Y given X under the reference model; the
Mahalanobis and likelihood-ratio measures target detection of marginal
shifts, and the convex ensemble mixes components after per-component
online standardization.

`scores(xs, ys)` scores a whole stream given as x and y float64 arrays;
`score(z)` scores one example through the same kernel, so it gives the
same bits. Numpy's + - * / round as Python's do, so the kernels take
floats and arrays alike; the oracle density stays on Python floats for
`d ** 2` (libm `pow`), which differs from numpy's square in the last bit
on some residuals. The ensemble's `score` and `scores` share one Welford
fold, so the two can be mixed on one stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (BivariateGaussian, Example, conditional_variance,
                       residual)

_STD_FLOOR = 1e-12
_TWO_PI = 2.0 * math.pi


def _densities(q0: BivariateGaussian, residuals: list[float]) -> list[float]:
    """Conditional density under q0 of each residual y - E[Y | x]."""
    var = conditional_variance(q0)
    s = math.sqrt(_TWO_PI * var)
    return [math.exp(-0.5 * d ** 2 / var) / s for d in residuals]


def _lr_scores(q0: BivariateGaussian, q1: BivariateGaussian, x, y):
    """Negative log likelihood ratio of q1 to q0 at (x, y), in log space so
    a point far from both means cannot underflow a density; zero when
    q1 == q0. x and y may be floats or float64 arrays."""
    return (0.5 * (q1.quad(x, y) - q0.quad(x, y))
            + 0.5 * math.log(q1.determinant / q0.determinant))


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
        return _densities(self.q0, [residual(self.q0, z.x, z.y)])[0]

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.array(_densities(self.q0, residual(self.q0, xs, ys).tolist()),
                        dtype=np.float64)


@dataclass
class Mahalanobis(ConformityMeasure):
    """Negated squared Mahalanobis distance from the mean of q0 (at most
    0); sensitive to marginal mean shifts."""

    q0: BivariateGaussian

    def score(self, z: Example) -> float:
        return -self.q0.quad(z.x, z.y)

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return -self.q0.quad(xs, ys)


@dataclass
class LikelihoodRatio(ConformityMeasure):
    q0: BivariateGaussian
    q1: BivariateGaussian

    def score(self, z: Example) -> float:
        return _lr_scores(self.q0, self.q1, z.x, z.y)

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return _lr_scores(self.q0, self.q1, xs, ys)


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
        # Welford (count, mean, m2) of each component's raw scores so far
        self._moments = [(0, 0.0, 0.0)] * len(self.components)

    def _fold(self, raws: list[list[float]]) -> list[float]:
        """Combined scores of the examples whose raw component scores are
        raws[c]; the moments carry on from, and are left at, the state
        after the last example."""
        totals = [0.0] * len(raws[0])
        for c, (_, weight) in enumerate(self.components):
            count, mean, m2 = self._moments[c]
            for i, raw in enumerate(raws[c]):
                count += 1
                delta = raw - mean
                mean += delta / count
                m2 += delta * (raw - mean)
                std = max(math.sqrt(m2 / count), _STD_FLOOR)
                totals[i] += weight * ((raw - mean) / std)
            self._moments[c] = (count, mean, m2)
        return totals

    def score(self, z: Example) -> float:
        return self._fold([[m.score(z)] for m, _ in self.components])[0]

    def scores(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.array(self._fold([m.scores(xs, ys).tolist()
                                    for m, _ in self.components]),
                        dtype=np.float64)


def oracle_mahalanobis_ensemble(q0: BivariateGaussian,
                                lam: float = 0.5) -> ConvexEnsemble:
    """Predictive oracle blended with Mahalanobis at weight lam on the oracle."""
    return ConvexEnsemble([
        (PredictiveOracle(q0), lam),
        (Mahalanobis(q0), 1.0 - lam),
    ])
