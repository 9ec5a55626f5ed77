"""Conformity measures.

Every measure maps an example to a real score under one convention:
higher means more conforming. Every measure is a fixed function of the
example alone, so a score does not depend on when its example arrived,
and every score lives in log space, so a far-off example cannot
underflow it.

- The predictive oracle scores by the log conditional density of Y given
  X under the reference model, without its constant.
- The Mahalanobis and likelihood-ratio measures target detection of
  marginal shifts.
- The oracle-Mahalanobis ensemble adds the oracle and Mahalanobis scores,
  each standardized by its closed-form moments under the reference model.

`scores(xs, ys)` is each measure's kernel. Numpy's + - * / round as
Python's do, so a kernel takes floats and float64 arrays alike, and
`score(z)` is the kernel on one example's floats, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import (BivariateGaussian, Example, conditional_variance,
                       residual)


class ConformityMeasure:
    """Base class: a measure scores one example or a whole stream."""

    def scores(self, xs, ys):
        """The score of every example (xs[i], ys[i]), in stream order; xs
        and ys may be floats or float64 arrays."""
        raise NotImplementedError

    def score(self, z: Example) -> float:
        return float(self.scores(z.x, z.y))

    def reset(self) -> None:
        """No-op: no measure holds per-stream state. Kept because
        `perfbench/traced.py` still calls it."""


@dataclass
class PredictiveOracle(ConformityMeasure):
    """-r^2 / (2 var) with r = y - E[Y | x] and var = Var[Y | x] under q0:
    the log conditional density of y at x without its constant."""

    q0: BivariateGaussian

    def scores(self, xs, ys):
        # r * r, not r ** 2: Python's float ** calls libm pow, which can
        # differ from numpy's square in the last bit.
        r = residual(self.q0, xs, ys)
        return -(r * r) / (2.0 * conditional_variance(self.q0))


@dataclass
class Mahalanobis(ConformityMeasure):
    """Negated squared Mahalanobis distance from the mean of q0 (at most
    0); sensitive to marginal mean shifts."""

    q0: BivariateGaussian

    def scores(self, xs, ys):
        return -self.q0.quad(xs, ys)


@dataclass
class LikelihoodRatio(ConformityMeasure):
    """Negative log likelihood ratio of q1 to q0; zero when q1 == q0."""

    q0: BivariateGaussian
    q1: BivariateGaussian

    def scores(self, xs, ys):
        return (0.5 * (self.q1.quad(xs, ys) - self.q0.quad(xs, ys))
                + 0.5 * math.log(self.q1.determinant / self.q0.determinant))


@dataclass
class OracleMahalanobisEnsemble(ConformityMeasure):
    """The oracle at weight lam plus Mahalanobis at weight 1 - lam, each
    standardized by its moments under q0.

    Under q0 the oracle score is -chi2_1 / 2 (mean -1/2, sd 1/sqrt(2))
    and the Mahalanobis score is -chi2_2 (mean -2, sd 2).
    """

    q0: BivariateGaussian
    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("ensemble weight lam must lie in [0, 1]")

    def scores(self, xs, ys):
        o = PredictiveOracle(self.q0).scores(xs, ys)
        m = Mahalanobis(self.q0).scores(xs, ys)
        return (self.lam * math.sqrt(2.0) * (o + 0.5)
                + (1.0 - self.lam) * (m + 2.0) / 2.0)
