"""Conformity measures.

Every measure maps an example to a real score under one convention:
higher means more conforming. Every measure is a fixed function of the
example alone, so a score does not depend on when its example arrived,
and every score lives in log space, so a far-off example cannot
underflow it.

Each kernel whitens the examples once per model it uses
(`BivariateGaussian.whiten`) and never builds another measure. Under that
model u and w are independent standard normals, and a sum of their
squares is never NaN: far enough out it is inf, and the score -inf.

- The predictive oracle scores -w^2 / 2: the log conditional density of Y
  given X under the reference model, without its constant.
- Mahalanobis scores -(u^2 + w^2); the likelihood ratio is half the
  difference of two such sums plus a constant: NaN (inf - inf) past about
  1e154 sds from both models, where no run draws, for each draw lies near
  its own model. Both target marginal shifts.
- The oracle-Mahalanobis ensemble adds the oracle and Mahalanobis scores,
  each standardized by its closed-form moments under the reference model.

`scores(xs, ys)` is each measure's kernel. Numpy's + - * / round as
Python's do, so a kernel takes floats and float64 arrays alike, and
`score(z)` is the kernel on one example's floats, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import BivariateGaussian


class ConformityMeasure:
    """Base class: a measure scores one example or a whole stream."""

    def scores(self, xs, ys):
        """The score of every example (xs[i], ys[i]), in stream order; xs
        and ys may be floats or float64 arrays."""
        raise NotImplementedError

    def score(self, z) -> float:
        return float(self.scores(z.x, z.y))

    def reset(self) -> None:
        """No-op: no measure holds per-stream state. It and `score(z)` are
        kept because `perfbench/traced.py` still calls them."""


@dataclass
class PredictiveOracle(ConformityMeasure):
    """-w^2 / 2 with w = (y - E[Y | x]) / Sd[Y | x] under q0: the log
    conditional density of y at x without its constant."""

    q0: BivariateGaussian

    def scores(self, xs, ys):
        # w * w, not w ** 2: Python's float ** calls libm pow, which can
        # differ from numpy's square in the last bit.
        _, w = self.q0.whiten(xs, ys)
        return -0.5 * (w * w)


@dataclass
class Mahalanobis(ConformityMeasure):
    """Negated squared Mahalanobis distance from the mean of q0, -(u^2 +
    w^2) (at most 0); sensitive to marginal mean shifts."""

    q0: BivariateGaussian

    def scores(self, xs, ys):
        u, w = self.q0.whiten(xs, ys)
        return -(u * u + w * w)


@dataclass
class LikelihoodRatio(ConformityMeasure):
    """Negative log likelihood ratio of q1 to q0; zero when q1 == q0.

    Its constant is log(|Sigma1| / |Sigma0|) / 2, with |Sigma| =
    sigma_x^2 sigma_y^2 (1 - r^2) taken factor by factor, so no scale is
    squared."""

    q0: BivariateGaussian
    q1: BivariateGaussian

    def scores(self, xs, ys):
        q0, q1 = self.q0, self.q1
        r0, r1 = q0.correlation, q1.correlation
        half_log_det = (math.log(q1.sigma_x / q0.sigma_x)
                        + math.log(q1.sigma_y / q0.sigma_y)
                        + 0.5 * math.log((1.0 - r1 * r1) / (1.0 - r0 * r0)))
        u0, w0 = q0.whiten(xs, ys)
        u1, w1 = q1.whiten(xs, ys)
        return 0.5 * ((u1 * u1 + w1 * w1) - (u0 * u0 + w0 * w0)) + half_log_det


@dataclass
class OracleMahalanobisEnsemble(ConformityMeasure):
    """The oracle at weight lam plus Mahalanobis at weight 1 - lam, each
    standardized by its moments under q0: -w^2/2 is -chi2_1/2 (mean -1/2,
    sd 1/sqrt(2)) and -(u^2 + w^2) is -chi2_2 (mean -2, sd 2). Expanded,
    lam sqrt(2) (1/2 - w^2/2) + (1 - lam) (2 - u^2 - w^2) / 2 is
    c - (a w^2 + b u^2), with a = lam/sqrt(2) + (1 - lam)/2,
    b = (1 - lam)/2 and c = lam/sqrt(2) + 1 - lam.
    """

    q0: BivariateGaussian
    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("ensemble weight lam must lie in [0, 1]")

    def scores(self, xs, ys):
        lam = self.lam
        a = lam / math.sqrt(2.0) + (1.0 - lam) / 2.0
        b = (1.0 - lam) / 2.0
        c = lam / math.sqrt(2.0) + 1.0 - lam
        u, w = self.q0.whiten(xs, ys)
        # At lam = 1 the u term goes, for 0 * u * u is NaN at an infinite u.
        return c - a * w * w if b == 0.0 else c - (a * w * w + b * u * u)
