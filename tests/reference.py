"""Single-step reference implementations.

The package computes every stage over whole arrays. Each stage has one
form here, which does the same computation the obvious way, one example or
one step at a time, and the tests compare the package against it bit for
bit; the forms check no argument, and nothing tests them. The module also holds the model's mean
vector and covariance matrix, and the two-sample KS reject rule of the
score-law tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
from scipy.stats import ks_2samp

from seqconformal import (BivariateGaussian, JumperConfig, LikelihoodRatio,
                          Mahalanobis, OracleMahalanobisEnsemble,
                          PredictiveOracle, conditional_mean)
from seqconformal.gaussian import conditional_sd


class ScoreStore:
    """Sorted multiset of scores with rank queries; O(n) insert."""

    def __init__(self):
        self._scores: list[float] = []

    @property
    def size(self) -> int:
        return len(self._scores)

    def insert(self, alpha: float) -> None:
        insort(self._scores, alpha)

    def count_less(self, alpha: float) -> int:
        return bisect_left(self._scores, alpha)

    def count_equal(self, alpha: float) -> int:
        return bisect_right(self._scores, alpha) - bisect_left(self._scores, alpha)

    def kth_smallest(self, k: int) -> float:
        """1-based order statistic."""
        return self._scores[k - 1]


def observe(store: ScoreStore, alpha_n: float, tau: float) -> float:
    """Smoothed p-value of alpha_n against the store, which already holds
    it: the bag includes the new example."""
    return (store.count_less(alpha_n)
            + tau * store.count_equal(alpha_n)) / store.size


def predict_interval(q0: BivariateGaussian, store: ScoreStore, x: float,
                     epsilon: float) -> tuple[float, float, float]:
    """(center, lower, upper) of the level-(1 - epsilon) interval for Y at
    x against the stored |r|.

    The store holds the absolute residuals |y - E_Q0[Y | x]| of the
    earlier examples. The half-width is the upper order statistic at rank
    ceil(epsilon * (size + 1)), a conservative tie-breaking choice.
    """
    rank = min(math.ceil(epsilon * (store.size + 1)), store.size)
    center = conditional_mean(q0, x)
    halfwidth = store.kth_smallest(store.size + 1 - rank)
    return center, center - halfwidth, center + halfwidth


def left_sum(values: Iterable[float]) -> float:
    """Sum from 0.0, left to right: Python 3.11's `sum` of floats. From
    3.12 `sum` compensates, which can change the last bits."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass
class CapitalState:
    """Per-epsilon capitals and the decimal rescaling exponent: the total
    capital is left_sum(capitals) * 10**log10_scale."""

    capitals: list[float]
    log10_scale: float = 0.0

    @property
    def log10_total(self) -> float:
        return math.log10(left_sum(self.capitals)) + self.log10_scale


def initial_state(cfg: JumperConfig) -> CapitalState:
    """A total of 1, split uniformly across the epsilon grid."""
    k = len(cfg.epsilons)
    return CapitalState(capitals=[1.0 / k] * k)


def jumper_step(state: CapitalState, cfg: JumperConfig,
                p: float) -> CapitalState:
    """One update: mix, bet with f_eps(p) = 1 + eps * (p - 1/2), and
    rescale by a power of ten whenever the capital sum leaves
    [10^-6, 10^6]."""
    k = len(cfg.epsilons)
    total = left_sum(state.capitals)
    j = cfg.jump_rate
    mixed = [(1.0 - j) * c + (j / k) * total for c in state.capitals]
    bet = [c * (1.0 + e * (p - 0.5)) for c, e in zip(mixed, cfg.epsilons)]
    scale = state.log10_scale
    s = left_sum(bet)
    if s > 1e6 or s < 1e-6:
        m = math.floor(math.log10(s))
        factor = 10.0**m
        bet = [c / factor for c in bet]
        scale += m
    return CapitalState(capitals=bet, log10_scale=scale)


def mean(q: BivariateGaussian) -> np.ndarray:
    return np.array([q.mu_x, q.mu_y])


def covariance(q: BivariateGaussian) -> np.ndarray:
    return np.array([[q.sigma_x**2, q.rho_cov], [q.rho_cov, q.sigma_y**2]])


def conditional_density(q: BivariateGaussian, x: float, y: float) -> float:
    """pdf of Y | X = x under q, evaluated at y."""
    var = conditional_sd(q) ** 2
    mu = conditional_mean(q, x)
    return math.exp(-0.5 * (y - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def quadratic_form(q: BivariateGaussian, x, y):
    """d^T Sigma^{-1} d for d = (x, y) - mean, from `covariance(q)` with its
    cross term: the unwhitened form of u^2 + w^2."""
    (sxx, sxy), (_, syy) = covariance(q)
    dx, dy = x - q.mu_x, y - q.mu_y
    return (syy * dx * dx - 2.0 * sxy * dx * dy + sxx * dy * dy) / (
        sxx * syy - sxy * sxy)


def whitened(q: BivariateGaussian, x: float, y: float) -> tuple[float, float]:
    """(u, w) of one example under q, with w taken from `conditional_mean`."""
    return ((x - q.mu_x) / q.sigma_x,
            (y - conditional_mean(q, x)) / conditional_sd(q))


def score_fold(measure, points) -> list[float]:
    """The score of each (x, y) of a stream, one example at a time."""
    if isinstance(measure, PredictiveOracle):
        ws = [whitened(measure.q0, x, y)[1] for x, y in points]
        return [-0.5 * (w * w) for w in ws]
    if isinstance(measure, Mahalanobis):
        uws = [whitened(measure.q0, x, y) for x, y in points]
        return [-(u * u + w * w) for u, w in uws]
    if isinstance(measure, LikelihoodRatio):
        # half the log determinant ratio, one covariance factor at a time
        q0, q1 = measure.q0, measure.q1
        r0, r1 = q0.correlation, q1.correlation
        half_log_det = (math.log(q1.sigma_x / q0.sigma_x)
                        + math.log(q1.sigma_y / q0.sigma_y)
                        + 0.5 * math.log((1.0 - r1 * r1) / (1.0 - r0 * r0)))
        scores = []
        for x, y in points:
            u0, w0 = whitened(q0, x, y)
            u1, w1 = whitened(q1, x, y)
            scores.append(0.5 * ((u1 * u1 + w1 * w1) - (u0 * u0 + w0 * w0))
                          + half_log_det)
        return scores
    if isinstance(measure, OracleMahalanobisEnsemble):
        # the two standardized components, expanded into one sum of squares
        lam = measure.lam
        a = lam / math.sqrt(2.0) + (1.0 - lam) / 2.0
        b = (1.0 - lam) / 2.0
        c = lam / math.sqrt(2.0) + 1.0 - lam
        uws = [whitened(measure.q0, x, y) for x, y in points]
        return [c - (a * w * w + b * u * u) for u, w in uws]
    raise TypeError(f"no reference score for {type(measure).__name__}")


def two_sample_ks_rejects(a, b) -> bool:
    """The two-sample KS test at alpha 0.01, by its asymptotic threshold."""
    n, m = len(a), len(b)
    return ks_2samp(a, b).statistic > 1.628 * math.sqrt((n + m) / (n * m))


def fmt(x: float) -> str:
    return "%.17g" % x


def write_csv(path: Path, header: list[str],
              rows: Iterable[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_csvs(out: Path, n_pre: int, xs: np.ndarray, ys: np.ndarray,
               pvalues: np.ndarray, trajectory: np.ndarray,
               intervals) -> None:
    """The four CSV artifacts, one formatted string per value."""
    pvalues = pvalues.tolist()
    trajectory = trajectory.tolist()
    n = len(xs)
    phase = ["pre" if i <= n_pre else "post"
             for i in range(1, n + 1)]
    write_csv(out / "stream.csv", ["step", "x", "y", "phase"],
              ([str(i + 1), fmt(x), fmt(y), phase[i]]
               for i, (x, y) in enumerate(zip(xs.tolist(),
                                              ys.tolist()))))
    write_csv(out / "pvalues.csv", ["step", "pvalue", "phase"],
              ([str(i + 1), fmt(p), phase[i]]
               for i, p in enumerate(pvalues)))
    write_csv(out / "martingale.csv", ["step", "log10_capital"],
              ([str(i), fmt(c)] for i, c in enumerate(trajectory)))
    interval_rows = zip(
        range(2, n + 1), intervals.center.tolist(),
        intervals.lower.tolist(), intervals.upper.tolist(),
        intervals.width.tolist(), intervals.covered.tolist())
    write_csv(out / "intervals.csv",
              ["step", "center", "lower", "upper", "width", "covered"],
              ([str(step), fmt(c), fmt(lo), fmt(up), fmt(w),
                "1" if cov else "0"]
               for step, c, lo, up, w, cov in interval_rows))
