"""Single-step reference implementations.

The package computes every stage over whole arrays. The forms here do the
same computations the obvious way, one example or one step at a time, and
the tests compare the package against them bit for bit. The module also
holds helpers that only the tests use: the model's mean vector and
covariance matrix, and the two-sample KS test.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from seqconformal import (BivariateGaussian, JumperConfig, KSReport,
                          LikelihoodRatio, Mahalanobis,
                          OracleMahalanobisEnsemble, PredictiveOracle,
                          conditional_mean)
from seqconformal.gaussian import conditional_sd
from seqconformal.intervals import IntervalSeries
from seqconformal.stats import _check_alpha


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
        if not 1 <= k <= len(self._scores):
            raise IndexError(f"rank {k} out of range for store of size {len(self._scores)}")
        return self._scores[k - 1]


def store_of(scores) -> ScoreStore:
    store = ScoreStore()
    for s in scores:
        store.insert(s)
    return store


def observe(store: ScoreStore, alpha_n: float, tau: float) -> float:
    """Smoothed p-value of alpha_n against the store.

    alpha_n must already have been inserted (the bag includes the new
    example), so count_equal >= 1 and the result lies in [tau/n, 1].
    """
    if store.size == 0:
        raise ValueError("score store is empty")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return (store.count_less(alpha_n)
            + tau * store.count_equal(alpha_n)) / store.size


@dataclass(frozen=True)
class PredictionInterval:
    lower: float
    upper: float
    center: float
    step_index: int

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper


def predict_interval(q0: BivariateGaussian, store: ScoreStore, x: float,
                     epsilon: float, step_index: int = 0) -> PredictionInterval:
    """Level-(1 - epsilon) interval for Y at x against the stored |r|.

    The store holds the absolute residuals |y - E_Q0[Y | x]| of the
    earlier examples. The half-width is the upper order statistic at rank
    ceil(epsilon * (size + 1)), a conservative tie-breaking choice.
    """
    if store.size == 0:
        raise ValueError("score store is empty")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    rank = min(math.ceil(epsilon * (store.size + 1)), store.size)
    center = conditional_mean(q0, x)
    halfwidth = store.kth_smallest(store.size + 1 - rank)
    return PredictionInterval(lower=center - halfwidth,
                              upper=center + halfwidth,
                              center=center,
                              step_index=step_index)


def two_heap_series(xs: np.ndarray, ys: np.ndarray, q0: BivariateGaussian,
                    epsilon: float) -> IntervalSeries:
    """`interval_series` as one loop over whole-stream lists, with both
    heaps kept whole: every |r| stays stored until the end."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    center = conditional_mean(q0, xs)
    abs_r = np.abs(ys - center).tolist()
    m = np.arange(1, len(xs))  # m residuals are stored at step m + 1
    rank = np.minimum(np.ceil(epsilon * (m + 1)), m)
    grows = (np.diff(rank, prepend=0.0) > 0).tolist()
    push, pushpop, pop = heapq.heappush, heapq.heappushpop, heapq.heappop
    largest: list[float] = []
    rest: list[float] = []  # negated
    halfwidths = []
    for r, grow in zip(abs_r, grows):
        # The smaller of r and the top of largest moves on to rest.
        push(rest, -pushpop(largest, r))
        if grow:
            push(largest, -pop(rest))
        halfwidths.append(largest[0])
    halfwidth = np.array(halfwidths)
    center = center[1:]
    lower = center - halfwidth
    upper = center + halfwidth
    ys = ys[1:]
    return IntervalSeries(center=center, lower=lower, upper=upper,
                          width=upper - lower,
                          covered=(lower <= ys) & (ys <= upper))


def left_sum(values: Iterable[float]) -> float:
    """Sum from 0.0, left to right: Python 3.11's `sum` of floats. From
    3.12 `sum` compensates, which can change the last bits."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass
class CapitalState:
    """Per-epsilon capitals, decimal rescaling exponent, and step count.

    Total capital is left_sum(capitals) * 10**log10_scale; it starts at 1,
    split uniformly across the epsilon grid.
    """

    capitals: list[float]
    log10_scale: float = 0.0
    step: int = 0

    @property
    def log10_total(self) -> float:
        return math.log10(left_sum(self.capitals)) + self.log10_scale

    @property
    def total(self) -> float:
        return left_sum(self.capitals) * 10.0**self.log10_scale


def initial_state(cfg: JumperConfig) -> CapitalState:
    k = len(cfg.epsilons)
    return CapitalState(capitals=[1.0 / k] * k)


def betting_function(epsilon: float, p: float) -> float:
    """f_eps(p) = 1 + eps * (p - 1/2); integrates to 1 over [0, 1]."""
    return 1.0 + epsilon * (p - 0.5)


def jumper_step(state: CapitalState, cfg: JumperConfig, p: float,
                renorm_exponent: int = 6) -> CapitalState:
    """One mix-then-bet update of the capital state.

    Rescales by a power of ten whenever the capital sum leaves
    [10^-renorm_exponent, 10^renorm_exponent]; the reported total is
    invariant under rescaling.
    """
    k = len(cfg.epsilons)
    total = left_sum(state.capitals)
    j = cfg.jump_rate
    mixed = [(1.0 - j) * c + (j / k) * total for c in state.capitals]
    bet = [c * betting_function(e, p) for c, e in zip(mixed, cfg.epsilons)]
    scale = state.log10_scale
    s = left_sum(bet)
    bound = 10.0**renorm_exponent
    if s > bound or s < 1.0 / bound:
        m = math.floor(math.log10(s))
        factor = 10.0**m
        bet = [c / factor for c in bet]
        scale += m
    return CapitalState(capitals=bet, log10_scale=scale, step=state.step + 1)


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


def two_sample_ks(a: Sequence[float], b: Sequence[float],
                  alpha: float = 0.01) -> KSReport:
    """Two-sample KS statistic, symmetric in its arguments."""
    coeff = _check_alpha(alpha)
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("samples must not contain NaN")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    threshold = coeff * np.sqrt((a.size + b.size) / (a.size * b.size))
    return KSReport(statistic=d, n=int(a.size + b.size),
                    threshold_at_alpha=float(threshold), alpha=alpha,
                    reject=bool(d > threshold))


def lag1_autocorrelation(values: Sequence[float]) -> float:
    """Sample autocorrelation at lag 1."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValueError("need at least two values")
    v = v - v.mean()
    denom = float(np.dot(v, v))
    if denom == 0.0:
        return 0.0
    return float(np.dot(v[:-1], v[1:]) / denom)


def fmt(x: float) -> str:
    return format(x, ".17g")


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
