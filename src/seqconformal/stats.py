"""Uniformity diagnostics for p-value streams.

The one-sample Kolmogorov-Smirnov test against Uniform(0, 1).
Thresholds use the asymptotic KS coefficients; all shipped checks run at
n >= 1000 where the asymptotic approximation error is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

KS_COEFFICIENTS = {0.05: 1.358, 0.01: 1.628}


@dataclass(frozen=True)
class KSReport:
    statistic: float
    n: int
    threshold_at_alpha: float
    alpha: float
    reject: bool


def ks_uniform(pvalues: Sequence[float], alpha: float = 0.01) -> KSReport:
    """One-sample KS statistic of the sample against Uniform(0, 1)."""
    if alpha not in KS_COEFFICIENTS:
        raise ValueError(f"alpha must be one of {sorted(KS_COEFFICIENTS)}")
    u = np.asarray(pvalues, dtype=float)
    if u.size == 0:
        raise ValueError("empty sample")
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("values must lie in [0, 1]")
    n = u.size
    u = np.sort(u)
    # i / n, then (i - 1) / n, each in one float64 buffer divided in place:
    # i and n are below 2^53, so float(i) is exact.
    gap = np.arange(1, n + 1, dtype=float)
    gap /= n
    d = np.max(np.subtract(gap, u, out=gap))  # i / n - u, in place
    del gap  # freed before the next buffer is built
    gap = np.arange(n, dtype=float)
    gap /= n
    d = max(d, np.max(np.subtract(u, gap, out=gap)))  # u - (i - 1) / n
    threshold = KS_COEFFICIENTS[alpha] / np.sqrt(n)
    return KSReport(statistic=float(d), n=int(n),
                    threshold_at_alpha=float(threshold), alpha=alpha,
                    reject=bool(d > threshold))
