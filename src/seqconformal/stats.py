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
# Sorted values per chunk of the KS differences, so that KS holds the
# sorted copy of its sample and O(_CHUNK) more.
_CHUNK = 8192


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
    # i / n - u and u - (i - 1) / n, one chunk of the sorted values at a
    # time: i and n are below 2^53, so float(i) and float(i) - 1 are exact.
    d = -np.inf
    for lo in range(0, n, _CHUNK):
        chunk = u[lo:lo + _CHUNK]
        i = np.arange(lo + 1, lo + len(chunk) + 1, dtype=float)
        d = max(d, np.max(i / n - chunk), np.max(chunk - (i - 1) / n))
    threshold = KS_COEFFICIENTS[alpha] / np.sqrt(n)
    return KSReport(statistic=float(d), n=int(n),
                    threshold_at_alpha=float(threshold), alpha=alpha,
                    reject=bool(d > threshold))
