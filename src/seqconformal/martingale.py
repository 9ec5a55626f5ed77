"""Simple Jumper conformal test martingale.

Bets against uniformity of the p-value stream with the linear betting
functions f_eps(p) = 1 + eps * (p - 1/2) over a small grid of eps values,
mixing a fraction J of the total capital uniformly across the grid before
each bet. Capital is kept in scaled linear space with an explicit decimal
exponent so trajectories like 10^255 never overflow while mixing stays
exact additive arithmetic. Totals are summed left to right from 0.0 and
never by the builtin `sum`, which compensates from Python 3.12, so the
bits do not depend on the Python version. The loop reads one `tolist()`
block of `BLOCK_STEPS` p-values at a time into a float64 array, so it
holds O(1) Python floats per block, not per step.

Defaults (eps grid {-1, 0, 1}, J = 0.01) follow the standard Simple
Jumper parameterization; both are configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .transducer import PValue

# Steps per block of the per-step loops here and in `intervals`.
BLOCK_STEPS = 4096


@dataclass(frozen=True)
class JumperConfig:
    epsilons: tuple[float, ...] = (-1.0, 0.0, 1.0)
    jump_rate: float = 0.01

    def __post_init__(self):
        if not self.epsilons:
            raise ValueError("epsilons must be nonempty")
        if not all(abs(e) <= 1.0 for e in self.epsilons):
            raise ValueError("each |epsilon| must be <= 1 to keep bets nonnegative")
        if not 0.0 <= self.jump_rate < 1.0:
            raise ValueError("jump_rate must lie in [0, 1)")


def log10_capital(cfg: JumperConfig, pvalues: Sequence[float]) -> np.ndarray:
    """log10 capital after each p-value, as a float64 array from 0 at index 0.

    Each step mixes, then bets with f_eps(p) = 1 + eps * (p - 1/2), then
    rescales by a power of ten whenever the capital sum leaves
    [10^-6, 10^6]; the reported log10 total is invariant under rescaling.
    One loop per step updates each capital in place and adds it to the total.
    Every total is summed left to right from 0.0, never by the builtin `sum`.
    """
    grid = list(enumerate(cfg.epsilons))
    k = len(grid)
    keep = 1.0 - cfg.jump_rate
    share = cfg.jump_rate / k
    bound = 10.0**6
    capitals = [1.0 / k] * k
    total = reduce(add, capitals, 0.0)
    scale = 0.0
    pvalues = np.asarray(pvalues, dtype=np.float64)
    trajectory = np.empty(len(pvalues) + 1)
    trajectory[0] = math.log10(total) + scale
    for start in range(0, len(pvalues), BLOCK_STEPS):
        log10_totals = []
        for p in pvalues[start:start + BLOCK_STEPS].tolist():
            centred = p - 0.5
            mixed = share * total
            total = 0.0
            for i, e in grid:
                c = (keep * capitals[i] + mixed) * (1.0 + e * centred)
                capitals[i] = c
                total += c
            if total > bound or total < 1.0 / bound:
                m = math.floor(math.log10(total))
                factor = 10.0**m
                capitals = [c / factor for c in capitals]
                scale += m
                total = reduce(add, capitals, 0.0)
            log10_totals.append(math.log10(total) + scale)
        trajectory[start + 1:start + 1 + BLOCK_STEPS] = log10_totals
    return trajectory


def run_ctm(cfg: JumperConfig,
            pvalues: Iterable[float | PValue]) -> list[tuple[int, float]]:
    """`log10_capital` as (step, log10 S) float pairs, from (0, 0.0)."""
    values = [p.value if isinstance(p, PValue) else p for p in pvalues]
    return list(enumerate(log10_capital(cfg, values).tolist()))
