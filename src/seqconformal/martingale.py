"""Simple Jumper conformal test martingale.

Bets against uniformity of the p-value stream with the linear betting
functions f_eps(p) = 1 + eps * (p - 1/2) over a small grid of eps values,
mixing a fraction J of the total capital uniformly across the grid before
each bet. Capital is kept in scaled linear space with an explicit decimal
exponent so trajectories like 10^255 never overflow while mixing stays
exact additive arithmetic.

Defaults (eps grid {-1, 0, 1}, J = 0.01) follow the standard Simple
Jumper parameterization; both are configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .transducer import PValue


@dataclass(frozen=True)
class JumperConfig:
    epsilons: tuple[float, ...] = (-1.0, 0.0, 1.0)
    jump_rate: float = 0.01

    def __post_init__(self):
        if not self.epsilons:
            raise ValueError("epsilons must be nonempty")
        if any(abs(e) > 1.0 for e in self.epsilons):
            raise ValueError("each |epsilon| must be <= 1 to keep bets nonnegative")
        if not 0.0 <= self.jump_rate < 1.0:
            raise ValueError("jump_rate must lie in [0, 1)")


@dataclass
class CapitalState:
    """Per-epsilon capitals, decimal rescaling exponent, and step count.

    Total capital is sum(capitals) * 10**log10_scale; it starts at 1,
    split uniformly across the epsilon grid.
    """

    capitals: list[float]
    log10_scale: float = 0.0
    step: int = 0

    @property
    def log10_total(self) -> float:
        return math.log10(sum(self.capitals)) + self.log10_scale

    @property
    def total(self) -> float:
        return sum(self.capitals) * 10.0**self.log10_scale


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
    total = sum(state.capitals)
    j = cfg.jump_rate
    mixed = [(1.0 - j) * c + (j / k) * total for c in state.capitals]
    bet = [c * betting_function(e, p) for c, e in zip(mixed, cfg.epsilons)]
    scale = state.log10_scale
    s = sum(bet)
    bound = 10.0**renorm_exponent
    if s > bound or s < 1.0 / bound:
        m = math.floor(math.log10(s))
        factor = 10.0**m
        bet = [c / factor for c in bet]
        scale += m
    return CapitalState(capitals=bet, log10_scale=scale, step=state.step + 1)


def run_ctm(cfg: JumperConfig,
            pvalues: Iterable[float | PValue]) -> list[tuple[int, float]]:
    """log10 capital trajectory, starting from (step 0, log10 S = 0).

    The same arithmetic, in the same order, as folding `jumper_step` from
    `initial_state` over the p-values, run on local variables.
    """
    epsilons = cfg.epsilons
    k = len(epsilons)
    keep = 1.0 - cfg.jump_rate
    share = cfg.jump_rate / k
    bound = 10.0**6
    capitals = [1.0 / k] * k
    total = sum(capitals)
    scale = 0.0
    log10_totals = [math.log10(total) + scale]
    for p in pvalues:
        if isinstance(p, PValue):
            p = p.value
        centred = p - 0.5
        mixed = share * total
        capitals = [(keep * c + mixed) * (1.0 + e * centred)
                    for c, e in zip(capitals, epsilons)]
        total = sum(capitals)
        if total > bound or total < 1.0 / bound:
            m = math.floor(math.log10(total))
            factor = 10.0**m
            capitals = [c / factor for c in capitals]
            scale += m
            total = sum(capitals)
        log10_totals.append(math.log10(total) + scale)
    return list(enumerate(log10_totals))
