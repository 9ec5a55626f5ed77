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

The step loop is generated once per grid size k from a source template:
the k capitals and the k epsilons are local variables c0..c{k-1} and
e0..e{k-1}, unpacked from the loop's arguments, so no list is indexed and
no config value is written into the source. Each step evaluates, per bet
and in grid order, the expressions a loop over the grid would:
`centred = p - 0.5`, `mixed = share * total`, then
`c_i = (keep * c_i + mixed) * (1.0 + e_i * centred)`, and the total is
`0.0 + c0 + ... + c{k-1}`; so the bits are those of that loop. Each step
appends `log10(total) + scale`, its log10 capital, to a list that the
block slice-assigns into the trajectory.

The state between steps is the capitals, their total and the scale.
`capital_block` takes it in and gives it back, so a run bets on its
p-values one block at a time, from `jumper_start`, and keeps only the
log10 capitals it needs.

Defaults (eps grid {-1, 0, 1}, J = 0.01) follow the standard Simple
Jumper parameterization; both are configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from operator import add
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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


# One block of Jumper steps for a grid of k bets, unrolled into k local
# capitals and k local epsilons; `_step_loop` fills in the names and
# expressions for one k. It returns the capitals, total and scale after the
# block, and appends each step's log10 capital to `logs`.
_STEP_TEMPLATE = """\
def steps(ps, capitals, epsilons, keep, share, bound, low, total, scale,
          logs):
    {c}, = capitals
    {e}, = epsilons
    append = logs.append
    for p in ps:
        centred = p - 0.5
        mixed = share * total
{bets}
        total = {total}
        if total > bound or total < low:
            m = floor(log10(total))
            factor = 10.0**m
{rescale}
            scale += m
            total = {total}
        append(log10(total) + scale)
    return ({c},), total, scale
"""


@cache
def _step_loop(k: int):
    """The block loop of a k-bet grid, compiled once per k."""
    c = [f"c{i}" for i in range(k)]
    source = _STEP_TEMPLATE.format(
        c=", ".join(c), e=", ".join(f"e{i}" for i in range(k)),
        bets="\n".join(f"        c{i} = (keep * c{i} + mixed)"
                       f" * (1.0 + e{i} * centred)" for i in range(k)),
        total=" + ".join(["0.0"] + c),
        rescale="\n".join(f"            c{i} = c{i} / factor"
                          for i in range(k)))
    namespace = {"floor": math.floor, "log10": math.log10}
    exec(compile(source, f"<jumper step, k={k}>", "exec"), namespace)
    return namespace["steps"]


def jumper_start(cfg: JumperConfig) -> tuple[list[float], float, float]:
    """The capitals, total and scale before the first bet: 1/k of the
    capital on each of the k bets, summed left to right from 0.0."""
    k = len(cfg.epsilons)
    capitals = [1.0 / k] * k
    return capitals, reduce(add, capitals, 0.0), 0.0


def capital_block(cfg: JumperConfig, pvalues: np.ndarray,
                  state: tuple[list[float], float, float],
                  out: np.ndarray) -> tuple[list[float], float, float]:
    """Bet on each p-value of a float64 array from state, the capitals,
    total and scale after the steps before it; out[i] becomes the log10
    capital after pvalues[i]. Returns the state after the last p-value."""
    k = len(cfg.epsilons)
    steps = _step_loop(k)
    keep = 1.0 - cfg.jump_rate
    share = cfg.jump_rate / k
    bound = 10.0**6
    capitals, total, scale = state
    for start in range(0, len(pvalues), BLOCK_STEPS):
        logs = []
        capitals, total, scale = steps(
            pvalues[start:start + BLOCK_STEPS].tolist(), capitals,
            cfg.epsilons, keep, share, bound, 1.0 / bound, total, scale,
            logs)
        out[start:start + len(logs)] = logs
    return capitals, total, scale
