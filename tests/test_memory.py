"""Peak working memory of one run, per step of the stream.

`tracemalloc` counts numpy's data buffers as well as Python objects, so the
peak it reports for one run does not depend on the allocator or the
machine. The run takes about 8 s on a 2-vCPU host with Python 3.11: tracing
every allocation slows the per-step Jumper and interval loops about 30-fold.
"""

import dataclasses
import tracemalloc
from pathlib import Path

from seqconformal import ScenarioConfig, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Bytes per step that a run may hold at its peak; see the test docstring.
BUDGET_PER_STEP = 96


def test_run_peak_memory_per_step():
    """The peak traced bytes of a 10^5 + 10^5-step cryptic run without
    artifacts, per step, stay within BUDGET_PER_STEP.

    A run keeps x and y (16 B/step) to the end, and from their stages on
    the p-values and the log10 trajectory (16 more). Each stage's working
    set on top of what is kept, in B/step:
    - rank compression: the scores (8) and numpy's `unique` with its
      inverse (49 at most: a copy of the scores, the sort permutation and
      the sorted copy, 24; a bool mask, 1; the inverse, built by a cumsum
      and a scatter, 24), so 16 + 57 = 73;
    - rank counts: the scores (8) and ten int32 arrays (40): 16 + 48 = 64;
    - intervals: the center, lower, upper and width arrays (32), the
      covered flags with their two bool temporaries (3) and the heaps,
      about 32 B per float held for an epsilon share of the steps (2):
      32 + 37 = 69;
    - KS: a sorted copy, one buffer for i/n - u and the int64 i (24):
      32 + 24 = 56.
    The Jumper and interval loops hold O(1) Python objects per block of
    `BLOCK_STEPS` steps. The largest stage, 73 B/step, plus 23 B/step
    (4.6 MB at this length) for objects that a first run in a process
    creates and for numpy's own allocations gives the budget of 96 B/step.
    One Python float per step (32 B with its list slot) held through the
    rank compression or the interval stage exceeds it; the design before
    the budget peaked at 212 B/step.
    """
    cfg = dataclasses.replace(
        ScenarioConfig.from_file(SCENARIOS / "cryptic.cfg"),
        n_pre=100_000, n_post=100_000)
    steps = cfg.n_pre + cfg.n_post
    tracemalloc.start()
    try:
        run_scenario(cfg, write_artifacts=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / steps <= BUDGET_PER_STEP, f"{peak / steps:.1f} B/step"
