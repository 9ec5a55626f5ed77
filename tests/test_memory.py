"""Peak working memory of one run, per step of the stream.

`tracemalloc` counts numpy's data buffers as well as Python objects, so the
peak it reports for one run does not depend on the allocator or the
machine. The test takes about 4.5 s on a 2-vCPU host with Python 3.11:
tracing every allocation makes the run about 11 times slower than the
0.27 s it takes untraced. The 10^6-step run is measured untraced, by the
peak RSS of a process of its own.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import seqconformal
from seqconformal import ScenarioConfig, run_scenario
from seqconformal._csvtext import BLOCK_ROWS
from seqconformal.intervals import IntervalSeries
from seqconformal.scenario import _write_csvs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Bytes per step that a run may hold at its peak; see the test docstring.
BUDGET_PER_STEP = 96
# Bytes per row of a block that the CSV writer may hold at its peak; see
# test_writer_peak_memory_per_block.
WRITER_BUDGET_PER_ROW = 1024

# The 10^6-step run, without artifacts: it prints its peak RSS in MiB
# (ru_maxrss is in KiB on Linux) and the repr of its summary.
LONG_RUN = """
import dataclasses, resource, sys
from seqconformal import ScenarioConfig, run_scenario
cfg = dataclasses.replace(ScenarioConfig.from_file(sys.argv[1]),
                          n_pre=500000, n_post=500000)
summary = run_scenario(cfg, write_artifacts=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(repr(summary))
"""


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


def test_writer_peak_memory_per_block(tmp_path):
    """The peak traced bytes of `_write_csvs` on a stream of 3 blocks and
    a row stay within WRITER_BUDGET_PER_ROW per row of one block.

    `write_table` formats a block of at most `BLOCK_ROWS` rows at a time,
    so its peak does not grow with the stream. The widest row is the
    intervals table's: a step, four floats and a flag. In B/row:
    - `_fields` peaks at 128 B per float it formats (tracemalloc, 4096
      floats): d and D (16), the six digit groups and the divmod halves as
      int64 (64), their ASCII words (24) and the trailing-zero counts (24).
      Four floats take 512, five 640 for a writer that also formats the
      step as a float;
    - the row's text, at most 16 + 4 x 25 + 2 + 1 = 119 B (126 with a
      24-byte step field), is held three times while its NULs are
      dropped: 378.
    640 + 378 = 1018 B/row is within the budget of 1024. The writer peaks
    at about 550 B/row here, and the design before the integer step path
    at about 830; one that formatted a whole table at once would hold more
    than twice the budget.
    """
    n = 3 * BLOCK_ROWS + 1
    rng = np.random.default_rng(11)
    xs, ys, pvalues = rng.standard_normal((3, n))
    intervals = IntervalSeries(*rng.standard_normal((4, n - 1)),
                               covered=rng.random(n - 1) < 0.95)
    trajectory = np.cumsum(rng.standard_normal(n + 1))
    tracemalloc.start()
    try:
        _write_csvs(tmp_path, n // 2, xs, ys, pvalues, trajectory, intervals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= BLOCK_ROWS * WRITER_BUDGET_PER_ROW, f"{peak} B"


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux")
def test_million_step_run_peak_rss_and_summary(tmp_path):
    """The north star's longest stream: one 10^6-step cryptic run without
    artifacts, in a fresh process with only src/ on the path, run from
    tmp_path. Its peak RSS stays within 160 MiB; before the runs kept O(1)
    Python objects per block of steps, this run peaked at 267 MiB. Its
    summary equals, in every bit (the repr of every float), the one recorded
    before the generated Jumper step and the interval floor, which must not
    change a result."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(seqconformal.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", LONG_RUN, str(SCENARIOS / "cryptic.cfg")],
        env=env, cwd=tmp_path, stdout=subprocess.PIPE, text=True,
        check=True)
    peak, summary = child.stdout.splitlines()
    assert float(peak) <= 160, f"peak RSS {float(peak):.1f} MiB"
    want = (
        "ScenarioSummary(final_log10_capital=-1715.4173969378621, "
        "max_log10_capital=1.8871243032021612, "
        "ks_all=KSReport(statistic=0.0006463274442146671, n=1000000, "
        "threshold_at_alpha=0.0016279999999999999, alpha=0.01, "
        "reject=False), "
        "ks_pre=KSReport(statistic=0.0005632734214833235, n=500000, "
        "threshold_at_alpha=0.0023023396795433986, alpha=0.01, "
        "reject=False), "
        "ks_post=KSReport(statistic=0.0009775714513389766, n=500000, "
        "threshold_at_alpha=0.0023023396795433986, alpha=0.01, "
        "reject=False), "
        "coverage_pre=0.9502199004398009, coverage_post=0.949252, "
        "mean_width_pre=3.389037105341517, "
        "mean_width_post=3.3892779298813576, seed=7)")
    assert summary == want
