"""Config-driven scenario runner.

A `Monitor` runs the stages of a scenario over a stream fed block by
block: the measure's scores, the smoothed conformal transducer
(`pvalue_block`), which takes the scores, not the measure, the Simple
Jumper martingale (`capital_block`) and the online prediction intervals
(`interval_block`); `finish` tests the p-values for uniformity and
summarizes. `run_scenario` samples a pre/post-change Gaussian stream
(`sample_arrays`) in blocks of `RUN_BLOCK` steps, feeds them to a
Monitor, and emits CSV artifacts plus a JSON summary. Runs are fully
deterministic per seed: the data stream and the tie-breaking stream are
independent substreams of the scenario seed. A run without artifacts
holds only the p-values, which KS needs at the end, and the bag of
earlier scores (16 B per step), plus working arrays of O(`RUN_BLOCK`); a
run with artifacts fills each column whole and writes the CSVs after the
loop, so a run that fails writes nothing.

The config it runs is `config.ScenarioConfig`, parsed and checked with no
numpy; importing this module is what loads numpy.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .config import ConfigError, ScenarioConfig
from .conformity import ConformityMeasure
from .gaussian import BivariateGaussian, sample_arrays
from .intervals import IntervalSeries, interval_block, new_heaps
from .martingale import (BLOCK_STEPS, JumperConfig, capital_block,
                         jumper_start)
from .rng import RandomStream
from .stats import KSReport, ks_uniform
from .transducer import add_to_bag, pvalue_block

DATA_SUBSTREAM = 0
TAU_SUBSTREAM = 1
# Steps per block of run_scenario's loop.
RUN_BLOCK = 2 * BLOCK_STEPS


@dataclass(frozen=True)
class ScenarioSummary:
    final_log10_capital: float
    max_log10_capital: float
    ks_all: KSReport
    ks_pre: KSReport | None
    ks_post: KSReport | None
    coverage_pre: float | None
    coverage_post: float | None
    mean_width_pre: float | None
    mean_width_post: float | None
    seed: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _write_csvs(out: Path, n_pre: int, xs: np.ndarray, ys: np.ndarray,
                pvalues: np.ndarray, trajectory: np.ndarray,
                intervals: IntervalSeries) -> None:
    """stream.csv, pvalues.csv, martingale.csv and intervals.csv."""
    # Imported here, so that a run without artifacts never builds the
    # formatter's tables: with the numpy code they touch, about 1 MiB.
    from ._csvtext import write_table

    write_table(out / "stream.csv", "step,x,y,phase", 1, (xs, ys), n_pre)
    write_table(out / "pvalues.csv", "step,pvalue,phase", 1, (pvalues,),
                n_pre)
    write_table(out / "martingale.csv", "step,log10_capital", 0,
                (trajectory,))
    write_table(out / "intervals.csv",
                "step,center,lower,upper,width,covered", 2,
                (intervals.center, intervals.lower, intervals.upper,
                 intervals.width, intervals.covered))


def _write_json(path: Path, obj: dict[str, Any]) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


@contextmanager
def _allocating(n: int):
    """numpy's refusal of an array of a stream's n steps, too long to index
    or to hold, as a ConfigError."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ConfigError("n_pre/n_post", f"a stream of {n} steps cannot be "
                          f"allocated: {exc}") from None


@dataclass
class _PhaseSums:
    """The intervals of one phase so far: their number, how many covered
    their y, and their widths summed in step order from 0.0."""

    count: int = 0
    covered: int = 0
    width: float = 0.0

    def add(self, intervals: IntervalSeries, lo: int, hi: int) -> None:
        """Add the intervals intervals[lo:hi], the next in step order."""
        covered, width = intervals.covered[lo:hi], intervals.width[lo:hi]
        self.count += covered.size
        self.covered += int(np.count_nonzero(covered))
        # cumsum adds in step order; seeded with the sum so far, its
        # additions are those of one cumsum over the phase.
        self.width = float(np.cumsum(np.concatenate(([self.width],
                                                     width)))[-1])

    def means(self) -> tuple[float | None, float | None]:
        """Coverage and mean width, or None for a phase with no interval."""
        if not self.count:
            return None, None
        return self.covered / self.count, self.width / self.count


def _draws(cfg: ScenarioConfig, rng: RandomStream, lo: int,
           hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and y of examples lo..hi-1 (from 0): their pre part from
    cfg.pre, then their post part from cfg.post. A draw that overflows
    raises ConfigError naming its phase, seed, 1-based step and (x, y)."""
    cut = min(max(cfg.n_pre, lo), hi)
    parts = []
    for phase, model, a, b in (("pre", cfg.pre, lo, cut),
                               ("post", cfg.post, cut, hi)):
        if a == b:
            continue
        x, y = sample_arrays(model, rng, b - a)
        finite = np.isfinite(x) & np.isfinite(y)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ConfigError(phase, (
                f"seed {cfg.seed}, step {a + i + 1}: the draw (x, y) = "
                f"({float(x[i])!r}, {float(y[i])!r}) is not finite"))
        parts.append((x, y))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


@dataclass(frozen=True)
class Block:
    """A fed block's p-values, log10 capital per step and intervals."""

    pvalues: np.ndarray
    log10_capital: np.ndarray
    intervals: IntervalSeries


class Monitor:
    """The stages of one scenario over its n_pre + n_post examples, fed
    block by block as they arrive; any block sizes give the same bits.
    Between blocks it holds the tie-breaking stream, the sorted bag of
    earlier scores, the Jumper's state, the interval heaps, each phase's
    sums, `pvalues` (each Block's are a view of it), and the last and
    peak log10 capital, `final_log10_capital` and `max_log10_capital`.
    ConfigError("n_pre/n_post", ...) for a stream too long to allocate."""

    def __init__(self, cfg: ScenarioConfig):
        n = cfg.n_pre + cfg.n_post
        with _allocating(n):
            self.pvalues, self._bag = np.empty(n), np.empty(n)
        self.cfg, self.fed = cfg, 0
        self._tau = RandomStream(cfg.seed).substream(TAU_SUBSTREAM)
        self._measure = cfg.measure.build(cfg.pre, cfg.post)
        self._jumper = _, total, scale = jumper_start(cfg.jumper)
        self.final_log10_capital = self.max_log10_capital = (
            math.log10(total) + scale)
        self._heaps = new_heaps()
        self._phases = _PhaseSums(), _PhaseSums()

    def feed(self, xs: np.ndarray, ys: np.ndarray) -> Block:
        """Run the next examples (xs[i], ys[i]) through every stage.
        ValueError for a block that is empty, goes past the stream, or
        whose xs and ys differ in length."""
        cfg, lo, n = self.cfg, self.fed, len(self.pvalues)
        hi = lo + len(xs)
        if not lo < hi <= n or len(ys) != len(xs):
            raise ValueError(f"{lo} of {n} examples fed: {len(xs)} x and "
                             f"{len(ys)} y are not 1 to {n - lo} of each")
        with np.errstate(over="ignore"):  # far examples may score -inf
            scores = self._measure.scores(xs, ys)
            p = self.pvalues[lo:hi]
            p[:] = pvalue_block(scores, self._bag[:lo], self._tau)
            if hi < n:  # no later score is ranked against the last block
                add_to_bag(self._bag, lo, scores)
            logs = np.empty(hi - lo)
            self._jumper = capital_block(cfg.jumper, p, self._jumper, logs)
            self.final_log10_capital = logs[-1]
            self.max_log10_capital = max(self.max_log10_capital, logs.max())
            intervals, self._heaps = interval_block(
                xs, ys, lo, n, cfg.pre, cfg.epsilon, self._heaps)
            # Example 0 has no interval; the pre phase ends at n_pre.
            cut = min(max(cfg.n_pre - max(lo, 1), 0), len(intervals.width))
            self._phases[0].add(intervals, 0, cut)
            self._phases[1].add(intervals, cut, len(intervals.width))
        self.fed = hi
        return Block(p, logs, intervals)

    def finish(self) -> ScenarioSummary:
        """The KS tests of all the p-values and of each phase's, and the
        summary. ValueError until every example is fed."""
        n_pre, n = self.cfg.n_pre, len(self.pvalues)
        if self.fed < n:
            raise ValueError(f"finish after {self.fed} of {n} examples")
        self._bag = self._heaps = None  # freed before KS
        ks_all, ks_pre, ks_post = (
            ks_uniform(p, alpha=0.01) if p.size else None
            for p in (self.pvalues, self.pvalues[:n_pre],
                      self.pvalues[n_pre:]))
        coverage_pre, mean_width_pre = self._phases[0].means()
        coverage_post, mean_width_post = self._phases[1].means()
        return ScenarioSummary(
            final_log10_capital=float(self.final_log10_capital),
            max_log10_capital=float(self.max_log10_capital),
            ks_all=ks_all, ks_pre=ks_pre, ks_post=ks_post,
            coverage_pre=coverage_pre,
            coverage_post=coverage_post,
            mean_width_pre=mean_width_pre,
            mean_width_post=mean_width_post,
            seed=self.cfg.seed,
        )


def run_scenario(cfg: ScenarioConfig, seed: int | None = None,
                 output_dir: Path | None = None,
                 write_artifacts: bool = True) -> ScenarioSummary:
    """Sample blocks of `RUN_BLOCK` steps, feed them to a `Monitor`,
    summarize, and write the artifacts.

    seed/output_dir override the config values (used by replications). The
    seed override is checked like a file value, as the seed of one run. A
    draw that overflows raises ConfigError naming its phase, seed, 1-based
    step and (x, y).
    """
    if seed is not None:
        cfg = replace(cfg, seed=seed, replications=1)
    data_rng = RandomStream(cfg.seed).substream(DATA_SUBSTREAM)
    n = cfg.n_pre + cfg.n_post
    monitor = Monitor(cfg)
    if write_artifacts:  # the intervals start at step 2
        with _allocating(n):
            xs, ys, trajectory = np.empty(n), np.empty(n), np.empty(n + 1)
            intervals = IntervalSeries(*np.empty((4, max(n - 1, 0))),
                                       covered=np.empty(max(n - 1, 0), bool))
        trajectory[0] = monitor.final_log10_capital  # before any bet
    for lo in range(0, n, RUN_BLOCK):
        hi = min(lo + RUN_BLOCK, n)
        x, y = _draws(cfg, data_rng, lo, hi)
        block = monitor.feed(x, y)
        if write_artifacts:
            xs[lo:hi], ys[lo:hi] = x, y
            trajectory[lo + 1:hi + 1] = block.log10_capital
            for f in fields(intervals):
                getattr(intervals, f.name)[max(lo, 1) - 1:hi - 1] = \
                    getattr(block.intervals, f.name)
        del x, y, block  # freed before the next block's draws
    summary = monitor.finish()

    if write_artifacts:
        out = cfg.output_dir if output_dir is None else output_dir
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_csvs(out, cfg.n_pre, xs, ys, monitor.pvalues, trajectory,
                        intervals)
            _write_json(out / "summary.json", summary.to_dict())
        except OSError as exc:
            raise IOError(f"while writing artifacts under {out}: {exc}") from exc

    return summary


def run_replications(cfg: ScenarioConfig,
                     write_artifacts: bool = True) -> list[ScenarioSummary]:
    """Run the scenario at seeds seed, seed+1, ... and aggregate.

    A single replication writes into output_dir directly; multiple
    replications write one subdirectory per seed plus aggregate.json.
    """
    summaries = []
    for i in range(cfg.replications):
        seed = cfg.seed + i
        sub = (cfg.output_dir if cfg.replications == 1
               else cfg.output_dir / f"seed_{seed}")
        summaries.append(run_scenario(cfg, seed=seed, output_dir=sub,
                                      write_artifacts=write_artifacts))
    if write_artifacts and cfg.replications > 1:
        try:  # output_dir holds the seed directories
            _write_json(cfg.output_dir / "aggregate.json",
                        aggregate_summaries(summaries))
        except OSError as exc:
            raise IOError(
                f"while writing aggregate under {cfg.output_dir}: {exc}"
            ) from exc
    return summaries


def aggregate_summaries(summaries: list[ScenarioSummary]) -> dict[str, Any]:
    """Each KS field of ScenarioSummary gives fraction_<field>_reject and
    each other field but seed gives median_<field>, over the replications
    where it is not None; None where it is None in all of them."""
    agg: dict[str, Any] = {"replications": len(summaries),
                           "seeds": [s.seed for s in summaries]}
    for f in fields(ScenarioSummary):
        values = [v for s in summaries
                  if (v := getattr(s, f.name)) is not None]
        if f.name.startswith("ks_"):
            agg[f"fraction_{f.name}_reject"] = (
                sum(r.reject for r in values) / len(values)
                if values else None)
        elif f.name != "seed":
            agg[f"median_{f.name}"] = (statistics.median(values) if values
                                       else None)
    return agg


# Per-example adapters over the array stages. Only `perfbench/traced.py`
# needs them, and ROADMAP item 2 deletes them.


@dataclass(frozen=True)
class Example:
    """One observation z = (x, y) from the stream."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("example coordinates must be finite")


def sample(q: BivariateGaussian, rng: RandomStream, n: int) -> list[Example]:
    """`sample_arrays` as one `Example` per draw."""
    xs, ys = sample_arrays(q, rng, n)
    return [Example(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def columns(stream: Iterable[Example]) -> tuple[np.ndarray, np.ndarray]:
    """The x and y coordinates of a stream of examples, as float64 arrays."""
    stream = list(stream)
    return (np.array([z.x for z in stream], dtype=np.float64),
            np.array([z.y for z in stream], dtype=np.float64))


@dataclass(frozen=True)
class PValue:
    value: float
    step_index: int


def run_transducer(measure: ConformityMeasure, stream: Iterable[Example],
                   rng: RandomStream) -> list[PValue]:
    """`pvalue_block` with an empty bag, as one `PValue` per example of a
    list."""
    values = pvalue_block(measure.scores(*columns(stream)), np.empty(0),
                          rng).tolist()
    return [PValue(v, i) for i, v in enumerate(values, start=1)]


def run_ctm(cfg: JumperConfig,
            pvalues: Iterable[PValue]) -> list[tuple[int, float]]:
    """`capital_block` from `jumper_start`, as (step, log10 S) float
    pairs from step 0."""
    state = _, total, scale = jumper_start(cfg)
    ps = np.array([p.value for p in pvalues], dtype=np.float64)
    logs = np.empty(len(ps))
    capital_block(cfg, ps, state, logs)
    return list(enumerate([math.log10(total) + scale, *logs.tolist()]))


@dataclass(frozen=True)
class EfficiencyRecord:
    step: int
    center: float
    lower: float
    upper: float
    width: float
    covered: bool


def efficiency_series(stream: Sequence[Example], q0: BivariateGaussian,
                      epsilon: float) -> list[EfficiencyRecord]:
    """`interval_block` over a whole stream, as one record per step, from
    step 2."""
    s = interval_block(*columns(stream), 0, len(stream), q0, epsilon,
                       new_heaps())[0]
    return [EfficiencyRecord(*row) for row in zip(
        range(2, len(stream) + 1), s.center.tolist(), s.lower.tolist(),
        s.upper.tolist(), s.width.tolist(), s.covered.tolist())]
