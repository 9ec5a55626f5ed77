"""Traced run: each public stage function timed in a span of its own.

The benchmark cannot time stages inside ``run_scenario`` without timers in
the package, so it calls the same public stage functions in the order
``run_scenario`` composes them, on the same seed and substreams, and
requires the summary they give to equal ``run_scenario``'s bit for bit.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from seqconformal import (RandomStream, ScenarioConfig, ScenarioSummary,
                          efficiency_series, ks_uniform, run_ctm,
                          run_scenario, run_transducer, sample)
from seqconformal.scenario import DATA_SUBSTREAM, TAU_SUBSTREAM

from workloads import CheckFailed

# Per-layer metrics in report order, with their units.
LAYER_METRICS = (
    ("gaussian.sample_s", "s"), ("gaussian.examples", "count"),
    ("conformity.score_s", "s"), ("conformity.scores", "count"),
    ("conformity.tied_scores", "count"),
    ("transducer.self_s", "s"), ("transducer.pvalues", "count"),
    ("transducer.store_max", "count"),
    ("martingale.run_s", "s"), ("martingale.steps", "count"),
    ("intervals.series_s", "s"), ("intervals.count", "count"),
    ("intervals.zero_width", "count"),
    ("stats.ks_s", "s"), ("stats.ks_calls", "count"),
    ("scenario.self_s", "s"), ("scenario.write_s", "s"),
    ("scenario.artifact_bytes", "bytes"),
    ("trace.coverage", "frac"), ("trace.overhead_frac", "frac"),
)
COUNTS = tuple(name for name, unit in LAYER_METRICS
               if unit in ("count", "bytes"))

# The stage spans that together do the work of one run_scenario call. The
# separate conformity.score pass is left out: run_transducer scores again.
PIPELINE_STAGES = ("gaussian.sample", "transducer.run", "martingale.run",
                   "intervals.series", "stats.ks")


class Tracer:
    """In-memory spans with a parent link and a request identifier."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        record = {"id": len(self.spans),
                  "parent": self._open[-1] if self._open else None,
                  "request": request, "name": name,
                  "start": perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = perf_counter() - self.origin

    def write(self, path: Path, header: dict) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _phase_mean(values, steps, lo, hi):
    # Same selection and summation order as run_scenario, so equal inputs
    # give equal bits.
    sel = [v for v, s in zip(values, steps) if lo < s <= hi]
    return sum(sel) / len(sel) if sel else None


def _stages(tracer: Tracer, cfg: ScenarioConfig, seed: int,
            request: str) -> tuple[ScenarioSummary, Counter]:
    """The stage functions of one scenario run, each in its own span."""
    root = RandomStream(seed)
    data_rng = root.substream(DATA_SUBSTREAM)
    tau_rng = root.substream(TAU_SUBSTREAM)
    n = cfg.n_pre + cfg.n_post

    with tracer.span("gaussian.sample", request):
        stream = (sample(cfg.pre, data_rng, cfg.n_pre)
                  + sample(cfg.post, data_rng, cfg.n_post))
    measure = cfg.measure.build(cfg.pre, cfg.post)
    with tracer.span("conformity.score", request):
        measure.reset()
        scores = [measure.score(z) for z in stream]
    with tracer.span("transducer.run", request):
        pvalues = run_transducer(measure, stream, tau_rng)
    with tracer.span("martingale.run", request):
        trajectory = run_ctm(cfg.jumper, pvalues)
    with tracer.span("intervals.series", request):
        records = efficiency_series(stream, cfg.pre, cfg.epsilon)
    p = [pv.value for pv in pvalues]
    with tracer.span("stats.ks", request):
        ks_all = ks_uniform(p, alpha=0.01)
        ks_pre = ks_uniform(p[:cfg.n_pre], alpha=0.01) if cfg.n_pre else None
        ks_post = ks_uniform(p[cfg.n_pre:], alpha=0.01) if cfg.n_post else None

    steps = [r.step for r in records]
    covered = [float(r.covered) for r in records]
    widths = [r.width for r in records]
    summary = ScenarioSummary(
        final_log10_capital=trajectory[-1][1],
        max_log10_capital=max(c for _, c in trajectory),
        ks_all=ks_all, ks_pre=ks_pre, ks_post=ks_post,
        coverage_pre=_phase_mean(covered, steps, 1, cfg.n_pre),
        coverage_post=_phase_mean(covered, steps, cfg.n_pre, n),
        mean_width_pre=_phase_mean(widths, steps, 1, cfg.n_pre),
        mean_width_post=_phase_mean(widths, steps, cfg.n_pre, n),
        seed=seed,
    )
    counts = Counter({
        "gaussian.examples": len(stream),
        "conformity.scores": len(scores),
        "conformity.tied_scores": sum(c for c in Counter(scores).values()
                                      if c > 1),
        "transducer.pvalues": len(pvalues),
        "transducer.store_max": max((pv.step_index for pv in pvalues),
                                    default=0),
        "martingale.steps": trajectory[-1][0],
        "intervals.count": len(records),
        "intervals.zero_width": sum(r.width == 0.0 for r in records),
        "stats.ks_calls": 1 + (ks_pre is not None) + (ks_post is not None),
    })
    return summary, counts


def traced_iteration(
        tracer: Tracer, cfgs: dict[str, ScenarioConfig], scratch: Path,
) -> tuple[dict[str, float], dict[str, int], dict[str, list[ScenarioSummary]]]:
    """One traced pass over every config and replication seed.

    For each run: the traced stages, then run_scenario without and with
    artifacts, timed whole. Returns the per-layer times, the counts, and
    the run summaries by config. Raises CheckFailed when the stages and
    run_scenario disagree.
    """
    first_span = len(tracer.spans)
    counts: Counter = Counter()
    results: dict[str, list[ScenarioSummary]] = {name: [] for name in cfgs}
    for name, cfg in cfgs.items():
        for seed in range(cfg.seed, cfg.seed + cfg.replications):
            request = f"{name}/seed_{seed}"
            with tracer.span("scenario.stages", request):
                staged, run_counts = _stages(tracer, cfg, seed, request)
            counts.update(run_counts)
            with tracer.span("scenario.run", request):
                plain = run_scenario(cfg, seed=seed, write_artifacts=False)
            out = scratch / request
            with tracer.span("scenario.run_artifacts", request):
                written = run_scenario(cfg, seed=seed, output_dir=out,
                                       write_artifacts=True)
            counts["scenario.artifact_bytes"] += sum(
                f.stat().st_size for f in out.iterdir())
            shutil.rmtree(out)
            for label, other in (("run_scenario", plain),
                                 ("run_scenario with artifacts", written)):
                if repr(other.to_dict()) != repr(staged.to_dict()):
                    raise CheckFailed(
                        f"{request}: traced stages give {staged.to_dict()}, "
                        f"{label} gives {other.to_dict()}")
            results[name].append(staged)

    busy: Counter = Counter()
    for record in tracer.spans[first_span:]:
        busy[record["name"]] += record["end"] - record["start"]
    stage_names = PIPELINE_STAGES + ("conformity.score",)
    times = {
        "gaussian.sample_s": busy["gaussian.sample"],
        "conformity.score_s": busy["conformity.score"],
        "transducer.self_s": busy["transducer.run"] - busy["conformity.score"],
        "martingale.run_s": busy["martingale.run"],
        "intervals.series_s": busy["intervals.series"],
        "stats.ks_s": busy["stats.ks"],
        "scenario.self_s": (busy["scenario.run"]
                            - sum(busy[s] for s in PIPELINE_STAGES)),
        "scenario.write_s": busy["scenario.run_artifacts"] - busy["scenario.run"],
        "trace.coverage": (sum(busy[s] for s in stage_names)
                           / busy["scenario.stages"]),
        "trace.overhead_frac": busy["scenario.stages"] / busy["scenario.run"] - 1.0,
    }
    return times, {k: int(counts[k]) for k in COUNTS}, results
