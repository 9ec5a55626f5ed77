"""Config-driven scenario runner.

`run_scenario` composes the stage functions: it samples a pre/post-change
Gaussian stream as x and y arrays (`sample_arrays`), runs them through the
smoothed conformal transducer (`smoothed_pvalues`), the Simple Jumper
martingale (`log10_capital`) and the online prediction intervals
(`interval_series`), tests the p-values for uniformity, and emits CSV
artifacts plus a JSON summary. Runs are fully deterministic per seed: the
data stream and the tie-breaking stream are independent substreams of
the scenario seed.

The CSV artifacts are written by one table writer, `_write_table`. Each
table has one %-style row format (steps and `covered` as `%d`, floats as
`%.17g`), and the rows go out in blocks of `BLOCK_ROWS`, each block formatted
by a single `%` over its interleaved column values.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import yaml

from .conformity import (ConformityMeasure, LikelihoodRatio, Mahalanobis,
                         OracleMahalanobisEnsemble, PredictiveOracle)
from .cryptic import cryptic_line, cryptic_shift, verify_conditions
from .gaussian import BivariateGaussian, sample_arrays
from .intervals import IntervalSeries, interval_series
from .martingale import JumperConfig, log10_capital
from .rng import RandomStream
from .stats import KSReport, ks_uniform
from .transducer import smoothed_pvalues

DATA_SUBSTREAM = 0
TAU_SUBSTREAM = 1

# Rows of a CSV artifact formatted per `%` operation; a block bounds the
# text held in memory at once.
BLOCK_ROWS = 4096


class ConfigError(ValueError):
    """Scenario config rejected; carries the offending field."""

    def __init__(self, field_name: str, reason: str):
        self.field_name = field_name
        self.reason = reason
        super().__init__(f"config field '{field_name}': {reason}")


# Each measure kind, and how its spec builds it from the pre/post pair.
_MEASURES = {
    "oracle": lambda spec, q0, q1: PredictiveOracle(q0),
    "mahalanobis": lambda spec, q0, q1: Mahalanobis(q0),
    "likelihood_ratio": lambda spec, q0, q1: LikelihoodRatio(q0, q1),
    "ensemble": lambda spec, q0, q1: OracleMahalanobisEnsemble(q0, spec.lam),
}


@dataclass(frozen=True)
class MeasureSpec:
    kind: str  # a key of _MEASURES
    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("measure.lambda", "must lie in [0, 1]")
        if self.kind not in _MEASURES:
            raise ConfigError("measure.kind",
                              f"unknown measure kind {self.kind!r}")

    def build(self, q0: BivariateGaussian,
              q1: BivariateGaussian) -> ConformityMeasure:
        return _MEASURES[self.kind](self, q0, q1)


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario. Construction checks every value rule, so a parsed file,
    a CLI override and a `dataclasses.replace` copy are checked alike; the
    parser checks only types and shapes."""

    pre: BivariateGaussian
    post: BivariateGaussian
    n_pre: int
    n_post: int
    seed: int
    measure: MeasureSpec
    jumper: JumperConfig
    epsilon: float
    replications: int
    output_dir: Path

    def __post_init__(self):
        if self.n_pre < 0 or self.n_post < 0:
            raise ConfigError("n_pre/n_post", "must be nonnegative")
        if self.n_pre + self.n_post < 1:
            raise ConfigError("n_pre/n_post", "stream must be nonempty")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon", "must lie in (0, 1)")
        if self.replications < 1:
            raise ConfigError("replications", "must be >= 1")
        if not 0 <= self.seed <= 2**64 - self.replications:
            raise ConfigError("seed", f"replication seeds {self.seed} .. "
                              f"{self.seed + self.replications - 1} must fit "
                              "in 64 bits")

    @staticmethod
    def from_dict(raw: dict[str, Any],
                  base_dir: Path | None = None) -> "ScenarioConfig":
        return _parse_config(raw, base_dir or Path.cwd())

    @staticmethod
    def from_file(path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            raw = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError("<file>", f"not parseable: {exc}") from exc
        return _parse_config(raw, path.parent)


def _require(raw: dict, key: str, prefix: str = "") -> Any:
    if key not in raw:
        raise ConfigError(prefix + key, "missing")
    return raw[key]


def _mapping(raw: Any, known: tuple[str, ...], name: str) -> dict:
    """raw, which must be a mapping with no key outside known. At the top
    level (name "") an unknown key is itself the field."""
    if not isinstance(raw, dict):
        raise ConfigError(name or "<file>", f"expected a mapping, got {raw!r}")
    unknown = sorted(set(raw) - set(known), key=str)
    if unknown and not name:
        raise ConfigError(unknown[0], "unknown top-level key")
    if unknown:
        raise ConfigError(name, f"unknown keys {unknown}")
    return raw


def _as_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(name, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(name, "too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(name, f"expected a finite number, got {value!r}")
    return number


def _as_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(name, f"expected an integer, got {value!r}")
    return value


def _parse_model(raw: Any, name: str) -> BivariateGaussian:
    params = ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho_cov")
    raw = _mapping(raw, params, name)
    values = {f: _as_number(_require(raw, f, f"{name}."), f"{name}.{f}")
              for f in params}
    try:
        return BivariateGaussian(**values)
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from exc


def _parse_config(raw: Any, base_dir: Path) -> ScenarioConfig:
    raw = _mapping(raw, tuple(f.name for f in fields(ScenarioConfig)), "")
    pre = _parse_model(_require(raw, "pre"), "pre")

    post_raw = _require(raw, "post")
    if isinstance(post_raw, dict) and set(post_raw) == {"cryptic_delta_mu_x"}:
        delta = _as_number(post_raw["cryptic_delta_mu_x"],
                           "post.cryptic_delta_mu_x")
        post = cryptic_shift(pre, delta).q1
    else:
        post = _parse_model(post_raw, "post")

    measure_raw = _mapping(raw.get("measure", {"kind": "oracle"}),
                           ("kind", "lambda"), "measure")
    if "kind" not in measure_raw:
        raise ConfigError("measure", "missing 'kind'")
    measure = MeasureSpec(kind=str(measure_raw["kind"]),
                          lam=_as_number(measure_raw.get("lambda", 0.5),
                                         "measure.lambda"))

    jumper_raw = _mapping(raw.get("jumper", {}), ("epsilons", "jump_rate"),
                          "jumper")
    epsilons = jumper_raw.get("epsilons", (-1.0, 0.0, 1.0))
    if not isinstance(epsilons, (list, tuple)):
        raise ConfigError("jumper.epsilons",
                          f"expected a list of numbers, got {epsilons!r}")
    epsilons = tuple(_as_number(e, "jumper.epsilons") for e in epsilons)
    jump_rate = _as_number(jumper_raw.get("jump_rate", 0.01),
                           "jumper.jump_rate")
    try:
        jumper = JumperConfig(epsilons=epsilons, jump_rate=jump_rate)
    except ValueError as exc:
        raise ConfigError("jumper", str(exc)) from exc

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir", f"expected a path, got {output_dir!r}")

    return ScenarioConfig(
        pre=pre, post=post,
        n_pre=_as_int(_require(raw, "n_pre"), "n_pre"),
        n_post=_as_int(_require(raw, "n_post"), "n_post"),
        seed=_as_int(_require(raw, "seed"), "seed"),
        measure=measure, jumper=jumper,
        epsilon=_as_number(raw.get("epsilon", 0.05), "epsilon"),
        replications=_as_int(raw.get("replications", 1), "replications"),
        output_dir=base_dir / output_dir)


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


def _write_table(path: Path, header: str, row_format: str, steps: range,
                 columns: Sequence[np.ndarray],
                 n_pre: int | None = None) -> None:
    """Write a CSV of the header line and one row per step.

    The row of steps[i] is row_format % (steps[i], columns[0][i], ...).
    With n_pre, each row also ends in a phase field: `pre` for the first
    n_pre rows and `post` after. "%.17g" % x and "%d" % v give the bytes
    of format(x, ".17g") and str(int(v)).
    """
    if n_pre is None:
        pre_row = post_row = row_format + "\n"
        n_pre = len(steps)
    else:
        pre_row = row_format + ",pre\n"
        post_row = row_format + ",post\n"
    width = 1 + len(columns)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(steps), BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, len(steps))
            values: list[Any] = [None] * ((stop - start) * width)
            values[0::width] = steps[start:stop]
            for j, column in enumerate(columns, 1):
                values[j::width] = column[start:stop].tolist()
            pre = min(max(n_pre - start, 0), stop - start)
            fh.write((pre_row * pre + post_row * (stop - start - pre))
                     % tuple(values))


def _write_csvs(out: Path, n_pre: int, xs: np.ndarray, ys: np.ndarray,
                pvalues: np.ndarray, trajectory: np.ndarray,
                intervals: IntervalSeries | None) -> None:
    """stream.csv, pvalues.csv, martingale.csv and intervals.csv."""
    n = len(xs)
    _write_table(out / "stream.csv", "step,x,y,phase", "%d,%.17g,%.17g",
                 range(1, n + 1), (xs, ys), n_pre)
    _write_table(out / "pvalues.csv", "step,pvalue,phase", "%d,%.17g",
                 range(1, n + 1), (pvalues,), n_pre)
    _write_table(out / "martingale.csv", "step,log10_capital", "%d,%.17g",
                 range(n + 1), (trajectory,))
    _write_table(out / "intervals.csv",
                 "step,center,lower,upper,width,covered",
                 "%d,%.17g,%.17g,%.17g,%.17g,%d",
                 range(2, n + 1),  # empty when there are no intervals
                 () if intervals is None else (
                     intervals.center, intervals.lower, intervals.upper,
                     intervals.width, intervals.covered))


def _write_json(path: Path, obj: dict[str, Any]) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _phase_means(intervals: IntervalSeries | None, lo: int,
                 hi: int) -> tuple[float | None, float | None]:
    """Coverage and mean width over the intervals of steps lo+1..hi."""
    # The arrays start at step 2.
    sel = slice(max(lo - 1, 0), max(hi - 1, 0))
    if intervals is None or not intervals.covered[sel].size:
        return None, None
    covered, width = intervals.covered[sel], intervals.width[sel]
    # cumsum adds in step order, like a loop from 0.0 (0.0 + maps -0.0 to 0.0).
    return (int(covered.sum()) / covered.size,
            (0.0 + float(np.cumsum(width)[-1])) / covered.size)


def run_scenario(cfg: ScenarioConfig, seed: int | None = None,
                 output_dir: Path | None = None,
                 write_artifacts: bool = True) -> ScenarioSummary:
    """Sample, transduce, bet, predict, summarize.

    seed/output_dir override the config values (used by replications).
    """
    seed = cfg.seed if seed is None else seed
    root = RandomStream(seed)
    data_rng = root.substream(DATA_SUBSTREAM)
    tau_rng = root.substream(TAU_SUBSTREAM)

    pre_xs, pre_ys = sample_arrays(cfg.pre, data_rng, cfg.n_pre)
    post_xs, post_ys = sample_arrays(cfg.post, data_rng, cfg.n_post)
    xs = np.concatenate((pre_xs, post_xs))
    ys = np.concatenate((pre_ys, post_ys))
    measure = cfg.measure.build(cfg.pre, cfg.post)
    pvalues = smoothed_pvalues(measure, xs, ys, tau_rng)
    trajectory = log10_capital(cfg.jumper, pvalues.tolist())  # index = step
    n = cfg.n_pre + cfg.n_post
    # A one-example stream has no earlier example to predict from.
    intervals = (interval_series(xs, ys, cfg.pre, cfg.epsilon)
                 if n > 1 else None)

    pre_p, post_p = pvalues[:cfg.n_pre], pvalues[cfg.n_pre:]
    coverage_pre, mean_width_pre = _phase_means(intervals, 1, cfg.n_pre)
    coverage_post, mean_width_post = _phase_means(intervals, cfg.n_pre, n)
    summary = ScenarioSummary(
        final_log10_capital=trajectory[-1],
        max_log10_capital=max(trajectory),
        ks_all=ks_uniform(pvalues, alpha=0.01),
        ks_pre=ks_uniform(pre_p, alpha=0.01) if pre_p.size else None,
        ks_post=ks_uniform(post_p, alpha=0.01) if post_p.size else None,
        coverage_pre=coverage_pre,
        coverage_post=coverage_post,
        mean_width_pre=mean_width_pre,
        mean_width_post=mean_width_post,
        seed=seed,
    )

    if write_artifacts:
        out = cfg.output_dir if output_dir is None else output_dir
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_csvs(out, cfg.n_pre, xs, ys, pvalues,
                        np.asarray(trajectory), intervals)
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
    if write_artifacts:
        try:
            cfg.output_dir.mkdir(parents=True, exist_ok=True)
            _write_json(cfg.output_dir / "aggregate.json",
                        aggregate_summaries(summaries))
        except OSError as exc:
            raise IOError(
                f"while writing aggregate under {cfg.output_dir}: {exc}"
            ) from exc
    return summaries


def _median(values: list[float | None]) -> float | None:
    vals = [v for v in values if v is not None]
    return statistics.median(vals) if vals else None


def aggregate_summaries(summaries: list[ScenarioSummary]) -> dict[str, Any]:
    def fraction_rejecting(pick):
        reports = [pick(s) for s in summaries]
        reports = [r for r in reports if r is not None]
        if not reports:
            return None
        return sum(r.reject for r in reports) / len(reports)

    return {
        "replications": len(summaries),
        "seeds": [s.seed for s in summaries],
        "median_final_log10_capital": _median(
            [s.final_log10_capital for s in summaries]),
        "median_max_log10_capital": _median(
            [s.max_log10_capital for s in summaries]),
        "median_coverage_pre": _median([s.coverage_pre for s in summaries]),
        "median_coverage_post": _median([s.coverage_post for s in summaries]),
        "median_mean_width_pre": _median(
            [s.mean_width_pre for s in summaries]),
        "median_mean_width_post": _median(
            [s.mean_width_post for s in summaries]),
        "fraction_ks_all_reject": fraction_rejecting(lambda s: s.ks_all),
        "fraction_ks_pre_reject": fraction_rejecting(lambda s: s.ks_pre),
        "fraction_ks_post_reject": fraction_rejecting(lambda s: s.ks_post),
    }


def describe_change(cfg: ScenarioConfig) -> dict[str, Any]:
    """Invariance residuals of the configured pre/post pair, for `verify`."""
    report = verify_conditions(cfg.pre, cfg.post)
    on_line_y = cryptic_line(cfg.pre, cfg.post.mu_x)
    return {
        "cond1_max_residual": report.cond1_max_residual,
        "cond2_residual": report.cond2_residual,
        "cryptic_line_y_at_post_mu_x": on_line_y,
        "post_mu_y_offset_from_line": cfg.post.mu_y - on_line_y,
        "same_covariance": (cfg.pre.sigma_x == cfg.post.sigma_x
                            and cfg.pre.sigma_y == cfg.post.sigma_y
                            and cfg.pre.rho_cov == cfg.post.rho_cov),
    }
