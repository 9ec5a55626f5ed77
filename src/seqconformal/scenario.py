"""Config-driven scenario runner.

`run_scenario` composes the stage functions: it samples a pre/post-change
Gaussian stream as x and y arrays (`sample_arrays`), runs them through the
smoothed conformal transducer (`smoothed_pvalues`), the Simple Jumper
martingale (`log10_capital`) and the online prediction intervals
(`interval_series`), tests the p-values for uniformity, and emits CSV
artifacts plus a JSON summary. Runs are fully deterministic per seed: the
data stream and the tie-breaking stream are independent substreams of
the scenario seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np
import yaml

from .conformity import (ConformityMeasure, LikelihoodRatio, Mahalanobis,
                         PredictiveOracle, oracle_mahalanobis_ensemble)
from .cryptic import cryptic_line, cryptic_shift, verify_conditions
from .gaussian import BivariateGaussian, sample_arrays
from .intervals import IntervalSeries, interval_series
from .martingale import JumperConfig, log10_capital
from .rng import RandomStream
from .stats import KSReport, ks_uniform
from .transducer import smoothed_pvalues

DATA_SUBSTREAM = 0
TAU_SUBSTREAM = 1


class ConfigError(ValueError):
    """Scenario config rejected; carries the offending field."""

    def __init__(self, field_name: str, reason: str):
        self.field_name = field_name
        self.reason = reason
        super().__init__(f"config field '{field_name}': {reason}")


@dataclass(frozen=True)
class MeasureSpec:
    kind: str  # oracle | mahalanobis | likelihood_ratio | ensemble
    lam: float = 0.5

    def build(self, q0: BivariateGaussian,
              q1: BivariateGaussian) -> ConformityMeasure:
        if self.kind == "oracle":
            return PredictiveOracle(q0)
        if self.kind == "mahalanobis":
            return Mahalanobis(q0)
        if self.kind == "likelihood_ratio":
            return LikelihoodRatio(q0, q1)
        if self.kind == "ensemble":
            return oracle_mahalanobis_ensemble(q0, self.lam)
        raise ConfigError("measure.kind", f"unknown measure kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
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
        if not isinstance(raw, dict):
            raise ConfigError("<file>", "top level must be a mapping")
        return _parse_config(raw, path.parent)


def _require(raw: dict, key: str, prefix: str = "") -> Any:
    if key not in raw:
        raise ConfigError(prefix + key, "missing")
    return raw[key]


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


def check_seeds(seed: int, replications: int) -> None:
    """Every replication seed, seed .. seed + replications - 1, is a valid
    64-bit seed."""
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", "must fit in 64 bits")
    if seed + replications - 1 >= 2**64:
        raise ConfigError("seed", f"the last replication seed "
                          f"{seed + replications - 1} does not fit in 64 bits")


def _parse_model(raw: Any, name: str) -> BivariateGaussian:
    if not isinstance(raw, dict):
        raise ConfigError(name, "expected a mapping of model parameters")
    fields = ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho_cov")
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(name, f"unknown keys {sorted(unknown)}")
    values = {f: _as_number(_require(raw, f, f"{name}."), f"{name}.{f}")
              for f in fields}
    try:
        return BivariateGaussian(**values)
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from exc


def _parse_config(raw: dict[str, Any], base_dir: Path) -> ScenarioConfig:
    pre = _parse_model(_require(raw, "pre"), "pre")

    post_raw = _require(raw, "post")
    if isinstance(post_raw, dict) and set(post_raw) == {"cryptic_delta_mu_x"}:
        delta = _as_number(post_raw["cryptic_delta_mu_x"],
                           "post.cryptic_delta_mu_x")
        post = cryptic_shift(pre, delta).q1
    else:
        post = _parse_model(post_raw, "post")

    n_pre = _as_int(_require(raw, "n_pre"), "n_pre")
    n_post = _as_int(_require(raw, "n_post"), "n_post")
    if n_pre < 0 or n_post < 0:
        raise ConfigError("n_pre/n_post", "must be nonnegative")
    if n_pre + n_post < 1:
        raise ConfigError("n_pre/n_post", "stream must be nonempty")

    seed = _as_int(_require(raw, "seed"), "seed")

    measure_raw = raw.get("measure", {"kind": "oracle"})
    if not isinstance(measure_raw, dict) or "kind" not in measure_raw:
        raise ConfigError("measure", "expected a mapping with a 'kind' key")
    lam = _as_number(measure_raw.get("lambda", 0.5), "measure.lambda")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("measure.lambda", "must lie in [0, 1]")
    measure = MeasureSpec(kind=str(measure_raw["kind"]), lam=lam)
    if measure.kind not in ("oracle", "mahalanobis", "likelihood_ratio",
                            "ensemble"):
        raise ConfigError("measure.kind",
                          f"unknown measure kind {measure.kind!r}")

    jumper_raw = raw.get("jumper", {})
    if not isinstance(jumper_raw, dict):
        raise ConfigError("jumper", "expected a mapping")
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

    epsilon = _as_number(raw.get("epsilon", 0.05), "epsilon")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon", "must lie in (0, 1)")

    replications = _as_int(raw.get("replications", 1), "replications")
    if replications < 1:
        raise ConfigError("replications", "must be >= 1")
    check_seeds(seed, replications)

    output_dir = Path(raw.get("output_dir", "out"))
    if not output_dir.is_absolute():
        output_dir = base_dir / output_dir

    known = {"pre", "post", "n_pre", "n_post", "seed", "measure", "jumper",
             "epsilon", "replications", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown top-level key")

    return ScenarioConfig(pre=pre, post=post, n_pre=n_pre, n_post=n_post,
                          seed=seed, measure=measure, jumper=jumper,
                          epsilon=epsilon, replications=replications,
                          output_dir=output_dir)


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


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write_csv(path: Path, header: list[str],
               rows: Iterable[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _phase_means(intervals: IntervalSeries | None, lo: int,
                 hi: int) -> tuple[float | None, float | None]:
    """Coverage and mean width over the intervals of steps lo+1..hi."""
    if intervals is None:
        return None, None
    # The arrays start at step 2.
    sel = slice(max(lo - 1, 0), max(hi - 1, 0))
    covered = intervals.covered[sel].tolist()
    if not covered:
        return None, None
    # Python's sum, in step order, as over a list of records.
    return (sum(covered) / len(covered),
            sum(intervals.width[sel].tolist()) / len(covered))


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
    pvalues = smoothed_pvalues(measure, xs, ys, tau_rng).tolist()
    trajectory = log10_capital(cfg.jumper, pvalues)  # index = step
    n = cfg.n_pre + cfg.n_post
    # A one-example stream has no earlier example to predict from.
    intervals = (interval_series(xs, ys, cfg.pre, cfg.epsilon)
                 if n > 1 else None)

    pre_p = pvalues[:cfg.n_pre]
    post_p = pvalues[cfg.n_pre:]
    coverage_pre, mean_width_pre = _phase_means(intervals, 1, cfg.n_pre)
    coverage_post, mean_width_post = _phase_means(intervals, cfg.n_pre, n)
    summary = ScenarioSummary(
        final_log10_capital=trajectory[-1],
        max_log10_capital=max(trajectory),
        ks_all=ks_uniform(pvalues, alpha=0.01),
        ks_pre=ks_uniform(pre_p, alpha=0.01) if pre_p else None,
        ks_post=ks_uniform(post_p, alpha=0.01) if post_p else None,
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
            phase = ["pre" if i <= cfg.n_pre else "post"
                     for i in range(1, n + 1)]
            _write_csv(out / "stream.csv", ["step", "x", "y", "phase"],
                       ([str(i + 1), _fmt(x), _fmt(y), phase[i]]
                        for i, (x, y) in enumerate(zip(xs.tolist(),
                                                       ys.tolist()))))
            _write_csv(out / "pvalues.csv", ["step", "pvalue", "phase"],
                       ([str(i + 1), _fmt(p), phase[i]]
                        for i, p in enumerate(pvalues)))
            _write_csv(out / "martingale.csv", ["step", "log10_capital"],
                       ([str(i), _fmt(c)] for i, c in enumerate(trajectory)))
            interval_rows = () if intervals is None else zip(
                range(2, n + 1), intervals.center.tolist(),
                intervals.lower.tolist(), intervals.upper.tolist(),
                intervals.width.tolist(), intervals.covered.tolist())
            _write_csv(out / "intervals.csv",
                       ["step", "center", "lower", "upper", "width", "covered"],
                       ([str(step), _fmt(c), _fmt(lo), _fmt(up), _fmt(w),
                         "1" if cov else "0"]
                        for step, c, lo, up, w, cov in interval_rows))
            (out / "summary.json").write_text(
                json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8", newline="\n")
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
            (cfg.output_dir / "aggregate.json").write_text(
                json.dumps(aggregate_summaries(summaries), indent=2,
                           sort_keys=True) + "\n",
                encoding="utf-8", newline="\n")
        except OSError as exc:
            raise IOError(
                f"while writing aggregate under {cfg.output_dir}: {exc}"
            ) from exc
    return summaries


def _median(values: list[float]) -> float | None:
    vals = sorted(v for v in values if v is not None)
    if not vals:
        return None
    m = len(vals) // 2
    return vals[m] if len(vals) % 2 else 0.5 * (vals[m - 1] + vals[m])


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
