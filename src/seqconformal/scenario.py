"""Config-driven scenario runner.

`run_scenario` composes the stage functions: it samples a pre/post-change
Gaussian stream as x and y arrays (`sample_arrays`), runs them through the
smoothed conformal transducer (`smoothed_pvalues`), the Simple Jumper
martingale (`log10_capital`) and the online prediction intervals
(`interval_series`), tests the p-values for uniformity, and emits CSV
artifacts plus a JSON summary. Runs are fully deterministic per seed: the
data stream and the tie-breaking stream are independent substreams of
the scenario seed. The measure's scores are a stage of their own: the
transducer takes the scores, not the measure.
"""

from __future__ import annotations

import functools
import json
import math
import re
import statistics
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from decimal import Decimal
from pathlib import Path
from typing import Any, Iterable, Sequence, get_type_hints

import numpy as np
import yaml

from .conformity import (ConformityMeasure, LikelihoodRatio, Mahalanobis,
                         OracleMahalanobisEnsemble, PredictiveOracle)
from .cryptic import cryptic_shift, oracle_law
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
    lam: float = field(default=OracleMahalanobisEnsemble.lam,
                       metadata={"key": "lambda"})

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("measure.lambda", "must lie in [0, 1]")
        if self.kind not in _MEASURES:
            raise ConfigError("measure.kind",
                              f"unknown measure kind {self.kind!r}")

    def build(self, q0: BivariateGaussian,
              q1: BivariateGaussian) -> ConformityMeasure:
        return _MEASURES[self.kind](self, q0, q1)


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a key given twice in one mapping, where
    SafeLoader keeps the last value."""

    def construct_mapping(self, node, deep=False):
        # The explicit keys, before SafeLoader moves any merged (`<<`) keys
        # into node.value; an explicit key may override a merged one.
        key_nodes = [k for k, _ in node.value
                     if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in key_nodes:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario. Construction checks every value rule, so a parsed file,
    a CLI override and a `dataclasses.replace` copy are checked alike; the
    parser checks only the types of its annotations. The defaults here are
    those of a config file that omits the key."""

    pre: BivariateGaussian
    post: BivariateGaussian
    n_pre: int
    n_post: int
    seed: int
    measure: MeasureSpec = MeasureSpec("oracle")
    jumper: JumperConfig = JumperConfig()
    epsilon: float = 0.05
    replications: int = 1
    output_dir: Path = Path("out")

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
        mean, sd = oracle_law(self.pre, self.post)
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise ConfigError("post", f"the oracle's w has mean {mean!r} and "
                              f"sd {sd!r} under it; both must be finite")

    @staticmethod
    def from_file(path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            raw = yaml.load(path.read_bytes(), Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:  # one line, not PyYAML's excerpt
            mark = getattr(exc, "problem_mark", None)
            reason = (str(exc).partition("\n")[0] if mark is None else
                      f"{exc.problem} (line {mark.line + 1}, "
                      f"column {mark.column + 1})")
            raise ConfigError("<file>", f"not parseable: {reason}") from exc
        return _parse_config(raw, path.parent)


def _mapping(raw: Any, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(name or "<file>", f"expected a mapping, got {raw!r}")
    return raw


# A number in exponent form, which YAML 1.1 reads as a string if it has
# no '.' or no exponent sign.
_EXPONENT = re.compile(r"([-+]?[0-9]+)\.?([0-9]*)[eE]([-+]?)([0-9]+)")


def _as_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        m = isinstance(value, str) and _EXPONENT.fullmatch(value)
        raise ConfigError(name, f"expected a number, got {value!r}" + (
            f"; YAML 1.1 reads it as a string: write {m[1]}.{m[2] or 0}e"
            f"{m[3] or '+'}{m[4]}" if m else ""))
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(name, "too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(name, f"expected a finite number, got {value!r}")
    return number


def _as_integer(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        exact = Decimal(value if isinstance(value, float) or isinstance(
            value, str) and _EXPONENT.fullmatch(value) else "nan")
        raise ConfigError(name, f"expected an integer, got {value!r}" + (
            f"; write it in full: {int(exact)}" if math.isfinite(exact)
            and exact == exact.to_integral_value() else ""))
    return value


def _typed(value: Any, kind: type, expected: str, name: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(name, f"expected {expected}, got {value!r}")
    return value


# How `_parse` reads (value, field name, base_dir) into each annotation.
_CONVERTERS = {
    float: lambda v, name, base: _as_number(v, name),
    int: lambda v, name, base: _as_integer(v, name),
    str: lambda v, name, base: _typed(v, str, "a string", name),
    Path: lambda v, name, base: base / _typed(v, str, "a path", name),
    tuple[float, ...]: lambda v, name, base: tuple(
        _as_number(e, name)
        for e in _typed(v, (list, tuple), "a list of numbers", name)),
}


# Each class's annotations, evaluated once (they are strings here).
_hints = functools.cache(get_type_hints)


def _converter(hint: Any):
    """How `_parse` reads a field annotated hint; TypeError if it cannot."""
    if is_dataclass(hint):
        return lambda v, name, base: _parse(hint, v, name, base)
    if hint not in _CONVERTERS:
        raise TypeError(f"no config value converts to {hint!r}")
    return _CONVERTERS[hint]


def _parse(cls: type, raw: Any, name: str, base_dir: Path) -> Any:
    """The dataclass cls from the mapping raw, whose section is name ("" at
    the top level). Each field is read from the key of its name, or of its
    metadata's "key", and converted by its annotation; an absent key keeps
    the field's default. A relative path is taken from base_dir."""
    keys = {f.metadata.get("key", f.name): f for f in fields(cls)}
    raw = _mapping(raw, name)
    unknown = sorted(set(raw) - set(keys), key=str)
    if unknown and not name:
        raise ConfigError(str(unknown[0]), "unknown top-level key")
    if unknown:
        raise ConfigError(f"{name}.{unknown[0]}", "unknown key")
    hints = _hints(cls)
    values = {}
    for key, f in keys.items():
        field_name = f"{name}.{key}" if name else key
        convert = _converter(hints[f.name])
        if key in raw:
            values[f.name] = convert(raw[key], field_name, base_dir)
        elif f.default is MISSING:
            raise ConfigError(field_name, "missing")
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from exc


def _parse_config(raw: Any, base_dir: Path) -> ScenarioConfig:
    """`_parse` of a ScenarioConfig, but an absent output_dir is `out` next
    to the config file, and `post: {cryptic_delta_mu_x: d}` is `pre`
    shifted by d in x along its regression line; such a `post` holds no
    other key."""
    raw = {"output_dir": str(ScenarioConfig.output_dir), **_mapping(raw, "")}
    post = raw.get("post")
    if not (isinstance(post, dict) and "cryptic_delta_mu_x" in post):
        return _parse(ScenarioConfig, raw, "", base_dir)
    # Walked with post = pre, then shifted.
    cfg = _parse(ScenarioConfig, {**raw, "post": raw.get("pre")}, "",
                 base_dir)
    stray = sorted(set(post) - {"cryptic_delta_mu_x"}, key=str)
    if stray:
        raise ConfigError(f"post.{stray[0]}", "unknown key")
    delta = _as_number(post["cryptic_delta_mu_x"], "post.cryptic_delta_mu_x")
    try:
        shifted = cryptic_shift(cfg.pre, delta)
    except ValueError as exc:
        raise ConfigError("post.cryptic_delta_mu_x", str(exc)) from exc
    return replace(cfg, post=shifted)


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


def _phase_means(intervals: IntervalSeries, lo: int,
                 hi: int) -> tuple[float | None, float | None]:
    """Coverage and mean width over the intervals of steps lo+1..hi."""
    # The arrays start at step 2.
    sel = slice(max(lo - 1, 0), max(hi - 1, 0))
    if not intervals.covered[sel].size:
        return None, None
    covered, width = intervals.covered[sel], intervals.width[sel]
    # cumsum adds in step order, like a loop from 0.0 (0.0 + maps -0.0 to 0.0).
    return (int(covered.sum()) / covered.size,
            (0.0 + float(np.cumsum(width)[-1])) / covered.size)


def run_scenario(cfg: ScenarioConfig, seed: int | None = None,
                 output_dir: Path | None = None,
                 write_artifacts: bool = True) -> ScenarioSummary:
    """Sample, transduce, bet, predict, summarize.

    seed/output_dir override the config values (used by replications). The
    seed override is checked like a file value, as the seed of one run. A
    draw that overflows raises ConfigError naming its phase, seed, 1-based
    step and (x, y).
    """
    if seed is not None:
        cfg = replace(cfg, seed=seed, replications=1)
    root = RandomStream(cfg.seed)
    data_rng = root.substream(DATA_SUBSTREAM)
    tau_rng = root.substream(TAU_SUBSTREAM)

    n = cfg.n_pre + cfg.n_post
    try:
        xs, ys = np.empty(n), np.empty(n)
    except (ValueError, MemoryError) as exc:  # too long to index or to hold
        raise ConfigError("n_pre/n_post", f"a stream of {n} steps cannot be "
                          f"allocated: {exc}") from None
    for phase, model, lo, hi in (("pre", cfg.pre, 0, cfg.n_pre),
                                 ("post", cfg.post, cfg.n_pre, n)):
        xs[lo:hi], ys[lo:hi] = sample_arrays(model, data_rng, hi - lo)
        finite = np.isfinite(xs[lo:hi]) & np.isfinite(ys[lo:hi])
        if not finite.all():
            i = lo + int(np.argmin(finite))
            raise ConfigError(phase, (
                f"seed {cfg.seed}, step {i + 1}: the draw (x, y) = "
                f"({float(xs[i])!r}, {float(ys[i])!r}) is not finite"))
    measure = cfg.measure.build(cfg.pre, cfg.post)
    with np.errstate(over="ignore"):  # far examples may score -inf
        pvalues = smoothed_pvalues(measure.scores(xs, ys), tau_rng)
        trajectory = log10_capital(cfg.jumper, pvalues)  # index = step
        # KS runs before the intervals exist, to keep the peak memory low.
        ks_all, ks_pre, ks_post = (
            ks_uniform(p, alpha=0.01) if p.size else None
            for p in (pvalues, pvalues[:cfg.n_pre], pvalues[cfg.n_pre:]))
        intervals = interval_series(xs, ys, cfg.pre, cfg.epsilon)

    coverage_pre, mean_width_pre = _phase_means(intervals, 1, cfg.n_pre)
    coverage_post, mean_width_post = _phase_means(intervals, cfg.n_pre, n)
    summary = ScenarioSummary(
        final_log10_capital=float(trajectory[-1]),
        max_log10_capital=float(trajectory.max()),
        ks_all=ks_all, ks_pre=ks_pre, ks_post=ks_post,
        coverage_pre=coverage_pre,
        coverage_post=coverage_post,
        mean_width_pre=mean_width_pre,
        mean_width_post=mean_width_post,
        seed=cfg.seed,
    )

    if write_artifacts:
        out = cfg.output_dir if output_dir is None else output_dir
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_csvs(out, cfg.n_pre, xs, ys, pvalues, trajectory,
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
    """`smoothed_pvalues` as one `PValue` per example of a list."""
    values = smoothed_pvalues(measure.scores(*columns(stream)), rng).tolist()
    return [PValue(v, i) for i, v in enumerate(values, start=1)]


def run_ctm(cfg: JumperConfig,
            pvalues: Iterable[PValue]) -> list[tuple[int, float]]:
    """`log10_capital` as (step, log10 S) float pairs, from (0, 0.0)."""
    trajectory = log10_capital(cfg, [p.value for p in pvalues])
    return list(enumerate(trajectory.tolist()))


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
    """`interval_series` as one record per step, from step 2."""
    s = interval_series(*columns(stream), q0, epsilon)
    return [EfficiencyRecord(*row) for row in zip(
        range(2, len(stream) + 1), s.center.tolist(), s.lower.tolist(),
        s.upper.tolist(), s.width.tolist(), s.covered.tolist())]
