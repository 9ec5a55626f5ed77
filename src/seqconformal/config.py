"""Scenario configs: `ScenarioConfig`, `MeasureSpec`, and the YAML parser
that reads a config file into them, checking every value before any
stream is drawn. Like the modules it builds on, it imports no numpy, so
parsing a config and `seqconformal verify` never load it.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import (MISSING, dataclass, field, fields, is_dataclass,
                         replace)
from decimal import Decimal
from pathlib import Path
from typing import Any, get_type_hints

import yaml

from .conformity import (ConformityMeasure, LikelihoodRatio, Mahalanobis,
                         OracleMahalanobisEnsemble, PredictiveOracle)
from .cryptic import cryptic_shift, oracle_law
from .gaussian import BivariateGaussian
from .martingale import JumperConfig


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
