"""Workload definitions and output checks for the seqconformal benchmark.

A workload is a list of shipped scenario configs, each resized and
re-seeded from the benchmark seed, plus the claims its outputs must meet.
Every check raises ``CheckFailed`` naming the config and the value at
fault; the runner counts a raised check as a failed iteration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from seqconformal import ScenarioConfig, ScenarioSummary

# A long cryptic stream is a fair game: Ville's inequality lets any seed
# cross log10 S = 2 with probability up to 1/100, and a simulation of the
# Simple Jumper on 10^5 IID uniform p-values put the rate at 0.96 % of
# 20000 streams. The check therefore uses Ville level 10^-6, which a
# correct program fails on at most one seed in a million, while a
# detected shift of this length reaches log10 S in the hundreds.
CRYPTIC_MAX_LOG10 = 6.0
NONCRYPTIC_MIN_FINAL_LOG10 = 100.0
COVERAGE_TOLERANCE = 0.015


class CheckFailed(Exception):
    """An output of the program broke a benchmark check."""


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[str, ...]
    n_pre: int | None
    n_post: int | None
    replications: int | None
    write_artifacts: bool
    claims: Callable[[dict[str, ScenarioConfig],
                      dict[str, list[ScenarioSummary]]], None]

    def load(self, scenarios: Path, seed: int,
             output_root: Path) -> dict[str, ScenarioConfig]:
        """Configs keyed by name, re-seeded and resized for this workload."""
        out = {}
        for name in self.configs:
            cfg = ScenarioConfig.from_file(scenarios / f"{name}.cfg")
            overrides = {"seed": seed, "output_dir": output_root / name}
            if self.n_pre is not None:
                overrides["n_pre"] = self.n_pre
                overrides["n_post"] = self.n_post
            if self.replications is not None:
                overrides["replications"] = self.replications
            out[name] = dataclasses.replace(cfg, **overrides)
        return out

    def steps(self, cfgs: dict[str, ScenarioConfig]) -> int:
        """Examples processed per iteration, over configs and replications."""
        return sum((c.n_pre + c.n_post) * c.replications for c in cfgs.values())


def _shipped_claims(cfgs, results) -> None:
    final = results["non_cryptic"][0].final_log10_capital
    if not final > NONCRYPTIC_MIN_FINAL_LOG10:
        raise CheckFailed(f"non_cryptic final log10 S = {final!r}, "
                          f"expected > {NONCRYPTIC_MIN_FINAL_LOG10}")


def _long_stream_claims(cfgs, results) -> None:
    peak = results["cryptic"][0].max_log10_capital
    if not peak < CRYPTIC_MAX_LOG10:
        raise CheckFailed(f"cryptic max log10 S = {peak!r}, "
                          f"expected < {CRYPTIC_MAX_LOG10}")


def _replication_claims(cfgs, results) -> None:
    summaries = results["ensemble_cryptic"]
    coverage = statistics.median(s.coverage_pre for s in summaries)
    target = 1.0 - cfgs["ensemble_cryptic"].epsilon
    if not abs(coverage - target) <= COVERAGE_TOLERANCE:
        raise CheckFailed(f"ensemble_cryptic median pre-change coverage = "
                          f"{coverage!r}, expected {target} +- "
                          f"{COVERAGE_TOLERANCE}")


WORKLOADS = {
    w.name: w for w in (
        # The work of `seqconformal run` on each shipped config: small
        # stores, and the only workload that formats and writes CSV.
        Workload("shipped_cli", ("non_cryptic", "cryptic", "ensemble_cryptic"),
                 None, None, None, True, _shipped_claims),
        # One 10^5-step stream: the O(n) sorted-list insert in both score
        # stores dominates, and memory grows with n.
        Workload("long_stream", ("cryptic",), 50_000, 50_000, None, False,
                 _long_stream_claims),
        # Twenty short ensemble streams: per-run set-up, ensemble scoring
        # and the per-step Jumper dominate; the stores stay tiny.
        Workload("replications", ("ensemble_cryptic",), 2_000, 2_000, 20,
                 False, _replication_claims),
    )
}


def check_pvalues_csv(path: Path) -> int:
    """Every p-value in a pvalues.csv lies in (0, 1]; returns the row count."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "step,pvalue,phase":
        raise CheckFailed(f"{path.name}: unexpected header")
    for line in lines[1:]:
        p = float(line.split(",")[1])
        if not 0.0 < p <= 1.0:
            raise CheckFailed(f"{path.name}: p-value {p!r} outside (0, 1]")
    return len(lines) - 1


def artifact_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
