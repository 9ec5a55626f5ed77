"""Command-line entry point.

    seqconformal run --config scenarios/cryptic.cfg [--output-dir DIR]
                     [--seed N] [--replications N] [--quick]
    seqconformal verify --config scenarios/cryptic.cfg

Exit codes: 0 success, 1 config error, 2 I/O error. An error prints only
one `error:` line, naming the config field or the path; a config error
comes before its replication writes a file. Usage errors print usage, exit 2.

Only `run` imports the runner, and numpy with it; `verify`, and a config
refused at load, never do.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig
from .cryptic import oracle_law

QUICK_N = 2000

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqconformal",
        description="Sequential conformal testing scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config end to end")
    run.add_argument("--config", required=True, help="path to a scenario config")
    run.add_argument("--output-dir", type=Path, default=None,
                     help="override output directory")
    run.add_argument("--seed", type=int, default=None, help="override seed")
    run.add_argument("--replications", type=int, default=None,
                     help="override replication count")
    run.add_argument("--quick", action="store_true",
                     help=f"shrink the stream to {QUICK_N}+{QUICK_N} examples")

    verify = sub.add_parser(
        "verify", help="validate a config and print the mean and sd of the "
        "oracle's whitened residual w under the post model (0 and 1 when "
        "the change is cryptic to the oracle)")
    verify.add_argument("--config", required=True)
    return parser


def _load_config(args) -> ScenarioConfig:
    """The config file with the `run` overrides applied. Replacing a field
    re-runs ScenarioConfig's checks, so an override is checked like a file
    value."""
    cfg = ScenarioConfig.from_file(args.config)
    if args.command == "verify":
        return cfg
    overrides = {"output_dir": args.output_dir, "seed": args.seed,
                 "replications": args.replications}
    if args.quick:
        overrides["n_pre"] = min(cfg.n_pre, QUICK_N)
        overrides["n_post"] = min(cfg.n_post, QUICK_N)
    return dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None})


def _verify(cfg: ScenarioConfig) -> int:
    mean, sd = oracle_law(cfg.pre, cfg.post)
    info = {"oracle_w_mean": mean, "oracle_w_sd": sd}
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "verify":
            return _verify(cfg)
        from .scenario import run_replications  # the first numpy import
        summaries = run_replications(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for summary in summaries:
        print(f"seed {summary.seed}: "
              f"final log10 S = {summary.final_log10_capital:.3f}, "
              f"max log10 S = {summary.max_log10_capital:.3f}, "
              f"KS(all) reject = {summary.ks_all.reject}")
    print(f"artifacts written to {cfg.output_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
