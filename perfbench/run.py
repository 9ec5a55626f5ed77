#!/usr/bin/env python3
"""Benchmark of the seqconformal scenario pipeline.

    python3 perfbench/run.py --workload shipped_cli --seed 7 --seconds 40 --trace 0

Imports the package from ``src/`` of the checkout this file sits in and
runs one workload (see ``workloads.py``) in this process on one thread,
as a closed loop: one client, and each iteration starts when the one
before it ends. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` is a separate run that times each stage function and reports the
per-layer metrics (see ``traced.py``). Every iteration's outputs are
checked. Lines before the last are for people; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Scratch files and span traces go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 7
# Each run makes at least this many iterations, whatever --seconds says,
# so that it can compare repeated outputs at one seed.
MIN_ITERATIONS = 2
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Run in a fresh interpreter: import the package and parse the configs.
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import sys
from seqconformal import ScenarioConfig
for path in sys.argv[1:]:
    ScenarioConfig.from_file(path)
print(repr(time.perf_counter() - t0))
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    return args


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _environment(seed: int) -> dict:
    """What ran, and where: code identity, versions and machine."""
    import numpy
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *SCENARIOS.glob("*.cfg")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass  # git missing or the repository unreadable
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "seed": seed}


def _setup_times(cfg_paths: list[Path]) -> list[float]:
    """Seconds to import the package and parse the configs, each in a
    fresh interpreter; a first untimed launch warms the file cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *map(str, cfg_paths)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True)
        if i:
            times.append(float(done.stdout))
    return times


def _closed_loop(seconds: int, iteration) -> tuple[list, int, int]:
    """Run iteration() back to back for about `seconds`.

    Stops before an iteration that would end past the deadline, once
    MIN_ITERATIONS have run. Returns the walls and results of iterations
    that completed, the number attempted and the number that failed.
    """
    done, attempted, failed = [], 0, 0
    deadline = perf_counter() + seconds
    last = 0.0
    while attempted < MIN_ITERATIONS or perf_counter() + last <= deadline:
        attempted += 1
        start = perf_counter()
        try:
            done.append(iteration())
        except Exception:  # noqa: BLE001 - counted as a failure
            failed += 1
            print(f"iteration {attempted} failed:", file=sys.stderr)
            traceback.print_exc()
        last = perf_counter() - start
    return done, attempted, failed


def _fingerprint(results) -> str:
    return repr({name: [s.to_dict() for s in summaries]
                 for name, summaries in results.items()})


def run_end_to_end(workload, cfgs, seconds: int, scratch: Path):
    from workloads import CheckFailed, artifact_digests, check_pvalues_csv
    from seqconformal import run_replications

    reference = []

    def iteration():
        out = Path(tempfile.mkdtemp(dir=scratch))
        try:
            run_cfgs = {name: dataclasses.replace(cfg, output_dir=out / name)
                        for name, cfg in cfgs.items()}
            start = perf_counter()
            results = {name: run_replications(
                           cfg, write_artifacts=workload.write_artifacts)
                       for name, cfg in run_cfgs.items()}
            wall = perf_counter() - start
            workload.claims(run_cfgs, results)
            found = [_fingerprint(results)]
            if workload.write_artifacts:
                for name, cfg in run_cfgs.items():
                    n_csv = sum(check_pvalues_csv(p) for p in
                                sorted(cfg.output_dir.rglob("pvalues.csv")))
                    if n_csv != (cfg.n_pre + cfg.n_post) * cfg.replications:
                        raise CheckFailed(f"{name}: {n_csv} p-values written")
                found.append(artifact_digests(out))
            if not reference:
                reference.extend(found)
            elif found != reference:
                raise CheckFailed("outputs differ from the first iteration "
                                  "at the same seed")
            return wall
        finally:
            shutil.rmtree(out)

    walls, attempted, failed = _closed_loop(seconds, iteration)
    if not walls:
        return None, attempted, failed
    cfg_paths = [SCENARIOS / f"{name}.cfg" for name in workload.configs]
    setup = _setup_times(cfg_paths)
    run_s = statistics.median(walls)
    steps = workload.steps(cfgs)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q1, q3 = _quartiles(walls)
    s1, s3 = _quartiles(setup)
    print(f"run_s        {run_s:.6f} s  (q1 {q1:.6f}, q3 {q3:.6f}, "
          f"n={len(walls)})")
    print(f"steps_per_s  {steps / run_s:.3f} 1/s  ({steps} steps per "
          f"iteration)")
    print(f"setup_s      {statistics.median(setup):.6f} s  (q1 {s1:.6f}, "
          f"q3 {s3:.6f}, n={len(setup)})")
    print(f"peak_rss_mb  {peak_mib:.3f} MiB")
    print(f"failed_frac  {failed / attempted:.6f}  ({failed} of {attempted} "
          f"iterations)")
    metrics = {
        "run_s": (run_s, "s"),
        "steps_per_s": (steps / run_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    return metrics, attempted, failed


def run_traced(workload, cfgs, seconds: int, scratch: Path, env: dict,
               trace_path: Path):
    from traced import LAYER_METRICS, Tracer, traced_iteration
    from workloads import CheckFailed

    tracer = Tracer()
    reference = []

    def iteration():
        out = Path(tempfile.mkdtemp(dir=scratch))
        try:
            times, counts, results = traced_iteration(tracer, cfgs, out)
        finally:
            shutil.rmtree(out)
        workload.claims(cfgs, results)
        found = (counts, _fingerprint(results))
        if not reference:
            reference.append(found)
        elif found != reference[0]:
            raise CheckFailed("per-layer counts or outputs differ from the "
                              "first traced iteration at the same seed")
        return times, counts

    done, attempted, failed = _closed_loop(seconds, iteration)
    tracer.write(trace_path, env)
    if not done:
        return None, attempted, failed
    # Counts repeat exactly across iterations (checked above); times vary.
    counts = done[0][1]
    metrics = {name: (counts[name] if name in counts else
                      statistics.median(times[name] for times, _ in done), unit)
               for name, unit in LAYER_METRICS}
    base = {"conformity.tied_scores": "conformity.scores",
            "intervals.zero_width": "intervals.count"}
    for name, (value, unit) in metrics.items():
        line = f"{name:<26} {value:.6g} {unit}"
        if name in base:
            line += f"  ({value} of {counts[base[name]]})"
        print(line)
    print(f"traced iterations {len(done)} ({failed} of {attempted} failed); "
          f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "seqconformal" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'seqconformal'}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import seqconformal
    if Path(seqconformal.__file__).resolve().parent != SRC / "seqconformal":
        print(f"error: imported seqconformal from {seqconformal.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    try:
        cfgs = workload.load(SCENARIOS, args.seed, OUT)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load the workload's configs: {exc}",
              file=sys.stderr)
        return 2
    env = _environment(args.seed)
    env.update(workload=workload.name, trace=args.trace,
               seconds=args.seconds, client="closed loop, 1 client, 1 thread")
    print("env " + json.dumps(env, sort_keys=True))

    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="scratch-"))
    try:
        if args.trace:
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
            metrics, attempted, failed = run_traced(
                workload, cfgs, args.seconds, scratch, env, trace_path)
        else:
            metrics, attempted, failed = run_end_to_end(
                workload, cfgs, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if metrics is None:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
