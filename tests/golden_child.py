"""The runs behind the golden digests, in a process of their own.

`test_scenario.py::test_golden_digests_at_each_dispatch` runs this source
as `python -c <source> <spec>` (as a script, it would put `tests/` on
sys.path) from an empty working directory, with only the package's parent
directory on PYTHONPATH and numpy's SIMD dispatch set by
NPY_DISABLE_CPU_FEATURES, so no module of `tests/` is importable. spec is
JSON: the scenarios directory, the shipped config names of each golden
table, and under "csv_cases" groups of explicit `csv_rows` cases, each the
hex of their float64 bytes.

Each table's runs are written under the working directory:
- "2k": `seqconformal run --quick` (2000 + 2000 steps), through `cli.main`;
- "full": `run_scenario` at the config's own stream length;
- "replications": `run_replications` at 500 + 500 steps and 3 seeds.

`csv_rows` also formats each group of explicit cases and, as the group
"csv_seeded", 2 x 10^5 seeded doubles of random sign and exponent on its
exact path (2**-13 <= |v| < 2**53), as a float column of steps 0, 1, ....
The child prints one JSON object: per table and config, the SHA-256 of
every file written, and per group the repr of each value v at step i whose
row is not b"%d,%.17g" % (i, v).
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from seqconformal import ScenarioConfig, run_replications, run_scenario
from seqconformal._csvtext import csv_rows
from seqconformal.cli import main as cli_main

BATTERY_SEED = 2027
BATTERY_SIZE = 200_000


def digests(root):
    """The SHA-256 of every file under root, keyed by its path from root."""
    return {f.relative_to(root).as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(root.rglob("*")) if f.is_file()}


def write_2k(config, out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["run", "--config", str(config), "--quick",
                         "--output-dir", str(out)])
    if code != 0:
        sys.exit(f"seqconformal run --quick exited {code} on {config}")
    return digests(out)


def write_full(config, out):
    run_scenario(ScenarioConfig.from_file(config), output_dir=out)
    return digests(out)


def write_replications(config, out):
    run_replications(dataclasses.replace(
        ScenarioConfig.from_file(config), n_pre=500, n_post=500,
        replications=3, output_dir=out))
    return digests(out)


def seeded_doubles():
    rng = np.random.default_rng(BATTERY_SEED)
    magnitudes = np.ldexp(1.0 + rng.random(BATTERY_SIZE),
                          rng.integers(-13, 53, BATTERY_SIZE))
    return np.where(rng.random(BATTERY_SIZE) < 0.5, -magnitudes, magnitudes)


def csv_mismatches(values):
    rows = csv_rows(0, [values], b"\n").split(b"\n")[:-1]
    if len(rows) != len(values):
        return [f"{len(rows)} rows for {len(values)} values"]
    return [repr(v) for step, (v, row) in enumerate(zip(values.tolist(), rows))
            if row != b"%d,%.17g" % (step, v)]


WRITERS = {"2k": write_2k, "full": write_full,
           "replications": write_replications}


def main(spec):
    scenarios = Path(spec["scenarios"])
    result = {table: {name: write(scenarios / f"{name}.cfg",
                                  Path(table) / name)
                      for name in spec[table]}
              for table, write in WRITERS.items()}
    for group, cases in spec["csv_cases"].items():
        result[group] = csv_mismatches(np.frombuffer(bytes.fromhex(cases)))
    result["csv_seeded"] = csv_mismatches(seeded_doubles())
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
