"""The CSV table writer against the one-string-per-value reference writer."""

import math
import sys

import numpy as np
import pytest

from reference import write_csvs
from seqconformal._csvtext import BLOCK_ROWS, write_table
from seqconformal.intervals import IntervalSeries
from seqconformal.scenario import _write_csvs

B = BLOCK_ROWS
CSVS = ("stream.csv", "pvalues.csv", "martingale.csv", "intervals.csv")
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
           sys.float_info.max, -sys.float_info.max, math.inf, -math.inf,
           math.nan, 1e-4, 9.9999999999999991e-05, 1e16, 1e17, 0.1)


def floats(rng, n):
    """Floats on both sides of the switches to exponent form at 1e-4 and
    1e17, a tenth of them special values."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 22, n)
    special = rng.random(n) < 0.1
    values[special] = rng.choice(SPECIAL, special.sum())
    return values


# (stream length, n_pre): row counts 1, B - 1, B, B + 1 and 2B + 1 in the
# stream, pvalue, martingale (one more) and interval (one fewer) tables,
# and the phase split at 0, B - 1, B, B + 1 and the last row.
STREAMS = [(1, 0), (1, 1), (2, 1), (B - 1, 0), (B - 1, B - 1), (B, B // 2),
           (B, B), (B + 1, 0), (B + 1, B), (B + 2, B + 1), (2 * B + 1, 0),
           (2 * B + 1, B - 1), (2 * B + 1, B), (2 * B + 1, B + 1),
           (2 * B + 1, 2 * B + 1)]


@pytest.mark.parametrize("n,n_pre", STREAMS)
def test_block_writer_matches_reference_bytes(tmp_path, n, n_pre):
    rng = np.random.default_rng(n * 100_003 + n_pre)
    xs, ys, pvalues, trajectory = (floats(rng, n), floats(rng, n),
                                   floats(rng, n), floats(rng, n + 1))
    intervals = IntervalSeries(  # empty when n == 1
        center=floats(rng, n - 1), lower=floats(rng, n - 1),
        upper=floats(rng, n - 1), width=floats(rng, n - 1),
        covered=rng.random(n - 1) < 0.5)
    for out, write in ((tmp_path / "new", _write_csvs),
                       (tmp_path / "ref", write_csvs)):
        out.mkdir()
        write(out, n_pre, xs, ys, pvalues, trajectory, intervals)
    for name in CSVS:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes(), name
    if n == 1:
        assert (tmp_path / "new" / "intervals.csv").read_text() == \
            "step,center,lower,upper,width,covered\n"


def written_tables(tmp_path, n, n_pre):
    """The four tables _write_csvs writes for random rows, as lists of
    fields without the header, and the columns it was given."""
    rng = np.random.default_rng(n)
    columns = {"stream.csv": (floats(rng, n), floats(rng, n)),
               "pvalues.csv": (floats(rng, n),),
               "martingale.csv": (floats(rng, n + 1),),
               "intervals.csv": tuple(floats(rng, n - 1) for _ in range(4))
               + (rng.random(n - 1) < 0.5,)}
    xs, ys = columns["stream.csv"]
    _write_csvs(tmp_path, n_pre, xs, ys, *columns["pvalues.csv"],
                *columns["martingale.csv"],
                IntervalSeries(*columns["intervals.csv"]))
    tables = {name: [line.split(",") for line in
                     (tmp_path / name).read_text().splitlines()[1:]]
              for name in CSVS}
    return tables, columns


def test_written_floats_read_back_bit_for_bit(tmp_path):
    tables, columns = written_tables(tmp_path, 2 * B + 1, B)
    for name in CSVS:
        for j, column in enumerate(columns[name], 1):
            if column.dtype == bool:
                continue
            read = np.array([float(row[j]) for row in tables[name]])
            assert read.tobytes() == column.tobytes(), (name, j)


def test_steps_flags_and_phases_are_plain_fields(tmp_path):
    n, n_pre = 2 * B + 1, B
    tables, columns = written_tables(tmp_path, n, n_pre)
    first = {"stream.csv": 1, "pvalues.csv": 1, "martingale.csv": 0,
             "intervals.csv": 2}
    for name, rows in tables.items():
        assert [row[0] for row in rows] == [
            str(step) for step in range(first[name], first[name] + len(rows))]
    covered = columns["intervals.csv"][-1]
    assert [row[-1] for row in tables["intervals.csv"]] == [
        "1" if c else "0" for c in covered]
    for name in ("stream.csv", "pvalues.csv"):
        assert [row[-1] for row in tables[name]] == (
            ["pre"] * n_pre + ["post"] * (n - n_pre))


# (first step, rows): 0, each 10**k - 1 and 10**k below 2**53, 2**53 - 1,
# and a block of steps across 10**4 and one across 10**8.
STEP_RUNS = [(0, 1), *((10**k - 1, 2) for k in range(1, 16)), (2**53 - 1, 1),
             (10**4 - B // 2, B), (10**8 - B // 2, B)]


def test_steps_at_each_digit_count(tmp_path):
    path = tmp_path / "steps.csv"
    for first, rows in STEP_RUNS:
        write_table(path, "step,x", first, (np.zeros(rows),))
        steps = [row.partition(b",")[0]
                 for row in path.read_bytes().splitlines()[1:]]
        assert steps == [b"%d" % s for s in range(first, first + rows)], first
