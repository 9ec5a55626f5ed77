"""The CSV table writer against the one-string-per-value reference writer."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import write_csvs
from seqconformal.intervals import IntervalSeries
from seqconformal.scenario import BLOCK_ROWS, _write_csvs

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


@given(st.one_of(st.floats(),
                 st.builds(math.ldexp, st.floats(-1.0, 1.0),
                           st.integers(-1074, 1023))))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(sys.float_info.min)
@example(sys.float_info.max)
@example(-sys.float_info.max)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(-math.nan)
def test_percent_g_is_format_g(x):
    assert "%.17g" % x == format(x, ".17g")


@given(st.integers(min_value=0, max_value=2**63))
def test_percent_d_is_str_for_steps(i):
    assert "%d" % i == str(i)


def test_percent_d_of_bools():
    assert "%d" % True == "1"
    assert "%d" % False == "0"
