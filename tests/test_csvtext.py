"""The numpy CSV formatter against Python's own '%.17g' and '%d'."""

import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqconformal._csvtext import csv_rows

NEWLINE = np.frombuffer(b"\n", np.uint8)[None, :]


def rows_text(block) -> list[str]:
    """The rows csv_rows writes for a rows x columns block."""
    block = np.asarray(block, dtype=np.float64)
    return csv_rows(block, NEWLINE).tobytes().decode().split("\n")[:-1]


def formatted(values) -> list[str]:
    """csv_rows of a single column, one string per value."""
    return rows_text(np.asarray(values, dtype=np.float64)[:, None])


def neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# 2**50 + 0.25, 2**50 + 0.75 and 2**49 + k/8 for odd k are exact decimal
# ties: the digit after the 17th is a 5 followed by zeros, so '%.17g'
# rounds half to even. The even k lie between them.
TIES = [2.0**50 + 0.25, 2.0**50 + 0.75,
        *(2.0**49 + k / 8 for k in range(16))]
POWERS_OF_TEN = [y for j in range(-4, 16) for y in neighbours(10.0**j)]
EDGES = [*neighbours(2.0**53), 0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 3,
         sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
         sys.float_info.max, -sys.float_info.max, math.inf, -math.inf,
         math.nan, -math.nan, 1e16, 1e17, 0.1, 0.5, 1.0]


def test_exact_ties_round_half_to_even():
    for x in TIES + [-x for x in TIES]:
        assert formatted([x]) == ["%.17g" % x]
    assert formatted([2.0**50 + 0.25, 2.0**50 + 0.75]) == [
        "1125899906842624.2", "1125899906842624.8"]


def test_powers_of_ten_and_their_neighbours():
    values = POWERS_OF_TEN + [-x for x in POWERS_OF_TEN]
    assert formatted(values) == ["%.17g" % x for x in values]


def test_edges_and_values_outside_the_fixed_point_range():
    assert formatted(EDGES) == ["%.17g" % x for x in EDGES]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(),
                          st.builds(math.ldexp, st.floats(-1.0, 1.0),
                                    st.integers(-1074, 1023))),
                min_size=1, max_size=40))
@example(TIES)
@example(POWERS_OF_TEN)
@example(EDGES)
def test_matches_percent_g(values):
    assert formatted(values) == ["%.17g" % x for x in values]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_rows_join_columns_with_commas(cols, data):
    values = data.draw(st.lists(st.floats(), min_size=cols, max_size=8 * cols))
    block = np.asarray(values[:len(values) // cols * cols]).reshape(-1, cols)
    assert rows_text(block) == [",".join("%.17g" % x for x in row)
                                for row in block.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=40))
@example([0, 1, 9, 10, 10**15 - 1, 10**15, 2**53 - 1])
def test_int_columns_match_percent_d(ints):
    assert formatted(np.asarray(ints, dtype=np.int64)) == \
        ["%d" % i for i in ints]


def test_bool_columns_match_percent_d():
    flags = np.array([True, False, False, True])
    assert formatted(flags) == ["%d" % f for f in flags.tolist()]


def test_row_ends():
    ends = np.frombuffer(b",pre\n\0,post\n", np.uint8).reshape(2, 6)
    text = csv_rows(np.array([[1.0, 0.5], [2.0, -0.25]]), ends)
    assert text.tobytes() == b"1,0.5,pre\n2,-0.25,post\n"
