import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from seqconformal import ks_uniform


class TestKsUniform:
    def test_single_midpoint(self):
        assert ks_uniform([0.5], alpha=0.05).statistic == pytest.approx(0.5)

    def test_optimally_spaced_grid(self):
        n = 100
        grid = [(i - 0.5) / n for i in range(1, n + 1)]
        assert ks_uniform(grid, alpha=0.05).statistic == pytest.approx(1 / (2 * n))

    def test_degenerate_mass(self):
        report = ks_uniform([0.0] * 50, alpha=0.01)
        assert report.statistic == pytest.approx(1.0)
        assert report.reject

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        u = rng.random(500)
        ours = ks_uniform(u, alpha=0.05).statistic
        assert ours == pytest.approx(kstest(u, "uniform").statistic)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 100_001])
    def test_statistic_equals_whole_array_formula_bit_for_bit(self, n):
        # ks_uniform computes i / n - u and u - (i - 1) / n in one buffer,
        # with the same operations as these whole-array expressions.
        u = np.sort(np.random.default_rng(n).random(n))
        i = np.arange(1, n + 1)
        want = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        assert repr(ks_uniform(u).statistic) == repr(float(want))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ks_uniform([], alpha=0.05)
        with pytest.raises(ValueError):
            ks_uniform([1.5], alpha=0.05)
        with pytest.raises(ValueError):
            ks_uniform([0.5], alpha=0.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ks_uniform([0.1, math.nan, 0.5])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, values):
        shuffled = list(reversed(values))
        assert ks_uniform(values, 0.05).statistic == pytest.approx(
            ks_uniform(shuffled, 0.05).statistic)

    def test_null_rejection_rate(self):
        alpha = 0.05
        n_seeds = 200
        rejections = sum(
            ks_uniform(np.random.default_rng(s).random(1000), alpha).reject
            for s in range(n_seeds))
        se = math.sqrt(alpha * (1 - alpha) / n_seeds)
        assert rejections / n_seeds <= alpha + 3 * se

