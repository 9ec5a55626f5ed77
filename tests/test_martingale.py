import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from reference import initial_state, jumper_step
from seqconformal import JumperConfig, log10_capital
from seqconformal.martingale import BLOCK_STEPS


class TestConfig:
    def test_defaults(self):
        cfg = JumperConfig()
        assert cfg.epsilons == (-1.0, 0.0, 1.0)
        assert cfg.jump_rate == 0.01

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            JumperConfig(epsilons=())
        with pytest.raises(ValueError):
            JumperConfig(epsilons=(-2.0,))
        with pytest.raises(ValueError):
            JumperConfig(jump_rate=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            JumperConfig(epsilons=(math.nan, 0.0))


class TestLog10Capital:
    def test_empty_input(self):
        assert log10_capital(JumperConfig(), []).tolist() == [0.0]

    def test_trajectory_length(self):
        assert len(log10_capital(JumperConfig(), [0.5] * 10)) == 11

    @pytest.mark.parametrize("jump_rate", [0.0, 0.01])
    def test_neutral_grid_keeps_the_capital(self, jump_rate):
        # f_0(p) = 1 for every p
        cfg = JumperConfig(epsilons=(0.0,), jump_rate=jump_rate)
        ps = np.random.default_rng(2).random(100)
        assert (log10_capital(cfg, ps) == 0.0).all()

    def test_one_bet_endpoints(self):
        # Under the grid (1.0,) with no jumps, f_1(1) = 1.5 and f_1(0) = 0.5.
        cfg = JumperConfig(epsilons=(1.0,), jump_rate=0.0)
        assert log10_capital(cfg, [1.0])[-1] == math.log10(1.5)
        assert log10_capital(cfg, [0.0])[-1] == math.log10(0.5)

    @pytest.mark.parametrize("eps", [-1.0, -0.5, 0.5, 1.0])
    def test_one_bet_integrates_to_one(self, eps):
        # E[S_1] under a uniform p is the integral of f_eps over [0, 1].
        cfg = JumperConfig(epsilons=(eps,), jump_rate=0.0)
        total, _ = quad(lambda p: 10.0 ** log10_capital(cfg, [p])[-1], 0, 1)
        assert total == pytest.approx(1.0)

    @given(eps=st.floats(-1, 1), p=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_one_bet_lies_between_half_and_three_halves(self, eps, p):
        cfg = JumperConfig(epsilons=(eps,), jump_rate=0.0)
        after = log10_capital(cfg, [p])[-1]
        assert math.log10(0.5) <= after <= math.log10(1.5)

    def test_neutral_pvalue_keeps_the_capital(self):
        trajectory = log10_capital(JumperConfig(), [0.5] * 100)
        assert trajectory == pytest.approx(np.zeros(101), abs=1e-13)

    @pytest.mark.parametrize("p,factor", [(1.0, 1.5), (0.0, 0.5)])
    def test_rescaling_keeps_the_log10_capital(self, p, factor):
        # Under the grid (1.0,) with no jumps S_n is factor**n, which leaves
        # [10**-6, 10**6] by step 35 and is rescaled there.
        cfg = JumperConfig(epsilons=(1.0,), jump_rate=0.0)
        trajectory = log10_capital(cfg, [p] * 60)
        assert abs(trajectory[-1]) > 6
        assert trajectory == pytest.approx(
            np.arange(61) * math.log10(factor), abs=1e-12)

    def test_default_grid_hand_computed(self):
        # With no jumps, p = 1 multiplies the capitals 1/3 by 0.5, 1 and
        # 1.5: the total stays 1. A second p = 1 gives (1/12 + 1/3 + 3/4),
        # that is 7/6.
        cfg = JumperConfig(jump_rate=0.0)
        trajectory = log10_capital(cfg, [1.0, 1.0])
        assert trajectory[1] == pytest.approx(0.0, abs=1e-15)
        assert trajectory[2] == pytest.approx(math.log10(7.0 / 6.0))

    def test_capital_stays_positive(self):
        trajectory = log10_capital(JumperConfig(), [0.0, 1.0, 0.0, 1.0, 0.5])
        assert np.isfinite(trajectory).all()

    def test_ville_bound(self):
        # P(sup S >= c) <= 1/c under the null, plus Monte Carlo slack
        cfg = JumperConfig()
        n_runs, length = 100, 1000
        exceed = {5.0: 0, 10.0: 0, 20.0: 0}
        for seed in range(n_runs):
            ps = np.random.default_rng(5000 + seed).random(length)
            max_log10 = log10_capital(cfg, ps).max()
            for c in exceed:
                if max_log10 >= math.log10(c):
                    exceed[c] += 1
        for c, count in exceed.items():
            rate = count / n_runs
            se = math.sqrt((1 / c) * (1 - 1 / c) / n_runs)
            assert rate <= 1 / c + 3 * se


def folded_trajectory(cfg, pvalues):
    """Fold jumper_step over the p-values from initial_state: log10 S by
    step, from step 0."""
    state = initial_state(cfg)
    traj = [state.log10_total]
    for p in pvalues:
        state = jumper_step(state, cfg, p)
        traj.append(state.log10_total)
    return traj


PVALUE_RUNS = {
    "random": np.random.default_rng(3).random(3000).tolist(),
    "skewed": np.random.default_rng(4).beta(0.2, 1.0, size=3000).tolist(),
    "all_ones": [1.0] * 400,
    "all_zeros": [0.0] * 400,
    "alternating": [0.0, 1.0] * 200,
}


class TestInlineRecurrence:
    # Seven equal shares of 1 sum to 0.9999999999999998 left to right, so
    # the seven-point grid's initial total is not 1.0.
    @pytest.mark.parametrize("epsilons", [(-1.0, 0.0, 1.0),
                                          (-1.0, -0.5, 0.0, 0.5, 1.0),
                                          (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6,
                                           0.9),
                                          (-0.5, 0.25, 1.0), (1.0,),
                                          (-1.0, 1.0), (0.5, -1.0, 0.5)])
    @pytest.mark.parametrize("jump_rate", [0.0, 0.01, 0.5])
    @pytest.mark.parametrize("run", sorted(PVALUE_RUNS))
    def test_equals_folded_jumper_step_bit_for_bit(self, epsilons, jump_rate,
                                                    run):
        cfg = JumperConfig(epsilons=epsilons, jump_rate=jump_rate)
        ps = PVALUE_RUNS[run]
        assert (repr(log10_capital(cfg, ps).tolist())
                == repr(folded_trajectory(cfg, ps)))

    @pytest.mark.parametrize("run,direction", [("uniform", -1),
                                               ("skewed", 1)])
    def test_long_runs_equal_folded_jumper_step(self, run, direction):
        # 10^5 steps: uniform p-values drag the capital down past 10^-6,
        # small ones push it up past 10^6, so both rescale many times.
        rng = np.random.default_rng(11)
        ps = (rng.random(100_000) if run == "uniform"
              else rng.beta(0.2, 1.0, size=100_000)).tolist()
        cfg = JumperConfig()
        state = initial_state(cfg)
        want = [state.log10_total]
        for p in ps:
            state = jumper_step(state, cfg, p)
            want.append(state.log10_total)
        assert direction * state.log10_scale > 6
        assert repr(log10_capital(cfg, ps).tolist()) == repr(want)

    def test_array_and_list_inputs(self):
        ps = PVALUE_RUNS["random"][:500]
        want = repr(folded_trajectory(JumperConfig(), ps))
        for pvalues in (np.array(ps), ps):
            got = log10_capital(JumperConfig(), pvalues)
            assert got.dtype == np.float64
            assert repr(got.tolist()) == want


B = BLOCK_STEPS
# Under the grid (1.0,) with no jumps p = 1/2 bets exactly 1.0 and leaves
# the capital as it is, and p = 1 multiplies it by 1.5.
ONE_BET = JumperConfig(epsilons=(1.0,), jump_rate=0.0)
# Two bets with no jumps: p = 1/2 leaves both capitals as they are, p = 1
# multiplies them by 1.25 and 1.5 and p = 0 by 0.75 and 0.5, so the total
# rises past 10**6 under ones and falls past 10**-6 under zeros.
TWO_BETS = JumperConfig(epsilons=(0.5, 1.0), jump_rate=0.0)


def rescaling_run(cfg, n, rescales):
    """n p-values under which cfg, which has no jumps, rescales at each of
    the given 1-based steps and nowhere else. `rescales` holds (step, p)
    pairs: the p-values are 1/2, except for a run of that p ending at each
    step, as long as the capital needs to leave [10**-6, 10**6] there."""
    ps, state = [], initial_state(cfg)
    for step, p in rescales:
        run, probe = 0, state
        while probe.log10_scale == state.log10_scale:
            probe = jumper_step(probe, cfg, p)
            run += 1
        assert step - run >= len(ps), "the steps are too close"
        ps += [0.5] * (step - run - len(ps)) + [p] * run
        state = probe
    return ps + [0.5] * (n - len(ps))


def rescaled_steps(cfg, ps):
    """The 1-based steps at which folding jumper_step rescales."""
    state, steps = initial_state(cfg), []
    for step, p in enumerate(ps, start=1):
        scale = state.log10_scale
        state = jumper_step(state, cfg, p)
        if state.log10_scale != scale:
            steps.append(step)
    return steps


class TestBlockBoundaries:
    """log10_capital reads BLOCK_STEPS p-values per block, and each step
    adds the decimal scale it ends at to its log10 total; the scale of a
    rescale on the last step of a block or the first of the next must
    carry over."""

    # Steps 1..B make block 0, B+1..2B block 1, and so on.
    @pytest.mark.parametrize("n,steps", [(B - 1, [B - 1]), (B, [B]),
                                         (B + 1, [B + 1]),
                                         (2 * B + 1, [B, 2 * B + 1])])
    def test_rescale_on_a_block_boundary(self, n, steps):
        ps = rescaling_run(ONE_BET, n, [(step, 1.0) for step in steps])
        assert len(ps) == n
        assert rescaled_steps(ONE_BET, ps) == steps
        got = log10_capital(ONE_BET, ps)
        assert repr(got.tolist()) == repr(folded_trajectory(ONE_BET, ps))

    def test_two_bets_rescale_both_ways_within_and_at_block_edges(self):
        # Up and down four times inside block 0, on its last step, and on
        # the first and the last step of block 2.
        rescales = [(100, 1.0), (200, 0.0), (300, 1.0), (400, 0.0),
                    (500, 1.0), (B, 0.0), (2 * B + 1, 1.0), (3 * B, 0.0)]
        n = 3 * B + 10
        ps = rescaling_run(TWO_BETS, n, rescales)
        assert rescaled_steps(TWO_BETS, ps) == [step for step, _ in rescales]
        got = log10_capital(TWO_BETS, ps)
        assert repr(got.tolist()) == repr(folded_trajectory(TWO_BETS, ps))

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_default_grid_across_blocks(self, n):
        ps = np.random.default_rng(n).beta(0.2, 1.0, size=n).tolist()
        got = log10_capital(JumperConfig(), ps).tolist()
        assert repr(got) == repr(folded_trajectory(JumperConfig(), ps))


U = 2.0**-53  # unit roundoff of float64


def fairness_tolerance(k: int, log10_totals: tuple[float, float]) -> float:
    """The rounding budget of |log10 S(prefix + [1/2]) - log10 S(prefix)|
    on a grid of k bets, to first order in U.

    At p = 1/2 every bet 1 + eps * (p - 1/2) is exactly 1.0, so the step
    only mixes, and in exact arithmetic it keeps the total T:
    (1 - J) * sum(c) + k * (J / k) * T = T, where T = sum(c).
    - T, the carried total, is the left-to-right sum of the capitals c:
      sum(c) = T * (1 + t) with |t| <= (k - 1) U.
    - keep = fl(1 - J) and k * fl(J / k) are each off by a relative U.
    - Each new capital keep * c_i + share * T rounds three times (two
      products and a sum), so it is off by a relative 3 U; all terms are
      positive.
    - Summing the k new capitals rounds k - 1 more times.
    So the new total is T (1 + e) with |e| <= (2k + 2) U. A rescale on that
    step divides each capital by fl(10**m) and sums again: (k + 1) U more.
    log10(1 + e) <= |e| / ln 10. The two log10 totals lie in [-7, 7], where
    a float's ulp is at most 2**-50, and glibc's log10 is within 2 ulp, so
    they add 4 * 2**-50. Adding the decimal scale rounds each result by
    half its ulp.
    """
    relative = (3 * k + 3) * U * 1.01  # 1 % covers the second order
    return (relative / math.log(10) + 4 * 2.0**-50
            + math.ulp(max(abs(v) for v in log10_totals)))


class TestExactFairness:
    """S_n is affine in p_n, and mixing is linear, so E[S_n | p_1..p_{n-1}]
    under a uniform p_n is S_n at p_n = 1/2: the martingale property is
    that this equals S_{n-1}, for every prefix, grid and jump rate."""

    @settings(max_examples=300, deadline=None)
    @given(grid=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7),
           jump_rate=st.floats(0.0, 1.0, exclude_max=True),
           prefix=st.lists(st.floats(0.0, 1.0), max_size=100))
    @example(grid=[1.0], jump_rate=0.0, prefix=[1.0] * 40)
    @example(grid=[1.0], jump_rate=0.0, prefix=[0.0] * 40)
    @example(grid=[-1.0, 0.0, 1.0], jump_rate=0.01,
             prefix=[0.0, 1.0] * 50)
    def test_half_is_the_conditional_mean(self, grid, jump_rate, prefix):
        cfg = JumperConfig(epsilons=tuple(grid), jump_rate=jump_rate)
        before = log10_capital(cfg, prefix)[-1]
        after = log10_capital(cfg, prefix + [0.5])[-1]
        assert abs(after - before) <= fairness_tolerance(
            len(grid), (before, after))

    @pytest.mark.parametrize("p,direction", [(1.0, 1), (0.0, -1)])
    def test_fair_at_every_step_through_rescales(self, p, direction):
        # Under the grid (1.0,) with no jumps every bet multiplies the
        # capital by 1 + (p - 1/2): 1.5 per step passes 10**6 at step 35,
        # 0.5 per step passes 10**-6 at step 20, and each rescales.
        cfg = JumperConfig(epsilons=(1.0,), jump_rate=0.0)
        trajectory = log10_capital(cfg, [p] * 60)
        assert direction * trajectory[-1] > 6
        for n, before in enumerate(trajectory):
            after = log10_capital(cfg, [p] * n + [0.5])[-1]
            assert abs(after - before) <= fairness_tolerance(
                1, (before, after))
