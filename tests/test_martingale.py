import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from reference import betting_function, initial_state, jumper_step
from seqconformal import JumperConfig, PValue, log10_capital, run_ctm
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


class TestBettingFunction:
    def test_neutral_epsilon(self):
        for p in (0.0, 0.3, 1.0):
            assert betting_function(0.0, p) == 1.0

    def test_endpoints(self):
        assert betting_function(1.0, 1.0) == 1.5
        assert betting_function(1.0, 0.0) == 0.5

    @pytest.mark.parametrize("eps", [-1.0, -0.5, 0.5, 1.0])
    def test_integrates_to_one(self, eps):
        total, _ = quad(lambda p: betting_function(eps, p), 0, 1)
        assert total == pytest.approx(1.0)

    @given(eps=st.floats(-1, 1), p=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_bounded(self, eps, p):
        f = betting_function(eps, p)
        assert 0.5 <= f <= 1.5


class TestJumperStep:
    def test_total_starts_at_one(self):
        state = initial_state(JumperConfig())
        assert state.total == pytest.approx(1.0)
        assert state.log10_scale == 0.0

    def test_neutral_pvalue_leaves_total(self):
        cfg = JumperConfig()
        state = jumper_step(initial_state(cfg), cfg, 0.5)
        assert state.total == pytest.approx(1.0)

    def test_one_step_symmetric_grid(self):
        cfg = JumperConfig(jump_rate=0.0)
        state = jumper_step(initial_state(cfg), cfg, 1.0)
        assert state.total == pytest.approx(1.0)

    def test_two_steps_hand_computed(self):
        cfg = JumperConfig(jump_rate=0.0)
        state = initial_state(cfg)
        for _ in range(2):
            state = jumper_step(state, cfg, 1.0)
        assert state.total == pytest.approx(7.0 / 6.0)

    def test_renormalization_invariance(self):
        # aggressive vs lazy rescaling must report the same log10 capital
        cfg = JumperConfig()
        rng = np.random.default_rng(0)
        ps = rng.beta(0.2, 1.0, size=2000)  # skewed small: capital explodes
        s3 = initial_state(cfg)
        s6 = initial_state(cfg)
        for p in ps:
            s3 = jumper_step(s3, cfg, p, renorm_exponent=3)
            s6 = jumper_step(s6, cfg, p, renorm_exponent=6)
        assert s3.log10_total == pytest.approx(s6.log10_total, abs=1e-9)
        assert s3.log10_total > 10  # the stream really forced rescaling

    def test_capital_stays_positive(self):
        cfg = JumperConfig()
        state = initial_state(cfg)
        for p in (0.0, 1.0, 0.0, 1.0, 0.5):
            state = jumper_step(state, cfg, p)
            assert all(c > 0 for c in state.capitals)


class TestRunCtm:
    def test_empty_input(self):
        assert run_ctm(JumperConfig(), []) == [(0, 0.0)]

    def test_trajectory_length_and_steps(self):
        traj = run_ctm(JumperConfig(), [0.5] * 10)
        assert len(traj) == 11
        assert [s for s, _ in traj] == list(range(11))

    def test_fairness_small(self):
        # E[S_n] = 1 under uniform p-values
        cfg = JumperConfig()
        rng = np.random.default_rng(1)
        totals = []
        for _ in range(20_000):
            state = initial_state(cfg)
            for p in rng.random(3):
                state = jumper_step(state, cfg, p)
            totals.append(state.total)
        assert np.mean(totals) == pytest.approx(1.0, abs=0.02)

    def test_ville_bound(self):
        # P(sup S >= c) <= 1/c under the null, plus Monte Carlo slack
        cfg = JumperConfig()
        n_runs, length = 100, 1000
        exceed = {5.0: 0, 10.0: 0, 20.0: 0}
        for seed in range(n_runs):
            ps = np.random.default_rng(5000 + seed).random(length)
            max_log10 = max(v for _, v in run_ctm(cfg, ps))
            for c in exceed:
                if max_log10 >= math.log10(c):
                    exceed[c] += 1
        for c, count in exceed.items():
            rate = count / n_runs
            se = math.sqrt((1 / c) * (1 - 1 / c) / n_runs)
            assert rate <= 1 / c + 3 * se

    def test_accepts_pvalue_objects(self):
        as_floats = run_ctm(JumperConfig(), [0.2, 0.8])
        as_objects = run_ctm(JumperConfig(),
                             [PValue(0.2, 1), PValue(0.8, 2)])
        assert as_floats == as_objects


def folded_trajectory(cfg, pvalues):
    """Fold jumper_step over the p-values from initial_state."""
    state = initial_state(cfg)
    traj = [(state.step, state.log10_total)]
    for p in pvalues:
        state = jumper_step(state, cfg, p)
        traj.append((state.step, state.log10_total))
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
                                          (-0.5, 0.25, 1.0), (1.0,)])
    @pytest.mark.parametrize("jump_rate", [0.0, 0.01, 0.5])
    @pytest.mark.parametrize("run", sorted(PVALUE_RUNS))
    def test_equals_folded_jumper_step_bit_for_bit(self, epsilons, jump_rate,
                                                    run):
        cfg = JumperConfig(epsilons=epsilons, jump_rate=jump_rate)
        ps = PVALUE_RUNS[run]
        assert repr(run_ctm(cfg, ps)) == repr(folded_trajectory(cfg, ps))

    @pytest.mark.parametrize("p,direction", [(1.0, 1), (0.0, -1)])
    def test_runs_force_rescaling_both_ways(self, p, direction):
        # Under the grid (1.0,) every bet multiplies the capital by 1 + (p - 1/2).
        cfg = JumperConfig(epsilons=(1.0,), jump_rate=0.0)
        state = initial_state(cfg)
        for _ in range(400):
            state = jumper_step(state, cfg, p)
        assert direction * state.log10_scale > 6
        assert (repr(run_ctm(cfg, [p] * 400))
                == repr(folded_trajectory(cfg, [p] * 400)))

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

    def test_array_and_object_inputs(self):
        ps = PVALUE_RUNS["random"][:500]
        want = repr(folded_trajectory(JumperConfig(), ps))
        assert repr(run_ctm(JumperConfig(), np.array(ps))) == want
        assert repr(run_ctm(JumperConfig(), (PValue(p, i) for i, p in
                                             enumerate(ps, start=1)))) == want

    def test_log10_capital_is_the_trajectory_by_index(self):
        ps = PVALUE_RUNS["random"][:500]
        values = log10_capital(JumperConfig(), ps)
        assert values.dtype == np.float64
        assert repr(list(enumerate(values.tolist()))) == repr(
            folded_trajectory(JumperConfig(), ps))
        # run_ctm gives the same values as Python floats
        assert all(type(v) is float for _, v in run_ctm(JumperConfig(), ps))


B = BLOCK_STEPS
# Under the grid (1.0,) with no jumps p = 1/2 bets exactly 1.0 and leaves
# the capital as it is, and p = 1 multiplies it by 1.5.
ONE_BET = JumperConfig(epsilons=(1.0,), jump_rate=0.0)


def rescaling_run(n, steps):
    """n p-values under which ONE_BET rescales at each of the given 1-based
    steps and nowhere else: p = 1/2, except for a run of ones ending at
    each step, as long as the capital needs to pass 10**6 there."""
    ps, state = [], initial_state(ONE_BET)
    for step in steps:
        run, probe = 0, state
        while probe.log10_scale == state.log10_scale:
            probe = jumper_step(probe, ONE_BET, 1.0)
            run += 1
        ps += [0.5] * (step - run - len(ps)) + [1.0] * run
        state = probe
    return ps + [0.5] * (n - len(ps))


class TestBlockBoundaries:
    """log10_capital reads BLOCK_STEPS p-values per block; a rescale on the
    last step of a block or the first of the next must carry over."""

    # Steps 1..B make block 0, B+1..2B block 1, and so on.
    @pytest.mark.parametrize("n,steps", [(B - 1, [B - 1]), (B, [B]),
                                         (B + 1, [B + 1]),
                                         (2 * B + 1, [B, 2 * B + 1])])
    def test_rescale_on_a_block_boundary(self, n, steps):
        ps = rescaling_run(n, steps)
        assert len(ps) == n
        want = folded_trajectory(ONE_BET, ps)
        state, rescaled = initial_state(ONE_BET), []
        for step, p in enumerate(ps, start=1):
            scale = state.log10_scale
            state = jumper_step(state, ONE_BET, p)
            if state.log10_scale != scale:
                rescaled.append(step)
        assert rescaled == steps
        got = log10_capital(ONE_BET, ps)
        assert repr(list(enumerate(got.tolist()))) == repr(want)

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_default_grid_across_blocks(self, n):
        ps = np.random.default_rng(n).beta(0.2, 1.0, size=n).tolist()
        got = log10_capital(JumperConfig(), ps).tolist()
        assert (repr(list(enumerate(got)))
                == repr(folded_trajectory(JumperConfig(), ps)))


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
