import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from reference import betting_function, initial_state, jumper_step
from seqconformal import JumperConfig, PValue, log10_capital, run_ctm


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
        assert repr(log10_capital(cfg, ps)) == repr(want)

    def test_array_and_object_inputs(self):
        ps = PVALUE_RUNS["random"][:500]
        want = repr(folded_trajectory(JumperConfig(), ps))
        assert repr(run_ctm(JumperConfig(), np.array(ps))) == want
        assert repr(run_ctm(JumperConfig(), (PValue(p, i) for i, p in
                                             enumerate(ps, start=1)))) == want

    def test_log10_capital_is_the_trajectory_by_index(self):
        ps = PVALUE_RUNS["random"][:500]
        values = log10_capital(JumperConfig(), ps)
        assert all(type(v) is float for v in values)
        assert repr(list(enumerate(values))) == repr(
            folded_trajectory(JumperConfig(), ps))
