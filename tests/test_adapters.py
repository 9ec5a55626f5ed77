"""The per-example adapters, held to the array stages they wrap.

`sample`, `run_transducer`, `run_ctm` and `efficiency_series` (with
`Example`, `columns`, `PValue` and `EfficiencyRecord`) live at the end of
`scenario.py`, and only `perfbench/traced.py` calls them. The traced run
requires the summary they give to equal `run_scenario`'s bit for bit, so
each adapter must give its array stage's values exactly, as Python
floats; the stages' own behaviour is tested on the arrays, in the other
modules.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqconformal import (BivariateGaussian, JumperConfig, LikelihoodRatio,
                          Mahalanobis, OracleMahalanobisEnsemble,
                          PredictiveOracle, RandomStream, ScenarioConfig,
                          efficiency_series, run_ctm, run_scenario,
                          run_transducer, sample, sample_arrays)
from seqconformal.intervals import interval_block, new_heaps
from seqconformal.martingale import capital_block, jumper_start
from seqconformal.scenario import (DATA_SUBSTREAM, TAU_SUBSTREAM, Example,
                                   PValue, columns)
from seqconformal.transducer import pvalue_block

Q0 = BivariateGaussian(0, 0, 1, 1, 0.5)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MEASURES = {
    "oracle": PredictiveOracle(Q0),
    "mahalanobis": Mahalanobis(Q0),
    "likelihood_ratio": LikelihoodRatio(
        Q0, BivariateGaussian(1.0, 2.0, 1.5, 0.8, -0.3)),
    "ensemble": OracleMahalanobisEnsemble(Q0, 0.3),
}


def test_example_rejects_nonfinite():
    with pytest.raises(ValueError):
        Example(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Example(0.0, float("inf"))


class TestSample:
    def test_examples_are_the_arrays(self):
        q = BivariateGaussian(1.0, -1.0, 1.5, 0.8, 0.6)
        xs, ys = sample_arrays(q, RandomStream(4), 30)
        assert xs.dtype == ys.dtype == np.float64
        zs = sample(q, RandomStream(4), 30)
        assert xs.tolist() == [z.x for z in zs]
        assert ys.tolist() == [z.y for z in zs]
        cx, cy = columns(zs)
        assert cx.tobytes() == xs.tobytes() and cy.tobytes() == ys.tobytes()

    def test_empty_and_negative(self):
        assert sample(Q0, RandomStream(1), 0) == []
        with pytest.raises(ValueError):
            sample(Q0, RandomStream(1), -1)

    def test_non_finite_draw_raises(self):
        # sample_arrays returns the overflowing draw; Example refuses it.
        with pytest.raises(ValueError, match="finite"):
            sample(BivariateGaussian(0, 0, 1e308, 1, 0.5), RandomStream(1),
                   100)


@given(points=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                       max_size=50),
       kind=st.sampled_from(sorted(MEASURES)))
@settings(max_examples=100, deadline=None)
def test_score_is_the_kernel_on_one_example(points, kind):
    measure = MEASURES[kind]
    measure.reset()
    got = [measure.score(Example(x, y)) for x, y in points]
    assert all(type(s) is float for s in got)
    assert repr(got) == repr([measure.scores(x, y) for x, y in points])


class TestRunTransducer:
    def test_empty_stream(self):
        assert run_transducer(PredictiveOracle(Q0), [], RandomStream(1)) == []

    @pytest.mark.parametrize("kind", sorted(MEASURES))
    def test_pvalues_are_pvalue_block_of_the_scores(self, kind):
        rng = RandomStream(8)
        stream = sample(Q0, rng.substream(0), 1000)
        measure = MEASURES[kind]
        want = pvalue_block(measure.scores(*columns(stream)), np.empty(0),
                            rng.substream(1))
        got = run_transducer(measure, stream, rng.substream(1))
        assert [p.value for p in got] == want.tolist()
        assert [p.step_index for p in got] == list(range(1, 1001))


class TestRunCtm:
    def test_empty_input(self):
        assert run_ctm(JumperConfig(), []) == [(0, 0.0)]

    def test_steps_and_values_are_capital_block(self):
        ps = np.random.default_rng(3).random(500)
        got = run_ctm(JumperConfig(), [PValue(p, i) for i, p in
                                       enumerate(ps.tolist(), start=1)])
        assert [s for s, _ in got] == list(range(501))
        assert all(type(v) is float for _, v in got)
        logs = np.empty(500)
        capital_block(JumperConfig(), ps, jumper_start(JumperConfig()), logs)
        assert repr([v for _, v in got]) == repr([0.0, *logs.tolist()])


class TestEfficiencySeries:
    @pytest.mark.parametrize("n", [0, 1, 2, 200])
    def test_records_are_the_interval_arrays(self, n):
        stream = sample(Q0, RandomStream(11), n)
        series = interval_block(*sample_arrays(Q0, RandomStream(11), n), 0,
                                n, Q0, 0.05, new_heaps())[0]
        records = efficiency_series(stream, Q0, 0.05)
        assert [r.step for r in records] == list(range(2, n + 1))
        for name in ("center", "lower", "upper", "width", "covered"):
            assert ([getattr(r, name) for r in records]
                    == getattr(series, name).tolist()), name

    def test_bad_epsilon_rejected(self):
        stream = sample(Q0, RandomStream(12), 10)
        for epsilon in (0.0, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                efficiency_series(stream, Q0, epsilon)


@pytest.mark.parametrize("name", ["non_cryptic", "ensemble_cryptic"])
def test_adapters_compose_to_run_scenario(name):
    # The composition `perfbench/traced.py` times, on a short stream.
    cfg = dataclasses.replace(
        ScenarioConfig.from_file(SCENARIOS / f"{name}.cfg"), n_pre=300,
        n_post=300)
    root = RandomStream(cfg.seed)
    data_rng = root.substream(DATA_SUBSTREAM)
    stream = (sample(cfg.pre, data_rng, cfg.n_pre)
              + sample(cfg.post, data_rng, cfg.n_post))
    measure = cfg.measure.build(cfg.pre, cfg.post)
    pvalues = run_transducer(measure, stream, root.substream(TAU_SUBSTREAM))
    trajectory = run_ctm(cfg.jumper, pvalues)
    records = efficiency_series(stream, cfg.pre, cfg.epsilon)
    summary = run_scenario(cfg, write_artifacts=False)
    assert trajectory[-1][1] == summary.final_log10_capital
    assert max(v for _, v in trajectory) == summary.max_log10_capital
    post = [r.covered for r in records if r.step > cfg.n_pre]
    assert sum(post) / len(post) == summary.coverage_post
