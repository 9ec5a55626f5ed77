"""Far examples never score NaN.

Every measure scores an example through its whitened coordinates (u, w)
under the reference model. The oracle, Mahalanobis and the ensemble
score a constant minus a weighted sum of their squares. A sum of squares
of finite u and w is never NaN: for an example past about 1e154 sds,
u * u or w * w overflows to inf and the score to -inf. The likelihood
ratio scores half the difference of two such sums, one under each model,
so it is inf - inf = NaN for an example past about 1e154 sds from both
models. No run draws one: each draw lies near its own phase's model, so
at most one of the sums is inf, and the score is -inf (a post-change
example) or +inf (a pre-change one). So a run whose post-change mean
lies up to 1e250 sds away finishes with numpy's invalid operations
raising, and its p-values are valid. Overflow stays allowed: examples
that far out tie at -inf, and a run ignores the overflow, so it prints
no warning.

At the edge of the float range x - mu_x itself overflows, so u is
infinite. With r = 0 the regression line is flat, and it stays mu_y
there: it is never 0 * inf. The ensemble at lam = 1 leaves its u term
out, for 0 * u * u would be NaN there.

The property test adds about 1.3 s to tier-1 on a 2-vCPU host.
"""

import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from seqconformal import ScenarioConfig, run_scenario

MEASURES = [{"kind": "oracle"}, {"kind": "mahalanobis"},
            {"kind": "likelihood_ratio"}, {"kind": "ensemble", "lambda": 0.0},
            {"kind": "ensemble", "lambda": 0.5},
            {"kind": "ensemble", "lambda": 1.0}]


@st.composite
def models(draw):
    sigma_x = 10.0 ** draw(st.floats(-3, 3))
    sigma_y = 10.0 ** draw(st.floats(-3, 3))
    r = draw(st.floats(-0.95, 0.95))
    return {"mu_x": draw(st.floats(-1e3, 1e3)) * sigma_x,
            "mu_y": draw(st.floats(-1e3, 1e3)) * sigma_y,
            "sigma_x": sigma_x, "sigma_y": sigma_y,
            "rho_cov": r * sigma_x * sigma_y}


@st.composite
def far_configs(draw):
    """A valid config whose post-change mean lies up to 1e250 sds from
    the pre-change mean, along the cryptic line or in any direction, with
    draws that stay finite (every sd is at most 1e3)."""
    pre = draw(models())
    size = 10.0 ** draw(st.floats(0, 250))
    if draw(st.booleans()):
        sign = draw(st.sampled_from([-1.0, 1.0]))
        post = {"cryptic_delta_mu_x": sign * size * pre["sigma_x"]}
    else:
        post = draw(models())
        angle = draw(st.floats(0, 2 * math.pi))
        post["mu_x"] = pre["mu_x"] + size * math.cos(angle) * pre["sigma_x"]
        post["mu_y"] = pre["mu_y"] + size * math.sin(angle) * pre["sigma_y"]
    return {"pre": pre, "post": post, "n_pre": 50, "n_post": 50, "seed": 7,
            "measure": draw(st.sampled_from(MEASURES))}


def load(raw, tmp):
    """The config of raw, written as a file under the directory tmp."""
    path = Path(tmp) / "scenario.cfg"
    path.write_text(yaml.safe_dump(raw))
    return ScenarioConfig.from_file(path)


def pvalues_of_run(raw):
    """Run the config with numpy's invalid operations raising; return its
    p-values and its log10 capital trajectory, read from its artifacts."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load(raw, tmp)
        with np.errstate(invalid="raise"):
            run_scenario(cfg)
        pvalues = np.loadtxt(cfg.output_dir / "pvalues.csv", delimiter=",",
                             skiprows=1, usecols=1)
        trajectory = np.loadtxt(cfg.output_dir / "martingale.csv",
                                delimiter=",", skiprows=1, usecols=1)
    return pvalues, trajectory


@given(raw=far_configs())
@settings(max_examples=150, deadline=None)
def test_far_shift_runs_without_nan(raw):
    pvalues, trajectory = pvalues_of_run(raw)
    assert ((0.0 <= pvalues) & (pvalues <= 1.0)).all()
    assert np.isfinite(trajectory).all()


def test_far_examples_rank_as_least_conforming():
    # A cryptic shift of 1e200 sds, 300 + 300 steps: every post-change
    # example scores -inf under Mahalanobis, below every pre-change score,
    # so its smoothed p-value is tau * k / (300 + k) at the k-th such
    # example, with median about 1/8. NaN scores would rank above every
    # finite one and give p-values near 1 (a median of 0.866).
    raw = {"pre": {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0, "sigma_y": 1.0,
                   "rho_cov": 0.5},
           "post": {"cryptic_delta_mu_x": 1.0e+200},
           "n_pre": 300, "n_post": 300, "seed": 7,
           "measure": {"kind": "mahalanobis"}}
    pvalues, _ = pvalues_of_run(raw)
    assert np.median(pvalues[300:]) < 0.5


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


EDGE_MEASURES = {"oracle": {"kind": "oracle"},
                 "mahalanobis": {"kind": "mahalanobis"},
                 "likelihood_ratio": {"kind": "likelihood_ratio"},
                 "ensemble": {"kind": "ensemble"},
                 "ensemble_lambda_1": {"kind": "ensemble", "lambda": 1.0}}


def edge_run(measure):
    """Run the edge config under measure: each phase's examples lie 3e308,
    past the largest float, from the other phase's mean, so u is infinite
    under the other model. Return the run's scores, recomputed from
    stream.csv, and its other artifacts' bytes by file name."""
    raw = {"pre": {"mu_x": 1.5e+308, "mu_y": 0.0, "sigma_x": 1.0,
                   "sigma_y": 1.0, "rho_cov": 0.0},
           "post": {"mu_x": -1.5e+308, "mu_y": 0.0, "sigma_x": 1.0,
                    "sigma_y": 1.0, "rho_cov": 0.0},
           "n_pre": 300, "n_post": 300, "seed": 7, "measure": measure}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load(raw, tmp)
        # The subtraction x - mu_x overflows; that is allowed.
        with np.errstate(over="ignore", invalid="ignore"):
            run_scenario(cfg)
            xs, ys = np.loadtxt(cfg.output_dir / "stream.csv", delimiter=",",
                                skiprows=1, usecols=(1, 2), unpack=True)
            scores = cfg.measure.build(cfg.pre, cfg.post).scores(xs, ys)
        artifacts = {name: (cfg.output_dir / name).read_bytes()
                     for name in ("pvalues.csv", "intervals.csv",
                                  "summary.json")}
    return scores, artifacts


def column(csv, index):
    return np.loadtxt(io.BytesIO(csv), delimiter=",", skiprows=1,
                      usecols=index)


@pytest.mark.parametrize("name", sorted(EDGE_MEASURES))
def test_edge_of_float_range_gives_no_nan(name):
    # With r = 0 the line mu_y + 0 * u used to be NaN where u is infinite:
    # NaN scores, which rank as the most conforming (a median post-change
    # p-value of 0.866 under Mahalanobis), NaN interval centres and
    # widths, and a summary.json holding NaN, which is not JSON. The
    # ensemble at lam = 1 scored 0 * u * u = NaN there too: a median
    # post-change p-value of 0.866 and a final log10 S of 37.8, a false
    # detection of a change its oracle part is blind to.
    scores, artifacts = edge_run(EDGE_MEASURES[name])
    pvalues = column(artifacts["pvalues.csv"], 1)
    intervals = column(artifacts["intervals.csv"], (1, 2, 3, 4, 5))
    assert not np.isnan(scores).any()
    assert not np.isnan(intervals).any()
    json.loads(artifacts["summary.json"], parse_constant=reject_constant)
    if name == "ensemble_lambda_1":
        # c - a w^2 ranks the examples as the oracle's -w^2 / 2 does
        oracle = edge_run(EDGE_MEASURES["oracle"])[1]
        assert artifacts["pvalues.csv"] == oracle["pvalues.csv"]
    elif name != "oracle":  # the oracle is blind to this shift
        assert np.median(pvalues[300:]) < 0.5
