"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Criteria run against the shipped scenario configs at their committed
seeds; statistical checks use fixed seed ranges so every run of this
module is deterministic.
"""

import dataclasses
import math
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import seqconformal as sc
from reference import two_sample_ks_rejects
from seqconformal.gaussian import conditional_sd
from seqconformal.martingale import capital_block, jumper_start
from seqconformal.transducer import pvalue_block

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
QUICK = {"n_pre": 2000, "n_post": 2000}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def load(name: str) -> sc.ScenarioConfig:
    return sc.ScenarioConfig.from_file(SCENARIOS / f"{name}.cfg")


@pytest.fixture(scope="module")
def noncryptic_full():
    cfg = load("non_cryptic")
    start = time.perf_counter()
    summary = sc.run_scenario(cfg, write_artifacts=False)
    return summary, time.perf_counter() - start


@pytest.fixture(scope="module")
def cryptic_full_20():
    cfg = load("cryptic")
    return [sc.run_scenario(cfg, seed=cfg.seed + i, write_artifacts=False)
            for i in range(20)]


def test_criterion_1_noncryptic_detection(noncryptic_full):
    full, elapsed = noncryptic_full
    quick = sc.run_scenario(dataclasses.replace(load("non_cryptic"), **QUICK),
                            write_artifacts=False)
    ok = (full.final_log10_capital > 100
          and quick.final_log10_capital > 20
          and elapsed < 30.0)
    report(1, ok, f"full final log10 S = {full.final_log10_capital:.1f} (> 100), "
                  f"quick = {quick.final_log10_capital:.1f} (> 20), "
                  f"runtime {elapsed:.1f}s (< 30s)")
    assert full.final_log10_capital > 100
    assert quick.final_log10_capital > 20
    assert elapsed < 30.0


def test_criterion_2_cryptic_blindness(cryptic_full_20):
    summaries = cryptic_full_20
    reject_fraction = np.mean([s.ks_all.reject for s in summaries])
    median_final = float(np.median([s.final_log10_capital for s in summaries]))
    low_max = sum(s.max_log10_capital < 2 for s in summaries)
    ok = reject_fraction <= 0.10 and median_final < 1 and low_max >= 18
    report(2, ok, f"KS reject fraction = {reject_fraction:.2f} (<= 0.10), "
                  f"median final log10 S = {median_final:.1f} (< 1), "
                  f"max log10 S < 2 in {low_max}/20 seeds (>= 18)")
    assert reject_fraction <= 0.10
    assert median_final < 1
    assert low_max >= 18


def test_criterion_3_cryptic_line_exactness():
    rng = np.random.default_rng(2024)
    worst_mean = worst_sd = 0.0
    for _ in range(100):
        sx, sy = rng.uniform(0.3, 3, 2)
        r = rng.uniform(-0.9, 0.9)
        q0 = sc.BivariateGaussian(rng.uniform(-5, 5), rng.uniform(-5, 5),
                                  sx, sy, r * sx * sy)
        q1 = sc.cryptic_shift(q0, rng.uniform(-30, 30))
        mean, sd = sc.oracle_law(q0, q1)
        worst_mean = max(worst_mean, abs(mean))
        worst_sd = max(worst_sd, abs(sd - 1.0))
    # off-line perturbation by delta must show up as exactly delta in y,
    # which is the mean of w times Q0's conditional sd
    q0 = sc.BivariateGaussian(0, 0, 1, 1, 0.5)
    base = sc.cryptic_shift(q0, 20.0)
    delta_errors = []
    for delta in (0.1, 1.0):
        perturbed = dataclasses.replace(base, mu_y=base.mu_y + delta)
        mean, _ = sc.oracle_law(q0, perturbed)
        delta_errors.append(abs(mean * conditional_sd(q0) - delta))
    ok = worst_mean <= 1e-10 and worst_sd <= 1e-10 and max(delta_errors) <= 1e-10
    report(3, ok, f"construction |mean|, |sd - 1| of w <= "
                  f"{max(worst_mean, worst_sd):.1e} (<= 1e-10), "
                  f"off-line delta error <= {max(delta_errors):.1e}")
    assert worst_mean <= 1e-10
    assert worst_sd <= 1e-10
    assert max(delta_errors) <= 1e-10


def test_criterion_4_score_distribution_invariance():
    q0 = sc.BivariateGaussian(0, 0, 1, 1, 0.5)
    q1 = sc.cryptic_shift(q0, 20.0)
    oracle = sc.PredictiveOracle(q0)
    rejections = 0
    for seed in range(100, 120):
        rng = sc.RandomStream(seed)
        a = oracle.scores(*sc.sample_arrays(q0, rng.substream(0), 10_000))
        b = oracle.scores(*sc.sample_arrays(q1, rng.substream(1), 10_000))
        rejections += two_sample_ks_rejects(a, b)
    ok = 20 - rejections >= 18
    report(4, ok, f"two-sample KS non-rejections: {20 - rejections}/20 (>= 18)")
    assert 20 - rejections >= 18


def test_criterion_5_validity_and_fairness():
    q0 = sc.BivariateGaussian(0, 0, 1, 1, 0.5)
    # (a) IID data: transducer p-values pass KS uniformity
    rejections = 0
    for seed in range(200, 220):
        rng = sc.RandomStream(seed)
        scores = sc.PredictiveOracle(q0).scores(
            *sc.sample_arrays(q0, rng.substream(0), 10_000))
        pvals = pvalue_block(scores, np.empty(0), rng.substream(1))
        rejections += sc.ks_uniform(pvals, alpha=0.01).reject
    uniform_ok = 20 - rejections >= 18

    # (b) martingale fairness: E[S_5] = 1 under uniform p-values
    cfg = sc.JumperConfig()
    ps = np.random.default_rng(123).random((100_000, 5))
    total, logs = 0.0, np.empty(5)
    for row in ps:
        capital_block(cfg, row, jumper_start(cfg), logs)
        total += 10.0 ** logs[-1]
    mean_s5 = total / len(ps)
    fairness_ok = 0.98 <= mean_s5 <= 1.02

    # (c) Ville: P(max S >= 10) over 200 IID runs of length 1000
    exceed, logs = 0, np.empty(1000)
    for seed in range(200):
        p = np.random.default_rng(5000 + seed).random(1000)
        capital_block(cfg, p, jumper_start(cfg), logs)
        if logs.max() >= 1.0:  # log10 scale; S_0 = 1 is below 10
            exceed += 1
    ville_rate = exceed / 200
    ville_ok = ville_rate <= 0.16

    ok = uniform_ok and fairness_ok and ville_ok
    report(5, ok, f"KS uniform passes {20 - rejections}/20 (>= 18), "
                  f"mean S_5 = {mean_s5:.4f} (in [0.98, 1.02]), "
                  f"P(max S >= 10) = {ville_rate:.3f} (<= 0.16)")
    assert uniform_ok
    assert fairness_ok
    assert ville_ok


# Seed-to-seed sd of the criterion-6 width ratios; see that test's comment.
NONCRYPTIC_RATIO_SD = 0.0137
CRYPTIC_RATIO_SD = 0.0096
RATIO_BUDGET_SDS = 4


def _upper_tail(t: float) -> float:
    """P(Z > t) for a standard normal Z."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def _bag_halfwidth(w_pre: float, sigma_pre: float, shift: float,
                   sigma_post: float, epsilon: float) -> float:
    """(1 - epsilon) quantile of |r| for r ~ w N(0, sigma_pre^2) +
    (1 - w) N(shift, sigma_post^2), by bisection."""
    def tail_mass(h: float) -> float:
        pre = 2.0 * _upper_tail(h / sigma_pre)
        post = (_upper_tail((h - shift) / sigma_post)
                + _upper_tail((h + shift) / sigma_post))
        return w_pre * pre + (1.0 - w_pre) * post

    lo, hi = 0.0, abs(shift) + 10.0 * max(sigma_pre, sigma_post)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tail_mass(mid) > epsilon else (lo, mid)
    return 0.5 * (lo + hi)


def _predicted_width_ratio(cfg: sc.ScenarioConfig) -> float:
    """Expected post/pre mean-width ratio of the online oracle intervals,
    from the model parameters alone, not from the program under test.

    Residuals r = y - E_pre[y | x] are N(0, sigma_c^2) before the change
    and N(shift, sigma_post^2) after it; the bag at post step m has pre
    weight w = n_pre / (n_pre + m - 1).
    """
    pre, post = cfg.pre, cfg.post
    slope = pre.rho_cov / pre.sigma_x**2
    sigma_c = math.sqrt(pre.sigma_y**2 - slope * pre.rho_cov)
    shift = post.mu_y - pre.mu_y - slope * (post.mu_x - pre.mu_x)
    sigma_post = math.sqrt(post.sigma_y**2 - 2.0 * slope * post.rho_cov
                           + slope**2 * post.sigma_x**2)

    def halfwidth(w_pre: float) -> float:
        return _bag_halfwidth(w_pre, sigma_c, shift, sigma_post, cfg.epsilon)

    h0 = halfwidth(1.0)
    assert math.isclose(
        h0, sigma_c * NormalDist().inv_cdf(1.0 - cfg.epsilon / 2.0),
        rel_tol=1e-9)
    post_mean = sum(halfwidth(cfg.n_pre / (cfg.n_pre + m - 1))
                    for m in range(1, cfg.n_post + 1)) / cfg.n_post
    return post_mean / h0


def test_criterion_6_efficiency_paradox(noncryptic_full, cryptic_full_20):
    # The interval at step n is calibrated on the oracle scores of
    # z_1..z_{n-1}, so its half-width is the (1 - eps) quantile of the
    # residuals y - E[y | x] in the bag.
    # Cryptic: the residual law does not change, so the expected ratio is 1.
    # Non-cryptic, shift to (2, 2): post residuals are N(1, 0.75), pre ones
    # N(0, 0.75). The bag at post step m mixes 10 000 pre and m - 1 post
    # scores, which dilutes the widening: the predicted ratio is 1.1851
    # (1.280 at the end of the stream), see _predicted_width_ratio. Over seeds 7-206 the program gave non-cryptic
    # mean 1.1861, sd 0.0137, and cryptic mean 1.0008, sd 0.0096. Each
    # ratio must lie within RATIO_BUDGET_SDS = 4 measured sds of its
    # prediction (about 6e-5 false failures per ratio under normality).
    # A bag frozen at the change or widths blind to the shift give ~1.0,
    # a post-only bag ~1.4; all three fall outside the non-cryptic band.
    cryptic = cryptic_full_20[0]  # shipped seed
    noncryptic, _ = noncryptic_full
    cryptic_ratio = cryptic.mean_width_post / cryptic.mean_width_pre
    pooled_steps = (cryptic.ks_all.n - 1)
    pooled_miss = 1.0 - (
        cryptic.coverage_pre * (load("cryptic").n_pre - 1)
        + cryptic.coverage_post * load("cryptic").n_post) / pooled_steps
    noncryptic_ratio = noncryptic.mean_width_post / noncryptic.mean_width_pre
    predicted = _predicted_width_ratio(load("non_cryptic"))
    cryptic_budget = RATIO_BUDGET_SDS * CRYPTIC_RATIO_SD
    noncryptic_budget = RATIO_BUDGET_SDS * NONCRYPTIC_RATIO_SD
    ok = (abs(cryptic_ratio - 1.0) <= cryptic_budget
          and pooled_miss <= 0.05 + 0.015
          and abs(noncryptic_ratio - predicted) <= noncryptic_budget)
    report(6, ok, f"cryptic width ratio = {cryptic_ratio:.4f} "
                  f"(1 +- {cryptic_budget:.4f}), "
                  f"pooled miscoverage = {pooled_miss:.4f} (<= 0.065), "
                  f"non-cryptic width ratio = {noncryptic_ratio:.4f} "
                  f"({predicted:.4f} +- {noncryptic_budget:.4f})")
    assert abs(cryptic_ratio - 1.0) <= cryptic_budget
    assert pooled_miss <= 0.05 + 0.015
    assert abs(noncryptic_ratio - predicted) <= noncryptic_budget


def test_criterion_7_crypticity_breaking():
    cfg = dataclasses.replace(load("ensemble_cryptic"), **QUICK)
    summary = sc.run_scenario(cfg, write_artifacts=False)
    ok = summary.final_log10_capital > 10
    report(7, ok, f"ensemble quick final log10 S = "
                  f"{summary.final_log10_capital:.1f} (> 10)")
    assert summary.final_log10_capital > 10


def test_criterion_8_determinism(tmp_path):
    files = ("stream.csv", "pvalues.csv", "martingale.csv", "intervals.csv",
             "summary.json")
    all_ok = True
    for name in ("non_cryptic", "cryptic", "ensemble_cryptic"):
        cfg = load(name)
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        sc.run_scenario(cfg, output_dir=out_a)
        sc.run_scenario(cfg, output_dir=out_b)
        for f in files:
            if (out_a / f).read_bytes() != (out_b / f).read_bytes():
                all_ok = False
    report(8, all_ok, "byte-identical artifacts for all three shipped configs"
                      if all_ok else "artifact mismatch between reruns")
    assert all_ok
