import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from reference import left_sum
from seqconformal import ConfigError, ScenarioConfig, run_replications, run_scenario
from seqconformal.cli import main as cli_main
from seqconformal.intervals import IntervalSeries
from seqconformal.scenario import (MeasureSpec, _phase_means,
                                   aggregate_summaries, describe_change)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ARTIFACTS = ("stream.csv", "pvalues.csv", "martingale.csv", "intervals.csv",
             "summary.json")
MEASURE_KINDS = ("oracle", "mahalanobis", "likelihood_ratio", "ensemble")

# SHA-256 of every artifact of the shipped configs cut to 2000 + 2000 steps,
# taken with Python 3.11.7 and numpy 2.4.6. The digests pin the bytes across
# refactors of the pipeline; a numpy whose PCG64 or float formatting differs
# may legitimately change them. The intervals.csv digests were retaken
# when the half-width became the stored |r| itself in place of the
# exp/log round trip through the oracle density (last-digit changes).
# The ensemble's pvalues.csv, martingale.csv and summary.json digests were
# retaken when it began to standardize its components by their moments
# under Q0 in place of running moments over the stream.
GOLDEN_2K = {
    "cryptic": {
        "stream.csv": "29644ef141b54d8f1954cac918b896aea74e1d6cb4774ba1c58fa390a753f7e2",
        "pvalues.csv": "8bf93144e1d112c2fed5fc6613429bb276fb130c5aed186c817243ada08492fa",
        "martingale.csv": "3eace3cc4f59890de884ad1c6a8033e7595794e0f7b9a692877d029c97097deb",
        "intervals.csv": "06d6ebece7936168f35f5fa03900abe217ade5d76b7b2b158c6cdde3ff28351f",
        "summary.json": "629bb39623eb66b26194cf4d82abf3214a58224790af1c6883cd21a2c9245137",
    },
    "ensemble_cryptic": {
        "stream.csv": "29644ef141b54d8f1954cac918b896aea74e1d6cb4774ba1c58fa390a753f7e2",
        "pvalues.csv": "049e5d3021ea7f3ff3b0df198c1717e8db7f6b1e1385a30f5a9078887994559f",
        "martingale.csv": "b31671889fad3d83e53803932b9b7a89307786d9b69c269814a3a68370e38067",
        "intervals.csv": "06d6ebece7936168f35f5fa03900abe217ade5d76b7b2b158c6cdde3ff28351f",
        "summary.json": "178d8d57841611fb9411a225a598216a11cdb82f3b373273903d19d8752789d9",
    },
    "non_cryptic": {
        "stream.csv": "d68e6edd66744a65f4fcf7f6203dc9068c83a1759d654d8dc1022184769a44e1",
        "pvalues.csv": "0ecae4dae4570dd1b738dfa19b32bc2251ced923b9f71f7f63fbd74f0fd038a3",
        "martingale.csv": "fc44d899e90493dfca0c90bceb781ae21feac10ca2fe45e907d5e1244858bd19",
        "intervals.csv": "07ce978061566a1289b9f3800ac550fb943bedf07e4a08e7146bbaafd8295cf9",
        "summary.json": "82c801b67150a38c07e4def96312251e76d9e39ceba614adc8881cdf362e9a59",
    },
}

# SHA-256 of every artifact of the shipped configs at their full 10000 +
# 10000 steps, taken with Python 3.11.7 and numpy 2.4.6 from the writer
# that formatted each value with its own format(x, ".17g") call (now
# `reference.write_csvs`), before the block writer replaced it. Unlike
# GOLDEN_2K, each CSV here spans several blocks of the writer.
GOLDEN_FULL = {
    "cryptic": {
        "stream.csv": "2697bd674eafc0581833cf989b2b46b086cfe14110ffee573bc49b6c3e256f8c",
        "pvalues.csv": "edf2d12403fab70379c7d3e40542bb32a08e33c16d108699322e1b4d37a900de",
        "martingale.csv": "cd4fc9029167a068c1302e539d9dc485f1bb1422220c4105f8ea0a402d9c8eea",
        "intervals.csv": "e06206f5e98397aae9962c6f9e8764df77815f018095004b77a3007e19a531b9",
        "summary.json": "fc0777bbcb4421b30115d11bf631c3aafa32d49a905a3b35083bbc58686a3d56",
    },
    "ensemble_cryptic": {
        "stream.csv": "2697bd674eafc0581833cf989b2b46b086cfe14110ffee573bc49b6c3e256f8c",
        "pvalues.csv": "256e2f3c7eadbbd5800fed62d2ad07bc71224f4dfe48aa5554c58934b0d8457a",
        "martingale.csv": "8ba3d1d9bf92b197455e8e7473550f380843b01b78dbcb5aa689883f998cba3d",
        "intervals.csv": "e06206f5e98397aae9962c6f9e8764df77815f018095004b77a3007e19a531b9",
        "summary.json": "cd15c4f68076d7ba79cf4fb8745069f32bf998c1d3c84f447fddd047059deb27",
    },
    "non_cryptic": {
        "stream.csv": "198e504e77b14b5d38c2b638c4dc129fc130ece8a27e8270fa5fa1fca7800353",
        "pvalues.csv": "78845d038409de10334cd9856dbb9ce25ab338fb1a951ecaa2274352e7b5f346",
        "martingale.csv": "2a7ea4839455c7a06435fdf8f4dff0cab785aa59db10277fd088463770580c77",
        "intervals.csv": "ced96920e6b910bc211e363c2de313ed2138815ac7ba47c70100dfa4b9177e03",
        "summary.json": "baddbec65ebc8e37750d335883c3d3712e1b1ed26baf29209c21bfd03de00b0b",
    },
}

# SHA-256 of every file that run_replications writes for the shipped
# configs cut to 500 + 500 steps at 3 replications (seeds 7, 8 and 9): one
# directory per seed and aggregate.json. Taken with Python 3.11.7 and
# numpy 2.4.6 before the Simple Jumper update became one loop per step and
# the p-values stayed an array through the summary; neither moved a byte.
GOLDEN_REPLICATIONS = {
    "cryptic": {
        "aggregate.json": "190ca539a55ff0275a700b745a50e2ab433e589817254abe86fb81db5566a1b9",
        "seed_7/intervals.csv": "40da7bcf307e111e7492c5310be831c33c2adc03a0fca1a16da5818bbe84b744",
        "seed_7/martingale.csv": "587d4cad172e9d78f8eed849e6d638189f3d0866e14c43861867c0abe2df9f52",
        "seed_7/pvalues.csv": "b15e4ccddfa5f22d847234705eecae888fad1003e4311724dd3d899416f89d61",
        "seed_7/stream.csv": "7d59eccbae8ef2ddf20454817ac8fc4823f857948439879fca0adccdd2b81b76",
        "seed_7/summary.json": "57476bc8cd0739fc41e8abfadc1f5320b6e4b232667e96953a389297c542b8b4",
        "seed_8/intervals.csv": "47959e3ab40a408321bd63555d64513df45e89b36e7989288c8cc4b72f0d360f",
        "seed_8/martingale.csv": "f35832fd4ea0a815930524a37e4886622202bb8ae31c932c0d8b9305bf97881d",
        "seed_8/pvalues.csv": "d19ec7f90ef2d00a3d90ddab06357f1b1aa47d63a21b6370ece2829526218fcd",
        "seed_8/stream.csv": "a86419a57b3fde162033bb76759f0dd593cdc91e220641c5811e0073aa2fe69e",
        "seed_8/summary.json": "485b7c75b4802fad8d09274c9028f446a0015567634c8ee8702d12976f05ed30",
        "seed_9/intervals.csv": "b1b00b74bab048587d64ad5352f7c821c8f331bf7707c6bcdb71d2eebeafce6e",
        "seed_9/martingale.csv": "5a60ffc822c3d2825c5b40c92bbc56f3291b0f8c10b34ac313b2a0eb603fcb21",
        "seed_9/pvalues.csv": "e9b7668ba45d01ace53b40b3c39c77fc6afbcd1d59d687cd18e5d46eb300d4ce",
        "seed_9/stream.csv": "152e1007d46453563a481ebabd39a085db9accdb895d1f20ab96a61636b7df22",
        "seed_9/summary.json": "5aed00540e108383bba7f8e6c7a1ce389fa17d0a95140ddb4cd402682a9c3e3c",
    },
    "ensemble_cryptic": {
        "aggregate.json": "dea81d605ed223493bf8e336c82cd144c35311eb68736b141c8e4b67ead04f79",
        "seed_7/intervals.csv": "40da7bcf307e111e7492c5310be831c33c2adc03a0fca1a16da5818bbe84b744",
        "seed_7/martingale.csv": "adc7858c6fcfd92910ef1cd2b8cd04d62036e3adb8349d840d41f20396f5fe00",
        "seed_7/pvalues.csv": "aced803b923e791c84ccd532bb042ac22f6bcf65d916b68a88345ea62475a292",
        "seed_7/stream.csv": "7d59eccbae8ef2ddf20454817ac8fc4823f857948439879fca0adccdd2b81b76",
        "seed_7/summary.json": "48fa8a8d3cb1753acd81384cd6e3563ddc2a3f9c86c82ea089e2abc7ca65f106",
        "seed_8/intervals.csv": "47959e3ab40a408321bd63555d64513df45e89b36e7989288c8cc4b72f0d360f",
        "seed_8/martingale.csv": "327813f8a9025e80dbf10e8d9b1ecaa46450fcf13dfdda03659f729be2d50f5c",
        "seed_8/pvalues.csv": "7548ebf9c00784bf82688b1a3343e075b9e1b660ee5abe16e7b57c2627853789",
        "seed_8/stream.csv": "a86419a57b3fde162033bb76759f0dd593cdc91e220641c5811e0073aa2fe69e",
        "seed_8/summary.json": "a6cf0f2a517cd393885dc339b0b236686933e7a7e4de8b9555bc306cf2a3130e",
        "seed_9/intervals.csv": "b1b00b74bab048587d64ad5352f7c821c8f331bf7707c6bcdb71d2eebeafce6e",
        "seed_9/martingale.csv": "b5482e72ae836c632dbb1a0fb3248d477d3980389a80d8cd6e4750196b2ab06d",
        "seed_9/pvalues.csv": "23849b34a2b8832a8d70d717ffec11d83826d9f9e7883a0ef675e93b75915403",
        "seed_9/stream.csv": "152e1007d46453563a481ebabd39a085db9accdb895d1f20ab96a61636b7df22",
        "seed_9/summary.json": "6c3f52bce0b0e474ac237914ce717f74dd7b9eacaf949a12f7eb6e5b580afe95",
    },
}

BASE = {
    "pre": {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0, "sigma_y": 1.0,
            "rho_cov": 0.5},
    "post": {"cryptic_delta_mu_x": 20.0},
    "n_pre": 300,
    "n_post": 300,
    "seed": 7,
    "measure": {"kind": "oracle"},
    "jumper": {"epsilons": [-1.0, 0.0, 1.0], "jump_rate": 0.01},
    "epsilon": 0.05,
    "replications": 1,
    "output_dir": "out",
}


def make_config(tmp_path, **overrides):
    raw = {**BASE, **overrides, "output_dir": str(tmp_path / "out")}
    return ScenarioConfig.from_dict(raw, base_dir=tmp_path)


def write_config(tmp_path, name="scenario.cfg", **overrides):
    raw = {**BASE, **overrides, "output_dir": str(tmp_path / "out")}
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def tree_digests(root):
    return {f.relative_to(root).as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(root.rglob("*")) if f.is_file()}


def artifact_digests(cfg, out):
    run_scenario(cfg, output_dir=out)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ARTIFACTS}


class TestConfigParsing:
    def test_cryptic_delta_expands_to_on_line_mean(self, tmp_path):
        cfg = make_config(tmp_path)
        assert cfg.post.mu_x == pytest.approx(20.0)
        assert cfg.post.mu_y == pytest.approx(10.0)

    def test_missing_field_names_the_field(self, tmp_path):
        raw = {**BASE}
        del raw["n_pre"]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw, base_dir=tmp_path)
        assert err.value.field_name == "n_pre"

    def test_bad_model_parameter(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, pre={**BASE["pre"], "sigma_x": -1.0})

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, bogus=1)

    def test_unknown_measure_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, measure={"kind": "psychic"})

    def test_empty_stream_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, n_pre=0, n_post=0)

    def test_epsilon_range(self, tmp_path):
        with pytest.raises(ConfigError):
            make_config(tmp_path, epsilon=1.0)

    @pytest.mark.parametrize("epsilons", [0.5, ["a", 0.0], [True, 0.0]])
    def test_jumper_epsilons_must_be_numbers(self, tmp_path, epsilons):
        with pytest.raises(ConfigError) as err:
            make_config(tmp_path, jumper={"epsilons": epsilons})
        assert err.value.field_name == "jumper.epsilons"

    @pytest.mark.parametrize("overrides,field", [
        ({"jumper": {"epsilons": [math.nan, 0.0]}}, "jumper.epsilons"),
        ({"jumper": {"jump_rate": math.nan}}, "jumper.jump_rate"),
        ({"pre": {**BASE["pre"], "mu_x": math.inf}}, "pre.mu_x"),
        ({"pre": {**BASE["pre"], "mu_y": 10**400}}, "pre.mu_y"),
        ({"post": {"cryptic_delta_mu_x": -math.inf}},
         "post.cryptic_delta_mu_x"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, overrides, field):
        with pytest.raises(ConfigError) as err:
            make_config(tmp_path, **overrides)
        assert err.value.field_name == field

    def test_jumper_epsilons_accept_integers(self, tmp_path):
        cfg = make_config(tmp_path, jumper={"epsilons": [-1, 0, 1]})
        assert cfg.jumper.epsilons == (-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("seed,replications",
                             [(-1, 1), (2**64, 1), (2**64 - 1, 2)])
    def test_seed_range(self, tmp_path, seed, replications):
        with pytest.raises(ConfigError) as err:
            make_config(tmp_path, seed=seed, replications=replications)
        assert err.value.field_name == "seed"

    def test_largest_seed_accepted(self, tmp_path):
        assert make_config(tmp_path, seed=2**64 - 2,
                           replications=2).seed == 2**64 - 2

    @pytest.mark.parametrize("changes,field", [
        ({"replications": 0}, "replications"),
        ({"n_pre": 0, "n_post": 0}, "n_pre/n_post"),
        ({"n_pre": -1}, "n_pre/n_post"),
        ({"epsilon": 1.0}, "epsilon"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64 - 1, "replications": 2}, "seed"),
    ])
    def test_replace_checks_values(self, tmp_path, changes, field):
        # CLI overrides and resized copies go through dataclasses.replace
        cfg = make_config(tmp_path)
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, **changes)
        assert err.value.field_name == field

    def test_measure_spec_checks_kind(self):
        with pytest.raises(ConfigError) as err:
            MeasureSpec("psychic")
        assert err.value.field_name == "measure.kind"

    def test_from_file_round_trips(self, tmp_path):
        path = write_config(tmp_path)
        cfg = ScenarioConfig.from_file(path)
        assert cfg.n_pre == 300
        assert cfg.seed == 7


class TestRunScenario:
    def test_artifact_row_counts(self, tmp_path):
        cfg = make_config(tmp_path)
        run_scenario(cfg)
        out = cfg.output_dir
        n = cfg.n_pre + cfg.n_post
        for name, expected in (("stream.csv", n), ("pvalues.csv", n),
                               ("martingale.csv", n + 1),
                               ("intervals.csv", n - 1)):
            rows = (out / name).read_text().strip().split("\n")
            assert len(rows) - 1 == expected, name

    def test_summary_recomputable_from_csvs(self, tmp_path):
        cfg = make_config(tmp_path)
        summary = run_scenario(cfg)
        out = cfg.output_dir
        stored = json.loads((out / "summary.json").read_text())
        mart = [float(line.split(",")[1]) for line in
                (out / "martingale.csv").read_text().strip().split("\n")[1:]]
        # 17 significant digits round-trip every finite float64.
        assert stored["final_log10_capital"] == mart[-1]
        assert stored["max_log10_capital"] == max(mart)
        assert stored["seed"] == summary.seed

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = make_config(tmp_path / "a")
        cfg_b = make_config(tmp_path / "b")
        run_scenario(cfg_a)
        run_scenario(cfg_b)
        for name in ("stream.csv", "pvalues.csv", "martingale.csv",
                     "intervals.csv", "summary.json"):
            assert (cfg_a.output_dir / name).read_bytes() == \
                (cfg_b.output_dir / name).read_bytes()

    def test_literal_post_mean_equivalent_to_delta(self, tmp_path):
        delta_cfg = make_config(tmp_path / "a")
        literal_cfg = make_config(
            tmp_path / "b",
            post={"mu_x": 20.0, "mu_y": 10.0, "sigma_x": 1.0, "sigma_y": 1.0,
                  "rho_cov": 0.5})
        run_scenario(delta_cfg)
        run_scenario(literal_cfg)
        for name in ("stream.csv", "pvalues.csv", "martingale.csv"):
            assert (delta_cfg.output_dir / name).read_bytes() == \
                (literal_cfg.output_dir / name).read_bytes()

    def test_no_change_degenerate(self, tmp_path):
        cfg = make_config(tmp_path, n_post=0,
                          post={"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0,
                                "sigma_y": 1.0, "rho_cov": 0.5})
        summary = run_scenario(cfg, write_artifacts=False)
        assert summary.ks_post is None
        assert not summary.ks_all.reject

    def test_measure_kinds_all_run(self, tmp_path):
        for kind in ("oracle", "mahalanobis", "likelihood_ratio", "ensemble"):
            cfg = make_config(tmp_path / kind, measure={"kind": kind},
                              n_pre=100, n_post=100)
            summary = run_scenario(cfg, write_artifacts=False)
            assert summary.ks_all.n == 200

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_far_post_mean_runs(self, tmp_path, kind):
        # At a post mean of (0, 40) the oracle density of every post-change
        # example, and the joint density that a likelihood ratio of
        # densities would take the log of, underflow to 0.0; the scores are
        # log densities, so none is computed.
        post = {**BASE["pre"], "mu_y": 40.0}
        cfg = make_config(tmp_path, measure={"kind": kind}, post=post,
                          n_pre=500, n_post=500)
        summary = run_scenario(cfg)
        out = cfg.output_dir

        def column(name, field):
            lines = (out / name).read_text().strip().split("\n")
            i = lines[0].split(",").index(field)
            return [float(line.split(",")[i]) for line in lines[1:]]

        pvalues = column("pvalues.csv", "pvalue")
        assert len(pvalues) == 1000
        assert all(0.0 < p <= 1.0 for p in pvalues)
        trajectory = column("martingale.csv", "log10_capital")
        assert len(trajectory) == 1001
        assert all(math.isfinite(c) for c in trajectory)
        widths = column("intervals.csv", "width")
        assert len(widths) == 999
        assert all(math.isfinite(w) and w >= 0.0 for w in widths)
        assert math.isfinite(summary.final_log10_capital)
        assert math.isfinite(summary.mean_width_post)

    @pytest.mark.parametrize("name", sorted(GOLDEN_2K))
    def test_shipped_config_artifacts_match_golden_digests(self, tmp_path,
                                                           name):
        cfg = dataclasses.replace(
            ScenarioConfig.from_file(SCENARIOS / f"{name}.cfg"),
            n_pre=2000, n_post=2000)
        assert artifact_digests(cfg, tmp_path) == GOLDEN_2K[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_FULL))
    def test_full_size_artifacts_match_golden_digests(self, tmp_path, name):
        cfg = ScenarioConfig.from_file(SCENARIOS / f"{name}.cfg")
        assert artifact_digests(cfg, tmp_path) == GOLDEN_FULL[name]

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    @pytest.mark.parametrize("n_pre,n_post", [(1, 0), (0, 1)])
    def test_one_example_stream(self, tmp_path, kind, n_pre, n_post):
        cfg = make_config(tmp_path, measure={"kind": kind}, n_pre=n_pre,
                          n_post=n_post)
        summary = run_scenario(cfg)
        assert summary.coverage_pre is None
        assert summary.coverage_post is None
        assert summary.mean_width_pre is None
        assert summary.mean_width_post is None
        assert summary.ks_all.n == 1
        out = cfg.output_dir
        pvalues = (out / "pvalues.csv").read_text().strip().split("\n")[1:]
        assert len(pvalues) == 1
        assert 0.0 < float(pvalues[0].split(",")[1]) <= 1.0
        for name, rows in (("stream.csv", 1), ("martingale.csv", 2),
                           ("intervals.csv", 0)):
            lines = (out / name).read_text().strip().split("\n")
            assert len(lines) - 1 == rows, name
        assert (out / "intervals.csv").read_text() == \
            "step,center,lower,upper,width,covered\n"


def series_of_widths(widths):
    """An IntervalSeries of steps 2.. with the given widths, all covered."""
    width = np.array(widths, dtype=np.float64)
    zeros = np.zeros_like(width)
    return IntervalSeries(center=zeros, lower=zeros, upper=width,
                          width=width, covered=np.ones(len(width), dtype=bool))


def left_to_right_mean(widths):
    return left_sum(widths) / len(widths)


class TestPhaseMeans:
    def test_widths_summed_left_to_right(self):
        # Left to right, each 1e-16 is lost against 1.0; a compensated sum
        # (math.fsum, or Python 3.12's sum) keeps them.
        widths = [1.0, 1e-16, 1e-16]
        coverage, mean_width = _phase_means(series_of_widths(widths), 1, 4)
        assert coverage == 1.0
        assert mean_width == 1.0 / 3 == left_to_right_mean(widths)
        assert mean_width != math.fsum(widths) / 3

    def test_long_series_in_step_order(self):
        # numpy's pairwise sum differs from step order on this series.
        rng = np.random.default_rng(5)
        widths = (rng.random(10_000)
                  * 10.0 ** rng.integers(-8, 8, size=10_000)).tolist()
        _, mean_width = _phase_means(series_of_widths(widths), 1, 10_001)
        assert repr(mean_width) == repr(left_to_right_mean(widths))
        assert mean_width != float(np.sum(widths)) / len(widths)

    def test_zero_widths_give_positive_zero(self):
        _, mean_width = _phase_means(series_of_widths([-0.0, -0.0]), 1, 3)
        assert repr(mean_width) == repr(left_to_right_mean([-0.0, -0.0]))
        assert repr(mean_width) == "0.0"

    def test_phase_selection(self):
        # Steps lo+1..hi; the arrays start at step 2.
        series = series_of_widths([1.0, 2.0, 4.0, 8.0])  # steps 2..5
        assert _phase_means(series, 1, 3) == (1.0, 1.5)
        assert _phase_means(series, 3, 5) == (1.0, 6.0)
        assert _phase_means(series, 5, 5) == (None, None)
        assert _phase_means(None, 1, 5) == (None, None)


class TestReplications:
    def test_single_replication_aggregate_equals_summary(self, tmp_path):
        cfg = make_config(tmp_path)
        summaries = run_replications(cfg)
        agg = aggregate_summaries(summaries)
        assert agg["replications"] == 1
        assert agg["median_final_log10_capital"] == pytest.approx(
            summaries[0].final_log10_capital)

    def test_seeds_are_consecutive(self, tmp_path):
        cfg = make_config(tmp_path, replications=3, n_pre=100, n_post=100)
        summaries = run_replications(cfg, write_artifacts=False)
        assert [s.seed for s in summaries] == [7, 8, 9]

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPLICATIONS))
    def test_artifacts_match_golden_digests(self, tmp_path, name):
        cfg = dataclasses.replace(
            ScenarioConfig.from_file(SCENARIOS / f"{name}.cfg"),
            n_pre=500, n_post=500, replications=3,
            output_dir=tmp_path / "out")
        run_replications(cfg)
        assert tree_digests(cfg.output_dir) == GOLDEN_REPLICATIONS[name]

    def test_aggregate_file_deterministic(self, tmp_path):
        cfg_a = make_config(tmp_path / "a", replications=2, n_pre=100,
                            n_post=100)
        cfg_b = make_config(tmp_path / "b", replications=2, n_pre=100,
                            n_post=100)
        run_replications(cfg_a)
        run_replications(cfg_b)
        assert (cfg_a.output_dir / "aggregate.json").read_bytes() == \
            (cfg_b.output_dir / "aggregate.json").read_bytes()


class TestDescribeChange:
    def test_cryptic_config_reports_zero_residuals(self, tmp_path):
        info = describe_change(make_config(tmp_path))
        assert info["cond1_max_residual"] <= 1e-10
        assert info["cond2_residual"] == 0.0
        assert info["same_covariance"]

    def test_off_line_config_reports_offset(self, tmp_path):
        cfg = make_config(
            tmp_path,
            post={"mu_x": 2.0, "mu_y": 2.0, "sigma_x": 1.0, "sigma_y": 1.0,
                  "rho_cov": 0.5})
        info = describe_change(cfg)
        assert info["post_mu_y_offset_from_line"] == pytest.approx(1.0)
        assert info["cond1_max_residual"] == pytest.approx(1.0)


class TestCli:
    def test_run_and_verify_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, n_pre=100, n_post=100)
        assert cli_main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "pvalues.csv").exists()
        assert cli_main(["verify", "--config", str(path)]) == 0
        assert "cond1_max_residual" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        raw = {**BASE}
        del raw["pre"]
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize("epsilons", [0.5, ["a", 0.0], [True, 0.0]])
    def test_bad_jumper_epsilons_exit_code(self, tmp_path, capsys, epsilons):
        path = write_config(tmp_path, jumper={"epsilons": epsilons})
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "jumper.epsilons" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,field", [
        ({"jumper": {"epsilons": [math.nan, 0.0]}}, "jumper.epsilons"),
        ({"pre": {**BASE["pre"], "mu_x": math.inf}}, "pre.mu_x"),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, overrides,
                                         field):
        path = write_config(tmp_path, **overrides)
        assert cli_main(["run", "--config", str(path)]) == 1
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("overrides,message", [
        ({"measure": {"kind": "ensemble", "lamda": 0.9}}, "lamda"),
        ({"jumper": {"jump_rat": 0.5}}, "jump_rat"),
        ({"output_dir": 5}, "'output_dir'"),
    ])
    def test_bad_config_key_exit_code(self, tmp_path, capsys, command,
                                      overrides, message):
        path = tmp_path / "bad.cfg"
        path.write_text(yaml.safe_dump({**BASE, **overrides}))
        assert cli_main([command, "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["--seed", "-1"],
        ["--seed", str(2**64)],
        ["--seed", str(2**64 - 1), "--replications", "2"],
        ["--replications", "0"],
    ])
    def test_seed_override_range(self, tmp_path, capsys, args):
        path = write_config(tmp_path)
        assert cli_main(["run", "--config", str(path), *args]) == 1
        # the error names the field of the first flag
        assert f"'{args[0][2:]}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_replications_override_checks_seed_range(self, tmp_path, capsys):
        path = write_config(tmp_path, seed=2**64 - 1)
        assert cli_main(["run", "--config", str(path),
                         "--replications", "2"]) == 1
        assert "'seed'" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, n_pre=5000, n_post=5000)
        out = tmp_path / "alt"
        assert cli_main(["run", "--config", str(path),
                         "--output-dir", str(out),
                         "--seed", "21", "--quick"]) == 0
        rows = (out / "pvalues.csv").read_text().strip().split("\n")
        assert len(rows) - 1 == 4000  # quick mode caps at 2000 + 2000
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 21
