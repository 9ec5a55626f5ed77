import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
import yaml

from seqconformal import ConfigError, ScenarioConfig, run_replications, run_scenario
from seqconformal.cli import main as cli_main
from seqconformal.scenario import aggregate_summaries, describe_change

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ARTIFACTS = ("stream.csv", "pvalues.csv", "martingale.csv", "intervals.csv",
             "summary.json")
MEASURE_KINDS = ("oracle", "mahalanobis", "likelihood_ratio", "ensemble")

# SHA-256 of every artifact of the shipped configs cut to 2000 + 2000 steps,
# taken with Python 3.11.7 and numpy 2.4.6. The digests pin the bytes across
# refactors of the pipeline; a numpy whose PCG64 or float formatting differs
# may legitimately change them.
GOLDEN_2K = {
    "cryptic": {
        "stream.csv": "29644ef141b54d8f1954cac918b896aea74e1d6cb4774ba1c58fa390a753f7e2",
        "pvalues.csv": "8bf93144e1d112c2fed5fc6613429bb276fb130c5aed186c817243ada08492fa",
        "martingale.csv": "3eace3cc4f59890de884ad1c6a8033e7595794e0f7b9a692877d029c97097deb",
        "intervals.csv": "84ae0641f913599e6524fb8e1bfe9598302e05974bf76e27f094431390a8c89f",
        "summary.json": "629bb39623eb66b26194cf4d82abf3214a58224790af1c6883cd21a2c9245137",
    },
    "ensemble_cryptic": {
        "stream.csv": "29644ef141b54d8f1954cac918b896aea74e1d6cb4774ba1c58fa390a753f7e2",
        "pvalues.csv": "bba66ff977a24aa946a977887d379e474e2bee0e5ca0ba011adf91a5b326dbe8",
        "martingale.csv": "6157942d2b503edbf300e367af78866e0e60a4fdda7adfd05100e8d75c71e7f0",
        "intervals.csv": "84ae0641f913599e6524fb8e1bfe9598302e05974bf76e27f094431390a8c89f",
        "summary.json": "607e4a95c6e05f55be59bc03794a794d6846df5b81a5617369ae67ea99e31806",
    },
    "non_cryptic": {
        "stream.csv": "d68e6edd66744a65f4fcf7f6203dc9068c83a1759d654d8dc1022184769a44e1",
        "pvalues.csv": "0ecae4dae4570dd1b738dfa19b32bc2251ced923b9f71f7f63fbd74f0fd038a3",
        "martingale.csv": "fc44d899e90493dfca0c90bceb781ae21feac10ca2fe45e907d5e1244858bd19",
        "intervals.csv": "d1e0616db0cb9972dc1e39999b8c5e67d6c3a47a715346d48748553af6e5f568",
        "summary.json": "82c801b67150a38c07e4def96312251e76d9e39ceba614adc8881cdf362e9a59",
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
        assert stored["final_log10_capital"] == pytest.approx(mart[-1])
        assert stored["max_log10_capital"] == pytest.approx(max(mart))
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

    @pytest.mark.parametrize("name", sorted(GOLDEN_2K))
    def test_shipped_config_artifacts_match_golden_digests(self, tmp_path,
                                                           name):
        cfg = dataclasses.replace(
            ScenarioConfig.from_file(SCENARIOS / f"{name}.cfg"),
            n_pre=2000, n_post=2000)
        run_scenario(cfg, output_dir=tmp_path)
        digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                   for f in ARTIFACTS}
        assert digests == GOLDEN_2K[name]

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
