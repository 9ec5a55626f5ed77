import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import left_sum
import seqconformal
from seqconformal import (BivariateGaussian, ConfigError, JumperConfig,
                          OracleMahalanobisEnsemble, ScenarioConfig,
                          ScenarioSummary, run_replications, run_scenario)
from seqconformal.cli import main as cli_main
from seqconformal.intervals import IntervalSeries
from seqconformal.scenario import (MeasureSpec, _converter, _phase_means,
                                   aggregate_summaries)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ARTIFACTS = ("stream.csv", "pvalues.csv", "martingale.csv", "intervals.csv",
             "summary.json")
MEASURE_KINDS = ("oracle", "mahalanobis", "likelihood_ratio", "ensemble")
# numpy's AVX-512 and AVX2 kernels switched off: the dispatch of a CPU
# without them, on one that has them.
REDUCED_DISPATCH = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"

# SHA-256 of every artifact of the shipped configs cut to 2000 + 2000 steps,
# taken with Python 3.11.7 and numpy 2.4.6. The digests pin the bytes across
# refactors of the pipeline; a numpy whose PCG64, ziggurat normals or float
# formatting differ may legitimately change them. All three golden tables
# were retaken when the data stream moved from a Box-Muller transform of
# uniforms to numpy's `standard_normal`; the same bytes came out at numpy's
# default SIMD dispatch and with AVX-512 and AVX2 switched off
# (test_golden_digests_do_not_depend_on_simd_dispatch checks the latter).
GOLDEN_2K = {
    "cryptic": {
        "intervals.csv": "c358e0aeec75909fdf6952e082e597e470e19805b1d3169c21720aec9a859276",
        "martingale.csv": "aeb7d520c3c11a6dfdcfa40c9f9d1b04813aee5056707ab5192cf53c142dd7c7",
        "pvalues.csv": "5bccbd2b1ebf783148ad0b082a8b4587089f8cf66588eefccabca54a049d96cc",
        "stream.csv": "f60ce783d67846082005d5883d154e4edc265aeb2df7fbb804bed086484978b4",
        "summary.json": "44747cbe723497287b5363f3fb15a8a55bb51e2102efbb0ad4e8ec7ac019b21c",
    },
    "ensemble_cryptic": {
        "intervals.csv": "c358e0aeec75909fdf6952e082e597e470e19805b1d3169c21720aec9a859276",
        "martingale.csv": "93d4e4acccc711256751e3f5f5b835b01feffc043440e80d97f8c831a6ef702b",
        "pvalues.csv": "d824250c2c02b3522b0f21701ca1662d919a564084e973629436510d3628c6e8",
        "stream.csv": "f60ce783d67846082005d5883d154e4edc265aeb2df7fbb804bed086484978b4",
        "summary.json": "17f6db8df58d644e2e5c8a00b5397e404fcad445e92109c8780d12eef3af0cd4",
    },
    "non_cryptic": {
        "intervals.csv": "9e0781f2f8852e9a87112422462dcb8e5b67f41e232a8345a0e84c03415287e5",
        "martingale.csv": "4117181738fb13ac878404fd4ed7832b2a049ab060b6fe0f3fa40797565d0825",
        "pvalues.csv": "e2471cc4e7528c4e6eea6cb1b431af8f45fc67af050be6bd4037591fba507132",
        "stream.csv": "65545a51139a30030f3f6366e93de7f1ffe593131914a31269830c5d74979de4",
        "summary.json": "ad65b4a1b8d55a7ed2b3b6d9aabab926535eeef4f6e7db7626868ea72827fb7c",
    },
}

# SHA-256 of every artifact of the shipped configs at their full 10000 +
# 10000 steps, taken with Python 3.11.7 and numpy 2.4.6; the writer that
# formats each value with its own format(x, ".17g") call,
# `reference.write_csvs`, gives the same bytes. Unlike GOLDEN_2K, each CSV
# here spans several blocks of the writer.
GOLDEN_FULL = {
    "cryptic": {
        "intervals.csv": "49d978387279cfb8f5bec59eabdb0edd27ea8bc767f67b133a005a08a1565239",
        "martingale.csv": "cfe22f579c8e00d00c9264cfc357e4f6785e0c728617e82e81d9fdb7dff8cf4e",
        "pvalues.csv": "f525c83af2b6a27008f7f2d5a63973b036559f6d40501831e7ff957d85c8e887",
        "stream.csv": "4955184dc0e09c9b49607090301e37ee3ba1dcd8070fd49f51da31034c0c4fc8",
        "summary.json": "dc20e8a76279237b2ccae2fadbc3f367739960c8f80923aa588995897e55cd14",
    },
    "ensemble_cryptic": {
        "intervals.csv": "49d978387279cfb8f5bec59eabdb0edd27ea8bc767f67b133a005a08a1565239",
        "martingale.csv": "d2b05b43183b25632a2416ef30865284ef289290203e93f591d1a91ae28103f6",
        "pvalues.csv": "777152b60f2716a0e1764de2661074c26324883fc0199b1ffcfe13cae5cfc3df",
        "stream.csv": "4955184dc0e09c9b49607090301e37ee3ba1dcd8070fd49f51da31034c0c4fc8",
        "summary.json": "9c6fd89088fce8a660dbccd93bc712e34b28eb455599392086d6d2c3461c199a",
    },
    "non_cryptic": {
        "intervals.csv": "b8ec24a1eb1b38224e98d3219e8b3fb891e2eb7b4eec33aca712087e2ff69735",
        "martingale.csv": "bf5ffd22a6205e0eb6eb9acb736cbf8c0af8cac3463de83e873dcceb9cb67d22",
        "pvalues.csv": "083757fa91e7aeee768c4ebb7ac51c35bead4b9fef8f46a12b74b1acbcdf353b",
        "stream.csv": "f1e508e41f28f5339068129ffa6140cd66d9c41ff0fc5772a01e3e09ef7aba2a",
        "summary.json": "5c5e016ec403d7f612c87aec35e1fab16983175c2e7b55e997d22921a962bce9",
    },
}

# SHA-256 of every file that run_replications writes for the shipped
# configs cut to 500 + 500 steps at 3 replications (seeds 7, 8 and 9): one
# directory per seed and aggregate.json. Taken with Python 3.11.7 and
# numpy 2.4.6.
GOLDEN_REPLICATIONS = {
    "cryptic": {
        "aggregate.json": "13c34251e510e8a6fc6e73bc288f7fabb5144c942047f61533349daf690efc50",
        "seed_7/intervals.csv": "24daea67bbbf9e5e9fa4381ff74d83e9d7ef19d9db58de8d79d180aff25d9b1c",
        "seed_7/martingale.csv": "77da6e2c07af929bb13b4b668c55c16d72d773a83a6bbf5e22036e6964a8b378",
        "seed_7/pvalues.csv": "29dd8f9c62599bbf0daa6e4e86318fe2ddb9e1980a0ec6f9d3d496d0855cc9fa",
        "seed_7/stream.csv": "d1bae57276ed028a7ebec9ba590829e72f5239c5cd6afdf846346e3475b491b4",
        "seed_7/summary.json": "65b87d2a31363b09f14d3cc1d4b293f83cda1b6bae88b41a5e00984eb99fd932",
        "seed_8/intervals.csv": "a815f0c6cb4275bca8d2791f1a6eee013460eb79a14cb317c441dcb10a396cc7",
        "seed_8/martingale.csv": "6c07beabd5b43c30a3f06ecd07244cd1c33287466c071c3509abd2ffe0046748",
        "seed_8/pvalues.csv": "4929113dfd370620039ba6b9f81b3d27d80a7d2807fcee14a59bd4c2f6d2e88e",
        "seed_8/stream.csv": "a5e9f42a3e4d3b6088f0383e927a909e77d4441bb0b501544b82dfbe6ddcecd3",
        "seed_8/summary.json": "da487640621497064f17d591aefe27917fc98140affb0295b0f2aedf5aa89dc5",
        "seed_9/intervals.csv": "621e84705f2cebc558ef063b5800a4ca1f51da1d51bf81d58e4685205de91edc",
        "seed_9/martingale.csv": "b317a6a98485d2433d4b6889db2034d05d139dff1b89afafa292ce66d0ac0a2b",
        "seed_9/pvalues.csv": "2c47b8e7a145f54b6cf3cb8d455bd064f580aa95b9aad7b78e030e6947f4c7e9",
        "seed_9/stream.csv": "bd973254c24460cd4e6e59cef4c7f349868edab4201bb014221ba4d930a4690a",
        "seed_9/summary.json": "3ce7cadf42e0b51bac4fe405ff81319ec44f2a113a27375cdcb44575997ca136",
    },
    "ensemble_cryptic": {
        "aggregate.json": "c12e582cd6f0cb8945ae7d45e680e6fd01cf33ba2df6a31a72fef10fe4d9b759",
        "seed_7/intervals.csv": "24daea67bbbf9e5e9fa4381ff74d83e9d7ef19d9db58de8d79d180aff25d9b1c",
        "seed_7/martingale.csv": "aef4388521fc708bbaac9747cddcf9c0ea06c9dfc30bcc166af055af89a7086a",
        "seed_7/pvalues.csv": "fe3ac98fad1f8f481ace47070e346b32cd4b093de5d8c1ab594149c4b324a034",
        "seed_7/stream.csv": "d1bae57276ed028a7ebec9ba590829e72f5239c5cd6afdf846346e3475b491b4",
        "seed_7/summary.json": "fa4f0fddc65b3ec7e9f4c287abb3698ae98d028676185141e8eda59d0a3b0ea6",
        "seed_8/intervals.csv": "a815f0c6cb4275bca8d2791f1a6eee013460eb79a14cb317c441dcb10a396cc7",
        "seed_8/martingale.csv": "31300e6bef67a501e88f1cc50e0c6b8500d2f5a909b687b172af5927ad012be5",
        "seed_8/pvalues.csv": "6dad562446c26efa6e39603579d734e4bfbed5fb8e290ff93d27726b0cd43873",
        "seed_8/stream.csv": "a5e9f42a3e4d3b6088f0383e927a909e77d4441bb0b501544b82dfbe6ddcecd3",
        "seed_8/summary.json": "4c4eebcaeb1f6ab8fffab9d5375753fbde30bb2da8b4db5ac54bc4bdb6567c1b",
        "seed_9/intervals.csv": "621e84705f2cebc558ef063b5800a4ca1f51da1d51bf81d58e4685205de91edc",
        "seed_9/martingale.csv": "829e531e5c97b660cbaf56400661f6ed1dd703ac05b45ff482db28d5ea0f2f12",
        "seed_9/pvalues.csv": "61ee3b4a456dbafd5cb2b0f89ebb3153d9918cd3de07b4f5cd4a44aa120e48a0",
        "seed_9/stream.csv": "bd973254c24460cd4e6e59cef4c7f349868edab4201bb014221ba4d930a4690a",
        "seed_9/summary.json": "fd8276b5ad98a7f664363ce5ea4d5a2eaed771133eb9a92c1ff5c643f81f63d2",
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


def assert_cli_runs(path, capsys):
    """`seqconformal run` on the config file at path exits 0 with no
    warning and nothing on stderr, and writes p-values in (0, 1] and a
    finite martingale."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    out = path.parent / "out"
    pvalues = np.loadtxt(out / "pvalues.csv", delimiter=",", skiprows=1,
                         usecols=1)
    assert ((0.0 < pvalues) & (pvalues <= 1.0)).all()
    assert np.isfinite(np.loadtxt(out / "martingale.csv", delimiter=",",
                                  skiprows=1, usecols=1)).all()


def verify_output(path, capsys):
    """What `seqconformal verify` prints for the config file at path, read
    as JSON; the command must exit 0 with nothing on stderr."""
    assert cli_main(["verify", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return json.loads(out)


# Valid models and configs, for the YAML round trip of ScenarioConfig.
models = st.builds(
    lambda mu_x, mu_y, sigma_x, sigma_y, r: BivariateGaussian(
        mu_x, mu_y, sigma_x, sigma_y, r * sigma_x * sigma_y),
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3), st.floats(-0.99, 0.99))


@st.composite
def scenario_configs(draw):
    replications = draw(st.integers(1, 5))
    n_pre = draw(st.integers(0, 10**6))
    return ScenarioConfig(
        pre=draw(models), post=draw(models), n_pre=n_pre,
        n_post=draw(st.integers(0 if n_pre else 1, 10**6)),
        seed=draw(st.integers(0, 2**64 - replications)),
        measure=MeasureSpec(draw(st.sampled_from(MEASURE_KINDS)),
                            draw(st.floats(0.0, 1.0))),
        jumper=JumperConfig(
            tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=1,
                                max_size=5))),
            draw(st.floats(0.0, 1.0, exclude_max=True))),
        epsilon=draw(st.floats(0.0, 1.0, exclude_min=True,
                               exclude_max=True)),
        replications=replications,
        output_dir=Path(draw(st.sampled_from(["out", "runs/a b", "x/y"]))))


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

    def test_omitted_keys_take_dataclass_defaults(self, tmp_path):
        post = {**BASE["pre"], "mu_x": 2.0}
        required = {"pre": BASE["pre"], "post": post, "n_pre": 30,
                    "n_post": 40, "seed": 3}
        cfg = ScenarioConfig.from_dict(required, base_dir=tmp_path)
        assert cfg == ScenarioConfig(
            BivariateGaussian(**BASE["pre"]), BivariateGaussian(**post),
            30, 40, 3, output_dir=tmp_path / "out")
        ensemble = make_config(tmp_path, measure={"kind": "ensemble"})
        assert ensemble.measure.lam == OracleMahalanobisEnsemble.lam

    def test_from_file_round_trips(self, tmp_path):
        path = write_config(tmp_path)
        cfg = ScenarioConfig.from_file(path)
        assert cfg.n_pre == 300
        assert cfg.seed == 7

    @pytest.mark.parametrize("overrides,field", [
        ({"pre": {**BASE["pre"], "z": 1}}, "pre.z"),
        ({"post": {**BASE["pre"], "z": 1}}, "post.z"),
        ({"post": {"cryptic_delta_mu_x": 1.0, "z": 2}}, "post.z"),
        ({"measure": {"kind": "oracle", "x": 1}}, "measure.x"),
        ({"jumper": {"epsilons": [-1, 0, 1], "bogus": 1}}, "jumper.bogus"),
        ({"bogus": 1}, "bogus"),
        ({"measure": {}}, "measure.kind"),
        ({"pre": {k: v for k, v in BASE["pre"].items() if k != "mu_x"}},
         "pre.mu_x"),
        # One wrong-typed value for each annotation the parser converts.
        ({"n_pre": 1.5}, "n_pre"),
        ({"seed": True}, "seed"),
        ({"epsilon": "x"}, "epsilon"),
        ({"output_dir": 3}, "output_dir"),
        ({"jumper": {"epsilons": 0.5}}, "jumper.epsilons"),
        ({"measure": {"kind": 3}}, "measure.kind"),
    ])
    def test_error_names_the_key(self, tmp_path, overrides, field):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({**BASE, **overrides}, base_dir=tmp_path)
        assert err.value.field_name == field

    def test_every_config_field_converts(self):
        # A field whose annotation the parser cannot read fails here, not
        # in a user's run.
        seen, todo = set(), [ScenarioConfig]
        while todo:
            cls = todo.pop()
            seen.add(cls)
            for hint in get_type_hints(cls).values():
                _converter(hint)
                if dataclasses.is_dataclass(hint):
                    todo.append(hint)
        assert seen == {ScenarioConfig, BivariateGaussian, MeasureSpec,
                        JumperConfig}
        with pytest.raises(TypeError):
            _converter(list[float])

    # 100 examples take about 1 s on a 2-vCPU x86-64 host.
    @settings(max_examples=100, deadline=None)
    @given(cfg=scenario_configs())
    def test_yaml_round_trip(self, tmp_path_factory, cfg):
        raw = dataclasses.asdict(cfg)
        raw["measure"] = {"kind": cfg.measure.kind, "lambda": cfg.measure.lam}
        raw["jumper"]["epsilons"] = list(cfg.jumper.epsilons)
        raw["output_dir"] = cfg.output_dir.as_posix()  # relative to the file
        path = tmp_path_factory.mktemp("round_trip") / "scenario.cfg"
        path.write_text(yaml.safe_dump(raw))
        assert ScenarioConfig.from_file(path) == dataclasses.replace(
            cfg, output_dir=path.parent / cfg.output_dir)


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

    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_non_finite_draw_names_phase_and_step(self, tmp_path, phase):
        model = {**BASE["pre"], "sigma_x": 1.0e308, "rho_cov": 0.0}
        cfg = make_config(tmp_path, **{phase: model})
        with pytest.raises(ConfigError) as info:
            run_scenario(cfg)
        step = int(info.value.reason.split("step ")[1].split(":")[0])
        first = 1 if phase == "pre" else cfg.n_pre + 1
        assert info.value.field_name == phase
        assert first <= step < first + 300
        # the step is that of the first overflow in the phase's draws
        assert step - first == info.value.__cause__.index
        assert "inf" in info.value.reason
        assert not cfg.output_dir.exists()

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

    @pytest.mark.parametrize("name", sorted(GOLDEN_2K))
    def test_golden_digests_do_not_depend_on_simd_dispatch(self, tmp_path,
                                                           name):
        # `run --quick` cuts the stream to the 2000 + 2000 steps of
        # GOLDEN_2K. Only the child process has the reduced dispatch; numpy
        # warns (ImportWarning) when the CPU lacks a feature named there.
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": REDUCED_DISPATCH,
               "PYTHONPATH": str(Path(seqconformal.__file__).parents[1])}
        subprocess.run(
            [sys.executable, "-W", "ignore::ImportWarning", "-m",
             "seqconformal.cli", "run", "--config",
             str(SCENARIOS / f"{name}.cfg"), "--quick",
             "--output-dir", str(tmp_path)],
            env=env, check=True)
        assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ARTIFACTS} == GOLDEN_2K[name]

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_override_range(self, tmp_path, seed):
        cfg = make_config(tmp_path, n_pre=50, n_post=50)
        with pytest.raises(ConfigError) as err:
            run_scenario(cfg, seed=seed, write_artifacts=False)
        assert err.value.field_name == "seed"

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


# (a, b): x in units 2**a times smaller, y in units 2**b times smaller.
SCALINGS = [(600, 0), (0, 600), (-600, 0), (0, -600), (400, 400),
            (-400, -400), (500, -500), (-500, 500)]
UNIT_PRE = {"mu_x": 0.75, "mu_y": -1.5, "sigma_x": 1.5, "sigma_y": 0.8,
            "rho_cov": 0.6}
UNIT_POSTS = {
    "cryptic": {"cryptic_delta_mu_x": 3.0},
    "explicit": {"mu_x": 2.0, "mu_y": 0.5, "sigma_x": 1.25, "sigma_y": 1.1,
                 "rho_cov": -0.3},
}


def rescaled(model, a, b):
    """A config model with x scaled by 2**a and y by 2**b."""
    if "cryptic_delta_mu_x" in model:
        return {"cryptic_delta_mu_x": math.ldexp(model["cryptic_delta_mu_x"],
                                                 a)}
    return {"mu_x": math.ldexp(model["mu_x"], a),
            "mu_y": math.ldexp(model["mu_y"], b),
            "sigma_x": math.ldexp(model["sigma_x"], a),
            "sigma_y": math.ldexp(model["sigma_y"], b),
            "rho_cov": math.ldexp(model["rho_cov"], a + b)}


def run_columns(cfg, out):
    """The draws, scores, p-values, log10 capital and interval widths of a
    run of cfg, read back from its artifacts; %.17g round-trips floats."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_scenario(cfg, output_dir=out)

    def column(name, i):
        return np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=i)

    xs, ys = column("stream.csv", 1), column("stream.csv", 2)
    return {"x": xs, "y": ys,
            "score": cfg.measure.build(cfg.pre, cfg.post).scores(xs, ys),
            "pvalue": column("pvalues.csv", 1),
            "log10_capital": column("martingale.csv", 1),
            "width": column("intervals.csv", 4)}


class TestScaleFree:
    """Changing the units of x and y by powers of 2 changes no p-value, no
    score and no capital, and scales the draws and the interval widths
    exactly: the model never squares a scale."""

    @pytest.mark.parametrize("post", sorted(UNIT_POSTS))
    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    @pytest.mark.parametrize("a,b", SCALINGS)
    def test_units_scale_out_exactly(self, tmp_path, a, b, kind, post):
        def config(pre, post):
            return make_config(tmp_path, pre=pre, post=post,
                               measure={"kind": kind}, n_pre=200, n_post=200)

        unit = run_columns(config(UNIT_PRE, UNIT_POSTS[post]),
                           tmp_path / "unit")
        got = run_columns(config(rescaled(UNIT_PRE, a, b),
                                 rescaled(UNIT_POSTS[post], a, b)),
                          tmp_path / "rescaled")
        assert got["x"].tobytes() == np.ldexp(unit["x"], a).tobytes()
        assert got["y"].tobytes() == np.ldexp(unit["y"], b).tobytes()
        for name in ("score", "pvalue", "log10_capital"):
            assert got[name].tobytes() == unit[name].tobytes(), name
        assert got["width"].tobytes() == np.ldexp(unit["width"], b).tobytes()


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
        assert _phase_means(series_of_widths([]), 1, 5) == (None, None)


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

    def test_last_seeds_of_the_range_run(self, tmp_path):
        # run_scenario checks each seed override as the seed of one run
        cfg = make_config(tmp_path, seed=2**64 - 2, replications=2,
                          n_pre=50, n_post=50)
        summaries = run_replications(cfg, write_artifacts=False)
        assert [s.seed for s in summaries] == [2**64 - 2, 2**64 - 1]

    def test_aggregate_keys_follow_summary_fields(self, tmp_path):
        # n_post = 0 leaves every post-change field None in each replication
        cfg = make_config(tmp_path, replications=3, n_pre=100, n_post=0)
        summaries = run_replications(cfg, write_artifacts=False)
        agg = aggregate_summaries(summaries)
        names = [f.name for f in dataclasses.fields(ScenarioSummary)]
        assert set(agg) == (
            {"replications", "seeds"}
            | {f"fraction_{n}_reject" for n in names if n.startswith("ks_")}
            | {f"median_{n}" for n in names
               if not n.startswith("ks_") and n != "seed"})
        for key in ("fraction_ks_post_reject", "median_coverage_post",
                    "median_mean_width_post"):
            assert agg[key] is None, key
        # A field that is None in some replications is taken over the rest.
        summaries[0] = dataclasses.replace(summaries[0], coverage_pre=None,
                                           ks_pre=None)
        agg = aggregate_summaries(summaries)
        assert agg["median_coverage_pre"] == (
            summaries[1].coverage_pre + summaries[2].coverage_pre) / 2
        assert agg["fraction_ks_pre_reject"] == sum(
            s.ks_pre.reject for s in summaries[1:]) / 2

    def test_aggregate_file_deterministic(self, tmp_path):
        cfg_a = make_config(tmp_path / "a", replications=2, n_pre=100,
                            n_post=100)
        cfg_b = make_config(tmp_path / "b", replications=2, n_pre=100,
                            n_post=100)
        run_replications(cfg_a)
        run_replications(cfg_b)
        assert (cfg_a.output_dir / "aggregate.json").read_bytes() == \
            (cfg_b.output_dir / "aggregate.json").read_bytes()


class TestVerify:
    def test_cryptic_config_reports_the_standard_law(self, tmp_path, capsys):
        info = verify_output(write_config(tmp_path), capsys)
        assert info == {"oracle_w_mean": 0.0, "oracle_w_sd": 1.0}

    def test_off_line_config_reports_offset(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            post={"mu_x": 2.0, "mu_y": 2.0, "sigma_x": 1.0, "sigma_y": 1.0,
                  "rho_cov": 0.5})
        info = verify_output(path, capsys)
        # 1.0 above the line, in units of the conditional sd sqrt(0.75)
        assert info["oracle_w_mean"] == pytest.approx(1.0 / math.sqrt(0.75))
        assert info["oracle_w_sd"] == 1.0


class TestCli:
    def test_run_and_verify_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, n_pre=100, n_post=100)
        assert cli_main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "pvalues.csv").exists()
        assert cli_main(["verify", "--config", str(path)]) == 0
        assert "oracle_w_mean" in capsys.readouterr().out

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

    def test_non_finite_draw_exit_code(self, tmp_path, capsys):
        # The model is valid, but about 7 % of its x draws overflow to inf;
        # verify takes the law of w from the model alone, so it reports it.
        path = write_config(tmp_path, pre={
            "mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0e+308, "sigma_y": 1.0,
            "rho_cov": 0.0})
        assert cli_main(["verify", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: config field 'pre': seed 7, step ")
        assert "is not finite" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_sigma_y_past_square_overflow_exit_code(self, tmp_path, capsys,
                                                    kind):
        # sigma_y**2 would overflow past about 1.34e154, but no scale is
        # squared: the run succeeds under every measure, and verify takes
        # the sd of w from the conditional sds.
        path = write_config(tmp_path, measure={"kind": kind}, pre={
            "mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0, "sigma_y": 1.0e+200,
            "rho_cov": 0.0})
        assert cli_main(["verify", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["oracle_w_sd"] == 1.0
        assert_cli_runs(path, capsys)

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_sigma_x_past_square_overflow_exit_code(self, tmp_path, capsys,
                                                    kind):
        # sigma_x**2 would overflow past about 1.34e154, and the draws stay
        # finite; the quadratic form is taken in standardized coordinates.
        path = write_config(tmp_path, measure={"kind": kind}, pre={
            "mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0e+200, "sigma_y": 1.0,
            "rho_cov": 0.0})
        assert_cli_runs(path, capsys)

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    def test_post_scale_past_square_overflow_runs(self, tmp_path, capsys,
                                                  kind):
        # A covariance change at scales past the square range; the
        # likelihood ratio scores with the post model too.
        path = write_config(
            tmp_path, measure={"kind": kind},
            pre={"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0e+200,
                 "sigma_y": 1.0, "rho_cov": 0.0},
            post={"mu_x": 2.0e+200, "mu_y": 1.0, "sigma_x": 3.0e+200,
                  "sigma_y": 1.0, "rho_cov": 1.0e+200})
        assert_cli_runs(path, capsys)

    @pytest.mark.parametrize("kind", MEASURE_KINDS)
    @pytest.mark.parametrize("sigma,delta", [
        # Both squares are finite, but their product is not.
        (1.0e+100, 20.0),
        # The product sigma_x * sigma_y underflows to 0; the shift is 20
        # sds of x, as in BASE.
        (1.0e-200, 2.0e-199),
    ])
    def test_far_scales_run(self, tmp_path, capsys, sigma, delta, kind):
        path = write_config(
            tmp_path, measure={"kind": kind},
            pre={"mu_x": 0.0, "mu_y": 0.0, "sigma_x": sigma,
                 "sigma_y": sigma, "rho_cov": 0.0},
            post={"cryptic_delta_mu_x": delta})
        assert_cli_runs(path, capsys)

    def test_cryptic_shift_out_of_range_names_the_field(self, tmp_path,
                                                        capsys):
        # mu_x + delta overflows to inf, so the shifted mean is not
        # finite.
        path = write_config(
            tmp_path,
            pre={"mu_x": 1.0e+308, "mu_y": 0.0, "sigma_x": 1.0,
                 "sigma_y": 1.0, "rho_cov": 0.5},
            post={"cryptic_delta_mu_x": 1.0e+308})
        for command in ("run", "verify"):
            assert cli_main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(
                "error: config field 'post.cryptic_delta_mu_x': ")
        assert not (tmp_path / "out").exists()

    def test_cryptic_shift_far_from_the_origin_runs(self, tmp_path, capsys):
        # A cryptic shift from an origin 1e5 sds from 0 is on the line: a
        # check that recomputed the shift from the rounded means would find
        # it off the line by 1.455e-12.
        path = write_config(
            tmp_path,
            pre={"mu_x": 1.0e+5, "mu_y": 3.0, "sigma_x": 1.0,
                 "sigma_y": 1.0, "rho_cov": 0.5},
            post={"cryptic_delta_mu_x": 0.3})
        assert cli_main(["verify", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {"oracle_w_mean": 0.0, "oracle_w_sd": 1.0}
        assert_cli_runs(path, capsys)

    def test_verify_at_the_edge_of_the_float_range(self, tmp_path, capsys):
        # pre == post near the edge of the float range: w is standard
        # normal, and verify reports it from the models alone.
        model = {"mu_x": -1.7e+308, "mu_y": 0.0, "sigma_x": 1.0e+307,
                 "sigma_y": 1.0, "rho_cov": 5.0e+306}
        path = write_config(tmp_path, pre=model, post=model)
        assert cli_main(["verify", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {"oracle_w_mean": 0.0, "oracle_w_sd": 1.0}

    def test_verify_non_finite_residual_exit_code(self, tmp_path, capsys):
        # The post mean is 3e308 from the pre mean in x, so its distance
        # from the pre regression line (r = 0.5), the mean of w, is inf;
        # JSON has no infinity, so verify prints none.
        pre = {"mu_x": 1.5e+308, "mu_y": 0.0, "sigma_x": 1.0, "sigma_y": 1.0,
               "rho_cov": 0.5}
        path = write_config(tmp_path, pre=pre, post={**pre, "mu_x": -1.5e+308})
        assert cli_main(["verify", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: verify: a reported value is not finite for this config"]

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
