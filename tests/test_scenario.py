import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import left_sum
import seqconformal
from seqconformal import (BivariateGaussian, ConfigError, JumperConfig,
                          Monitor, OracleMahalanobisEnsemble, RandomStream,
                          ScenarioConfig, ScenarioSummary, run_replications,
                          run_scenario, sample_arrays)
from seqconformal.cli import main as cli_main
from seqconformal.config import MeasureSpec, _converter
from seqconformal.intervals import IntervalSeries
from seqconformal.scenario import (DATA_SUBSTREAM, RUN_BLOCK, _PhaseSums,
                                   aggregate_summaries)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_CHILD = Path(__file__).with_name("golden_child.py")
MEASURE_KINDS = ("oracle", "mahalanobis", "likelihood_ratio", "ensemble")

# SHA-256 of every file that `seqconformal run --quick` (2000 + 2000 steps)
# writes for the shipped configs, taken with Python 3.11.7 and numpy 2.4.6:
# the five artifacts, and no other file. The digests pin the bytes across
# refactors of the pipeline; a numpy whose PCG64, ziggurat normals or float
# formatting differ may legitimately change them. All three golden tables
# were retaken when the data stream moved from a Box-Muller transform of
# uniforms to numpy's `standard_normal`. test_golden_digests_at_each_dispatch
# holds all three tables at each of DISPATCH_LEVELS.
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

# SHA-256 of every file that run_scenario writes for the shipped configs at
# their full 10000 + 10000 steps, taken with Python 3.11.7 and numpy 2.4.6;
# the writer that formats each value with its own "%.17g" % x,
# `reference.write_csvs`, gives the same bytes. Unlike GOLDEN_2K, these
# runs take the Jumper and interval loops through more than one block of
# `BLOCK_STEPS` steps, trim the interval heap and write steps past 10**4.
# They also cross two seams of run_scenario's blocks of `RUN_BLOCK` (8192)
# steps, and the change point, after step 10000, falls inside the second
# block.
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

# The CPU features that numpy's SIMD dispatch leaves out at each level: the
# dispatch of a CPU without them, on one that has them. numpy warns
# (ImportWarning) when the CPU lacks a feature named here.
DISPATCH_LEVELS = {
    "default": "",
    "avx2": "X86_V4 AVX512_ICL AVX512_SPR",
    "baseline": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
}


def neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# 2**50 + 0.25, 2**50 + 0.75 and 2**49 + k/8 for odd k are exact decimal
# ties: the digit after the 17th is a 5 followed by zeros, so '%.17g'
# rounds half to even. The even k lie between them.
TIES = [2.0**50 + 0.25, 2.0**50 + 0.75,
        *(2.0**49 + k / 8 for k in range(16))]
POWERS_OF_TEN = [y for j in range(-4, 16) for y in neighbours(10.0**j)]
EDGES = [*neighbours(2.0**53), 0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 3,
         sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
         sys.float_info.max, -sys.float_info.max, math.inf, -math.inf,
         math.nan, -math.nan, 1e16, 1e17, 0.1, 0.5, 1.0]
# The explicit cases of csv_rows in the golden child, by group: the ties of
# both signs, the powers of ten from 1e-4 to 1e15 and their neighbours, the
# edges of the exact path and of the float range, and integers as floats.
CSV_CASES = {
    "csv_ties": [*TIES, *(-x for x in TIES)],
    "csv_powers_of_ten": [*POWERS_OF_TEN, *(-x for x in POWERS_OF_TEN)],
    "csv_edges": EDGES,
    "csv_integers": list(map(float, [0, 1, 9, 10, 10**15 - 1, 10**15,
                                     2**53 - 1])),
}


GOLDEN_TABLES = {"2k": GOLDEN_2K, "full": GOLDEN_FULL,
                 "replications": GOLDEN_REPLICATIONS}


@pytest.fixture(scope="module", params=list(DISPATCH_LEVELS))
def golden_child(request, tmp_path_factory):
    """Every run of the three golden tables, and csv_rows against
    b"%.17g" % v, at one SIMD dispatch level, in a fresh process that
    golden_child.py describes: one child per level, whose output each
    case of test_golden_digests_at_each_dispatch checks in part. The
    child runs from an empty directory with only the package's parent on
    PYTHONPATH, so a package module that came to import
    tests/reference.py fails here with ModuleNotFoundError."""
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(seqconformal.__file__).parents[1])
    if DISPATCH_LEVELS[request.param]:
        env["NPY_DISABLE_CPU_FEATURES"] = DISPATCH_LEVELS[request.param]
    spec = {table: sorted(golden) for table, golden in GOLDEN_TABLES.items()}
    spec["scenarios"] = str(SCENARIOS)
    spec["csv_cases"] = {group: np.array(cases).tobytes().hex()
                         for group, cases in CSV_CASES.items()}
    child = subprocess.run(
        [sys.executable, "-W", "ignore::ImportWarning", "-c",
         GOLDEN_CHILD.read_text(), json.dumps(spec)],
        env=env, cwd=tmp_path_factory.mktemp(f"golden_{request.param}"),
        stdout=subprocess.PIPE, check=True)
    return json.loads(child.stdout)


@pytest.mark.parametrize("table", [*GOLDEN_TABLES, *CSV_CASES,
                                   "csv_seeded"])
def test_golden_digests_at_each_dispatch(golden_child, table):
    assert golden_child[table] == GOLDEN_TABLES.get(table, [])


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


# Named model pairs of written configs, as overrides of BASE.
# The correlation flips sign (0.5 -> -0.5), and with it the slope of the
# regression line; the post mean lies on the pre line, so the oracle's w
# stays standard normal.
SLOPE_FLIP = {
    "pre": {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0, "sigma_y": 1.0,
            "rho_cov": 0.5},
    "post": {"mu_x": -4.0, "mu_y": -2.0, "sigma_x": 1.0, "sigma_y": 0.5,
             "rho_cov": -0.25},
}
# sigma_y**2 would overflow past about 1.34e154, but no scale is squared:
# verify takes the sd of w from the conditional sds.
SIGMA_Y_1E200 = {"pre": {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0,
                         "sigma_y": 1.0e+200, "rho_cov": 0.0}}
# A cryptic shift from an origin 1e5 sds from 0 is on the line: a check that
# recomputed the shift from the rounded means would find it off the line by
# 1.455e-12.
FAR_ORIGIN = {"pre": {"mu_x": 1.0e+5, "mu_y": 3.0, "sigma_x": 1.0,
                      "sigma_y": 1.0, "rho_cov": 0.5},
              "post": {"cryptic_delta_mu_x": 0.3}}
# Each phase's mean lies 3e308, past the largest float, from the other's;
# with r = 0 both lie on the flat line y = 0.
FLAT_EDGE = {"pre": {"mu_x": 1.5e+308, "mu_y": 0.0, "sigma_x": 1.0,
                     "sigma_y": 1.0, "rho_cov": 0.0},
             "post": {"mu_x": -1.5e+308, "mu_y": 0.0, "sigma_x": 1.0,
                      "sigma_y": 1.0, "rho_cov": 0.0}}

# Model pairs that `seqconformal run` takes cleanly under each measure
# named (see TestCli.test_runs_clean).
RUNS_CLEAN = {
    "sigma_y_1e200": (SIGMA_Y_1E200, MEASURE_KINDS),
    # sigma_x**2 would overflow past about 1.34e154, and the draws stay
    # finite; the quadratic form is taken in standardized coordinates.
    "sigma_x_1e200": ({"pre": {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0e+200,
                               "sigma_y": 1.0, "rho_cov": 0.0}},
                      MEASURE_KINDS),
    # A covariance change at scales past the square range; the likelihood
    # ratio scores with the post model too.
    "post_scale_1e200": (
        {"pre": {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0e+200,
                 "sigma_y": 1.0, "rho_cov": 0.0},
         "post": {"mu_x": 2.0e+200, "mu_y": 1.0, "sigma_x": 3.0e+200,
                  "sigma_y": 1.0, "rho_cov": 1.0e+200}},
        MEASURE_KINDS),
    # Both squares are finite, but their product is not.
    "far_scales_1e100": (
        {"pre": {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0e+100,
                 "sigma_y": 1.0e+100, "rho_cov": 0.0},
         "post": {"cryptic_delta_mu_x": 20.0}},
        MEASURE_KINDS),
    # The product sigma_x * sigma_y underflows to 0; the shift is 20 sds of
    # x, as in BASE.
    "far_scales_1e-200": (
        {"pre": {"mu_x": 0.0, "mu_y": 0.0, "sigma_x": 1.0e-200,
                 "sigma_y": 1.0e-200, "rho_cov": 0.0},
         "post": {"cryptic_delta_mu_x": 2.0e-199}},
        MEASURE_KINDS),
    "slope_flip": (SLOPE_FLIP, ("oracle",)),
    "far_origin": (FAR_ORIGIN, ("oracle",)),
    # At a post mean of (0, 40) the oracle density of every post-change
    # example, and the joint density that a likelihood ratio of densities
    # would take the log of, underflow to 0.0; the scores are log densities,
    # so none is computed.
    "post_mean_40": ({"post": {**BASE["pre"], "mu_y": 40.0}}, MEASURE_KINDS),
    # Past about 1e154 sds the squares of a post-change example overflow, and
    # it scores -inf under Mahalanobis and the ensemble.
    "cryptic_shift_1e200": ({"post": {"cryptic_delta_mu_x": 1.0e+200}},
                            MEASURE_KINDS),
    # x - mu_x overflows, so u is infinite under the other phase's model.
    "flat_edge": (FLAT_EDGE, MEASURE_KINDS),
}


class Refusal(NamedTuple):
    """A config that `seqconformal` refuses (see TestCli.test_refused).

    config is a dict of overrides of BASE (DROP deletes a key of BASE), the
    bytes of the file, ABSENT (no file) or DIRECTORY (a directory at its
    path). Each of commands runs with flags and must exit with code, print
    nothing to stdout and one stderr line that starts with error, and write
    no output directory. error and flags may name {config}, the config's
    path; an error that ends in a newline is the whole line."""

    config: dict | bytes | str
    error: str
    commands: tuple[str, ...] = ("run", "verify")
    flags: tuple[str, ...] = ()
    code: int = 1


DROP, ABSENT, DIRECTORY = "<drop>", "<absent>", "<directory>"
RUN = ("run",)
FIELD = "error: config field "
UNPARSEABLE = FIELD + "'<file>': not parseable: "
PRE_MU_X_1E308 = {"mu_x": 1.0e+308, "mu_y": 0.0, "sigma_x": 1.0,
                  "sigma_y": 1.0, "rho_cov": 0.5}
REFUSED = {
    # A field the dataclasses declare without a default.
    "missing_pre": Refusal({"pre": DROP}, FIELD + "'pre': missing\n"),
    "missing_n_pre": Refusal({"n_pre": DROP}, FIELD + "'n_pre': missing\n"),
    "missing_pre_mu_x": Refusal(
        {"pre": {k: v for k, v in BASE["pre"].items() if k != "mu_x"}},
        FIELD + "'pre.mu_x': missing\n"),
    "missing_measure_kind": Refusal(
        {"measure": {}}, FIELD + "'measure.kind': missing\n"),
    # A key no dataclass declares, in each section.
    "unknown_key": Refusal(
        {"bogus": 1}, FIELD + "'bogus': unknown top-level key\n"),
    "unknown_pre_key": Refusal(
        {"pre": {**BASE["pre"], "z": 1}}, FIELD + "'pre.z': unknown key\n"),
    "unknown_post_key": Refusal(
        {"post": {**BASE["pre"], "z": 1}}, FIELD + "'post.z': unknown key\n"),
    "key_beside_shift": Refusal(
        {"post": {"cryptic_delta_mu_x": 2, "z": 1}},
        FIELD + "'post.z': unknown key\n"),
    "measure_typo": Refusal(
        {"measure": {"kind": "ensemble", "lamda": 0.9}},
        FIELD + "'measure.lamda': unknown key\n"),
    "jumper_typo": Refusal(
        {"jumper": {"jump_rat": 0.5}},
        FIELD + "'jumper.jump_rat': unknown key\n"),
    # One wrong-typed value for each annotation the parser converts.
    "n_pre_float": Refusal(
        {"n_pre": 1.5}, FIELD + "'n_pre': expected an integer, got 1.5\n"),
    # A whole number in exponent form, as YAML 1.1 reads `1e4` (a string)
    # and `1.0e+4` (a float), and the count to write instead.
    "n_pre_exponent_string": Refusal(
        {"n_pre": "1e4"}, FIELD + "'n_pre': expected an integer, got '1e4'; "
        "write it in full: 10000\n"),
    "n_pre_exponent_float": Refusal(
        {"n_pre": 1.0e+4}, FIELD + "'n_pre': expected an integer, got "
        "10000.0; write it in full: 10000\n"),
    "seed_bool": Refusal(
        {"seed": True}, FIELD + "'seed': expected an integer, got True\n"),
    "epsilon_string": Refusal(
        {"epsilon": "x"}, FIELD + "'epsilon': expected a number, got 'x'\n"),
    # yaml.safe_dump writes the string unquoted, `epsilon: 1e-3`, and YAML
    # 1.1 reads that back as a string: its floats need a '.' and a signed
    # exponent.
    "epsilon_exponent_without_point": Refusal(
        {"epsilon": "1e-3"},
        FIELD + "'epsilon': expected a number, got '1e-3'; YAML 1.1 reads it "
        "as a string: write 1.0e-3\n"),
    "mu_x_exponent_without_sign": Refusal(
        {"pre": {**BASE["pre"], "mu_x": "1.5e3"}},
        FIELD + "'pre.mu_x': expected a number, got '1.5e3'; YAML 1.1 reads "
        "it as a string: write 1.5e+3\n"),
    "epsilons_exponent_without_point_or_sign": Refusal(
        {"jumper": {"epsilons": ["1e308", 0.0]}},
        FIELD + "'jumper.epsilons': expected a number, got '1e308'; YAML 1.1 "
        "reads it as a string: write 1.0e+308\n"),
    "jump_rate_capital_exponent": Refusal(
        {"jumper": {**BASE["jumper"], "jump_rate": "+5E-1"}},
        FIELD + "'jumper.jump_rate': expected a number, got '+5E-1'; YAML 1.1 "
        "reads it as a string: write +5.0e-1\n"),
    "output_dir_int": Refusal(
        {"output_dir": 5}, FIELD + "'output_dir': expected a path, got 5\n"),
    "epsilons_scalar": Refusal(
        {"jumper": {"epsilons": 0.5}},
        FIELD + "'jumper.epsilons': expected a list of numbers, got 0.5\n"),
    "epsilons_string": Refusal(
        {"jumper": {"epsilons": ["a", 0.0]}},
        FIELD + "'jumper.epsilons': expected a number, got 'a'\n"),
    "epsilons_bool": Refusal(
        {"jumper": {"epsilons": [True, 0.0]}},
        FIELD + "'jumper.epsilons': expected a number, got True\n"),
    "kind_int": Refusal(
        {"measure": {"kind": 3}},
        FIELD + "'measure.kind': expected a string, got 3\n"),
    # Numbers that are not finite floats.
    "epsilons_nan": Refusal(
        {"jumper": {"epsilons": [math.nan, 0.0]}},
        FIELD + "'jumper.epsilons': expected a finite number, got nan\n"),
    "jump_rate_nan": Refusal(
        {"jumper": {"jump_rate": math.nan}},
        FIELD + "'jumper.jump_rate': expected a finite number, got nan\n"),
    "mu_x_inf": Refusal(
        {"pre": {**BASE["pre"], "mu_x": math.inf}},
        FIELD + "'pre.mu_x': expected a finite number, got inf\n"),
    "mu_y_10e400": Refusal(
        {"pre": {**BASE["pre"], "mu_y": 10**400}},
        FIELD + "'pre.mu_y': too large for a float\n"),
    "shift_minus_inf": Refusal(
        {"post": {"cryptic_delta_mu_x": -math.inf}},
        FIELD + "'post.cryptic_delta_mu_x': expected a finite number, "
        "got -inf\n"),
    # The value rules of the config dataclasses.
    "negative_sigma": Refusal(
        {"pre": {**BASE["pre"], "sigma_x": -1.0}},
        FIELD + "'pre': standard deviations must be strictly positive\n"),
    "unknown_kind": Refusal(
        {"measure": {"kind": "psychic"}},
        FIELD + "'measure.kind': unknown measure kind 'psychic'\n"),
    "lambda_2": Refusal(
        {"measure": {"kind": "ensemble", "lambda": 2}},
        FIELD + "'measure.lambda': must lie in [0, 1]\n"),
    "empty_stream": Refusal(
        {"n_pre": 0, "n_post": 0},
        FIELD + "'n_pre/n_post': stream must be nonempty\n"),
    "epsilon_1": Refusal(
        {"epsilon": 1.0}, FIELD + "'epsilon': must lie in (0, 1)\n"),
    "seed_negative": Refusal(
        {"seed": -1},
        FIELD + "'seed': replication seeds -1 .. -1 must fit in 64 bits\n"),
    "seed_2_64": Refusal(
        {"seed": 2**64},
        FIELD + f"'seed': replication seeds {2**64} .. {2**64} must fit in "
        "64 bits\n"),
    "seed_range_of_replications": Refusal(
        {"seed": 2**64 - 1, "replications": 2},
        FIELD + f"'seed': replication seeds {2**64 - 1} .. {2**64} must fit "
        "in 64 bits\n"),
    # mu_x + delta overflows to inf, so the shifted mean is not finite.
    "shift_out_of_range": Refusal(
        {"pre": PRE_MU_X_1E308, "post": {"cryptic_delta_mu_x": 1.0e+308}},
        FIELD + "'post.cryptic_delta_mu_x': mu_x = inf is not finite\n"),
    # The run overrides are checked like file values, and the error names
    # the field of the first flag.
    "seed_flag_negative": Refusal(
        {}, FIELD + "'seed': replication seeds -1 .. -1 must fit in "
        "64 bits\n", RUN, ("--seed", "-1")),
    "seed_flag_2_64": Refusal(
        {}, FIELD + f"'seed': replication seeds {2**64} .. {2**64} must fit "
        "in 64 bits\n", RUN, ("--seed", str(2**64))),
    "seed_flag_range_of_replications": Refusal(
        {}, FIELD + f"'seed': replication seeds {2**64 - 1} .. {2**64} must "
        "fit in 64 bits\n", RUN,
        ("--seed", str(2**64 - 1), "--replications", "2")),
    "replications_flag_0": Refusal(
        {}, FIELD + "'replications': must be >= 1\n", RUN,
        ("--replications", "0")),
    "replications_flag_past_seed_range": Refusal(
        {"seed": 2**64 - 1},
        FIELD + f"'seed': replication seeds {2**64 - 1} .. {2**64} must fit "
        "in 64 bits\n", RUN, ("--replications", "2")),
    # Files that YAML's safe loader reads, or would read with a key given
    # twice keeping its last value, and that the config loader refuses.
    "repeated_seed": Refusal(
        b"seed: 7\nseed: 9\n",
        UNPARSEABLE + "found duplicate key 'seed' (line 2, column 1)\n"),
    "repeated_pre_key": Refusal(
        b"pre:\n  mu_x: 0.0\n  mu_x: 5.0\n",
        UNPARSEABLE + "found duplicate key 'mu_x' (line 3, column 3)\n"),
    "undecodable_byte": Refusal(
        b"pre: {mu_x: 0\xff}\n",  # not UTF-8
        UNPARSEABLE + "unacceptable character #x00ff: invalid start "
        "byte\n"),
    "unclosed_sequence": Refusal(
        b"pre: [1, 2\n",
        UNPARSEABLE + "expected ',' or ']', but got '<stream end>' (line 2, "
        "column 1)\n"),
    "python_tag": Refusal(
        b"seed: !!python/object:os.system ls\n",
        UNPARSEABLE + "could not determine a constructor for the tag "
        "'tag:yaml.org,2002:python/object:os.system' (line 1, "
        "column 7)\n"),
    # Valid models whose run cannot be made. About 7 % of the x draws
    # overflow to inf; verify takes the law of w from the models alone
    # (TestVerify's draws_overflow).
    "draws_overflow": Refusal(
        {"pre": {**BASE["pre"], "sigma_x": 1.0e+308, "rho_cov": 0.0}},
        FIELD + "'pre': seed 7, step 21: the draw (x, y) = "
        "(-inf, 0.6846167834446987) is not finite\n", RUN),
    # numpy refuses 10**30 steps before it allocates anything.
    "stream_too_long_to_index": Refusal(
        {"n_pre": 10**30},
        FIELD + f"'n_pre/n_post': a stream of {10**30 + 300} steps cannot be "
        "allocated: ", RUN),
    # The post mean is 3e308 from the pre mean in x, so its distance from
    # the pre regression line (r = 0.5), the mean of w, is inf.
    "w_not_finite": Refusal(
        {"pre": {**PRE_MU_X_1E308, "mu_x": 1.5e+308},
         "post": {**PRE_MU_X_1E308, "mu_x": -1.5e+308}},
        FIELD + "'post': the oracle's w has mean inf and sd 1.0 under it; "
        "both must be finite\n"),
    # A file that cannot be read or written is named by its path.
    "no_file": Refusal(
        ABSENT, "error: [Errno 2] No such file or directory: '{config}'\n",
        code=2),
    "config_is_directory": Refusal(
        DIRECTORY, "error: [Errno 21] Is a directory: '{config}'\n", code=2),
    "output_dir_under_file": Refusal(
        {}, "error: while writing artifacts under {config}/out: [Errno 20] "
        "Not a directory: '{config}/out'\n", RUN,
        ("--output-dir", "{config}/out"), code=2),
}


def write_config(tmp_path, name="scenario.cfg", **overrides):
    raw = {**BASE, **overrides, "output_dir": str(tmp_path / "out")}
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def make_config(tmp_path, **overrides):
    return ScenarioConfig.from_file(write_config(tmp_path, **overrides))


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


class TestConfigParsing:
    def test_cryptic_delta_expands_to_on_line_mean(self, tmp_path):
        cfg = make_config(tmp_path)
        assert cfg.post.mu_x == pytest.approx(20.0)
        assert cfg.post.mu_y == pytest.approx(10.0)

    def test_jumper_epsilons_accept_integers(self, tmp_path):
        cfg = make_config(tmp_path, jumper={"epsilons": [-1, 0, 1]})
        assert cfg.jumper.epsilons == (-1.0, 0.0, 1.0)

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

    def test_omitted_keys_take_dataclass_defaults(self, tmp_path):
        post = {**BASE["pre"], "mu_x": 2.0}
        required = {"pre": BASE["pre"], "post": post, "n_pre": 30,
                    "n_post": 40, "seed": 3}
        path = tmp_path / "scenario.cfg"
        path.write_text(yaml.safe_dump(required))
        cfg = ScenarioConfig.from_file(path)
        assert cfg == ScenarioConfig(
            BivariateGaussian(**BASE["pre"]), BivariateGaussian(**post),
            30, 40, 3, output_dir=tmp_path / "out")
        ensemble = make_config(tmp_path, measure={"kind": "ensemble"})
        assert ensemble.measure.lam == OracleMahalanobisEnsemble.lam

    # YAML 1.1 reads a number with an exponent as a string if it has no '.'
    # or no exponent sign; the hint of its refusal loads as the number.
    @settings(max_examples=100, deadline=None)
    @given(text=st.from_regex(
        r"[-+]?[0-9]{1,3}(\.[0-9]{0,3})?[eE][-+]?[0-9]{1,2}", fullmatch=True))
    def test_exponent_hint_loads_as_the_number(self, tmp_path_factory, text):
        assume(isinstance(yaml.safe_load(text), str))
        path = write_config(tmp_path_factory.mktemp("hint"),
                            pre={**BASE["pre"], "mu_x": text})
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_file(path)
        hint = err.value.reason.partition("reads it as a string: write ")[2]
        path.write_text(yaml.safe_dump({**BASE, "pre": {
            **BASE["pre"], "mu_x": "HINT"}}).replace("HINT", hint))
        assert ScenarioConfig.from_file(path).pre.mu_x == float(text)

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

    # The last row's first overflow lies past the first block of the run.
    @pytest.mark.parametrize("phase,n_pre", [("pre", 300), ("post", 300),
                                             ("post", RUN_BLOCK + 100)])
    def test_non_finite_draw_names_phase_and_step(self, tmp_path, phase,
                                                  n_pre):
        model = {**BASE["pre"], "sigma_x": 1.0e308, "rho_cov": 0.0}
        cfg = make_config(tmp_path, n_pre=n_pre, **{phase: model})
        with pytest.raises(ConfigError) as info:
            run_scenario(cfg)
        step = int(info.value.reason.split("step ")[1].split(":")[0])
        first = 1 if phase == "pre" else cfg.n_pre + 1
        assert info.value.field_name == phase
        assert first <= step < first + 300
        # the step is that of the first overflow in the phase's draws
        data_rng = RandomStream(cfg.seed).substream(DATA_SUBSTREAM)
        xs, ys = sample_arrays(cfg.pre, data_rng, cfg.n_pre)
        if phase == "post":
            xs, ys = sample_arrays(cfg.post, data_rng, cfg.n_post)
        finite = np.isfinite(xs) & np.isfinite(ys)
        assert step - first == int(np.argmin(finite))
        assert "inf" in info.value.reason
        assert not cfg.output_dir.exists()

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
        assert 0.0 <= float(pvalues[0].split(",")[1]) <= 1.0
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


def phase_means(*blocks):
    """Coverage and mean width of one phase whose intervals come in
    blocks, each a list of widths."""
    sums = _PhaseSums()
    for widths in blocks:
        sums.add(series_of_widths(widths), 0, len(widths))
    return sums.means()


class TestPhaseMeans:
    def test_widths_summed_left_to_right(self):
        # Left to right, each 1e-16 is lost against 1.0; a compensated sum
        # (math.fsum, or Python 3.12's sum) keeps them.
        widths = [1.0, 1e-16, 1e-16]
        coverage, mean_width = phase_means(widths)
        assert coverage == 1.0
        assert mean_width == 1.0 / 3 == left_to_right_mean(widths)
        assert mean_width != math.fsum(widths) / 3
        assert phase_means(widths[:1], widths[1:]) == (coverage, mean_width)

    def test_long_series_in_step_order(self):
        # numpy's pairwise sum differs from step order on this series.
        rng = np.random.default_rng(5)
        widths = (rng.random(10_000)
                  * 10.0 ** rng.integers(-8, 8, size=10_000)).tolist()
        _, mean_width = phase_means(widths)
        assert repr(mean_width) == repr(left_to_right_mean(widths))
        assert mean_width != float(np.sum(widths)) / len(widths)
        _, in_blocks = phase_means(widths[:4321], [], widths[4321:])
        assert repr(in_blocks) == repr(mean_width)

    def test_zero_widths_give_positive_zero(self):
        _, mean_width = phase_means([-0.0, -0.0])
        assert repr(mean_width) == repr(left_to_right_mean([-0.0, -0.0]))
        assert repr(mean_width) == "0.0"

    def test_phase_selection(self):
        # The pre phase ends before example n_pre. Examples 1..4 (steps
        # 2..5) have intervals: x = 0 centres them at 0, and at epsilon
        # 0.05 the half-width is the largest earlier |y|, so the widths
        # are 1, 2, 4 and 8, and only example 4 is covered.
        q0 = BivariateGaussian(0.0, 0.0, 1.0, 1.0, 0.5)
        xs, ys = np.zeros(5), np.array([0.5, 1.0, 2.0, 4.0, 0.0])
        for n_pre, want in ((3, [(0.0, 1.5), (0.5, 6.0)]),
                            (5, [(0.25, 3.75), (None, None)]),
                            (1, [(None, None), (0.25, 3.75)])):
            monitor = Monitor(ScenarioConfig(q0, q0, n_pre, 5 - n_pre, 1))
            monitor.feed(xs, ys)
            s = monitor.finish()
            assert [(s.coverage_pre, s.mean_width_pre),
                    (s.coverage_post, s.mean_width_post)] == want
        assert phase_means([]) == (None, None)


class TestReplications:
    def test_single_replication_aggregate_equals_summary(self, tmp_path):
        cfg = make_config(tmp_path)
        summaries = run_replications(cfg)
        agg = aggregate_summaries(summaries)
        assert agg["replications"] == 1
        assert agg["median_final_log10_capital"] == pytest.approx(
            summaries[0].final_log10_capital)

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


class TestVerify:
    @pytest.mark.parametrize("config,law", [
        ("cryptic", (0.0, 1.0)),
        ("ensemble_cryptic", (0.0, 1.0)),
        # 1.0 above the line, in units of the conditional sd sqrt(0.75)
        ("non_cryptic", (1.1547005383792517, 1.0)),
        (FLAT_EDGE, (0.0, 1.0)),
        # pre == post near the edge of the float range
        ({"pre": {"mu_x": -1.7e+308, "mu_y": 0.0, "sigma_x": 1.0e+307,
                  "sigma_y": 1.0, "rho_cov": 5.0e+306},
          "post": {"mu_x": -1.7e+308, "mu_y": 0.0, "sigma_x": 1.0e+307,
                   "sigma_y": 1.0, "rho_cov": 5.0e+306}}, (0.0, 1.0)),
        (SLOPE_FLIP, (0.0, 1.0)),
        (SIGMA_Y_1E200, (0.0, 1.0)),
        (FAR_ORIGIN, (0.0, 1.0)),
        (REFUSED["draws_overflow"].config, (0.0, 1.0)),
    ], ids=["cryptic", "ensemble_cryptic", "non_cryptic", "edge",
            "edge_same_model", "slope_flip", "sigma_y_1e200", "far_origin",
            "draws_overflow"])
    def test_reports_the_exact_law(self, tmp_path, capsys, config, law):
        """`seqconformal verify` on a shipped config by name, or on the
        models of a written one, exits 0 and prints the exact law of w from
        the models alone."""
        path = (SCENARIOS / f"{config}.cfg" if isinstance(config, str)
                else write_config(tmp_path, **config))
        assert cli_main(["verify", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {"oracle_w_mean": law[0],
                                   "oracle_w_sd": law[1]}


class TestCli:
    @pytest.mark.parametrize("name,kind", [
        (name, kind) for name, (_, kinds) in RUNS_CLEAN.items()
        for kind in kinds])
    def test_runs_clean(self, tmp_path, capsys, name, kind):
        """`seqconformal run` on a model pair of RUNS_CLEAN exits 0 with no
        warning and nothing on stderr, and writes p-values in [0, 1], a
        finite martingale, finite intervals of width >= 0 and a summary
        with no NaN or Infinity."""
        models, _ = RUNS_CLEAN[name]
        path = write_config(tmp_path, measure={"kind": kind}, **models)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        out = tmp_path / "out"
        pvalues = np.loadtxt(out / "pvalues.csv", delimiter=",", skiprows=1,
                             usecols=1)
        assert ((0.0 <= pvalues) & (pvalues <= 1.0)).all()
        assert np.isfinite(np.loadtxt(out / "martingale.csv", delimiter=",",
                                      skiprows=1, usecols=1)).all()
        intervals = np.loadtxt(out / "intervals.csv", delimiter=",",
                               skiprows=1, usecols=(1, 2, 3, 4))
        assert np.isfinite(intervals).all()
        assert (intervals[:, 3] >= 0.0).all()  # the width column
        json.loads((out / "summary.json").read_text(),
                   parse_constant=lambda name: pytest.fail(name))

    @pytest.mark.parametrize("name,command", [
        (name, command) for name, refusal in REFUSED.items()
        for command in refusal.commands])
    def test_refused(self, tmp_path, capsys, name, command):
        """The contract of a refused config: its exit code, nothing on
        stdout, one `error:` line on stderr and no output directory."""
        refusal = REFUSED[name]
        path = tmp_path / "scenario.cfg"
        if isinstance(refusal.config, bytes):
            path.write_bytes(refusal.config)
        elif refusal.config == DIRECTORY:
            path.mkdir()
        elif refusal.config != ABSENT:
            raw = {**BASE, **refusal.config}  # output_dir: out, beside path
            path.write_text(yaml.safe_dump(
                {k: v for k, v in raw.items() if v != DROP}))
        flags = [flag.format(config=path) for flag in refusal.flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main([command, "--config", str(path), *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (refusal.code, "")
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err.startswith(refusal.error.format(config=path)), err
        assert not (tmp_path / "out").exists()

    def test_replications_write_one_directory_per_seed(self, tmp_path,
                                                       capsys):
        path = write_config(tmp_path)
        assert cli_main(["run", "--config", str(path), "--quick",
                         "--replications", "2"]) == 0
        out = tmp_path / "out"
        for name in ("seed_7/pvalues.csv", "seed_8/intervals.csv",
                     "aggregate.json"):
            assert (out / name).is_file(), name

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
