"""Parsing, checking and verifying a config load no numpy.

Each check runs in a fresh interpreter, since this one has numpy loaded:
importing the package, `ScenarioConfig.from_file`, `seqconformal verify`
and a `run` refused at load must leave numpy out of `sys.modules`, and
the first use of a numpy-backed export must load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import seqconformal

SRC = Path(seqconformal.__file__).resolve().parent.parent
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# argv: the shipped configs, then a config refused at load. Prints, after
# each step, whether numpy is loaded.
CHILD = """\
import contextlib, io, json, sys
steps = []
def loaded(step):
    steps.append([step, "numpy" in sys.modules])
import seqconformal
from seqconformal import ScenarioConfig, cli
loaded("import seqconformal")
*shipped, refused = sys.argv[1:]
for path in shipped:
    ScenarioConfig.from_file(path)
    loaded("from_file " + path)
with contextlib.redirect_stdout(io.StringIO()):
    for path in shipped:
        assert cli.main(["verify", "--config", path]) == 0
        loaded("verify " + path)
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["run", "--config", refused]) == 1
loaded("run refused")
seqconformal.run_scenario
loaded("seqconformal.run_scenario")
print(json.dumps(steps))
"""


def test_numpy_loads_at_the_first_run_and_not_before(tmp_path):
    refused = tmp_path / "refused.cfg"
    refused.write_text((SCENARIOS / "cryptic.cfg").read_text().replace(
        "epsilon: 0.05", "epsilon: 1.5"))
    shipped = sorted(map(str, SCENARIOS.glob("*.cfg")))
    assert len(shipped) == 3
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *shipped, str(refused)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=120, check=True)
    steps = json.loads(done.stdout)
    assert [step for step, _ in steps] == [
        "import seqconformal", *(f"from_file {p}" for p in shipped),
        *(f"verify {p}" for p in shipped), "run refused",
        "seqconformal.run_scenario"]
    assert [numpy for _, numpy in steps] == [False] * (len(steps) - 1) + [
        True], steps
