"""Start-up contract: scipy is loaded only when a chi-square p-value is
computed, and the worker pool's ``concurrent.futures`` only when codeword
search shares work out. Checked in a fresh interpreter, since this test process has
already imported ``scipy.stats`` through other test modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_harness import SINGLE_BSC

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys, tempfile, yaml

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import sepnet.cli
stages["import sepnet.cli"] = scipy_modules()
stages["pool at import"] = "concurrent.futures" in sys.modules

from sepnet.harness import ExperimentConfig, cmd_baseline, cmd_rd, cmd_separate
with open(sys.argv[1]) as f:
    data = yaml.safe_load(f)
data["targets"][0]["block_lengths"] = [32]
config = ExperimentConfig.from_dict(data)
with tempfile.TemporaryDirectory() as out:
    cmd_rd(config, out)
    stages["rd"] = scipy_modules()
    stages["pool after rd"] = "concurrent.futures" in sys.modules
    cmd_baseline(config, out, trials=1000)
    stages["baseline"] = scipy_modules()
    stages["pool after baseline"] = "concurrent.futures" in sys.modules
    record = cmd_separate(config, out, trials=1000)
    assert record.payload["runs"][0]["pairs"], "the target was not separated"
    stages["separate"] = scipy_modules()

from sepnet.probcore import chi_square_homogeneity
chi_square_homogeneity([10, 20, 30], [12, 18, 30])
stages["chi_square_homogeneity"] = scipy_modules()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def fresh_run():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SINGLE_BSC)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage", ["import sepnet.cli", "rd", "baseline", "separate"])
def test_commands_without_a_p_value_load_no_scipy(fresh_run, stage):
    assert fresh_run[stage] == []


def test_a_p_value_loads_scipy_special_and_not_scipy_stats(fresh_run):
    loaded = fresh_run["chi_square_homogeneity"]
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")]


def test_import_loads_no_worker_pool(fresh_run):
    assert fresh_run["pool at import"] is False


def test_rd_and_baseline_start_no_worker_pool(fresh_run):
    # baseline draws about a million source symbols here: every draw stays
    # on the calling thread
    assert fresh_run["pool after rd"] is False
    assert fresh_run["pool after baseline"] is False
