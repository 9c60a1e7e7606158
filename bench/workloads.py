"""The benchmark's workloads and the pass that runs one of them.

A workload is a fixed list of harness commands over the shipped configs.
A pass runs them back to back in one process, a closed loop with one
client: each command starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import checks

# Trials for `baseline` on baseline-wide: three blocks of 4096 lanes, so
# each rollout is 4096 lanes wide (the most `measure_end_to_end` uses) and
# about 3k steps long. Short enough that a run holds several passes.
BASELINE_TRIALS = 12_288

RD_CONFIGS = ("single_bsc", "relay_chain", "gilbert_elliott")
ALL_CONFIGS = RD_CONFIGS + ("two_pair_interference",)


@dataclass(frozen=True)
class Step:
    """One harness command on one config."""

    command: str  # rd | baseline | separate | verify
    config: str  # file stem under configs/
    trials: int | None = None


WORKLOADS = {
    "bsc-separate": (Step("separate", "single_bsc"),),
    "interference-ni": (
        Step("separate", "two_pair_interference"),
        Step("verify", "two_pair_interference"),
    ),
    "baseline-wide": tuple(Step("rd", c) for c in RD_CONFIGS)
    + tuple(Step("baseline", c, BASELINE_TRIALS) for c in ALL_CONFIGS),
}


def workload_configs(name: str) -> list[str]:
    return sorted({s.config for s in WORKLOADS[name]})


def config_path(root: Path, config: str) -> Path:
    return root / "configs" / f"{config}.yaml"


def load_configs(root: Path, name: str) -> dict:
    """Set-up: load and validate each config and build its system once."""
    from sepnet.harness import ExperimentConfig

    configs = {}
    for c in workload_configs(name):
        cfg = ExperimentConfig.load(config_path(root, c))
        cfg.build_system()
        configs[c] = cfg
    return configs


def run_step(step: Step, cfg, out_dir: Path, seed: int | None):
    """Run one command; returns (record, ok flag of verify or True)."""
    from sepnet import harness

    if step.command == "rd":
        return harness.cmd_rd(cfg, out_dir, seed=seed, overwrite=True), True
    if step.command == "baseline":
        return harness.cmd_baseline(
            cfg, out_dir, seed=seed, overwrite=True, trials=step.trials
        ), True
    if step.command == "separate":
        return harness.cmd_separate(
            cfg, out_dir, seed=seed, overwrite=True, trials=step.trials
        ), True
    if step.command == "verify":
        # The suites are fixed-level hypothesis tests, so at an arbitrary
        # seed a few percent of runs raise a false alarm; they run at the
        # config's own seed, at which the repository's CLI runs them too.
        with contextlib.redirect_stdout(io.StringIO()):
            return harness.cmd_verify(cfg, out_dir, seed=None, overwrite=True)
    raise ValueError(f"unknown command {step.command!r}")


def payload_of(record) -> dict:
    """The record's payload as it is written to disk (plain JSON types)."""
    return json.loads(record.to_json())["payload"]


@dataclass
class PassResult:
    wall_s: float = 0.0
    command_s: dict = field(default_factory=dict)  # command -> seconds
    attempted: int = 0
    failed: int = 0
    payload_exact: int = 0
    problems: list = field(default_factory=list)


def run_pass(name: str, configs: dict, out_dir: Path, seed: int | None) -> PassResult:
    """Run every step of a workload once and check each step's output.
    ``wall_s`` sums the commands' own times, without the checks."""
    result = PassResult()
    for step in WORKLOADS[name]:
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            record, ok = run_step(step, configs[step.config], out_dir, seed)
        except Exception as exc:  # a crashed command is a failed command
            elapsed = time.perf_counter() - t0
            result.failed += 1
            result.problems.append(f"{step.command} {step.config}: raised {exc!r}")
        else:
            elapsed = time.perf_counter() - t0
            verdict = checks.check(step, payload_of(record), ok)
            result.failed += int(not verdict.passed)
            result.payload_exact += int(verdict.exact)
            result.problems.extend(
                f"{step.command} {step.config}: {p}" for p in verdict.problems
            )
        result.command_s[step.command] = result.command_s.get(step.command, 0.0) + elapsed
        result.wall_s += elapsed
    return result


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A private output directory for the commands' records, removed after."""
    path = root / ".bench_out" / f"run-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()
