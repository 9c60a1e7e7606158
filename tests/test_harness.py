"""Harness and CLI: a payload is a pure function of (config digest, seed
root); bad configs fail validation with exit 1; exit codes; experiment ids."""

import json
from pathlib import Path

import pytest
import yaml

from sepnet import cli, harness
from sepnet.harness import (
    ConfigError,
    ExperimentConfig,
    cmd_baseline,
    cmd_rd,
    cmd_separate,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))
SINGLE_BSC = CONFIG_DIR / "single_bsc.yaml"


def payload_json(record) -> str:
    return json.dumps(json.loads(record.to_json())["payload"], sort_keys=True)


def single_bsc_data() -> dict:
    return yaml.safe_load(SINGLE_BSC.read_text())


def without_d_prime(d):
    del d["targets"][0]["D_prime"]


def without_a_modem(d):
    d["modems"].pop()


def with_flip_above_one(d):
    d["medium"]["links"][0]["flip"] = 1.5


def with_misspelled_rule(d):
    d["targets"][0]["decode_rule"] = "argmn"


BAD_CONFIGS = {
    "D_prime": without_d_prime,
    "modems": without_a_modem,
    "medium": with_flip_above_one,
    "decode_rule": with_misspelled_rule,
}


def bad_config(key: str) -> dict:
    data = single_bsc_data()
    BAD_CONFIGS[key](data)
    return data


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_rd_and_baseline_payloads_repeat(path, tmp_path):
    config = ExperimentConfig.load(path)
    if "rd" in config.data:
        runs = [cmd_rd(config, tmp_path / side) for side in "ab"]
        assert payload_json(runs[0]) == payload_json(runs[1])
    else:
        with pytest.raises(ConfigError, match="rd"):
            cmd_rd(config, tmp_path / "a")
    runs = [cmd_baseline(config, tmp_path / side, trials=1000) for side in "ab"]
    assert payload_json(runs[0]) == payload_json(runs[1])


def test_separate_payload_repeats(tmp_path):
    data = single_bsc_data()
    data["targets"][0]["block_lengths"] = [32]
    config = ExperimentConfig.from_dict(data)
    runs = [cmd_separate(config, tmp_path / side, trials=1000) for side in "ab"]
    assert runs[0].payload["runs"][0]["pairs"], "the target was not separated"
    assert payload_json(runs[0]) == payload_json(runs[1])


def test_separate_without_targets_is_timed(tmp_path):
    data = single_bsc_data()
    del data["targets"]
    record = cmd_separate(ExperimentConfig.from_dict(data), tmp_path)
    assert record.payload["noop"]
    assert record.wall_clock_s > 0


@pytest.mark.parametrize("key", BAD_CONFIGS)
def test_bad_config_fails_validation_naming_the_key(key):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(bad_config(key))


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def test_exit_ok(tmp_path):
    assert run_cli("rd", "--config", SINGLE_BSC, "--out", tmp_path) == cli.EXIT_OK


@pytest.mark.parametrize("key", BAD_CONFIGS)
def test_exit_validation_on_bad_config(key, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad_config(key)))
    code = run_cli("baseline", "--config", path, "--out", tmp_path / "out")
    assert code == cli.EXIT_VALIDATION


def test_exit_validation_on_missing_file(tmp_path):
    code = run_cli("rd", "--config", tmp_path / "missing.yaml", "--out", tmp_path)
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("command", ["rd", "verify"])
def test_trials_rejected_where_it_does_not_apply(command, tmp_path, capsys):
    code = run_cli(command, "--config", SINGLE_BSC, "--out", tmp_path, "--trials", 5)
    assert code == cli.EXIT_VALIDATION
    assert "--trials" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_exit_runtime_on_too_few_trials(tmp_path):
    code = run_cli("baseline", "--config", SINGLE_BSC, "--out", tmp_path, "--trials", 500)
    assert code == cli.EXIT_RUNTIME


def test_exit_acceptance_when_a_suite_fails(tmp_path, monkeypatch):
    def passing(*args):
        return {"ok": True, "detail": "stub"}

    for name in ("_suite_probcore", "_suite_codec", "_suite_separation",
                 "_suite_negative_control"):
        monkeypatch.setattr(harness, name, passing)
    monkeypatch.setattr(harness, "_suite_ratedist", lambda: {"ok": False, "detail": "forced"})
    code = run_cli("verify", "--config", SINGLE_BSC, "--out", tmp_path)
    assert code == cli.EXIT_ACCEPTANCE


def test_overwrite_reuses_the_first_id(tmp_path, capsys):
    def record_id(*extra) -> str:
        assert run_cli("rd", "--config", SINGLE_BSC, "--out", tmp_path, *extra) == 0
        return capsys.readouterr().out.split("record: ")[1].split()[0]

    first = record_id()
    assert first.endswith("-000")
    assert record_id() == first.replace("-000", "-001")
    assert record_id("--overwrite") == first
    assert sorted(p.name for p in tmp_path.iterdir()) == [first, first.replace("-000", "-001")]
