"""Harness and CLI: a payload is a pure function of (config digest, seed
root); bad configs fail validation with exit 1; exit codes; experiment ids."""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
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
from sepnet.netmodel import rollout
from sepnet.probcore import RandomnessHandle

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))
SINGLE_BSC = CONFIG_DIR / "single_bsc.yaml"
TWO_PAIR = CONFIG_DIR / "two_pair_interference.yaml"
RELAY_CHAIN = CONFIG_DIR / "relay_chain.yaml"
# sha256 prefix of the separate payload on single_bsc at n = 32, 1000 trials
SEPARATE_SINGLE_BSC_N32 = "dded55dcb3055d58"


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


def with_users_as_a_word(d):
    d["users"] = "two"


def with_a_target_without_pair(d):
    del d["targets"][0]["pair"]


def with_the_target_twice(d):
    d["targets"].append(dict(d["targets"][0]))


def with_block_length_as_a_word(d):
    d["block_length"] = "long"


def with_the_source_twice(d):
    d["sources"].append({"src": 0, "dst": 1, "probs": [0.9, 0.1]})


def with_no_block_lengths(d):
    d["targets"][0]["block_lengths"] = []


def with_a_misspelled_target_key(d):
    d["targets"][0]["Dprime"] = d["targets"][0].pop("D_prime")


def with_a_link_twice(d):
    d["medium"]["links"].append({"src": 0, "dst": 1, "flip": 0.4})


COUPLING = {"src": 0, "dst": 1, "watch": 1, "flips": [0.08, 0.14]}
GILBERT_ELLIOTT = {"flip_good": 0.01, "flip_bad": 0.3, "p_good_to_bad": 0.1,
                   "p_bad_to_good": 0.1}


def with_a_coupled_medium(d):
    d["medium"]["links"][0] = dict(COUPLING)


def with_a_markov_medium(d):
    d["medium"]["links"][0] = {"src": 0, "dst": 1, "gilbert_elliott": dict(GILBERT_ELLIOTT)}


def with_recv_links(d):
    d["modems"][1]["recv_links"] = [{"pair": [0, 1], "link": [0, 1]}]


IDENTITY_OF_BOOLS = [[True, False], [False, True]]


def with_a_bool_matrix(d):
    d["medium"]["links"][0] = {"src": 0, "dst": 1, "matrix": [[True, 0.0], [0.0, True]]}


def with_a_ternary_link(d):
    # user 1 would hear three letters of a binary pair
    d["medium"]["links"][0] = {"src": 0, "dst": 1, "matrix": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]]}


def with_bool_coupling_matrices(d):
    d["medium"]["links"][0] = {"src": 0, "dst": 1, "watch": 1,
                               "matrices": [IDENTITY_OF_BOOLS] * 2}


def with_a_markov_rule(transition, emission):
    def edit(d):
        d["medium"]["links"][0] = {"src": 0, "dst": 1, "transition": transition,
                                   "emission": emission}

    return edit


def without_psi(d):
    # single_bsc's target has n' = 0.75 n, where psi has no default
    del d["targets"][0]["psi"]


def section_at(d, path: str):
    """The entry at a dotted path whose numeric parts index lists."""
    for name in path.split("."):
        d = d[int(name)] if isinstance(d, list) else d[name]
    return d


def with_a_key_in(path, key="colour", value="red"):
    def edit(d):
        section_at(d, path)[key] = value

    return edit


def with_the_first_entry_twice(path):
    def edit(d):
        entries = section_at(d, path)
        entries.append(copy.deepcopy(entries[0]))

    return edit


def then(*edits):
    def edit(d):
        for one in edits:
            one(d)

    return edit


def with_value(key, value):
    def edit(d):
        *path, last = key.split(".")
        section = d
        for name in path:
            section = section.setdefault(name, {})
        section[last] = value

    return edit


def on_relay_chain(edit):
    """``edit`` made to relay_chain in place of single_bsc."""
    def edit_relay_chain(d):
        d.clear()
        d.update(yaml.safe_load(RELAY_CHAIN.read_text()))
        edit(d)

    return edit_relay_chain


@on_relay_chain
def receiving_a_pair_without_source(d):
    # link (1, 2) exists, but pair (1, 2) has no source
    d["modems"][2]["recv"].append([1, 2])


@on_relay_chain
def with_a_relay_that_sends_nothing(d):
    # user 2 hears pair (0, 2) on link (1, 2), and user 1 carries no pair
    d["modems"][1] = {"user": 1, "kind": "passthrough"}


@on_relay_chain
def with_a_loop_of_relays(d):
    # users 1 and 2 relay each other, so nothing ever enters the loop
    d["medium"]["links"].append({"src": 2, "dst": 1, "flip": 0.05})
    d["modems"][1:] = [{"user": 1, "kind": "relay", "in_link": [2, 1]},
                       {"user": 2, "kind": "relay", "in_link": [1, 2]}]


def with_a_deaf_receiver(d):
    del d["modems"][1]["recv"]


BAD_CONFIGS = {
    "D_prime": without_d_prime,
    "modems": without_a_modem,
    "modems (a receiver hears more letters than its pair has)": with_a_ternary_link,
    "modems (a receiver lists a pair with no source)": receiving_a_pair_without_source,
    "modems (a receiver hears a sender that does not carry its pair)":
        with_a_relay_that_sends_nothing,
    "modems (a loop of relays)": with_a_loop_of_relays,
    "medium": with_flip_above_one,
    "decode_rule": with_misspelled_rule,
    "trials": with_value("trials", 50),
    "separate_trials": with_value("separate_trials", 500),
    "recheck_trials": with_value("recheck_trials", 999),
    "noninterference.trials_blocks": with_value("noninterference.trials_blocks", 10),
    "noninterference.repetitions": with_value("noninterference.repetitions", 0),
    "users": with_users_as_a_word,
    "targets.pair": with_a_target_without_pair,
    "targets.pair (a pair nobody reproduces)": with_a_deaf_receiver,
    # the system works out each pair's latency, and separate tests every
    # reproduced pair that it did not separate: neither is a key any more
    "latency": with_value("latency", [{"src": 0, "dst": 1, "steps": 3}]),
    "noninterference.untouched": with_value("noninterference.untouched", []),
    "noninterference.untouched (a target)": with_value("noninterference.untouched", [[0, 1]]),
    "targets": with_the_target_twice,
    "block_length": with_block_length_as_a_word,
    "block_length (zero)": with_value("block_length", 0),
    "seed": with_value("seed", "x"),
    "warmup": with_value("warmup", "x"),
    "horizon": with_value("horizon", "x"),
    "pair_of_interest": with_value("pair_of_interest", [5, 6]),
    "sources": with_the_source_twice,
    "rd.source": with_value("rd.source", [0.5, 0.6]),
    "rd.grid": with_value("rd.grid", ["a"]),
    # n' is n_prime_ratio * n at every block length; n and n' are not keys
    "targets.n": with_a_key_in("targets.0", "n", 64),
    "targets.n_prime": with_a_key_in("targets.0", "n_prime", 48),
    # n' > n would carry one source block in two channel windows
    "targets.n_prime_ratio (above one)": with_a_key_in("targets.0", "n_prime_ratio", 1.5),
    "targets.n_prime_ratio (zero)": with_a_key_in("targets.0", "n_prime_ratio", 0),
    "separate_trial": with_value("separate_trial", 5),
    "recheck": with_value("recheck", False),
    "default_level": with_value("default_level", 0.1),
    "targets.Dprime": with_a_misspelled_target_key,
    "rd.tolerance": with_value("rd.tolerance", 1e-9),
    "noninterference.trial_blocks": with_value("noninterference.trial_blocks", 3000),
    "medium.links (twice)": with_a_link_twice,
    "medium.links (flip and matrix)": with_a_key_in("medium.links.0", "matrix", [[0, 1], [1, 0]]),
    "medium.links (flips and matrices)": then(
        with_a_coupled_medium,
        with_a_key_in("medium.links.0", "matrices", [[[1, 0], [0, 1]]] * 2)),
    "medium.links (gilbert_elliott and transition)": then(
        with_a_markov_medium, with_a_key_in("medium.links.0", "transition", [[1.0]])),
    "medium.links (watch without flips or matrices)": with_a_key_in("medium.links.0", "watch", 1),
    "medium (flips without watch)": with_value("medium.links", [
        {"src": 0, "dst": 1, "flips": [0.08, 0.14]}]),
    # a coupled link given twice: once by a flip, once by the user it watches
    "medium.links (a coupled link twice)": with_value("medium.links", [
        {"src": 0, "dst": 1, "flip": 0.11}, dict(COUPLING)]),
    "modems.recv_links (twice)": then(with_recv_links,
                                      with_the_first_entry_twice("modems.1.recv_links")),
    "medium.colour": with_a_key_in("medium"),
    "medium.links.colour": with_a_key_in("medium.links.0"),
    "medium.links.flp": with_a_key_in("medium.links.0", "flp", 0.2),
    "medium.coupling (on a dmc)": with_value("medium.coupling", [COUPLING]),
    "medium.links.gilbert_elliott.colour": then(
        with_a_markov_medium, with_a_key_in("medium.links.0.gilbert_elliott")),
    "modems.colour": with_a_key_in("modems.0"),
    "modems.recv_links.colour": then(with_recv_links, with_a_key_in("modems.1.recv_links.0")),
    "sources.colour": with_a_key_in("sources.0"),
    "targets.block_lengths": with_no_block_lengths,
    "warmup (negative)": with_value("warmup", -20),
    "targets.D (negative)": with_a_key_in("targets.0", "D", -0.1),
    "targets.D_prime (negative)": with_a_key_in("targets.0", "D_prime", -0.2),
    "targets.D (below the metric's floor)": then(
        with_a_key_in("targets.0", "metric", [[0.1, 1.0], [1.0, 0.1]]),
        with_a_key_in("targets.0", "D", 0.05)),
    "targets.psi (negative)": with_a_key_in("targets.0", "psi", -0.1),
    "targets.psi (zero)": with_a_key_in("targets.0", "psi", 0),
    "targets.alpha (negative)": with_a_key_in("targets.0", "alpha", -0.5),
    "targets.psi (missing where n' differs from n)": without_psi,
    "rd.tol": with_value("rd.tol", -1),
    "medium.states": then(with_a_markov_medium, with_a_key_in("medium", "states", 2)),
    # integer keys take integral numbers only: int() would truncate these
    "block_length (fractional)": with_value("block_length", 1000.5),
    "users (fractional)": with_value("users", 2.7),
    "seed (a bool)": with_value("seed", True),
    "targets.block_lengths (fractional)": with_a_key_in("targets.0", "block_lengths", [32.9]),
    "sources (fractional src)": with_a_key_in("sources.0", "src", 0.6),
    "modems (fractional user)": with_a_key_in("modems.1", "user", 1.5),
    "medium (fractional watch)": then(with_a_coupled_medium,
                                      with_a_key_in("medium.links.0", "watch", 1.5)),
    "medium (a bool initial state)": then(
        with_a_markov_medium, with_a_key_in("medium.links.0.gilbert_elliott", "initial", True)),
    # float keys take numbers only: float() reads true as 1.0 and false as 0.0
    "targets.D (a bool)": with_a_key_in("targets.0", "D", True),
    "targets.D_prime (a bool)": with_a_key_in("targets.0", "D_prime", True),
    "targets.psi (a bool)": with_a_key_in("targets.0", "psi", True),
    "targets.alpha (a bool)": with_a_key_in("targets.0", "alpha", True),
    "targets.n_prime_ratio (a bool)": with_a_key_in("targets.0", "n_prime_ratio", True),
    "rd.grid (a bool level)": with_value("rd.grid", [0.1, True]),
    "rd.tol (a bool)": with_value("rd.tol", True),
    "medium (a bool flip)": with_a_key_in("medium.links.0", "flip", False),
    "medium (a bool coupling flip)": then(
        with_a_coupled_medium, with_a_key_in("medium.links.0", "flips", [0.08, False])),
    **{f"medium (a bool {key})": then(
        with_a_markov_medium, with_a_key_in("medium.links.0.gilbert_elliott", key, False))
       for key in GILBERT_ELLIOTT},
    # array keys take numbers only: np.asarray reads true as 1.0, even among floats
    "medium (a bool matrix)": with_a_bool_matrix,
    "medium (bool coupling matrices)": with_bool_coupling_matrices,
    "medium (a bool transition)": with_a_markov_rule(IDENTITY_OF_BOOLS,
                                                     [[[0.9, 0.1], [0.1, 0.9]]] * 2),
    "medium (a bool emission)": with_a_markov_rule([[0.9, 0.1], [0.1, 0.9]],
                                                   [IDENTITY_OF_BOOLS] * 2),
    "sources (bool probs)": with_a_key_in("sources.0", "probs", [True, False]),
    "rd.source (a bool)": with_value("rd.source", [True, False]),
    "targets.metric (a bool)": with_a_key_in("targets.0", "metric", [[False, True], [True, False]]),
}


def named_key(case: str) -> str:
    """The key a BAD_CONFIGS case's error must name: the case id up to any
    parenthesised note."""
    return case.split(" (")[0]


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
    assert all(run.wall_clock_s > 0 for run in runs)
    assert payload_json(runs[0]) == payload_json(runs[1])
    blob = payload_json(runs[0]).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == SEPARATE_SINGLE_BSC_N32


def test_wall_clock_survives_the_system_clock_stepping_back(tmp_path, monkeypatch):
    # every reading of the system clock an hour before the last one
    readings = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(harness.time, "time", lambda: float(next(readings)))
    config = ExperimentConfig.load(SINGLE_BSC)
    records = [cmd_rd(config, tmp_path), cmd_baseline(config, tmp_path, trials=1000)]
    assert all(record.wall_clock_s >= 0 for record in records)


def test_commands_read_only_the_parsed_config(tmp_path):
    data = single_bsc_data()
    data["targets"][0]["block_lengths"] = [32]
    payloads = {}
    for side in ("kept", "cleared"):
        config = ExperimentConfig.from_dict(copy.deepcopy(data))
        if side == "cleared":
            config.data.clear()
        out = tmp_path / side
        payloads[side] = [
            payload_json(cmd_rd(config, out)),
            payload_json(cmd_baseline(config, out, trials=1000)),
            payload_json(cmd_separate(config, out, trials=1000)),
        ]
    assert payloads["cleared"] == payloads["kept"]
    blob = payloads["cleared"][2].encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == SEPARATE_SINGLE_BSC_N32


def test_negative_control_is_pinned():
    # the wrong-law control at the config seed, as cmd_verify seeds it:
    # refactoring how the control builds its sender must not move it
    config = ExperimentConfig.load(TWO_PAIR)
    result = harness._suite_negative_control(
        config, RandomnessHandle(config.seed).derive("s5"))
    assert result["ok"] and result["expected_fail"]
    assert result["detail"] == "wrong-pmf control min joint p = 2.86e-47 (want < 1e-4)"


def test_separate_without_targets_fails_naming_the_key(tmp_path, capsys):
    # with nothing to separate, separate fails validation (exit 1) and
    # writes no record, where it used to write an empty run list
    data = single_bsc_data()
    del data["targets"]
    config = ExperimentConfig.from_dict(data)
    with pytest.raises(ConfigError, match="targets"):
        cmd_separate(config, tmp_path / "direct")
    path = tmp_path / "no-targets.yaml"
    path.write_text(yaml.safe_dump(data))
    code = run_cli("separate", "--config", path, "--out", tmp_path / "out")
    assert code == cli.EXIT_VALIDATION
    assert "targets" in capsys.readouterr().err
    assert not (tmp_path / "direct").exists() and not (tmp_path / "out").exists()
    # rd reads no target, so it still runs
    assert run_cli("rd", "--config", path, "--out", tmp_path / "out") == cli.EXIT_OK


def test_baseline_without_targets_fails_naming_the_key(tmp_path, capsys):
    # baseline measures the targets' pairs and no other: with none it fails
    # validation (exit 1) and writes no record
    data = single_bsc_data()
    del data["targets"]
    with pytest.raises(ConfigError, match="targets"):
        cmd_baseline(ExperimentConfig.from_dict(data), tmp_path / "direct", trials=1000)
    path = tmp_path / "no-targets.yaml"
    path.write_text(yaml.safe_dump(data))
    code = run_cli("baseline", "--config", path, "--out", tmp_path / "out", "--trials", 1000)
    assert code == cli.EXIT_VALIDATION
    assert "targets" in capsys.readouterr().err
    assert not (tmp_path / "direct").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", BAD_CONFIGS)
def test_bad_config_fails_validation_naming_the_key(key):
    with pytest.raises(ConfigError, match=named_key(key)):
        ExperimentConfig.from_dict(bad_config(key))


# one binary symmetric channel of flip 0.11 in each form of a medium.links entry
BSC_011 = [[0.89, 0.11], [0.11, 0.89]]
ONE_CHANNEL_FORMS = {
    "flip": {"flip": 0.11},
    "matrix": {"matrix": BSC_011},
    "flips": {"watch": 1, "flips": [0.11, 0.11]},
    "matrices": {"watch": 1, "matrices": [BSC_011, BSC_011]},
    "gilbert_elliott": {"gilbert_elliott": {**GILBERT_ELLIOTT, "flip_good": 0.11,
                                            "flip_bad": 0.11}},
    "transition": {"transition": [[1.0]], "emission": [BSC_011]},
}


@pytest.mark.parametrize("form", ONE_CHANNEL_FORMS)
def test_every_link_form_of_one_channel_draws_alike(form):
    # a link's outputs come from its own streams, whatever form gives it
    data = single_bsc_data()
    data["medium"]["links"][0] = {"src": 0, "dst": 1, **ONE_CHANNEL_FORMS[form]}
    systems = [ExperimentConfig.from_dict(d).system for d in (single_bsc_data(), data)]
    plain, other = (rollout(s, RandomnessHandle(7), lanes=3, horizon=300) for s in systems)
    assert np.array_equal(other.repro[(0, 1)], plain.repro[(0, 1)])


def test_noninterference_covers_every_reproduced_pair_not_a_target(tmp_path):
    # separate tests every reproduced pair it did not separate, here none;
    # the negative control tests every reproduced pair but its own target,
    # the first, so it still tests (2, 3), a target it leaves plain
    data = yaml.safe_load(TWO_PAIR.read_text())
    data["targets"].append({"pair": [2, 3], "D": 0.2, "D_prime": 0.3, "block_lengths": [32],
                            "decode_rule": "argmin", "psi": 0.1, "alpha": 0.05})
    config = ExperimentConfig.from_dict(data)
    (run,) = cmd_separate(config, tmp_path, trials=1000).payload["runs"]
    assert list(run["pairs"]) == ["[0, 1]", "[2, 3]"] and "noninterference" not in run
    control = harness._suite_negative_control(
        config, RandomnessHandle(config.seed).derive("s5"))
    assert control["ok"] and control["expected_fail"]


def test_relay_must_take_what_it_hears():
    # a ternary first hop into a relay whose own link is binary
    data = yaml.safe_load(RELAY_CHAIN.read_text())
    data["medium"]["links"][0] = {"src": 0, "dst": 1,
                                  "matrix": [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]}
    with pytest.raises(ConfigError, match="relay 1"):
        ExperimentConfig.from_dict(data)


def test_targets_must_share_block_lengths():
    # separate would run the second target at the first one's block lengths
    data = yaml.safe_load(TWO_PAIR.read_text())
    second = {"pair": [2, 3], "metric": "hamming", "D": 0.2, "D_prime": 0.3,
              "block_lengths": [32], "decode_rule": "argmin"}
    data["targets"].append(second)
    ExperimentConfig.from_dict(data)
    second["block_lengths"] = [48]
    with pytest.raises(ConfigError, match="targets"):
        ExperimentConfig.from_dict(data)


def test_an_infeasible_pair_leaves_the_others_separated(tmp_path):
    # with the default slack, (2, 3) has no feasible plan at n = 32; it is
    # recorded under its own key, and (0, 1) is still separated and measured
    data = yaml.safe_load(TWO_PAIR.read_text())
    data["targets"].append({"pair": [2, 3], "metric": "hamming", "D": 0.125, "D_prime": 0.2,
                            "block_lengths": [32]})
    record = cmd_separate(ExperimentConfig.from_dict(data), tmp_path, trials=1000)
    (run,) = record.payload["runs"]
    assert list(run["infeasible"]) == ["[2, 3]"]
    assert list(run["pairs"]) == ["[0, 1]"]
    (step,) = run["steps"]
    assert step["pair"] == [0, 1] and step["rechecks"]["[2, 3]"]["ok"]
    # (2, 3) stays plain, so the noninterference test covers it
    assert list(run["noninterference"]) == ["[2, 3]"]


def test_zero_trials_is_not_the_config_default(tmp_path):
    config = ExperimentConfig.load(SINGLE_BSC)
    with pytest.raises(ValueError, match="1000"):
        cmd_baseline(config, tmp_path, trials=0)


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def test_exit_ok(tmp_path):
    assert run_cli("rd", "--config", SINGLE_BSC, "--out", tmp_path) == cli.EXIT_OK


def test_rd_reports_an_infeasible_level_and_goes_on(tmp_path):
    # a level below the metric's d_min (0 under Hamming) has no R(D): its
    # row is NaN with a note, and the feasible levels are solved as ever
    data = single_bsc_data()
    shipped = cmd_rd(ExperimentConfig.from_dict(single_bsc_data()), tmp_path / "shipped")
    data["rd"]["grid"] = [-0.05, *data["rd"]["grid"]]
    path = tmp_path / "infeasible-level.yaml"
    path.write_text(yaml.safe_dump(data))
    assert run_cli("rd", "--config", path, "--out", tmp_path / "out") == cli.EXIT_OK
    (saved,) = (tmp_path / "out").glob("*/record.json")
    payload = json.loads(saved.read_text())["payload"]
    (first, *rest), notes = payload["rows"], payload["notes"]
    assert first[0] == -0.05 and np.isnan(first[1:3]).all() and first[3:] == [0, False]
    assert len(notes) == 1 and "-0.05" in notes[0]
    assert rest == json.loads(shipped.to_json())["payload"]["rows"]


@pytest.mark.parametrize("key", BAD_CONFIGS)
def test_exit_validation_on_bad_config(key, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad_config(key)))
    code = run_cli("baseline", "--config", path, "--out", tmp_path / "out")
    assert code == cli.EXIT_VALIDATION


def test_exit_validation_names_a_received_pair_without_source(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad_config("modems (a receiver lists a pair with no source)")))
    code = run_cli("baseline", "--config", path, "--out", tmp_path / "out")
    assert code == cli.EXIT_VALIDATION
    assert "receives pair (1,2), which has no source" in capsys.readouterr().err


def test_exit_validation_on_missing_file(tmp_path):
    code = run_cli("rd", "--config", tmp_path / "missing.yaml", "--out", tmp_path)
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("command", ["rd", "verify"])
def test_trials_rejected_where_it_does_not_apply(command, tmp_path, capsys):
    code = run_cli(command, "--config", SINGLE_BSC, "--out", tmp_path, "--trials", 5)
    assert code == cli.EXIT_VALIDATION
    assert "--trials" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("trials", [0, 500])
def test_exit_validation_on_too_few_trials(trials, tmp_path, capsys):
    code = run_cli("separate", "--config", SINGLE_BSC, "--out", tmp_path, "--trials", trials)
    assert code == cli.EXIT_VALIDATION
    assert "--trials" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_exit_runtime_when_a_command_raises(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli, "cmd_baseline", crash)
    code = run_cli("baseline", "--config", SINGLE_BSC, "--out", tmp_path)
    assert code == cli.EXIT_RUNTIME


def test_exit_acceptance_when_a_suite_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_suite_negative_control",
                        lambda *args: {"ok": False, "detail": "forced"})
    code = run_cli("verify", "--config", SINGLE_BSC, "--out", tmp_path)
    assert code == cli.EXIT_ACCEPTANCE


def test_exit_acceptance_when_no_block_length_is_feasible(tmp_path):
    # alpha = 5 leaves no channel rate at n = 32; the record is still written
    data = single_bsc_data()
    data["targets"][0].update(alpha=5, block_lengths=[32])
    path = tmp_path / "infeasible.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    code = run_cli("separate", "--config", path, "--out", out, "--trials", 1000)
    assert code == cli.EXIT_ACCEPTANCE
    (record,) = out.glob("*/record.json")
    (run,) = json.loads(record.read_text())["payload"]["runs"]
    assert run["infeasible"] and not run["pairs"]


def test_overwrite_reuses_the_first_id(tmp_path, capsys):
    def record_id(*extra) -> str:
        assert run_cli("rd", "--config", SINGLE_BSC, "--out", tmp_path, *extra) == 0
        return capsys.readouterr().out.split("record: ")[1].split()[0]

    first = record_id()
    assert first.endswith("-000")
    assert record_id() == first.replace("-000", "-001")
    assert record_id("--overwrite") == first
    assert sorted(p.name for p in tmp_path.iterdir()) == [first, first.replace("-000", "-001")]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_configs_parse_alike_under_both_yaml_loaders(path, monkeypatch):
    # configs load with libyaml's loader where pyyaml has it; the
    # pure-Python loader must give the same dict and the same digest
    assert harness._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    loaded = {}
    for loader in {yaml.SafeLoader, harness._YAML_LOADER}:
        assert yaml.load(path.read_text(), Loader=loader) == yaml.safe_load(path.read_text())
        monkeypatch.setattr(harness, "_YAML_LOADER", loader)
        loaded[loader] = ExperimentConfig.load(path).digest
    assert len(set(loaded.values())) == 1
