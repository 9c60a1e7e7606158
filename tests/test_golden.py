"""Golden digests: every array of a rollout, pinned bit for bit.

Each shipped config, two small non-binary systems, a relay chain with a
coupled bypass link, and single_bsc with its pair separated at n = 32 (both
decode rules) are rolled out at a few lanes and a short horizon; the
sha256 of every array the trajectory holds must match the value recorded
here. A change that consumes a random stream
differently fails this file and has to be declared as a golden break.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from conftest import bsc

from sepnet.harness import ExperimentConfig
from sepnet.netmodel import (
    CoupledDmcMedium,
    DmcMedium,
    ForwardRelayModem,
    MarkovLinkRule,
    MarkovMedium,
    NetworkSystem,
    PassthroughModem,
    rollout,
)
from sepnet.probcore import Pmf, RandomnessHandle
from sepnet.separation import GuaranteeReport, apply_separation, plan_separation

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
LANES, HORIZON = 3, 300


def digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def trajectory_digests(traj) -> dict:
    out = {"medium_inputs": digest(traj.medium_inputs)}
    for name in ("sources", "link_outputs", "repro"):
        for key, arr in sorted(getattr(traj, name).items()):
            out[f"{name}{list(key)}"] = digest(arr)
    for user, tel in sorted(traj.telemetry.items()):
        if "sep_send" in tel:
            send = tel["sep_send"]
            out[f"send{user}.sim_stream"] = digest(send["sim_stream"])
            for field in ("window", "src_start", "emit_start", "messages", "roundtrip_avg"):
                out[f"send{user}.{field}"] = digest(
                    np.stack([np.asarray(w[field]) for w in send["windows"]])
                )
        if "sep_recv" in tel:
            for field in ("window", "decode_tau", "codes"):
                out[f"recv{user}.{field}"] = digest(
                    np.stack([np.asarray(w[field]) for w in tel["sep_recv"]["windows"]])
                )
    return out


def config_system(stem):
    config = ExperimentConfig.load(CONFIG_DIR / f"{stem}.yaml")
    return config, config.build_system()


def ternary_systems() -> dict:
    """A ternary DMC and a three-state Markov link with ternary emission:
    the sampler's multi-column path, which no shipped config reaches."""
    mat = np.array([[0.7, 0.2, 0.1], [0.15, 0.6, 0.25], [0.05, 0.3, 0.65]])
    trans = np.array([[0.8, 0.15, 0.05], [0.2, 0.7, 0.1], [0.1, 0.3, 0.6]])
    emission = np.stack([np.eye(3), mat, mat[::-1]])
    media = {
        "ternary_dmc": DmcMedium(2, {(0, 1): mat}),
        "ternary_markov": MarkovMedium(
            2, {(0, 1): MarkovLinkRule(trans, emission, initial_state=2)}
        ),
    }
    return {
        name: NetworkSystem(
            medium=medium,
            modems=(PassthroughModem(0, send_pair=(0, 1)),
                    PassthroughModem(1, recv_pairs=[(0, 1)])),
            sources={(0, 1): Pmf.from_probs([0.5, 0.3, 0.2])},
            pair_of_interest=(0, 1),
            block_length=10,
            latency_map={(0, 1): 3},
        )
        for name, medium in media.items()
    }


def coupled_relay_system():
    """Relay chain 0 -> 1 -> 2 plus a direct link (0, 2) whose matrix is
    picked by the relay's last input: a link that must wait for a user
    with an incoming link of its own."""
    medium = CoupledDmcMedium(
        3,
        {(0, 1): bsc(0.05), (1, 2): bsc(0.05), (0, 2): bsc(0.2)},
        {(0, 2): (1, np.stack([bsc(0.02), bsc(0.3)]))},
    )
    return NetworkSystem(
        medium=medium,
        modems=(PassthroughModem(0, send_pair=(0, 2)),
                ForwardRelayModem(1, in_link=(0, 1)),
                PassthroughModem(2, recv_pairs=[(0, 2)])),
        sources={(0, 2): Pmf.from_probs([0.6, 0.4])},
        pair_of_interest=(0, 2),
        block_length=10,
        latency_map={(0, 2): 3},
    )


def separated_single_bsc(decode_rule):
    config, system = config_system("single_bsc")
    target = dataclasses.replace(config.targets[0], n=32, n_prime=24,
                                 decode_rule=decode_rule)
    guar = GuaranteeReport((0, 1), 0.125, 0.06, 0.01, 1000, 32, 60)
    root = RandomnessHandle(config.seed)
    plan = plan_separation(system, guar, target, root.derive("golden-common"))
    return apply_separation(system, plan)


def golden_system(name):
    if name.startswith("separated_"):
        return separated_single_bsc(name.removeprefix("separated_"))
    if name.startswith("ternary_"):
        return ternary_systems()[name]
    if name == "coupled_relay":
        return coupled_relay_system()
    return config_system(name)[1]


GOLDEN = {
    "coupled_relay": {
        "link_outputs[0, 1]": "d7970d1a4c440b12",
        "link_outputs[0, 2]": "59aa5382c38bbf7f",
        "link_outputs[1, 2]": "cbfddfd5ad7ae2a5",
        "medium_inputs": "6744d139b961dac2",
        "repro[0, 2]": "56b0e00ead5f2048",
        "sources[0, 2]": "4268f0af188d3bf9",
    },
    "gilbert_elliott": {
        "link_outputs[0, 1]": "cc464022c1fc2278",
        "medium_inputs": "8372a497721834d2",
        "repro[0, 1]": "c23b4fcba41fe5c9",
        "sources[0, 1]": "5c337e93a724084d",
    },
    "relay_chain": {
        "link_outputs[0, 1]": "fcee808d558d27fd",
        "link_outputs[1, 2]": "711b8508b83d3c3d",
        "medium_inputs": "7e04e88788871f8f",
        "repro[0, 2]": "f1d7d101e8afc64a",
        "sources[0, 2]": "860cda8e16713416",
    },
    "separated_argmin": {
        "link_outputs[0, 1]": "045420b0357c3ef4",
        "medium_inputs": "34b4c23c82d9fad9",
        "recv1.codes": "00052749cf3abb3a",
        "recv1.decode_tau": "d168091e4dbc5fbd",
        "recv1.window": "84ca4f50986f8594",
        "repro[0, 1]": "ed9c33266c38af7f",
        "send0.emit_start": "818bda681420677c",
        "send0.messages": "bcefe6f5eacfb800",
        "send0.roundtrip_avg": "53e505316e394f5c",
        "send0.sim_stream": "94e9e6a2e08deeee",
        "send0.src_start": "ea7d438b9a520612",
        "send0.window": "84ca4f50986f8594",
        "sources[0, 1]": "bd8d2451dbb4c0d3",
    },
    "separated_within_d": {
        "link_outputs[0, 1]": "eacaba0adc15f764",
        "medium_inputs": "728f52ae1afbe873",
        "recv1.codes": "4a93fa603b3aad82",
        "recv1.decode_tau": "d168091e4dbc5fbd",
        "recv1.window": "84ca4f50986f8594",
        "repro[0, 1]": "55b200485927a289",
        "send0.emit_start": "818bda681420677c",
        "send0.messages": "eb9ccde2cc62eb63",
        "send0.roundtrip_avg": "c921342f370bc963",
        "send0.sim_stream": "3c89fdd809d2d037",
        "send0.src_start": "ea7d438b9a520612",
        "send0.window": "84ca4f50986f8594",
        "sources[0, 1]": "ab957e39a5767918",
    },
    "single_bsc": {
        "link_outputs[0, 1]": "01cfb5bf8d2c413c",
        "medium_inputs": "f9ed626e62fb2d94",
        "repro[0, 1]": "9af263ad5869128f",
        "sources[0, 1]": "99e19aa5d01a1782",
    },
    "ternary_dmc": {
        "link_outputs[0, 1]": "e05451b6c245742d",
        "medium_inputs": "ffc91075415ae170",
        "repro[0, 1]": "a98b280c28af8faa",
        "sources[0, 1]": "290a84a3795adb0e",
    },
    "ternary_markov": {
        "link_outputs[0, 1]": "a00526a752888805",
        "medium_inputs": "4b75fe3f73ae51ed",
        "repro[0, 1]": "1d819f412ed1593a",
        "sources[0, 1]": "2c99c341391455f2",
    },
    "two_pair_interference": {
        "link_outputs[0, 1]": "9dc5eddb0962a8b3",
        "link_outputs[2, 3]": "534adc38d653a869",
        "medium_inputs": "1f399e08cecf82a7",
        "repro[0, 1]": "0a68dcce4c74c68a",
        "repro[2, 3]": "78f4dcf666ea66eb",
        "sources[0, 1]": "99f0fc99466afa5e",
        "sources[2, 3]": "0698730d05e2bc18",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rollout_arrays_match_golden_digests(name):
    system = golden_system(name)
    traj = rollout(system, RandomnessHandle(20240801).derive("golden", name),
                   lanes=LANES, horizon=HORIZON)
    assert trajectory_digests(traj) == GOLDEN[name]
