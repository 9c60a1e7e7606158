"""Golden digests: every array of a rollout, pinned bit for bit.

Each shipped config, two small non-binary systems, a relay chain with a
coupled bypass link, and single_bsc with its pair separated at n = 32 (both
decode rules) are rolled out at a few lanes and a short horizon; the
sha256 of every array the trajectory holds, and of the medium inputs and
link outputs the rollout makes (read through ``conftest.recorded_rollout``),
must match the value recorded here. A change that consumes a random stream
differently fails this file and has to be declared as a golden break.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from conftest import bsc, recorded_rollout

from sepnet.harness import ExperimentConfig
from sepnet.netmodel import (
    ForwardRelayModem,
    MarkovLinkRule,
    MediumKernel,
    NetworkSystem,
    PassthroughModem,
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


def trajectory_digests(traj, medium_inputs, link_outputs) -> dict:
    """Digests of a ``recorded_rollout``'s arrays."""
    out = {"medium_inputs": digest(medium_inputs)}
    streams = {"sources": traj.sources, "link_outputs": link_outputs, "repro": traj.repro}
    for name, arrays in streams.items():
        for key, arr in sorted(arrays.items()):
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
    rule = MarkovLinkRule(trans, np.stack([np.eye(3), mat, mat[::-1]]), initial_state=2)
    media = {
        "ternary_dmc": MediumKernel(2, {(0, 1): (mat, (), None)}),
        "ternary_markov": MediumKernel(2, {(0, 1): (rule.emission, (), rule)}),
    }
    return {
        name: NetworkSystem(
            medium=medium,
            modems=(PassthroughModem(0, send_pair=(0, 1)),
                    PassthroughModem(1, recv_pairs=[(0, 1)])),
            sources={(0, 1): Pmf.from_probs([0.5, 0.3, 0.2])},
            block_length=10,
            latency_map={(0, 1): 3},
        )
        for name, medium in media.items()
    }


def coupled_relay_system():
    """Relay chain 0 -> 1 -> 2 plus a direct link (0, 2) whose matrix is
    picked by the relay's last input: a link that must wait for a user
    with an incoming link of its own."""
    medium = MediumKernel(3, {
        (0, 1): (bsc(0.05), (), None),
        (1, 2): (bsc(0.05), (), None),
        (0, 2): (np.stack([bsc(0.02), bsc(0.3)]), (1,), None),
    })
    return NetworkSystem(
        medium=medium,
        modems=(PassthroughModem(0, send_pair=(0, 2)),
                ForwardRelayModem(1, in_link=(0, 1)),
                PassthroughModem(2, recv_pairs=[(0, 2)])),
        sources={(0, 2): Pmf.from_probs([0.6, 0.4])},
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
        "link_outputs[0, 1]": "d4f014490ebda142",
        "link_outputs[0, 2]": "243b0003b57a68fa",
        "link_outputs[1, 2]": "c553f286af9db9a4",
        "medium_inputs": "d3513cbacec054d3",
        "repro[0, 2]": "49f658f290280100",
        "sources[0, 2]": "4017906f5b55a399",
    },
    "gilbert_elliott": {
        "link_outputs[0, 1]": "035beca1d3df95cb",
        "medium_inputs": "eaa85c8b33590e18",
        "repro[0, 1]": "b7278f46881adf62",
        "sources[0, 1]": "39b92a01a86be51e",
    },
    "relay_chain": {
        "link_outputs[0, 1]": "461bf7e124441fa0",
        "link_outputs[1, 2]": "3b57ad557b3acadf",
        "medium_inputs": "beb4dae350fd050f",
        "repro[0, 2]": "b8c9f0c2358da395",
        "sources[0, 2]": "141740570f4a1443",
    },
    "separated_argmin": {
        "link_outputs[0, 1]": "a83e239735a802fb",
        "medium_inputs": "c230e713a10bca21",
        "recv1.codes": "d73bfbb8a3480961",
        "recv1.decode_tau": "d168091e4dbc5fbd",
        "recv1.window": "84ca4f50986f8594",
        "repro[0, 1]": "0c4145b5132e220e",
        "send0.emit_start": "818bda681420677c",
        "send0.messages": "d73bfbb8a3480961",
        "send0.roundtrip_avg": "c07c18aefeaacfbd",
        "send0.sim_stream": "2fc00cde3555e272",
        "send0.src_start": "ea7d438b9a520612",
        "send0.window": "84ca4f50986f8594",
        "sources[0, 1]": "dcefa88d260ea237",
    },
    "separated_within_d": {
        "link_outputs[0, 1]": "6d1ee60969caf5f5",
        "medium_inputs": "d264601ab0ebc147",
        "recv1.codes": "2e8ff57788e91665",
        "recv1.decode_tau": "d168091e4dbc5fbd",
        "recv1.window": "84ca4f50986f8594",
        "repro[0, 1]": "c9f4443689446588",
        "send0.emit_start": "818bda681420677c",
        "send0.messages": "7e7c778c7598b3c9",
        "send0.roundtrip_avg": "b2e10198716b5a3c",
        "send0.sim_stream": "4c979fcfbf086e5f",
        "send0.src_start": "ea7d438b9a520612",
        "send0.window": "84ca4f50986f8594",
        "sources[0, 1]": "1c89df5a4ba77b3b",
    },
    "single_bsc": {
        "link_outputs[0, 1]": "afc0913ca505733e",
        "medium_inputs": "691445277e1cd4fb",
        "repro[0, 1]": "737e9cc0a47248ce",
        "sources[0, 1]": "0bd59f09a0211b08",
    },
    "ternary_dmc": {
        "link_outputs[0, 1]": "28e83a4188b6aa75",
        "medium_inputs": "3baf9614418e7b84",
        "repro[0, 1]": "03cd7ecf25d8fb94",
        "sources[0, 1]": "4a74a8b0a5886a9f",
    },
    "ternary_markov": {
        "link_outputs[0, 1]": "f6341ef18c3ebc77",
        "medium_inputs": "92aaf4f20268243e",
        "repro[0, 1]": "3289c08fae319cb4",
        "sources[0, 1]": "1e703fbbd60534b6",
    },
    "two_pair_interference": {
        "link_outputs[0, 1]": "ebd6e242575453b1",
        "link_outputs[2, 3]": "1e19549ad293c59a",
        "medium_inputs": "dbd682b14f7c6556",
        "repro[0, 1]": "9509b645e9a48bc8",
        "repro[2, 3]": "d108665f9036580c",
        "sources[0, 1]": "853d2cc69bdf7fac",
        "sources[2, 3]": "c03ff7a0b090a2ac",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rollout_arrays_match_golden_digests(name):
    system = golden_system(name)
    recorded = recorded_rollout(system, RandomnessHandle(20240801).derive("golden", name),
                                lanes=LANES, horizon=HORIZON)
    assert trajectory_digests(*recorded) == GOLDEN[name]
