"""The rollout engine steps windows of steps; the result must not depend on
the window. One step per window is the reference: every component then
reads only values from earlier windows. A system whose user/link graph has
a cycle must fall back to it. A window is ``WINDOW_LANE_STEPS // lanes``
steps, so the tests pick one by setting ``WINDOW_LANE_STEPS``."""

import numpy as np
import pytest

from conftest import bsc, collected_rollout
from test_golden import golden_digests, golden_system

from sepnet import netmodel
from sepnet.netmodel import (
    ForwardRelayModem,
    MediumKernel,
    NetworkSystem,
    PassthroughModem,
    _schedule,
)
from sepnet.probcore import Pmf, RandomnessHandle

SYSTEMS = [
    "single_bsc",             # DMC
    "two_pair_interference",  # coupled DMC
    "coupled_relay",          # a coupled link that waits for the relay
    "gilbert_elliott",        # Markov
    "relay_chain",            # relay
    "ternary_dmc",
    "ternary_markov",
    "separated_argmin",       # both separation wrappers
    "separated_within_d",
]


@pytest.fixture
def run(monkeypatch):
    """Digests of a rollout whose windows are ``window_steps`` steps (default:
    the engine's own choice)."""
    default = netmodel.WINDOW_LANE_STEPS

    def run(system, lanes, horizon, window_steps=None):
        budget = default if window_steps is None else window_steps * lanes
        monkeypatch.setattr(netmodel, "WINDOW_LANE_STEPS", budget)
        return golden_digests(system, RandomnessHandle(11).derive("windows"), lanes, horizon)

    return run


@pytest.mark.parametrize("name", SYSTEMS)
def test_window_does_not_change_the_rollout(name, run):
    system = golden_system(name)
    assert _schedule(system) is not None
    # the medium reads 64 cells to a word: 65 and 130 lanes leave a partial one
    for lanes in (3, 65, 130):
        one = run(system, lanes, 300, window_steps=1)
        assert run(system, lanes, 300, window_steps=7) == one
        assert run(system, lanes, 300, window_steps=300) == one
        assert run(system, lanes, 300) == one


@pytest.mark.parametrize("name", ["single_bsc", "separated_argmin"])
def test_wide_rollout_is_cut_into_windows(name, run):
    # at this many lanes the default window is 64 steps, so 300 steps take five
    lanes = netmodel.WINDOW_LANE_STEPS // 64
    system = golden_system(name)
    assert run(system, lanes, 300) == run(system, lanes, 300, window_steps=1)


def echo_system(flip):
    """A cycle 0 -> (0, 1) -> relay 1 -> (1, 2) -> 2 -> (2, 0) -> 0 that
    data travels around: pair (0, 2) through the relay, five steps from
    x[t] to its reproduction, and pair (2, 0) back over (2, 0), three."""
    links = {link: (bsc(flip), (), None) for link in ((0, 1), (1, 2), (2, 0))}
    return NetworkSystem(
        medium=MediumKernel(3, links),
        modems=(PassthroughModem(0, send_pair=(0, 2), recv_pairs=[(2, 0)]),
                ForwardRelayModem(1, in_link=(0, 1)),
                PassthroughModem(2, send_pair=(2, 0), recv_pairs=[(0, 2)],
                                 recv_links={(0, 2): (1, 2)})),
        sources={(0, 2): Pmf.from_probs([0.5, 0.5]), (2, 0): Pmf.from_probs([0.5, 0.5])},
        block_length=10,
    )


def test_cycle_falls_back_to_one_step_windows():
    system = echo_system(0.0)
    assert _schedule(system) is None
    assert system.latency_map == {(0, 2): 5, (2, 0): 3}
    traj = collected_rollout(system, RandomnessHandle(3), lanes=4, horizon=200)
    for pair, lat in system.latency_map.items():
        assert traj.repro[pair][lat:].any()
        assert np.array_equal(traj.repro[pair][lat:], traj.sources[pair][:-lat])


def test_cycle_rollout_ignores_a_requested_window(run):
    system = echo_system(0.11)
    assert run(system, 4, 200, window_steps=50) == run(system, 4, 200, window_steps=1)
