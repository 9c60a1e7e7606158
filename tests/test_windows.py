"""The rollout engine steps windows of steps; the result must not depend on
the window. One step per window is the reference: every component then
reads only values from earlier windows. A system whose user/link graph has
a cycle must fall back to it."""

import numpy as np
import pytest

from conftest import bsc
from test_golden import golden_system, trajectory_digests

from sepnet import netmodel
from sepnet.netmodel import (
    DmcMedium,
    ForwardRelayModem,
    NetworkSystem,
    PassthroughModem,
    _rollout,
    _schedule,
    rollout,
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


def run(system, lanes, horizon, window=None):
    return trajectory_digests(
        _rollout(system, RandomnessHandle(11).derive("windows"), lanes, horizon, None,
                 window=window)
    )


@pytest.mark.parametrize("name", SYSTEMS)
def test_window_does_not_change_the_rollout(name):
    system = golden_system(name)
    assert _schedule(system) is not None
    one = run(system, 3, 300, window=1)
    assert run(system, 3, 300, window=7) == one
    assert run(system, 3, 300, window=300) == one
    assert run(system, 3, 300) == one


@pytest.mark.parametrize("name", ["single_bsc", "separated_argmin"])
def test_wide_rollout_is_cut_into_windows(name):
    # at this many lanes the default window is 64 steps, so 300 steps take five
    lanes = netmodel.WINDOW_LANE_STEPS // 64
    system = golden_system(name)
    assert run(system, lanes, 300) == run(system, lanes, 300, window=1)


def echo_system(flip):
    """User 1 relays what it hears on (0, 1) back over (1, 0), where user 0
    listens: a cycle 0 -> (0, 1) -> 1 -> (1, 0) -> 0 that data travels
    around, five steps from x[t] to the echo."""
    return NetworkSystem(
        medium=DmcMedium(2, {(0, 1): bsc(flip), (1, 0): bsc(flip)}),
        modems=(PassthroughModem(0, send_pair=(0, 1), recv_pairs=[(1, 0)]),
                ForwardRelayModem(1, in_link=(0, 1))),
        sources={(0, 1): Pmf.from_probs([0.5, 0.5]), (1, 0): Pmf.from_probs([0.5, 0.5])},
        pair_of_interest=(0, 1),
        horizon=200,
        block_length=10,
        latency_map={(0, 1): 3, (1, 0): 5},
    )


def test_cycle_falls_back_to_one_step_windows():
    system = echo_system(0.0)
    assert _schedule(system) is None
    traj = rollout(system, RandomnessHandle(3), lanes=4, horizon=200)
    assert traj.repro[(1, 0)][5:].any()
    assert np.array_equal(traj.repro[(1, 0)][5:], traj.sources[(0, 1)][:-5])


def test_cycle_rollout_ignores_a_requested_window():
    system = echo_system(0.11)
    assert run(system, 4, 200, window=50) == run(system, 4, 200, window=1)
