"""The rollout engine steps windows of steps; the result must not depend on
the window. One step per window is the reference: every component then
reads only values from earlier windows. A system whose user/link graph has
a cycle must fall back to it. A window is ``WINDOW_LANE_STEPS // lanes``
steps, so the tests pick one by setting ``WINDOW_LANE_STEPS``."""

import numpy as np
import pytest

from conftest import bsc, recorded_rollout
from test_golden import golden_system, trajectory_digests

from sepnet import netmodel
from sepnet.netmodel import (
    ForwardRelayModem,
    MediumKernel,
    NetworkSystem,
    PassthroughModem,
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


@pytest.fixture
def run(monkeypatch):
    """Digests of a rollout whose windows are ``window_steps`` steps (default:
    the engine's own choice)."""
    default = netmodel.WINDOW_LANE_STEPS

    def run(system, lanes, horizon, window_steps=None):
        budget = default if window_steps is None else window_steps * lanes
        monkeypatch.setattr(netmodel, "WINDOW_LANE_STEPS", budget)
        return trajectory_digests(*recorded_rollout(
            system, RandomnessHandle(11).derive("windows"), lanes, horizon=horizon
        ))

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
    """User 1 relays what it hears on (0, 1) back over (1, 0), where user 0
    listens: a cycle 0 -> (0, 1) -> 1 -> (1, 0) -> 0 that data travels
    around, five steps from x[t] to the echo."""
    return NetworkSystem(
        medium=MediumKernel(2, {(0, 1): (bsc(flip), (), None), (1, 0): (bsc(flip), (), None)}),
        modems=(PassthroughModem(0, send_pair=(0, 1), recv_pairs=[(1, 0)]),
                ForwardRelayModem(1, in_link=(0, 1))),
        sources={(0, 1): Pmf.from_probs([0.5, 0.5]), (1, 0): Pmf.from_probs([0.5, 0.5])},
        block_length=10,
        latency_map={(0, 1): 3, (1, 0): 5},
    )


def test_cycle_falls_back_to_one_step_windows():
    system = echo_system(0.0)
    assert _schedule(system) is None
    traj = rollout(system, RandomnessHandle(3), lanes=4, horizon=200)
    assert traj.repro[(1, 0)][5:].any()
    assert np.array_equal(traj.repro[(1, 0)][5:], traj.sources[(0, 1)][:-5])


def test_cycle_rollout_ignores_a_requested_window(run):
    system = echo_system(0.11)
    assert run(system, 4, 200, window_steps=50) == run(system, 4, 200, window_steps=1)
