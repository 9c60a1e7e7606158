import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from conftest import bsc, recorded_rollout, single_link_system
from test_golden import golden_system

from sepnet.netmodel import (
    ForwardRelayModem,
    MarkovLinkRule,
    MediumKernel,
    Modem,
    ModemView,
    NetworkSystem,
    PassthroughModem,
    WiringError,
    gilbert_elliott_rule,
    rollout,
)
from sepnet.probcore import Pmf, RandomnessHandle
from sepnet.ratedist import DistortionBudget
from sepnet.separation import _block_distortions, is_separated, measure_end_to_end


CAUSALITY_SYSTEMS = ["single_bsc", "relay_chain", "gilbert_elliott", "two_pair_interference",
                     "separated_argmin", "separated_within_d"]
T_HIT = 150


class FlippedSource(Modem):
    """Wraps a sender and hands it a view whose ``pair`` source has the
    symbol at step ``t_hit`` flipped in every lane."""

    def __init__(self, inner, pair, t_hit):
        self.inner, self.user, self.pair, self.t_hit = inner, inner.user, pair, t_hit

    def check_wiring(self, system):
        self.inner.check_wiring(system)

    def start(self, view):
        source = view.sources[self.pair].copy()
        source[self.t_hit] = (source[self.t_hit] + 1) % view.source_pmfs[self.pair].alphabet.size
        inner_view = ModemView(view.user, view.lanes, view.horizon,
                               {**view.sources, self.pair: source}, view.source_pmfs,
                               view.link_in, view.private_gen)
        inner_view.telemetry = view.telemetry
        return inner_view, self.inner.start(inner_view)

    def window(self, t0, t1, state, view):
        inner_view, inner_state = state
        return self.inner.window(t0, t1, inner_state, inner_view)


def first_change(a, b, axis=1) -> int:
    """First step at which two arrays differ (their length if never)."""
    changed = np.flatnonzero((a != b).any(axis=axis))
    return int(changed[0]) if len(changed) else a.shape[-2]


def matrix_links(matrices: dict) -> dict:
    """Kernel links of one stochastic matrix each."""
    return {link: (mat, (), None) for link, mat in matrices.items()}


def markov_links(rules: dict) -> dict:
    """Kernel links of one state chain each."""
    return {link: (rule.emission, (), rule) for link, rule in rules.items()}


class TestMediumConstruction:
    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(WiringError, match=r"link \(0,1\) table rows"):
            MediumKernel(2, matrix_links({(0, 1): np.array([[0.5, 0.6], [0.1, 0.9]])}))
        # rows summing below one: the first row would draw each letter at 0.5
        with pytest.raises(WiringError, match=r"link \(0,1\) table rows"):
            MediumKernel(2, matrix_links({(0, 1): [[0.5, 0.2], [0.1, 0.9]]}))
        stack = np.stack([bsc(0.1), [[0.9, 0.1], [0.2, 0.2]]])
        with pytest.raises(WiringError, match=r"link \(2,3\) table rows"):
            MediumKernel(4, {(2, 3): (stack, (0,), None)})

    def test_unknown_user_rejected(self):
        with pytest.raises(WiringError):
            MediumKernel(2, matrix_links({(0, 5): np.eye(2)}))

    def test_coupling_watch_must_be_a_user(self):
        links = matrix_links({(0, 1): bsc(0.11)})
        links[(2, 3)] = (np.stack([bsc(0.08), bsc(0.14)]), (7,), None)
        with pytest.raises(WiringError):
            MediumKernel(4, links)

    def test_coupling_stack_must_fit_watch_and_link(self):
        # the watched user 0 sends two letters, and so does user 2 on (2, 1)
        links = matrix_links({(0, 1): bsc(0.11), (2, 1): bsc(0.11)})
        for stack in (np.stack([np.eye(3), np.eye(3)]), np.stack([bsc(0.1)] * 3)):
            links[(2, 3)] = (stack, (0,), None)
            with pytest.raises(WiringError):
                MediumKernel(4, links)

    def test_out_links_must_read_one_input_alphabet(self):
        # a row the first link's table lacks would be sampled as no row
        with pytest.raises(WiringError, match="input letters"):
            MediumKernel(3, matrix_links({(0, 1): bsc(0.1), (0, 2): np.full((3, 2), 0.5)}))
        rules = {(0, 1): gilbert_elliott_rule(0.01, 0.3, 0.05, 0.2),
                 (0, 2): MarkovLinkRule(np.eye(1), np.eye(3)[None])}
        with pytest.raises(WiringError, match="input letters"):
            MediumKernel(3, markov_links(rules))

    def test_kernel_table_needs_an_axis_per_digit(self):
        # a watched user's input with no axis of its own would pick no row
        with pytest.raises(WiringError, match="axes"):
            MediumKernel(3, {(0, 1): (bsc(0.1), (2,), None)})
        with pytest.raises(WiringError, match="letters of user 2"):
            MediumKernel(3, {(0, 1): (np.stack([bsc(0.1)] * 3), (2,), None)})

    def test_markov_rule_validation(self):
        with pytest.raises(WiringError):
            MarkovLinkRule(np.array([[0.5, 0.5]]), np.stack([np.eye(2), np.eye(2)]))
        # a third state reachable from two would read no emission row
        with pytest.raises(WiringError, match="square"):
            MarkovLinkRule(np.full((2, 3), 1 / 3), np.stack([np.eye(2), np.eye(2)]))
        # the kernel's state axis must match the rule's states
        rule = gilbert_elliott_rule(0.01, 0.3, 0.1, 0.1)
        with pytest.raises(WiringError, match="states"):
            MediumKernel(2, {(0, 1): (np.stack([np.eye(2)] * 3), (), rule)})


class TestRollout:
    def test_identity_medium_passthrough_delay(self, fair_coin, root):
        # Each causal stage adds one unit delay: source -> modem input,
        # input -> medium output, output -> reproduction. End to end: 3.
        system = single_link_system(0.0, block_length=10)
        traj = rollout(system, root, lanes=3, horizon=60)
        x = traj.sources[(0, 1)]
        y = traj.repro[(0, 1)]
        assert np.array_equal(x[:50], y[3:53])

    def test_zero_flip_reproduces_exactly(self, root):
        system = single_link_system(0.0)
        traj = rollout(system, root, lanes=2, horizon=200)
        lat = traj.latency_map[(0, 1)]
        assert np.array_equal(
            traj.sources[(0, 1)][: 200 - lat], traj.repro[(0, 1)][lat:]
        )

    def test_flip_rate_distortion_mean(self, root, hamming2):
        # 100 block trials, n = 1000: mean distortion ~= 0.11
        system = single_link_system(0.11)
        traj = rollout(system, root.derive("mean"), lanes=100, horizon=1012)
        avgs = _block_distortions(hamming2, traj.sources[(0, 1)], traj.repro[(0, 1)],
                                  np.array([8]), np.array([8 + 3]), 1000)
        assert abs(float(avgs.mean()) - 0.11) <= 0.02

    def test_empirical_crossover(self, root):
        # oracle: flips are Bernoulli(0.11) per transmitted symbol
        system = single_link_system(0.11)
        traj = rollout(system, root.derive("cross"), lanes=10, horizon=10_012)
        lat = traj.latency_map[(0, 1)]
        x = traj.sources[(0, 1)][: 10_012 - lat]
        y = traj.repro[(0, 1)][lat:]
        flips = float((x != y).mean())
        assert abs(flips - 0.11) <= 0.01

    def test_reproducibility_bit_exact(self, root):
        system = single_link_system(0.11)
        t1, inputs1, _ = recorded_rollout(system, root, lanes=5, horizon=300)
        t2, inputs2, _ = recorded_rollout(system, root, lanes=5, horizon=300)
        assert np.array_equal(t1.repro[(0, 1)], t2.repro[(0, 1)])
        assert np.array_equal(inputs1, inputs2)

    def test_source_primitivity(self, root):
        # identical source seeds yield identical source streams no matter
        # what the modems do
        sys_a = single_link_system(0.11)
        sys_b = NetworkSystem(
            medium=sys_a.medium,
            modems=(
                PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1),  # deaf receiver
            ),
            sources=sys_a.sources,
            block_length=sys_a.block_length,
            latency_map=sys_a.latency_map,
        )
        ta = rollout(sys_a, root, lanes=3, horizon=100)
        tb = rollout(sys_b, root, lanes=3, horizon=100)
        assert np.array_equal(ta.sources[(0, 1)], tb.sources[(0, 1)])

    @pytest.mark.parametrize("name", CAUSALITY_SYSTEMS)
    def test_causality_source_perturbation(self, name):
        # flipping x at step t_hit must not change anything at steps <= t_hit
        system = golden_system(name)
        pair = min(system.sources)
        sender = system.modem_for(pair[0])
        flipped = system.with_modems(
            [FlippedSource(m, pair, T_HIT) if m is sender else m for m in system.modems]
        )
        seeds = RandomnessHandle(5).derive("causality", name)
        ta, inputs_a, links_a = recorded_rollout(system, seeds, lanes=3, horizon=300)
        tb, inputs_b, links_b = recorded_rollout(flipped, seeds, lanes=3, horizon=300)
        first = {"medium_inputs": first_change(inputs_a, inputs_b, axis=(0, 2))}
        for key in links_a:
            first[f"link {key}"] = first_change(links_a[key], links_b[key])
        for key in ta.repro:
            first[f"repro {key}"] = first_change(ta.repro[key], tb.repro[key])
        assert all(t > T_HIT for t in first.values()), first
        # the flip does reach the receiver, and an uncoded pair's repro
        # changes exactly one end-to-end latency later
        if is_separated(system, pair):
            assert first[f"repro {pair}"] < 300
        else:
            assert first[f"repro {pair}"] == T_HIT + system.latency_map[pair]

    def test_pair_stream_independence(self, root):
        medium = MediumKernel(4, matrix_links({(0, 1): bsc(0.11), (2, 3): bsc(0.11)}))
        system = NetworkSystem(
            medium=medium,
            modems=(
                PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1, recv_pairs=[(0, 1)]),
                PassthroughModem(2, send_pair=(2, 3)),
                PassthroughModem(3, recv_pairs=[(2, 3)]),
            ),
            sources={(0, 1): Pmf.from_probs([0.5, 0.5]),
                     (2, 3): Pmf.from_probs([0.5, 0.5])},
            block_length=100,
            latency_map={(0, 1): 3, (2, 3): 3},
        )
        traj = rollout(system, root, lanes=1, horizon=100_000)
        a = traj.sources[(0, 1)][:, 0].astype(float)
        b = traj.sources[(2, 3)][:, 0].astype(float)
        corr = abs(float(np.corrcoef(a, b)[0, 1]))
        assert corr <= 0.02

    def test_wiring_error_before_simulation(self):
        system = NetworkSystem(
            medium=MediumKernel(2, matrix_links({(0, 1): np.eye(2)})),
            modems=(
                PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1, recv_pairs=[(1, 0)]),  # wrong direction
            ),
            sources={(0, 1): Pmf.from_probs([0.5, 0.5])},
            block_length=5,
            latency_map={(0, 1): 3},
        )
        with pytest.raises(WiringError):
            rollout(system, __import__("sepnet").RandomnessHandle(0), horizon=10)

    def test_alphabet_mismatch_detected(self):
        system = NetworkSystem(
            medium=MediumKernel(2, matrix_links({(0, 1): np.eye(3)})),
            modems=(
                PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1, recv_pairs=[(0, 1)]),
            ),
            sources={(0, 1): Pmf.from_probs([0.5, 0.5])},  # binary source
            block_length=5,
            latency_map={(0, 1): 3},
        )
        with pytest.raises(WiringError):
            rollout(system, __import__("sepnet").RandomnessHandle(0), horizon=10)


class TestRelayChain:
    def build(self, flip, first_hop=None):
        first_hop = bsc(flip) if first_hop is None else first_hop
        medium = MediumKernel(3, matrix_links({(0, 1): first_hop, (1, 2): bsc(flip)}))
        return NetworkSystem(
            medium=medium,
            modems=(
                PassthroughModem(0, send_pair=(0, 2)),
                ForwardRelayModem(1, in_link=(0, 1)),
                PassthroughModem(2, recv_pairs=[(0, 2)], recv_links={(0, 2): (1, 2)}),
            ),
            sources={(0, 2): Pmf.from_probs([0.5, 0.5])},
            block_length=1000,
            latency_map={(0, 2): 5},
        )

    def test_noiseless_chain_delay_five(self, root):
        system = self.build(0.0)
        traj = rollout(system, root, lanes=2, horizon=100)
        assert np.array_equal(traj.sources[(0, 2)][:90], traj.repro[(0, 2)][5:95])

    def test_relay_cannot_forward_a_wider_alphabet(self, root):
        # a ternary symbol heard on (0, 1) has no row in the binary (1, 2)
        system = self.build(0.05, first_hop=np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]))
        with pytest.raises(WiringError, match="relay 1"):
            rollout(system, root, lanes=2, horizon=10)

    def test_rollout_holds_one_window_of_the_medium(self, root):
        # past the sources and reproductions it returns, a rollout's memory
        # does not grow with the horizon: 3 users' inputs and 2 links'
        # outputs kept whole would add 5 * 3T * 256 bytes, 3.8 MB, from T to 4T
        system = self.build(0.05)

        def excess(horizon):
            tracemalloc.start()
            try:
                traj = rollout(system, root.derive("memory"), lanes=256, horizon=horizon)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - sum(a.nbytes for a in (*traj.sources.values(), *traj.repro.values()))

        excess(10)  # first-use caches
        T = 1000
        assert excess(4 * T) - excess(T) < 1 << 20

    def test_cascade_flip_probability(self, root):
        # two independent BSC(0.05) hops: end-to-end flip 2*0.05*0.95 = 0.095
        system = self.build(0.05)
        traj = rollout(system, root.derive("chain"), lanes=10, horizon=10_005)
        x = traj.sources[(0, 2)][:10_000]
        y = traj.repro[(0, 2)][5:]
        flips = float((x != y).mean())
        assert abs(flips - 0.095) <= 0.01


class TestMarkovMedium:
    def two_user(self, medium):
        return NetworkSystem(
            medium=medium,
            modems=(
                PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1, recv_pairs=[(0, 1)]),
            ),
            sources={(0, 1): Pmf.from_probs([0.5, 0.5])},
            block_length=1000,
            latency_map={(0, 1): 3},
            warmup=64,
        )

    def flip_rate(self, system, root, n=100_000):
        traj = rollout(system, root, lanes=1, horizon=n + 3)
        x = traj.sources[(0, 1)][:n, 0]
        y = traj.repro[(0, 1)][3:, 0]
        return float((x != y).mean())

    def test_single_state_reduces_to_dmc(self, root):
        rule = MarkovLinkRule(np.array([[1.0]]), bsc(0.11)[None, :, :])
        system = self.two_user(MediumKernel(2, markov_links({(0, 1): rule})))
        assert abs(self.flip_rate(system, root.derive("one")) - 0.11) <= 0.01

    def test_gilbert_elliott_long_run(self, root):
        # symmetric switching 0.1 -> stationary (0.5, 0.5); flip = 0.155
        medium = MediumKernel(2, markov_links({(0, 1): gilbert_elliott_rule(0.01, 0.3, 0.1, 0.1)}))
        assert abs(self.flip_rate(self.two_user(medium), root.derive("ge")) - 0.155) <= 0.015

    def test_absorbing_bad_state(self, root):
        rule = gilbert_elliott_rule(0.01, 0.3, 0.0, 0.0, initial_state=1)
        medium = MediumKernel(2, markov_links({(0, 1): rule}))
        assert abs(self.flip_rate(self.two_user(medium), root.derive("abs")) - 0.3) <= 0.01


class TestBaselineGuarantee:
    def test_noiseless_zero(self, root, hamming2):
        system = single_link_system(0.0, block_length=100)
        rep = measure_end_to_end(
            system, (0, 1), DistortionBudget(0.0, hamming2), 1000, root.derive("nz")
        )
        assert rep.epsilon_hat == 0.0

    def test_bsc_binomial_tail(self, root, hamming2, bsc_system):
        rep = measure_end_to_end(
            bsc_system, (0, 1), DistortionBudget(0.125, hamming2), 10_000, root.derive("tail")
        )
        oracle = binom.sf(125, 1000, 0.11)
        assert abs(rep.epsilon_hat - oracle) <= 0.03

    def test_far_level_exactly_zero(self, root, hamming2, bsc_system):
        rep = measure_end_to_end(
            bsc_system, (0, 1), DistortionBudget(0.5, hamming2), 1000, root.derive("far")
        )
        assert rep.epsilon_hat == 0.0

    def test_too_few_trials_rejected(self, root, hamming2, bsc_system):
        with pytest.raises(ValueError):
            measure_end_to_end(bsc_system, (0, 1), DistortionBudget(0.125, hamming2), 10, root)


class TestWideAlphabets:
    """Symbols and states past 127 survive the rollout's buffers."""

    def two_user(self, medium, size):
        return NetworkSystem(
            medium=medium,
            modems=(
                PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1, recv_pairs=[(0, 1)]),
            ),
            sources={(0, 1): Pmf.uniform(size)},
            block_length=100,
            latency_map={(0, 1): 3},
        )

    def test_noiseless_200_symbol_link_is_exact(self):
        system = self.two_user(MediumKernel(2, matrix_links({(0, 1): np.eye(200)})), 200)
        traj = rollout(system, RandomnessHandle(1), lanes=4, horizon=2000)
        x = traj.sources[(0, 1)][:-3]
        assert (x >= 128).sum() > 0
        assert np.array_equal(traj.repro[(0, 1)][3:], x)

    def test_markov_chain_past_127_states(self, root):
        # a deterministic cycle through 200 states; states >= 128 flip the bit
        states = 200
        transition = np.roll(np.eye(states), 1, axis=1)
        emission = np.stack([np.eye(2) if s < 128 else np.eye(2)[::-1] for s in range(states)])
        rule = MarkovLinkRule(transition, emission)
        system = self.two_user(MediumKernel(2, markov_links({(0, 1): rule})), 2)
        T = 1001
        _, inputs, links = recorded_rollout(system, root, lanes=2, horizon=T)
        sent = inputs[0, : T - 1]
        flipped = (np.arange(T - 1) % states >= 128)[:, None]
        assert np.array_equal(links[(0, 1)][1:], sent ^ flipped)
