import numpy as np
import pytest
from scipy.stats import binom

from conftest import bsc, single_link_system

from sepnet.netmodel import (
    CoupledDmcMedium,
    DmcMedium,
    ForwardRelayModem,
    MarkovLinkRule,
    NetworkSystem,
    PassthroughModem,
    WiringError,
    baseline_guarantee,
    block_average_distortions,
    gilbert_elliott_rule,
    make_markov_medium,
    rollout,
)
from sepnet.probcore import Pmf, RandomnessHandle
from sepnet.ratedist import DistortionBudget, hamming_metric


class TestMediumConstruction:
    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(WiringError):
            DmcMedium(2, {(0, 1): np.array([[0.5, 0.6], [0.1, 0.9]])})

    def test_unknown_user_rejected(self):
        with pytest.raises(WiringError):
            DmcMedium(2, {(0, 5): np.eye(2)})

    def test_coupling_watch_must_be_a_user(self):
        links = {(0, 1): bsc(0.11), (2, 3): bsc(0.11)}
        with pytest.raises(WiringError):
            CoupledDmcMedium(4, links, {(2, 3): (7, np.stack([bsc(0.08), bsc(0.14)]))})

    def test_coupling_stack_must_fit_watch_and_link(self):
        links = {(0, 1): bsc(0.11), (2, 3): bsc(0.11)}
        for stack in (np.stack([np.eye(3), np.eye(3)]), np.stack([bsc(0.1)] * 3)):
            with pytest.raises(WiringError):
                CoupledDmcMedium(4, links, {(2, 3): (0, stack)})

    def test_markov_rule_validation(self):
        with pytest.raises(WiringError):
            MarkovLinkRule(np.array([[0.5, 0.5]]), np.stack([np.eye(2), np.eye(2)]))
        with pytest.raises(WiringError):
            make_markov_medium(
                2, 3, {(0, 1): gilbert_elliott_rule(0.01, 0.3, 0.1, 0.1)}
            )


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
        avgs = block_average_distortions(traj, (0, 1), hamming2, 1000, start=8)
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
        t1 = rollout(system, root, lanes=5, horizon=300)
        t2 = rollout(system, root, lanes=5, horizon=300)
        assert np.array_equal(t1.repro[(0, 1)], t2.repro[(0, 1)])
        assert np.array_equal(t1.medium_inputs, t2.medium_inputs)

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
            pair_of_interest=(0, 1),
            horizon=sys_a.horizon,
            block_length=sys_a.block_length,
            latency_map=sys_a.latency_map,
        )
        ta = rollout(sys_a, root, lanes=3, horizon=100)
        tb = rollout(sys_b, root, lanes=3, horizon=100)
        assert np.array_equal(ta.sources[(0, 1)], tb.sources[(0, 1)])

    def test_causality_source_perturbation(self, root, fair_coin):
        # changing x at time t must not change anything at times <= t
        system = single_link_system(0.11, block_length=10)
        T, B, t_hit = 40, 2, 17
        base = np.zeros((T, B), dtype=np.int8)
        pert = base.copy()
        pert[t_hit] = 1
        ta = rollout(system, root, lanes=B, horizon=T, source_override={(0, 1): base})
        tb = rollout(system, root, lanes=B, horizon=T, source_override={(0, 1): pert})
        for tr_a, tr_b in ((ta.repro[(0, 1)], tb.repro[(0, 1)]),
                           (ta.medium_inputs, tb.medium_inputs)):
            assert np.array_equal(tr_a[..., : t_hit + 1, :], tr_b[..., : t_hit + 1, :])
        # and the perturbation does eventually propagate
        assert not np.array_equal(ta.repro[(0, 1)], tb.repro[(0, 1)])

    def test_pair_stream_independence(self, root):
        medium = DmcMedium(
            4, {(0, 1): bsc(0.11), (2, 3): bsc(0.11)}
        )
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
            pair_of_interest=(0, 1),
            horizon=100_000,
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
            medium=DmcMedium(2, {(0, 1): np.eye(2)}),
            modems=(
                PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1, recv_pairs=[(1, 0)]),  # wrong direction
            ),
            sources={(0, 1): Pmf.from_probs([0.5, 0.5])},
            pair_of_interest=(0, 1),
            horizon=10,
            block_length=5,
            latency_map={(0, 1): 3},
        )
        with pytest.raises(WiringError):
            rollout(system, __import__("sepnet").RandomnessHandle(0), horizon=10)

    def test_alphabet_mismatch_detected(self):
        system = NetworkSystem(
            medium=DmcMedium(2, {(0, 1): np.eye(3) }),
            modems=(
                PassthroughModem(0, send_pair=(0, 1)),
                PassthroughModem(1, recv_pairs=[(0, 1)]),
            ),
            sources={(0, 1): Pmf.from_probs([0.5, 0.5])},  # binary source
            pair_of_interest=(0, 1),
            horizon=10,
            block_length=5,
            latency_map={(0, 1): 3},
        )
        with pytest.raises(WiringError):
            rollout(system, __import__("sepnet").RandomnessHandle(0), horizon=10)


class TestRelayChain:
    def build(self, flip):
        medium = DmcMedium(3, {(0, 1): bsc(flip), (1, 2): bsc(flip)})
        return NetworkSystem(
            medium=medium,
            modems=(
                PassthroughModem(0, send_pair=(0, 2)),
                ForwardRelayModem(1, in_link=(0, 1)),
                PassthroughModem(2, recv_pairs=[(0, 2)], recv_links={(0, 2): (1, 2)}),
            ),
            sources={(0, 2): Pmf.from_probs([0.5, 0.5])},
            pair_of_interest=(0, 2),
            horizon=100_000,
            block_length=1000,
            latency_map={(0, 2): 5},
        )

    def test_noiseless_chain_delay_five(self, root):
        system = self.build(0.0)
        traj = rollout(system, root, lanes=2, horizon=100)
        assert np.array_equal(traj.sources[(0, 2)][:90], traj.repro[(0, 2)][5:95])

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
            pair_of_interest=(0, 1),
            horizon=100_000,
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
        system = self.two_user(make_markov_medium(2, 1, {(0, 1): rule}))
        assert abs(self.flip_rate(system, root.derive("one")) - 0.11) <= 0.01

    def test_gilbert_elliott_long_run(self, root):
        # symmetric switching 0.1 -> stationary (0.5, 0.5); flip = 0.155
        medium = make_markov_medium(2, 2, {(0, 1): gilbert_elliott_rule(0.01, 0.3, 0.1, 0.1)})
        assert abs(self.flip_rate(self.two_user(medium), root.derive("ge")) - 0.155) <= 0.015

    def test_absorbing_bad_state(self, root):
        rule = gilbert_elliott_rule(0.01, 0.3, 0.0, 0.0, initial_state=1)
        medium = make_markov_medium(2, 2, {(0, 1): rule})
        assert abs(self.flip_rate(self.two_user(medium), root.derive("abs")) - 0.3) <= 0.01


class TestBaselineGuarantee:
    def test_noiseless_zero(self, root, hamming2):
        system = single_link_system(0.0, block_length=100)
        rep = baseline_guarantee(
            system, DistortionBudget(0.0, hamming2), 500, root.derive("nz")
        )
        assert rep.epsilon_hat == 0.0

    def test_bsc_binomial_tail(self, root, hamming2, bsc_system):
        rep = baseline_guarantee(
            bsc_system, DistortionBudget(0.125, hamming2), 10_000, root.derive("tail")
        )
        oracle = binom.sf(125, 1000, 0.11)
        assert abs(rep.epsilon_hat - oracle) <= 0.03

    def test_far_level_exactly_zero(self, root, hamming2, bsc_system):
        rep = baseline_guarantee(
            bsc_system, DistortionBudget(0.5, hamming2), 1000, root.derive("far")
        )
        assert rep.epsilon_hat == 0.0

    def test_too_few_trials_rejected(self, root, hamming2, bsc_system):
        with pytest.raises(ValueError):
            baseline_guarantee(bsc_system, DistortionBudget(0.125, hamming2), 10, root)


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
            pair_of_interest=(0, 1),
            horizon=2000,
            block_length=100,
            latency_map={(0, 1): 3},
        )

    def test_noiseless_200_symbol_link_is_exact(self):
        system = self.two_user(DmcMedium(2, {(0, 1): np.eye(200)}), 200)
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
        system = self.two_user(make_markov_medium(2, states, {(0, 1): rule}), 2)
        T = 1001
        traj = rollout(system, root, lanes=2, horizon=T)
        sent = traj.medium_inputs[0, : T - 1]
        flipped = (np.arange(T - 1) % states >= 128)[:, None]
        assert np.array_equal(traj.link_outputs[(0, 1)][1:], sent ^ flipped)
