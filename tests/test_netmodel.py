import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from conftest import bsc, collected_rollout, recorded_rollout, single_link_system
from test_golden import golden_system

from sepnet import netmodel
from sepnet.netmodel import (
    ForwardRelayModem,
    MarkovLinkRule,
    MediumKernel,
    ModemWrapper,
    NetworkSystem,
    PassthroughModem,
    WiringError,
    gilbert_elliott_link,
    rollout,
)
from sepnet.probcore import Pmf, RandomnessHandle
from sepnet.ratedist import DistortionBudget, hamming_metric
from sepnet.separation import _BlockScorer, is_separated, measure_end_to_end


CAUSALITY_SYSTEMS = ["single_bsc", "relay_chain", "gilbert_elliott", "two_pair_interference",
                     "separated_argmin", "separated_within_d"]
T_HIT = 150


class FlippedSource(ModemWrapper):
    """Wraps a sender and hands it ``pair``'s source with the symbol at
    step ``t_hit`` flipped in every lane, in the window that holds it."""

    def __init__(self, inner, pair, t_hit):
        super().__init__(inner)
        self.pair, self.t_hit = pair, t_hit

    def start(self, view):
        return view.source_pmfs[self.pair].alphabet.size, self.inner.start(view)

    def window(self, t0, t1, state, sources, link_in):
        size, inner_state = state
        source = sources[self.pair]
        if t0 <= self.t_hit < t1:
            source, k = source.copy(), self.t_hit - t0
            source[k] = (source[k] + 1) % size
        return self.inner.window(t0, t1, inner_state, {**sources, self.pair: source}, link_in)


def first_change(a, b, axis=1) -> int:
    """First step at which two arrays differ (their length if never)."""
    changed = np.flatnonzero((a != b).any(axis=axis))
    return int(changed[0]) if len(changed) else a.shape[-2]


def matrix_links(matrices: dict) -> dict:
    """Kernel links of one stochastic matrix each."""
    return {link: (mat, (), None) for link, mat in matrices.items()}


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
        links = {(0, 1): gilbert_elliott_link(0.01, 0.3, 0.05, 0.2),
                 (0, 2): (np.eye(3)[None], (), MarkovLinkRule(np.eye(1)))}
        with pytest.raises(WiringError, match="input letters"):
            MediumKernel(3, links)

    def test_kernel_table_needs_an_axis_per_digit(self):
        # a watched user's input with no axis of its own would pick no row
        with pytest.raises(WiringError, match="axes"):
            MediumKernel(3, {(0, 1): (bsc(0.1), (2,), None)})
        with pytest.raises(WiringError, match="letters of user 2"):
            MediumKernel(3, {(0, 1): (np.stack([bsc(0.1)] * 3), (2,), None)})

    def test_markov_rule_validation(self):
        with pytest.raises(WiringError):
            MarkovLinkRule(np.array([[0.5, 0.5]]))
        # a third state reachable from two would have no state of its own
        with pytest.raises(WiringError, match="square"):
            MarkovLinkRule(np.full((2, 3), 1 / 3))
        with pytest.raises(WiringError, match="initial state"):
            MarkovLinkRule(np.eye(2), initial_state=2)
        # the kernel's state axis must match the rule's states, and its
        # table, the link's one emission, must be stochastic
        _, _, rule = gilbert_elliott_link(0.01, 0.3, 0.1, 0.1)
        with pytest.raises(WiringError, match="states"):
            MediumKernel(2, {(0, 1): (np.stack([np.eye(2)] * 3), (), rule)})
        with pytest.raises(WiringError, match="table rows"):
            MediumKernel(2, {(0, 1): (np.stack([np.eye(2), np.full((2, 2), 0.6)]), (), rule)})


class TestRollout:
    def test_flip_rate_distortion_mean(self, root, hamming2):
        # 100 block trials, n = 1000, scored as the rollout passes them,
        # which then keeps no reproduction: mean distortion ~= 0.11
        system = single_link_system(0.11)
        scorer = _BlockScorer(hamming2, (0, 1), np.array([8]), np.array([8 + 3]), 1000,
                              1012, 100)
        rollout(system, root.derive("mean"), lanes=100, horizon=1012, consume=scorer)
        assert abs(float(scorer.distortions().mean()) - 0.11) <= 0.02

    def test_empirical_crossover(self, root):
        # oracle: flips are Bernoulli(0.11) per transmitted symbol
        system = single_link_system(0.11)
        traj = collected_rollout(system, root.derive("cross"), lanes=10, horizon=10_012)
        lat = system.latency_map[(0, 1)]
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
        )
        assert sys_b.latency_map == {}  # a pair that nobody reproduces has no latency
        ta = collected_rollout(sys_a, root, lanes=3, horizon=100)
        tb = collected_rollout(sys_b, root, lanes=3, horizon=100)
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
        )
        traj = collected_rollout(system, root, lanes=1, horizon=100_000)
        a = traj.sources[(0, 1)][:, 0].astype(float)
        b = traj.sources[(2, 3)][:, 0].astype(float)
        corr = abs(float(np.corrcoef(a, b)[0, 1]))
        assert corr <= 0.02

    def test_wiring_error_before_simulation(self):
        # building the system checks every modem, so no rollout can start
        with pytest.raises(WiringError, match=r"cannot receive pair \(1,0\)"):
            NetworkSystem(
                medium=MediumKernel(2, matrix_links({(0, 1): np.eye(2)})),
                modems=(
                    PassthroughModem(0, send_pair=(0, 1)),
                    PassthroughModem(1, recv_pairs=[(1, 0)]),  # wrong direction
                ),
                sources={(0, 1): Pmf.from_probs([0.5, 0.5])},
                block_length=5,
            )

    def test_alphabet_mismatch_detected(self):
        with pytest.raises(WiringError, match="medium input alphabet 3"):
            NetworkSystem(
                medium=MediumKernel(2, matrix_links({(0, 1): np.eye(3)})),
                modems=(
                    PassthroughModem(0, send_pair=(0, 1)),
                    PassthroughModem(1, recv_pairs=[(0, 1)]),
                ),
                sources={(0, 1): Pmf.from_probs([0.5, 0.5])},  # binary source
                block_length=5,
            )


def relay_chain(relays: int, flip: float = 0.0, first_hop=None) -> NetworkSystem:
    """Pair (0, k + 1) through relays 1 .. k, each link a binary symmetric
    channel of ``flip`` but the first, which is ``first_hop`` if given."""
    last = relays + 1
    pair = (0, last)
    tables = {(u, u + 1): bsc(flip) for u in range(last)}
    if first_hop is not None:
        tables[(0, 1)] = first_hop
    return NetworkSystem(
        medium=MediumKernel(last + 1, matrix_links(tables)),
        modems=(PassthroughModem(0, send_pair=pair),
                *(ForwardRelayModem(u, in_link=(u - 1, u)) for u in range(1, last)),
                PassthroughModem(last, recv_pairs=[pair], recv_links={pair: (last - 1, last)})),
        sources={pair: Pmf.from_probs([0.5, 0.5])},
        block_length=1000,
    )


class TestRelayChain:
    def test_a_received_pair_needs_a_source(self):
        # link (1, 2) exists, but pair (1, 2) has no source to reproduce
        system = relay_chain(1, 0.05)
        receiver = PassthroughModem(2, recv_pairs=[(0, 2), (1, 2)], recv_links={(0, 2): (1, 2)})
        with pytest.raises(WiringError, match=r"receives pair \(1,2\), which has no source"):
            system.with_modems([*system.modems[:2], receiver])

    def test_relay_cannot_forward_a_wider_alphabet(self):
        # a ternary symbol heard on (0, 1) has no row in the binary (1, 2)
        with pytest.raises(WiringError, match="relay 1"):
            relay_chain(1, 0.05, first_hop=np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]))

    def test_rollout_holds_one_window_of_the_medium(self, root):
        # with a consumer that keeps nothing, a rollout's memory does not
        # grow with the horizon: 3 users' inputs and 2 links' outputs kept
        # whole would add 5 * 3T * 256 bytes, 3.8 MB, from T to 4T
        system = relay_chain(1, 0.05)

        def peak(horizon):
            tracemalloc.start()
            try:
                rollout(system, root.derive("memory"), lanes=256, horizon=horizon,
                        consume=lambda *_: None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-use caches
        T = 1000
        assert peak(4 * T) - peak(T) < 1 << 20

    def test_cascade_flip_probability(self, root):
        # two independent BSC(0.05) hops: end-to-end flip 2*0.05*0.95 = 0.095
        system = relay_chain(1, 0.05)
        traj = collected_rollout(system, root.derive("chain"), lanes=10, horizon=10_005)
        x = traj.sources[(0, 2)][:10_000]
        y = traj.repro[(0, 2)][5:]
        flips = float((x != y).mean())
        assert abs(flips - 0.095) <= 0.01


def test_a_separated_rollout_holds_no_stream_whole(root, monkeypatch):
    # a separated single_bsc rollout at 256 lanes, scored by a consumer,
    # over 1,000 and 4,000 steps. Past the per-block numbers it returns
    # (the wrappers' telemetry and the scorer's counts), its memory
    # must not grow with the horizon: one whole (horizon, lanes) stream
    # would add 768 kB from T to 4T, and the source, the simulated
    # stream, the received stream and the reproduction 3 MB. Windows of
    # 250 steps fill at both horizons, so the medium's and the codec's
    # per-window buffers are the same size at each
    monkeypatch.setattr(netmodel, "WINDOW_LANE_STEPS", 250 * 256)
    system = golden_system("separated_argmin")
    plan = system.modem_for(0).plan
    n = plan.rate_plan.n_prime

    def excess(horizon):
        x_starts, _, y_starts = plan.clock(plan.windows(horizon - n))
        tracemalloc.start()
        try:
            scorer = _BlockScorer(hamming_metric(2), (0, 1), x_starts, y_starts, n,
                                  horizon, 256)
            traj = rollout(system, root.derive("memory"), lanes=256, horizon=horizon,
                           consume=scorer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = [a for tel in traj.telemetry.values() for f in tel.values()
                  for a in f.values()]
        return peak - sum(a.nbytes for a in (*blocks, scorer.counts))

    excess(300)  # first-use caches
    T = 1000
    assert excess(4 * T) - excess(T) < 100_000


def noiseless(system: NetworkSystem) -> NetworkSystem:
    """``system`` with every link handing on its sender's input unchanged."""
    links = {lk: (np.broadcast_to(np.eye(link.shape[-1]), link.shape), link.watched, link.rule)
             for lk, link in system.medium._links.items()}
    return dataclasses.replace(system, medium=MediumKernel(system.medium.num_users, links))


LATENCIES = {
    **{f"{k}_relays": {(0, k + 1): 3 + 2 * k} for k in range(4)},
    "two_pair_interference": {(0, 1): 3, (2, 3): 3},  # a watched link
    "ternary_dmc": {(0, 1): 3},
    "separated_argmin": {(0, 1): 3},  # its inner modems' delay
}


@pytest.mark.parametrize("name", LATENCIES)
def test_latency_worked_out_from_the_wiring_is_the_engines_timing(name):
    # over noiseless links x[m] reappears at step m + L
    latencies = LATENCIES[name]
    system = noiseless(golden_system(name)) if name[0].isalpha() else relay_chain(int(name[0]))
    assert system.latency_map == latencies
    traj = collected_rollout(system, RandomnessHandle(9), lanes=3, horizon=300)
    for pair, lat in latencies.items():
        if is_separated(system, pair):  # its plan's clock reads the inner delay
            codes = traj.telemetry[pair[1]]["sep_recv"]["codes"]
            assert np.array_equal(codes, traj.telemetry[pair[0]]["sep_send"]["messages"])
        else:
            assert np.array_equal(traj.repro[pair][lat:], traj.sources[pair][:-lat])


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
            warmup=64,
        )

    def flip_rate(self, system, root, n=100_000):
        traj = collected_rollout(system, root, lanes=1, horizon=n + 3)
        x = traj.sources[(0, 1)][:n, 0]
        y = traj.repro[(0, 1)][3:, 0]
        return float((x != y).mean())

    def test_single_state_reduces_to_dmc(self, root):
        link = (bsc(0.11)[None, :, :], (), MarkovLinkRule(np.array([[1.0]])))
        system = self.two_user(MediumKernel(2, {(0, 1): link}))
        assert abs(self.flip_rate(system, root.derive("one")) - 0.11) <= 0.01

    def test_gilbert_elliott_long_run(self, root):
        # symmetric switching 0.1 -> stationary (0.5, 0.5); flip = 0.155
        medium = MediumKernel(2, {(0, 1): gilbert_elliott_link(0.01, 0.3, 0.1, 0.1)})
        assert abs(self.flip_rate(self.two_user(medium), root.derive("ge")) - 0.155) <= 0.015

    def test_absorbing_bad_state(self, root):
        link = gilbert_elliott_link(0.01, 0.3, 0.0, 0.0, initial_state=1)
        medium = MediumKernel(2, {(0, 1): link})
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
        )

    def test_noiseless_200_symbol_link_is_exact(self):
        system = self.two_user(MediumKernel(2, matrix_links({(0, 1): np.eye(200)})), 200)
        traj = collected_rollout(system, RandomnessHandle(1), lanes=4, horizon=2000)
        x = traj.sources[(0, 1)][:-3]
        assert (x >= 128).sum() > 0
        assert np.array_equal(traj.repro[(0, 1)][3:], x)

    def test_markov_chain_past_127_states(self, root):
        # a deterministic cycle through 200 states; states >= 128 flip the bit
        states = 200
        transition = np.roll(np.eye(states), 1, axis=1)
        emission = np.stack([np.eye(2) if s < 128 else np.eye(2)[::-1] for s in range(states)])
        link = (emission, (), MarkovLinkRule(transition))
        system = self.two_user(MediumKernel(2, {(0, 1): link}), 2)
        T = 1001
        _, inputs, links = recorded_rollout(system, root, lanes=2, horizon=T)
        sent = inputs[0, : T - 1]
        flipped = (np.arange(T - 1) % states >= 128)[:, None]
        assert np.array_equal(links[(0, 1)][1:], sent ^ flipped)
