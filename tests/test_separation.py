import functools

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import bsc, single_link_system

from sepnet.codec import Codebook, RatePlan
from sepnet.netmodel import (
    DmcMedium,
    CoupledDmcMedium,
    GuaranteeReport,
    NetworkSystem,
    PassthroughModem,
    baseline_guarantee,
    rollout,
)
from sepnet.harness import _PoisonMedium
from sepnet.probcore import Pmf, RandomnessHandle
from sepnet import separation
from sepnet.ratedist import DistortionBudget, hamming_metric
from sepnet.separation import (
    PairTarget,
    PlanInfeasible,
    SeparationRecvModem,
    SeparationSendModem,
    apply_separation,
    is_separated,
    measure_end_to_end,
    network_block_channel,
    plan_separation,
    separate_network,
    verify_noninterference,
)

R_125 = 0.4564355568004036
R_200 = 0.2780719051126377


def stock_guarantee(pair=(0, 1), n=32, eps=0.06):
    return GuaranteeReport(pair, 0.125, eps, 0.01, 1000, n, int(eps * 1000))


def two_pair_system(coupled=False):
    links = {(0, 1): bsc(0.11), (2, 3): bsc(0.11)}
    if coupled:
        medium = CoupledDmcMedium(
            4, links, {(2, 3): (0, np.stack([bsc(0.08), bsc(0.14)]))}
        )
    else:
        medium = DmcMedium(4, links)
    return NetworkSystem(
        medium=medium,
        modems=(
            PassthroughModem(0, send_pair=(0, 1)),
            PassthroughModem(1, recv_pairs=[(0, 1)]),
            PassthroughModem(2, send_pair=(2, 3)),
            PassthroughModem(3, recv_pairs=[(2, 3)]),
        ),
        sources={(0, 1): Pmf.from_probs([0.5, 0.5]),
                 (2, 3): Pmf.from_probs([0.7, 0.3])},
        pair_of_interest=(0, 1),
        horizon=10_000,
        block_length=32,
        latency_map={(0, 1): 3, (2, 3): 3},
    )


class TestPlanSeparation:
    def test_rates_match_closed_forms(self, root, hamming2):
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        rp = plan.rate_plan
        assert rp.rate_at_level == pytest.approx(R_125, abs=1e-6)
        assert rp.rate_at_level_prime == pytest.approx(R_200, abs=1e-6)
        assert rp.channel_rate == pytest.approx(R_125 - rp.alpha)
        assert rp.source_rate == pytest.approx(R_200 + rp.psi / 2)
        # the stated defaults for equal blocks
        assert rp.psi == pytest.approx(0.5 * (R_125 - R_200) / R_125)
        assert rp.alpha == pytest.approx(R_125 / (R_125 + rp.psi) * rp.psi / 2)

    def test_receiver_holds_the_message_rows(self, root, hamming2):
        # only source-coder messages are sent, so the decoder holds that
        # prefix of the sender's channel table: the same memory, nothing drawn
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        sent, held = plan.send.channel_cb, plan.recv.channel_cb
        rp = plan.rate_plan
        assert held.cardinality == len(held.entries) == rp.source_cardinality
        assert sent.cardinality == rp.channel_cardinality > rp.source_cardinality
        assert np.shares_memory(held.entries, sent.entries)
        assert plan.summary()["channel_codebook"] == sent.spec()

    def test_strictness_rejected(self, root, hamming2):
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.125, n=32)
        with pytest.raises(PlanInfeasible):
            plan_separation(system, stock_guarantee(), target, root.derive("c"))

    def test_unconverged_rate_rejected(self, root, hamming2, monkeypatch):
        # a skewed source needs ~1000 BA iterations; one is not enough
        system = single_link_system(0.11, source_probs=(0.7, 0.3), block_length=32)
        target = PairTarget((0, 1), hamming2, 0.1, 0.2, n=32)
        plan_separation(system, stock_guarantee(), target, root.derive("c"))
        monkeypatch.setattr(
            separation, "blahut_arimoto", functools.partial(separation.blahut_arimoto, max_iter=1)
        )
        with pytest.raises(PlanInfeasible, match="did not converge"):
            plan_separation(system, stock_guarantee(), target, root.derive("c"))

    def test_dmax_target_rate_is_pure_slack(self, root, hamming2):
        # at D' just below Dmax the source rate is essentially psi/2
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.499, n=32, psi=0.2, alpha=0.05)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        assert plan.rate_plan.rate_at_level_prime == pytest.approx(0.0, abs=1e-5)
        assert plan.rate_plan.source_rate == pytest.approx(0.1, abs=1e-5)
        assert plan.rate_plan.source_cardinality == int(
            np.ceil(2 ** (32 * plan.rate_plan.source_rate))
        )

    def test_cap_exceeded_advises(self, root, hamming2):
        system = single_link_system(0.11, block_length=512)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=512)
        with pytest.raises(PlanInfeasible, match="larger D'"):
            plan_separation(
                system, stock_guarantee(n=512), target, root.derive("c")
            )

    def test_guarantee_pair_must_match(self, root, hamming2):
        system = two_pair_system()
        target = PairTarget((2, 3), hamming2, 0.125, 0.2, n=32)
        with pytest.raises(PlanInfeasible):
            plan_separation(system, stock_guarantee(pair=(0, 1)), target, root)

    def test_medium_blindness(self, root, hamming2):
        system = NetworkSystem(
            medium=_PoisonMedium(),
            modems=(PassthroughModem(0, send_pair=(0, 1)),
                    PassthroughModem(1, recv_pairs=[(0, 1)])),
            sources={(0, 1): Pmf.from_probs([0.5, 0.5])},
            pair_of_interest=(0, 1),
            horizon=100,
            block_length=32,
            latency_map={(0, 1): 3},
        )
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        assert after.medium is system.medium  # untouched, by identity


class TestApplySeparation:
    def test_locality(self, root, hamming2):
        system = two_pair_system()
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        # only users 0 and 1 change; the others are the same objects
        assert after.modems[2] is system.modems[2]
        assert after.modems[3] is system.modems[3]
        assert isinstance(after.modems[0], SeparationSendModem)
        assert isinstance(after.modems[1], SeparationRecvModem)
        assert after.modems[0].inner is system.modems[0]
        assert after.modems[1].inner is system.modems[1]
        assert is_separated(after, (0, 1)) and not is_separated(after, (2, 3))

    def test_rollout_draws_no_codebook(self, root, hamming2, monkeypatch):
        # the wrappers hold the plan's codebooks; a rollout draws none anew
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)

        def no_draw(*args, **kwargs):
            raise AssertionError("the rollout drew a codebook")

        for name in ("generate", "from_spec"):
            monkeypatch.setattr(Codebook, name, classmethod(no_draw))
        traj = rollout(after, root.derive("r"), lanes=2, horizon=300)
        assert traj.telemetry[1]["sep_recv"]["windows"]

    def test_simulated_stream_feeds_inner_modem(self, root, hamming2):
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        traj = rollout(after, root.derive("r"), lanes=2, horizon=300)
        sim = traj.telemetry[0]["sep_send"]["sim_stream"]
        # the wrapped modem relays the simulated stream, one step delayed
        assert np.array_equal(traj.medium_inputs[0, 1:], sim[:-1])

    def test_simulated_stream_matches_source_law(self, root, hamming2):
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        traj = rollout(after, root.derive("gof"), lanes=4, horizon=2600)
        sim = traj.telemetry[0]["sep_send"]["sim_stream"]
        counts = np.bincount(sim.reshape(-1), minlength=2)
        _, p = chisquare(counts, np.array([0.5, 0.5]) * counts.sum())
        assert p > 0.01

    def test_composition_noiseless_equals_roundtrip(self, root, hamming2):
        # noiseless medium, exact-match decode: the end-to-end reproduction
        # is bit-for-bit the source coder roundtrip
        system = single_link_system(0.0, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.0, 0.2, n=32, n_prime=24,
                            psi=0.3, alpha=0.6, decode_rule="within_d")
        guar = GuaranteeReport((0, 1), 0.0, 0.0, 0.0, 1000, 32, 0)
        plan = plan_separation(system, guar, target, root.derive("c"))
        after = apply_separation(system, plan)
        traj = rollout(after, root.derive("r"), lanes=3, horizon=700)
        send = traj.telemetry[0]["sep_send"]["windows"]
        recv = {w["window"]: w for w in traj.telemetry[1]["sep_recv"]["windows"]}
        y = traj.repro[(0, 1)]
        checked = 0
        for sw in send:
            w = sw["window"]
            if w not in recv or recv[w]["decode_tau"] + 24 > 700:
                continue
            assert np.array_equal(recv[w]["codes"], sw["messages"])
            td = recv[w]["decode_tau"]
            roundtrip = plan.send.source_cb.entries[sw["messages"]]
            assert np.array_equal(y[td : td + 24].T, roundtrip)
            checked += 1
        assert checked >= 10

    def test_degenerate_single_row_codebooks(self, root, hamming2, fair_coin):
        # one codeword, one reproduction row: output independent of the source
        system = single_link_system(0.0, block_length=8)
        plan_rp = RatePlan.make(n=8, level=0.125, level_prime=0.2,
                                rate_at_level=R_125, rate_at_level_prime=R_200)
        seed = root.derive("deg")
        chan_cb = Codebook.generate("channel-embedding", fair_coin, 8, 1, seed)
        src_cb = Codebook.generate("source-compression", fair_coin, 8, 1, seed)
        send = SeparationSendModem(system.modems[0], (0, 1), plan_rp, src_cb,
                                   chan_cb, hamming2)
        recv = SeparationRecvModem(system.modems[1], (0, 1), plan_rp,
                                   src_cb, chan_cb, hamming2, 3, decode_rule="argmin")
        after = system.with_modems([send, recv])
        traj = rollout(after, root.derive("r"), lanes=2, horizon=200)
        recv_tel = traj.telemetry[1]["sep_recv"]["windows"]
        assert len(recv_tel) >= 5
        assert all(np.all(w["codes"] == 0) for w in recv_tel)
        y = traj.repro[(0, 1)]
        row = src_cb.entries[0]
        for w in recv_tel:
            td = w["decode_tau"]
            if td + 8 <= 200:
                assert np.array_equal(y[td : td + 8].T, np.tile(row, (2, 1)))


class TestMeasureEndToEnd:
    def test_budget_above_max_is_zero(self, root, hamming2):
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        rep = measure_end_to_end(
            after, (0, 1), DistortionBudget(1.0, hamming2), 1000, root.derive("m")
        )
        assert rep.epsilon_hat == 0.0

    def test_union_bound_pointwise(self, root, hamming2):
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, decode_rule="argmin")
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        rep = measure_end_to_end(
            after, (0, 1), DistortionBudget(0.2, hamming2), 2000, root.derive("m")
        )
        assert rep.epsilon_hat <= rep.xi_hat + rep.eta_hat + 1e-12
        assert rep.trials >= 2000

    def test_plain_pair_matches_baseline_guarantee(self, root, hamming2, bsc_system):
        a = measure_end_to_end(
            bsc_system, (0, 1), DistortionBudget(0.125, hamming2), 2000,
            root.derive("same"), block_length=1000,
        )
        b = baseline_guarantee(
            bsc_system, DistortionBudget(0.125, hamming2), 2000, root.derive("same")
        )
        assert a.epsilon_hat == b.epsilon_hat


class TestNoninterference:
    def test_untouched_pair_calibrates(self, root, hamming2):
        system = two_pair_system(coupled=True)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, decode_rule="argmin")
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        results = verify_noninterference(
            system, after, [(2, 3)], 2000, root.derive("ni"), repetitions=20
        )
        res = results[(2, 3)]
        assert res.stream_pass_fraction >= 0.9
        assert res.tv_repro <= 0.02
        assert res.tv_joint <= 0.02

    def test_wrong_generation_law_detected(self, root, hamming2, fair_coin):
        # negative control: embedding with the wrong marginal must be caught
        system = two_pair_system(coupled=True)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, decode_rule="argmin")
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        channel_cb = plan.send.channel_cb
        wrong = Codebook.generate(
            channel_cb.kind, Pmf.from_probs([0.8, 0.2]), channel_cb.n,
            channel_cb.cardinality, channel_cb.common_seed,
        )
        bad_send = SeparationSendModem(
            system.modems[0], (0, 1), plan.rate_plan, plan.send.source_cb, wrong, hamming2
        )
        after = system.with_modems(
            [bad_send, plan.recv, system.modems[2], system.modems[3]],
            {**system.latency_map,
             (0, 1): plan.rate_plan.n + plan.rate_plan.n_prime + plan.recv.inner_latency},
        )
        results = verify_noninterference(
            system, after, [(2, 3)], 3000, root.derive("ni"), repetitions=1
        )
        assert results[(2, 3)].min_joint_p < 1e-4

    def test_physically_independent_link_unaffected(self, root, hamming2):
        # no coupling at all: the untouched pair's law is exactly preserved
        system = two_pair_system(coupled=False)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, decode_rule="argmin")
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        results = verify_noninterference(
            system, after, [(2, 3)], 3000, root.derive("ni2"), repetitions=1
        )
        res = results[(2, 3)]
        assert res.tv_repro <= 0.02
        assert res.p_order1.min() > 1e-4


class TestSeparateNetwork:
    def test_empty_targets_identity(self, root):
        system = two_pair_system()
        final, steps = separate_network(system, [], root, root.derive("c"))
        assert final is system
        assert steps == []
        t1 = rollout(system, root.derive("cmp"), lanes=2, horizon=500)
        t2 = rollout(final, root.derive("cmp"), lanes=2, horizon=500)
        for pair in t1.repro:
            assert np.array_equal(t1.repro[pair], t2.repro[pair])

    def test_single_target_equals_apply(self, root, hamming2):
        system = two_pair_system()
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, decode_rule="argmin")
        final, steps = separate_network(
            system, [target], root.derive("s"), root.derive("c"), recheck=False
        )
        assert is_separated(final, (0, 1))
        assert len(steps) == 1
        assert steps[0].plan_summary["channel_codebook"]["cardinality"] > 1

    def test_duplicate_pairs_rejected(self, root, hamming2):
        system = two_pair_system()
        t = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        with pytest.raises(ValueError):
            separate_network(system, [t, t], root, root.derive("c"))

    def test_two_disjoint_links_with_recheck(self, root, hamming2):
        system = two_pair_system(coupled=False)
        # the skewed pair needs a larger covering slack: block-type
        # fluctuation costs ~1.2 * sqrt(p(1-p)/n') bits of rate, which the
        # uniform pair is immune to
        targets = [
            PairTarget((0, 1), hamming2, 0.125, 0.2, n=48, n_prime=36,
                       psi=0.25, alpha=0.15, decode_rule="argmin"),
            PairTarget((2, 3), hamming2, 0.125, 0.2, n=48, n_prime=32,
                       psi=0.6, alpha=0.03, decode_rule="argmin"),
        ]
        final, steps = separate_network(
            system, targets, root.derive("net"), root.derive("c"),
            recheck_trials=2000,
        )
        assert is_separated(final, (0, 1)) and is_separated(final, (2, 3))
        assert steps[0].rechecks[(2, 3)]["ok"]
        for target in targets:
            rep = measure_end_to_end(
                final, target.pair, DistortionBudget(0.2, hamming2), 2000,
                root.derive("fin", *target.pair),
            )
            assert rep.epsilon_hat <= 0.12


class TestNetworkBlockChannel:
    def test_adapter_reproduces_link_noise(self, root, hamming2, fair_coin):
        system = single_link_system(0.11, block_length=32)
        chan = network_block_channel(system, (0, 1), root.derive("ad"))
        blocks = np.zeros((400, 32), dtype=np.int8)
        received = chan(blocks, None)
        assert received.shape == (400, 32)
        flip = float(received.mean())
        assert abs(flip - 0.11) <= 0.02
