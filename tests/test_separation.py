import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from conftest import (
    bsc,
    collected_rollout,
    log_simulated_streams,
    recorded_rollout,
    single_link_system,
)

from sepnet.codec import CARDINALITY_CAP, Codebook, RatePlan
from sepnet.netmodel import (
    MediumKernel,
    NetworkSystem,
    PassthroughModem,
    rollout,
)
from sepnet.harness import ExperimentConfig, cmd_separate
from sepnet.probcore import Pmf, two_sample_test
from sepnet import separation
from sepnet.ratedist import DistortionBudget
from sepnet.separation import (
    GuaranteeReport,
    PairTarget,
    PlanInfeasible,
    SeparationPlan,
    SeparationInterferenceError,
    SeparationRecvModem,
    SeparationSendModem,
    apply_separation,
    is_separated,
    measure_end_to_end,
    plan_separation,
    separate_network,
    verify_noninterference,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
R_125 = 0.4564355568004036
R_200 = 0.2780719051126377


def stock_guarantee(pair=(0, 1), n=32, eps=0.06):
    return GuaranteeReport(pair, 0.125, eps, 0.01, 1000, n, int(eps * 1000))


def two_pair_system(coupled=False):
    links = {(0, 1): (bsc(0.11), (), None), (2, 3): (bsc(0.11), (), None)}
    if coupled:
        links[(2, 3)] = (np.stack([bsc(0.08), bsc(0.14)]), (0,), None)
    return NetworkSystem(
        medium=MediumKernel(4, links),
        modems=(
            PassthroughModem(0, send_pair=(0, 1)),
            PassthroughModem(1, recv_pairs=[(0, 1)]),
            PassthroughModem(2, send_pair=(2, 3)),
            PassthroughModem(3, recv_pairs=[(2, 3)]),
        ),
        sources={(0, 1): Pmf.from_probs([0.5, 0.5]),
                 (2, 3): Pmf.from_probs([0.7, 0.3])},
        block_length=32,
    )


class _PoisonMedium(MediumKernel):
    """Two-user medium whose dynamic surface explodes on touch: planning and
    applying a separation must never reach it."""

    def __init__(self):
        super().__init__(2, {(0, 1): (np.eye(2), (), None)})

    def start(self, lanes, seeds):
        raise AssertionError("separation transformer touched the medium")

    def window(self, *args, **kwargs):
        raise AssertionError("separation transformer touched the medium")


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
        # only source-coder messages are sent, so only those rows of the
        # channel codebook are drawn, one packed word each, and the decoder
        # searches the sender's words; the summary keeps the rate plan's |Cc|
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        cb, rp = plan.channel_cb, plan.rate_plan
        assert cb.cardinality == len(cb.table) == rp.source_cardinality
        assert rp.channel_cardinality > rp.source_cardinality
        spec = plan.summary()["channel_codebook"]
        assert spec == {**cb.spec(), "cardinality": rp.channel_cardinality}
        # the reported spec regenerates the drawn rows as its prefix
        assert np.array_equal(Codebook.from_spec(spec).table[: cb.cardinality], cb.table)

    def test_relay_chain_plans_at_n64(self, root):
        # |Cc| is past the 2^20-row cap; only the |Cs| message rows are drawn
        config = ExperimentConfig.load(CONFIG_DIR / "relay_chain.yaml")
        target = dataclasses.replace(config.targets[0], n=64)
        guarantee = stock_guarantee(pair=target.pair, n=64)
        plan = plan_separation(config.system, guarantee, target, root.derive("relay"))
        rp = plan.rate_plan
        assert (rp.n, rp.n_prime) == (64, 48)
        assert rp.channel_cardinality == 5_555_090 > CARDINALITY_CAP
        assert plan.channel_cb.cardinality == rp.source_cardinality <= CARDINALITY_CAP

    def test_target_owns_n_prime(self, hamming2):
        # n' = max(1, round(ratio * n)) at every n: 0.75 gives the sizes
        # separate runs the shipped configs at
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, n_prime_ratio=0.75, psi=0.25)
        assert [dataclasses.replace(target, n=n).n_prime for n in (32, 48, 64)] == [24, 36, 48]
        assert dataclasses.replace(target, n_prime_ratio=0.01).n_prime == 1
        assert PairTarget((0, 1), hamming2, 0.125, 0.2, n=32).n_prime == 32

    @pytest.mark.parametrize("ratio", [1.5, 1 + 1e-9, 0.0, -0.75, math.nan])
    def test_n_prime_must_not_exceed_n(self, hamming2, ratio):
        # a channel window of n steps carries one source block of n' <= n
        with pytest.raises(ValueError, match="n_prime_ratio"):
            PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, n_prime_ratio=ratio, psi=0.25)

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
            block_length=32,
        )
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        assert after.medium is system.medium  # untouched, by identity


def clock_plan(n: int, n_prime: int, inner_latency: int) -> SeparationPlan:
    """A plan with only what its block clock reads: block lengths whose
    rates leave every rate condition met at any n' <= n, and the inner
    latency."""
    rate_plan = RatePlan(n=n, n_prime=n_prime, level=0.1, level_prime=0.4, rate_at_level=1.0,
                         rate_at_level_prime=0.01, psi=0.01, alpha=0.01)
    return SeparationPlan((0, 1), rate_plan, None, None, None, "argmin", inner_latency, None)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 200), ratio=st.floats(0, 1, exclude_min=True),
       inner_latency=st.integers(0, 40), horizon=st.integers(0, 3000))
def test_block_clock_invariants(n, ratio, inner_latency, horizon):
    n_prime = max(1, round(ratio * n))
    plan = clock_plan(n, n_prime, inner_latency)
    windows = plan.windows(horizon)
    src, emit, decode = plan.clock(windows + 1)
    # windows(T) counts exactly the windows that decode before T
    assert np.all(decode[:-1] < horizon) and decode[-1] >= horizon
    # each window carries the newest source block complete at its emit step
    assert np.all(src + n_prime <= emit) and np.all(emit < src + 2 * n_prime)
    assert np.all(src % n_prime == 0)
    assert np.array_equal(decode, emit + n + inner_latency)
    for steps in (src, emit, decode):
        assert steps.dtype == np.int64 and np.all(np.diff(steps) > 0)
    if n_prime == n:
        assert np.all(decode - src == plan.latency)


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
        traj = collected_rollout(after, root.derive("r"), lanes=2, horizon=300)
        assert len(traj.telemetry[1]["sep_recv"]["codes"])

    def test_simulated_stream_feeds_inner_modem(self, root, hamming2):
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after, logs = log_simulated_streams(apply_separation(system, plan))
        traj, inputs, _ = recorded_rollout(after, root.derive("r"), lanes=2, horizon=300)
        sim = logs[0].stream
        # the wrapped modem relays the simulated stream, one step delayed
        assert np.array_equal(inputs[0, 1:], sim[:-1])

    def test_simulated_stream_matches_source_law(self, root, hamming2):
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after, logs = log_simulated_streams(apply_separation(system, plan))
        collected_rollout(after, root.derive("gof"), lanes=4, horizon=2600)
        sim = logs[0].stream
        counts = np.bincount(sim.reshape(-1), minlength=2)
        _, p = chisquare(counts, np.array([0.5, 0.5]) * counts.sum())
        assert p > 0.01

    def test_composition_noiseless_equals_roundtrip(self, root, hamming2):
        # noiseless medium, exact-match decode: the end-to-end reproduction
        # is bit-for-bit the source coder roundtrip
        system = single_link_system(0.0, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.0, 0.2, n=32, n_prime_ratio=0.75,
                            psi=0.3, alpha=0.6, decode_rule="within_d")
        guar = GuaranteeReport((0, 1), 0.0, 0.0, 0.0, 1000, 32, 0)
        plan = plan_separation(system, guar, target, root.derive("c"))
        after = apply_separation(system, plan)
        traj = collected_rollout(after, root.derive("r"), lanes=3, horizon=700)
        messages = traj.telemetry[0]["sep_send"]["messages"]
        codes = traj.telemetry[1]["sep_recv"]["codes"]
        assert np.array_equal(codes, messages)
        *_, decode = plan.clock(len(codes))
        y = traj.repro[(0, 1)]
        checked = 0
        for td, sent in zip(decode, messages):
            if td + 24 > 700:
                continue
            assert np.array_equal(y[td : td + 24].T, plan.source_cb.entries[sent])
            checked += 1
        assert checked >= 10

    def test_degenerate_single_row_codebooks(self, root, hamming2, fair_coin):
        # one codeword, one reproduction row: output independent of the source
        system = single_link_system(0.0, block_length=8)
        plan_rp = RatePlan(n=8, n_prime=8, level=0.125, level_prime=0.2,
                           rate_at_level=R_125, rate_at_level_prime=R_200)
        seed = root.derive("deg")
        chan_cb = Codebook.generate("channel-embedding", fair_coin, 8, 1, seed)
        src_cb = Codebook.generate("source-compression", fair_coin, 8, 1, seed)
        plan = SeparationPlan((0, 1), plan_rp, src_cb, chan_cb, hamming2, "argmin",
                              inner_latency=3, guarantee=stock_guarantee(n=8))
        after = apply_separation(system, plan)
        traj = collected_rollout(after, root.derive("r"), lanes=2, horizon=200)
        codes = traj.telemetry[1]["sep_recv"]["codes"]
        assert len(codes) >= 5
        assert np.all(codes == 0)
        y = traj.repro[(0, 1)]
        row = src_cb.entries[0]
        for td in plan.clock(len(codes))[2]:
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

    def separated_within_d(self, root, hamming2):
        # n' = 24 < n = 32 and within-D channel decoding, which fails often
        # over BSC(0.11) at D = 0.125
        system = single_link_system(0.11, block_length=32)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, n_prime_ratio=0.75, psi=0.3)
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        return plan, apply_separation(system, plan)

    def test_horizon_ends_at_the_last_scored_block(self, root, hamming2, monkeypatch):
        plan, after = self.separated_within_d(root, hamming2)
        runs = []

        def recorded(*args, **kwargs):
            runs.append((kwargs["horizon"], rollout(*args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(separation, "rollout", recorded)
        rep = measure_end_to_end(
            after, (0, 1), DistortionBudget(0.2, hamming2), 3000, root.derive("m")
        )
        [(horizon, traj)] = runs
        windows = 2  # 3000 trials at 2048 lanes per window
        assert horizon == plan.latency + (windows - 1) * 32 + 24
        # every window the receiver logs is scored, and only those
        assert plan.windows(horizon) == windows
        assert traj.telemetry[1]["sep_recv"]["codes"].shape == (windows, traj.lanes)
        assert rep.trials == 3000

        # a plain pair: 10,000 trials are 3 blocks of 3,334 lanes, and the
        # last one ends at the reproduction of x[warmup + 3n - 1]
        plain = single_link_system(0.11, block_length=32, warmup=5)
        rep = measure_end_to_end(
            plain, (0, 1), DistortionBudget(0.2, hamming2), 10_000, root.derive("p")
        )
        horizon, traj = runs[-1]
        assert horizon == 5 + 3 * 32 + 3
        assert traj.lanes == 3334 and rep.trials == 10_000

    def test_sender_encodes_only_the_decoded_windows(self, root, hamming2, monkeypatch):
        plan, after = self.separated_within_d(root, hamming2)
        after, logs = log_simulated_streams(after)
        runs = []

        def recorded(*args, **kwargs):
            runs.append(rollout(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(separation, "rollout", recorded)
        measure_end_to_end(after, (0, 1), DistortionBudget(0.2, hamming2), 3000, root.derive("m"))
        [traj] = runs
        send = traj.telemetry[0]["sep_send"]
        codes = traj.telemetry[1]["sep_recv"]["codes"]
        # 3,000 trials are 2 windows of 1,500 lanes, every one of them scored
        assert traj.lanes == 1500
        assert send["messages"].shape == send["roundtrip_avg"].shape == codes.shape == (2, 1500)
        # past the last encoded window the simulated stream is fresh filler
        tail = logs[0].stream[24 + 2 * 32 :]
        assert len(tail) == traj.horizon - 24 - 2 * 32 > 0 and 0 < tail.mean() < 1
        # at any horizon, on either side of window 3's decode step
        for horizon, windows in zip(range(plan.latency + 3 * 32 - 1, plan.latency + 3 * 32 + 2),
                                    (3, 3, 4)):
            traj = collected_rollout(after, root.derive("h", horizon), lanes=2, horizon=horizon)
            send = traj.telemetry[0]["sep_send"]
            assert send["messages"].shape == traj.telemetry[1]["sep_recv"]["codes"].shape
            assert len(send["messages"]) == windows
            # the last window decoded is the last one encoded
            emit = plan.clock(windows)[1][-1]
            sent = plan.channel_cb.rows(send["messages"][-1]).T
            assert np.array_equal(logs[0].stream[emit : emit + 32], sent)

    @pytest.mark.parametrize("trials", [1000, 2047, 2049, 3000, 4097, 10_000, 12_288])
    def test_lanes_leave_fewer_than_one_block_per_start_unscored(
        self, root, hamming2, monkeypatch, trials
    ):
        lanes_run = []
        monkeypatch.setattr(separation, "rollout",
                            lambda *a, **kw: lanes_run.append(kw["lanes"]) or rollout(*a, **kw))
        plain = single_link_system(0.11, block_length=8)
        measure_end_to_end(plain, (0, 1), DistortionBudget(0.2, hamming2), trials, root)
        starts = -(-trials // 4096)
        assert lanes_run == [-(-trials // starts)]
        assert 0 <= lanes_run[0] * starts - trials < starts

    def test_decode_failure_split_counts_the_scored_trials(self, root, hamming2):
        _, after = self.separated_within_d(root, hamming2)
        rep = measure_end_to_end(
            after, (0, 1), DistortionBudget(0.2, hamming2), 3000, root.derive("m")
        )
        # a NONE_WITHIN or AMBIGUOUS code is a message error of the same trial
        assert rep.none_within_count > 0
        assert rep.none_within_count + rep.ambiguous_count <= round(rep.xi_hat * rep.trials)

    def test_plain_pair_is_pinned(self, root, hamming2):
        # 3 blocks of 3,334 lanes; block k of a lane starts at warmup + k*n
        system = single_link_system(0.11, block_length=32)
        rep = measure_end_to_end(
            system, (0, 1), DistortionBudget(0.125, hamming2), 10_000, root.derive("pin")
        )
        assert (rep.trials, rep.block_length, rep.exceed_count) == (10_000, 32, 2667)

    def test_separated_split_is_pinned(self, root, hamming2):
        _, after = self.separated_within_d(root, hamming2)
        rep = measure_end_to_end(
            after, (0, 1), DistortionBudget(0.2, hamming2), 3000, root.derive("m")
        )
        assert (rep.trials, rep.block_length, rep.exceed_count) == (3000, 24, 1658)
        xi, eta = round(rep.xi_hat * rep.trials), round(rep.eta_hat * rep.trials)
        assert (xi, eta, rep.none_within_count, rep.ambiguous_count) == (856, 1145, 817, 27)


def hamming_ball(n: int, radius: int) -> int:
    """Words within Hamming distance ``radius`` of a word of n bits."""
    return sum(math.comb(n, k) for k in range(radius + 1))


def test_overshoot_meets_the_exact_ensemble_value(tmp_path):
    # Under the fair coin q* is uniform, so every block has the same chance
    # V(n', floor(D'n')) / 2^n' that a row lies within D' of it, and the
    # source coder overshoots with probability (1 - that)^|Cs| (Kostina &
    # Verdu, IEEE-IT 2012): 0.532 at n = 32 and 0.026 at n = 48
    data = yaml.safe_load((CONFIG_DIR / "single_bsc.yaml").read_text())
    data["targets"][0]["block_lengths"] = [32, 48]
    record = cmd_separate(ExperimentConfig.from_dict(data), tmp_path)
    predicted = []
    for run in record.payload["runs"]:
        plan = run["steps"][0]["plan"]
        npr, size = plan["n_prime"], plan["source_codebook"]["cardinality"]
        near = hamming_ball(npr, math.floor(plan["level_prime"] * npr + 1e-12)) / 2**npr
        eta = (1 - near) ** size
        stats = run["pairs"]["[0, 1]"]
        assert stats["trials"] == 3000
        assert abs(stats["eta_hat"] - eta) <= stats["eta_half_width"]
        predicted.append(round(eta, 3))
    assert predicted == [0.532, 0.026]


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
        channel_cb = plan.channel_cb
        wrong = Codebook.generate(
            channel_cb.kind, Pmf.from_probs([0.8, 0.2]), channel_cb.n,
            channel_cb.cardinality, channel_cb.common_seed,
        )
        after = apply_separation(system, dataclasses.replace(plan, channel_cb=wrong))
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


    def test_tests_are_two_sample_test_on_each_repetition(self, root, hamming2):
        # the p-values are two_sample_test on each lane's streams, and the
        # distances are between bincounts pooled over every lane
        system = two_pair_system(coupled=True)
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, decode_rule="argmin")
        plan = plan_separation(system, stock_guarantee(), target, root.derive("c"))
        after = apply_separation(system, plan)
        trials, lanes = 1000, 3
        res = verify_noninterference(
            system, after, [(2, 3)], trials, root.derive("ni"), repetitions=lanes
        )[(2, 3)]
        samples = trials * system.block_length
        horizon = system.warmup + samples + max(system.latency_map.values()) + 1
        streams = []
        for side, net in (("ni_before", system), ("ni_after", after)):
            traj = collected_rollout(net, root.derive("ni").derive(side), lanes=lanes,
                                     horizon=horizon)
            t0, lat = system.warmup, system.latency_map[(2, 3)]
            y = traj.repro[(2, 3)][t0 + lat : t0 + lat + samples]
            x = traj.sources[(2, 3)][t0 : t0 + samples]
            streams.append((y, 2 * x.astype(np.int64) + y))
        (yb, jb), (ya, ja) = streams
        for lane in range(lanes):
            for p, b, a, letters, order in ((res.p_order1, yb, ya, 2, 1),
                                            (res.p_order2, yb, ya, 2, 2),
                                            (res.p_joint, jb, ja, 4, 1)):
                rep = two_sample_test(b[:, lane], a[:, lane], letters, order)
                assert p[lane] == rep.p_value
        for tv, b, a, letters in ((res.tv_repro, yb, ya, 2), (res.tv_joint, jb, ja, 4)):
            cb = np.bincount(b.reshape(-1), minlength=letters)
            ca = np.bincount(a.reshape(-1), minlength=letters)
            assert tv == 0.5 * float(np.abs(cb / cb.sum() - ca / ca.sum()).sum())


class TestSeparateNetwork:
    def test_empty_targets_identity(self, root):
        system = two_pair_system()
        final, steps = separate_network(system, [], root, root.derive("c"))
        assert final is system
        assert steps == []
        t1 = collected_rollout(system, root.derive("cmp"), lanes=2, horizon=500)
        t2 = collected_rollout(final, root.derive("cmp"), lanes=2, horizon=500)
        for pair in t1.repro:
            assert np.array_equal(t1.repro[pair], t2.repro[pair])

    def test_single_target_equals_apply(self, root, hamming2):
        system = two_pair_system()
        target = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, decode_rule="argmin")
        final, steps = separate_network(
            system, [target], root.derive("s"), root.derive("c")
        )
        assert is_separated(final, (0, 1))
        assert len(steps) == 1
        assert steps[0].plan_summary["channel_codebook"]["cardinality"] > 1

    def test_duplicate_pairs_rejected(self, root, hamming2):
        system = two_pair_system()
        t = PairTarget((0, 1), hamming2, 0.125, 0.2, n=32)
        with pytest.raises(ValueError):
            separate_network(system, [t, t], root, root.derive("c"))

    def test_a_step_that_disturbs_a_separated_pair_aborts(self, root, hamming2, monkeypatch):
        # the second step also makes link (0, 1) noisier, so pair (0, 1),
        # separated by the first, is rechecked at D' over n' and degrades
        system = two_pair_system(coupled=False)
        targets = [
            PairTarget((0, 1), hamming2, 0.125, 0.2, n=32, decode_rule="argmin"),
            PairTarget((2, 3), hamming2, 0.125, 0.2, n=32, n_prime_ratio=0.75, psi=0.3,
                       alpha=0.03, decode_rule="argmin"),
        ]
        apply = separation.apply_separation

        def disturbing(current, plan):
            after = apply(current, plan)
            if plan.pair != (2, 3):
                return after
            noisy = MediumKernel(4, {(0, 1): (bsc(0.3), (), None), (2, 3): (bsc(0.11), (), None)})
            return dataclasses.replace(after, medium=noisy)

        monkeypatch.setattr(separation, "apply_separation", disturbing)
        with pytest.raises(SeparationInterferenceError, match=r"pair \(0, 1\) degraded"):
            separate_network(system, targets, root.derive("net"), root.derive("c"),
                             recheck_trials=1000)

    def test_two_disjoint_links_with_recheck(self, root, hamming2):
        system = two_pair_system(coupled=False)
        # the skewed pair needs a larger covering slack: block-type
        # fluctuation costs ~1.2 * sqrt(p(1-p)/n') bits of rate, which the
        # uniform pair is immune to
        targets = [
            PairTarget((0, 1), hamming2, 0.125, 0.2, n=48, n_prime_ratio=0.75,
                       psi=0.25, alpha=0.15, decode_rule="argmin"),
            PairTarget((2, 3), hamming2, 0.125, 0.2, n=48, n_prime_ratio=2 / 3,
                       psi=0.6, alpha=0.03, decode_rule="argmin"),
        ]
        final, steps = separate_network(
            system, targets, root.derive("net"), root.derive("c"),
            recheck_trials=2000,
        )
        assert is_separated(final, (0, 1)) and is_separated(final, (2, 3))
        assert steps[0].rechecks[(2, 3)]["ok"] and steps[1].rechecks[(0, 1)]["ok"]
        for target in targets:
            rep = measure_end_to_end(
                final, target.pair, DistortionBudget(0.2, hamming2), 2000,
                root.derive("fin", *target.pair),
            )
            assert rep.epsilon_hat <= 0.12
