"""Architecture transformer: wrap a pair's modems with source + embedding
codecs, pair by pair, without touching anyone else.

The sender side becomes h_s composed behind a source coder and an
embedding coder (the wrapped modem keeps running unmodified and sees a
simulated source stream with the original law). The receiver side decodes
the embedded message off the wrapped modem's reproduction stream and then
source-decodes it. Planning and applying the transformation read only
guarantees and source statistics, never the medium.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .codec import (
    AMBIGUOUS,
    DECODE_RULES,
    NONE_WITHIN,
    Codebook,
    CodebookCapError,
    RatePlan,
    RatePlanError,
    _decode_blocks,
    batch_min_distortion_rows,
    build_channel_codebook,
    build_source_codebook,
)
from .netmodel import (
    GuaranteeReport,
    Modem,
    ModemView,
    NetworkSystem,
    _block_distortions,
    baseline_guarantee,
    rollout,
)
from .probcore import (
    RandomnessHandle,
    _kgram_counts,
    chi_square_homogeneity,
    sample_iid_array,
    wilson_half_width,
)
from .ratedist import DistortionBudget, DistortionMetric, blahut_arimoto

__all__ = [
    "NoninterferenceResult",
    "PairTarget",
    "PlanInfeasible",
    "SeparatedGuaranteeReport",
    "SeparationInterferenceError",
    "SeparationPlan",
    "SeparationRecvModem",
    "SeparationSendModem",
    "SeparationStepReport",
    "apply_separation",
    "measure_end_to_end",
    "network_block_channel",
    "plan_separation",
    "separate_network",
    "verify_noninterference",
]

RATE_STRICTNESS = 1e-9
# Fewest trials (blocks) an excess-distortion or noninterference estimate
# is made from.
MIN_TRIALS = 1000


class PlanInfeasible(ValueError):
    """The requested target cannot be planned for this system."""


class SeparationInterferenceError(RuntimeError):
    """A remaining pair's guarantee degraded after a transformation step.

    This would falsify the construction, so it aborts loudly instead of
    being folded into a report.
    """


@dataclass(frozen=True)
class PairTarget:
    """Distortion target for one pair: tighten from level D to D'.

    D' may exceed D; what must hold strictly is R(D') < R(D). Optional
    fields override the plan defaults (block lengths, slack parameters,
    and the channel decode rule).
    """

    pair: tuple
    metric: DistortionMetric
    level: float
    level_prime: float
    n: int | None = None
    n_prime: int | None = None
    psi: float | None = None
    alpha: float | None = None
    decode_rule: str = "within_d"

    def __post_init__(self):
        if self.decode_rule not in DECODE_RULES:
            raise ValueError(f"decode_rule {self.decode_rule!r} is not one of {DECODE_RULES}")


@dataclass(frozen=True, eq=False)
class SeparationPlan:
    """The wrapped modems for one pair; they hold the inner modems h_s and
    h_r, both codebooks, the decode rule and the inner latency."""

    pair: tuple
    rate_plan: RatePlan
    send: "SeparationSendModem"
    recv: "SeparationRecvModem"
    guarantee: GuaranteeReport

    def summary(self) -> dict:
        return {
            "pair": list(self.pair),
            **dataclasses.asdict(self.rate_plan),
            "decode_rule": self.recv.decode_rule,
            "source_codebook": self.send.source_cb.spec(),
            "channel_codebook": self.send.channel_cb.spec(),
            "baseline_epsilon": self.guarantee.epsilon_hat,
        }


class SeparationSendModem(Modem):
    """h'_s: source-code a block, embed the message as a codeword, and feed
    the codeword stream to the unchanged inner modem as its source.

    Window w of the channel block clock covers steps [n' + w*n, n' + w*n +
    n). At each window start the newest complete source block is encoded;
    earlier unsent blocks are dropped when n' < n (the stream outpaces the
    codec, which only matters for continuous runs). Until the first window
    the simulated stream is fresh i.i.d. symbols from the source law, so
    the inner modem's input law is exact from step 0. All channel windows
    that start within one rollout window are encoded in one search.
    """

    def __init__(self, inner: Modem, pair: tuple, plan: RatePlan,
                 source_cb: Codebook, channel_cb: Codebook,
                 metric: DistortionMetric):
        self.user = inner.user
        self.inner = inner
        self.pair = tuple(pair)
        self.plan = plan
        self.source_cb = source_cb
        self.channel_cb = channel_cb
        self.metric = metric

    def check_wiring(self, system):
        self.inner.check_wiring(system)

    def start(self, view: ModemView):
        T, B = view.horizon, view.lanes
        pmf = view.source_pmfs[self.pair]
        virt = np.zeros((T, B), dtype=pmf.alphabet.dtype)
        head = min(self.plan.n_prime, T)
        virt[:head] = sample_iid_array(pmf, head * B, view.private_gen).reshape(head, B)
        inner_sources = dict(view.sources)
        inner_sources[self.pair] = virt
        inner_view = ModemView(
            user=view.user,
            lanes=B,
            horizon=T,
            sources=inner_sources,
            source_pmfs=view.source_pmfs,
            link_in=view.link_in,
            private_gen=view.private_gen,
        )
        view.telemetry["sep_send"] = {"windows": [], "sim_stream": virt}
        return {
            "virt": virt,
            "inner_view": inner_view,
            "inner_state": self.inner.start(inner_view),
            "true_sources": view.sources[self.pair],
            "windows": view.telemetry["sep_send"]["windows"],
        }

    def window(self, t0, t1, state, view):
        n, npr = self.plan.n, self.plan.n_prime
        emit = _clock_ticks(npr, n, t0, t1)
        if len(emit):
            src = (emit // npr - 1) * npr
            x = _blocks(state["true_sources"], src, npr)
            messages, roundtrip = batch_min_distortion_rows(self.source_cb, x, self.metric)
            messages = messages.reshape(len(emit), -1)
            roundtrip = roundtrip.reshape(len(emit), -1)
            for k, tau in enumerate(emit.tolist()):
                end = min(tau + n, view.horizon)
                state["virt"][tau:end] = self.channel_cb.entries[messages[k]].T[: end - tau]
                state["windows"].append(
                    {
                        "window": (tau - npr) // n,
                        "src_start": int(src[k]),
                        "emit_start": tau,
                        "messages": messages[k],
                        "roundtrip_avg": roundtrip[k],
                    }
                )
        return self.inner.window(t0, t1, state["inner_state"], state["inner_view"])


def _clock_ticks(first: int, period: int, t0: int, t1: int) -> np.ndarray:
    """Steps first + w*period (w >= 0) that fall in [t0, t1)."""
    lo = max(0, -(-(t0 - first) // period))
    hi = max(lo, -(-(t1 - first) // period))
    return first + period * np.arange(lo, hi)


def _blocks(stream: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """Rows [a, a+n) of a (steps, lanes) stream for each start a, as
    (len(starts) * lanes, n) blocks, start-major."""
    rows = stream[starts[:, None] + np.arange(n)]  # (starts, n, lanes)
    return rows.transpose(0, 2, 1).reshape(-1, n)


class SeparationRecvModem(Modem):
    """h'_r: run the unchanged inner modem, collect its reproduction stream
    (the simulated source as received), decode the embedded message per
    channel block, and emit the source-decoded block as the reproduction.

    The decoder shares the encoder's codebooks, the common randomness of
    the pair. Only the first source-cardinality rows of the channel
    codebook carry messages, so ``channel_cb`` is that prefix of the
    encoder's channel codebook, a view of the same entries, and decoding
    searches all of its rows. All channel blocks whose decode step falls
    within one rollout window are decoded in one search.
    """

    def __init__(self, inner: Modem, pair: tuple, plan: RatePlan,
                 source_cb: Codebook, channel_cb: Codebook,
                 metric: DistortionMetric, inner_latency: int, decode_rule: str):
        self.user = inner.user
        self.inner = inner
        self.pair = tuple(pair)
        self.plan = plan
        self.source_cb = source_cb
        self.channel_cb = channel_cb
        self.metric = metric
        self.inner_latency = int(inner_latency)
        self.decode_rule = decode_rule

    def check_wiring(self, system):
        self.inner.check_wiring(system)

    def start(self, view: ModemView):
        T, B = view.horizon, view.lanes
        view.telemetry["sep_recv"] = {"windows": []}
        return {
            "ys": np.zeros((T, B), dtype=self.channel_cb.gen_pmf.alphabet.dtype),
            "emit": np.zeros((T, B), dtype=self.source_cb.gen_pmf.alphabet.dtype),
            "inner_state": self.inner.start(view),
            "windows": view.telemetry["sep_recv"]["windows"],
        }

    def window(self, t0, t1, state, view):
        iota, repro_map = self.inner.window(t0, t1, state["inner_state"], view)
        repro_map = dict(repro_map)
        if self.pair in repro_map:
            state["ys"][t0:t1] = repro_map.pop(self.pair)
        n, npr, lat = self.plan.n, self.plan.n_prime, self.inner_latency
        decode = _clock_ticks(npr + n + lat, n, t0, t1)
        if len(decode):
            # block w was received over [n' + w*n + lat, n' + (w+1)*n + lat)
            codes = _decode_blocks(
                self.channel_cb,
                _blocks(state["ys"], decode - n, n),
                self.metric,
                self.plan.level,
                self.decode_rule,
            ).reshape(len(decode), -1)
            safe = np.clip(codes, 0, self.source_cb.cardinality - 1)
            for k, tau in enumerate(decode.tolist()):
                end = min(tau + npr, view.horizon)
                state["emit"][tau:end] = self.source_cb.entries[safe[k]].T[: end - tau]
                state["windows"].append(
                    {"window": (tau - npr - n - lat) // n, "decode_tau": tau, "codes": codes[k]}
                )
        repro_map[self.pair] = state["emit"][t0:t1]
        return iota, repro_map


def plan_separation(
    system: NetworkSystem,
    guarantee: GuaranteeReport,
    target: PairTarget,
    common_seed: RandomnessHandle,
) -> SeparationPlan:
    """Size the rate plan and both codebooks for one pair.

    Needs only the measured guarantee and the pair's source statistics;
    rejects targets whose rate does not strictly drop, and codebooks that
    would blow the desk-scale cap (try a larger D' or smaller n).
    """
    pair = tuple(target.pair)
    if tuple(guarantee.pair) != pair:
        raise PlanInfeasible(
            f"guarantee is for pair {guarantee.pair}, target is {pair}"
        )
    if pair not in system.sources:
        raise PlanInfeasible(f"system has no source for pair {pair}")
    pmf = system.sources[pair]
    metric = target.metric
    r_at = blahut_arimoto(pmf, metric, target.level, tol=1e-9)
    r_at_prime = blahut_arimoto(pmf, metric, target.level_prime, tol=1e-9)
    for point in (r_at, r_at_prime):
        if not point.converged:
            raise PlanInfeasible(
                f"Blahut-Arimoto did not converge at D = {point.distortion} "
                f"after {point.iterations} iterations; its rate is not trusted"
            )
    if r_at_prime.rate >= r_at.rate - RATE_STRICTNESS:
        raise PlanInfeasible(
            f"need R(D') strictly below R(D): R({target.level_prime}) = "
            f"{r_at_prime.rate:.6f} vs R({target.level}) = {r_at.rate:.6f}"
        )
    n = target.n if target.n is not None else guarantee.block_length
    try:
        rate_plan = RatePlan.make(
            n=n,
            level=target.level,
            level_prime=target.level_prime,
            rate_at_level=r_at.rate,
            rate_at_level_prime=r_at_prime.rate,
            n_prime=target.n_prime,
            psi=target.psi,
            alpha=target.alpha,
        )
    except RatePlanError as exc:
        raise PlanInfeasible(str(exc)) from exc

    try:
        channel_cb = build_channel_codebook(
            rate_plan, pmf, common_seed.derive("cb", *pair, "channel")
        )
        source_cb = build_source_codebook(
            rate_plan, r_at_prime, common_seed.derive("cb", *pair, "source")
        )
    except CodebookCapError as exc:
        raise PlanInfeasible(
            f"codebook too large for pair {pair}: {exc}; "
            f"use a larger D' or a smaller block length"
        ) from exc

    s, r = pair
    send = SeparationSendModem(
        system.modem_for(s), pair, rate_plan, source_cb, channel_cb, metric
    )
    recv = SeparationRecvModem(
        system.modem_for(r),
        pair,
        rate_plan,
        source_cb,
        channel_cb.prefix(rate_plan.source_cardinality),
        metric,
        system.latency_map[pair],
        target.decode_rule,
    )
    return SeparationPlan(
        pair=pair, rate_plan=rate_plan, send=send, recv=recv, guarantee=guarantee
    )


def apply_separation(system: NetworkSystem, plan: SeparationPlan) -> NetworkSystem:
    """Install the wrapped modems; every other modem stays object-identical."""
    s, r = plan.pair
    new_modems = []
    for modem in system.modems:
        if modem.user == s:
            new_modems.append(plan.send)
        elif modem.user == r:
            new_modems.append(plan.recv)
        else:
            new_modems.append(modem)
    latency = dict(system.latency_map)
    latency[plan.pair] = plan.rate_plan.n + plan.rate_plan.n_prime + plan.recv.inner_latency
    return system.with_modems(new_modems, latency)


def is_separated(system: NetworkSystem, pair: tuple) -> bool:
    modem = system.modem_for(pair[0])
    return isinstance(modem, SeparationSendModem) and modem.pair == tuple(pair)


@dataclass(frozen=True)
class SeparatedGuaranteeReport(GuaranteeReport):
    """End-to-end excess report plus the channel/source error split.

    xi is the embedded-message error rate, eta the source-coder overshoot
    rate; every end-to-end failure implies one of the two, so the
    estimates satisfy the union bound on the same sample.
    """

    xi_hat: float = 0.0
    xi_half_width: float = 0.0
    eta_hat: float = 0.0
    eta_half_width: float = 0.0
    none_within_count: int = 0
    ambiguous_count: int = 0


def _measure_separated_pair(system, pair, budget, trials, seeds):
    send_modem = system.modem_for(pair[0])
    plan = send_modem.plan
    n, npr = plan.n, plan.n_prime
    lat_inner = system.modem_for(pair[1]).inner_latency
    B = min(trials, 2048)
    windows = -(-trials // B)
    T = npr + windows * n + lat_inner + n + npr + 2
    traj = rollout(system, seeds, lanes=B, horizon=T)

    send_tel = traj.telemetry[pair[0]]["sep_send"]["windows"]
    recv_tel = traj.telemetry[pair[1]]["sep_recv"]["windows"]
    recv_by_w = {w["window"]: w for w in recv_tel}

    scored = [
        (sw, recv_by_w[sw["window"]])
        for sw in send_tel
        if sw["window"] in recv_by_w and recv_by_w[sw["window"]]["decode_tau"] + npr <= T
    ]
    if not scored:
        raise ValueError("horizon too short: no complete scored block")
    e2e = _block_distortions(
        budget.metric,
        traj.sources[pair],
        traj.repro[pair],
        np.array([sw["src_start"] for sw, _ in scored]),
        np.array([rw["decode_tau"] for _, rw in scored]),
        npr,
    ).reshape(-1)[:trials]
    codes = np.concatenate([rw["codes"] for _, rw in scored])
    xi = (codes != np.concatenate([sw["messages"] for sw, _ in scored]))[:trials]
    eta = np.concatenate([sw["roundtrip_avg"] > budget.level for sw, _ in scored])[:trials]
    none_within = int((codes == NONE_WITHIN).sum())
    ambiguous = int((codes == AMBIGUOUS).sum())
    k = len(e2e)
    exceed = int((e2e > budget.level).sum())
    return SeparatedGuaranteeReport(
        pair=tuple(pair),
        level=budget.level,
        epsilon_hat=exceed / k,
        half_width=wilson_half_width(exceed, k),
        trials=k,
        block_length=npr,
        exceed_count=exceed,
        xi_hat=float(xi.mean()),
        xi_half_width=wilson_half_width(int(xi.sum()), k),
        eta_hat=float(eta.mean()),
        eta_half_width=wilson_half_width(int(eta.sum()), k),
        none_within_count=none_within,
        ambiguous_count=ambiguous,
    )


def measure_end_to_end(
    system: NetworkSystem,
    pair: tuple,
    budget: DistortionBudget,
    trials: int,
    seeds: RandomnessHandle,
    block_length: int | None = None,
) -> GuaranteeReport:
    """Excess-distortion estimate for any pair of the (possibly transformed)
    system, from at least MIN_TRIALS trials.

    A plain pair is measured by ``baseline_guarantee`` at ``block_length``
    (default: the system's). A separated pair is scored per source block of
    its plan, ignoring ``block_length``, and also reports the channel/source
    error split.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need >= {MIN_TRIALS} trials")
    pair = tuple(pair)
    if is_separated(system, pair):
        return _measure_separated_pair(system, pair, budget, trials, seeds)
    return baseline_guarantee(
        system, budget, trials, seeds, pair=pair, block_length=block_length
    )


@dataclass(frozen=True, eq=False)
class NoninterferenceResult:
    """Per-repetition two-sample outcomes for one untouched pair."""

    pair: tuple
    p_order1: np.ndarray
    p_order2: np.ndarray
    p_joint: np.ndarray
    tv_repro: float
    tv_joint: float
    samples_per_rep: int

    @property
    def stream_pass_fraction(self) -> float:
        """Fraction of repetitions where both stream tests exceed p = 0.01."""
        both = (self.p_order1 > 0.01) & (self.p_order2 > 0.01)
        return float(both.mean())

    @property
    def min_joint_p(self) -> float:
        return float(self.p_joint.min())


def _joint_counts(x, y, size_x, size_y):
    joint = x.astype(np.int64) * size_y + y.astype(np.int64)
    return np.bincount(joint, minlength=size_x * size_y)


def verify_noninterference(
    before: NetworkSystem,
    after: NetworkSystem,
    untouched_pairs,
    trials: int,
    seeds: RandomnessHandle,
    repetitions: int = 1,
) -> dict:
    """Distributional comparison of untouched pairs across the swap.

    Runs both systems with fresh randomness (``repetitions`` independent
    lanes each) and two-sample-tests, per repetition: the reproduction
    stream at order 1 and 2, and the aligned per-letter (source,
    reproduction) joint law. ``trials`` counts blocks; the stream length
    is trials * block_length.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need >= {MIN_TRIALS} blocks")
    samples = trials * before.block_length
    max_lat = max(before.latency_map.values())
    T = before.warmup + samples + max_lat + 1
    traj_b = rollout(before, seeds.derive("ni_before"), lanes=repetitions, horizon=T)
    traj_a = rollout(after, seeds.derive("ni_after"), lanes=repetitions, horizon=T)

    results = {}
    for pair in untouched_pairs:
        pair = tuple(pair)
        size = before.sources[pair].alphabet.size
        lat_b = traj_b.latency_map[pair]
        lat_a = traj_a.latency_map[pair]
        t0 = before.warmup
        p1 = np.empty(repetitions)
        p2 = np.empty(repetitions)
        pj = np.empty(repetitions)
        pooled_b = np.zeros(size, dtype=np.int64)
        pooled_a = np.zeros(size, dtype=np.int64)
        pooled_jb = np.zeros(size * size, dtype=np.int64)
        pooled_ja = np.zeros(size * size, dtype=np.int64)
        for lane in range(repetitions):
            yb = traj_b.repro[pair][t0 + lat_b : t0 + lat_b + samples, lane]
            ya = traj_a.repro[pair][t0 + lat_a : t0 + lat_a + samples, lane]
            xb = traj_b.sources[pair][t0 : t0 + samples, lane]
            xa = traj_a.sources[pair][t0 : t0 + samples, lane]
            cb1 = _kgram_counts(yb, size, 1)
            ca1 = _kgram_counts(ya, size, 1)
            p1[lane] = chi_square_homogeneity(cb1, ca1, 1).p_value
            cb2 = _kgram_counts(yb, size, 2)
            ca2 = _kgram_counts(ya, size, 2)
            p2[lane] = chi_square_homogeneity(cb2, ca2, 2).p_value
            jb = _joint_counts(xb, yb, size, size)
            ja = _joint_counts(xa, ya, size, size)
            pj[lane] = chi_square_homogeneity(jb, ja, 1).p_value
            pooled_b += cb1
            pooled_a += ca1
            pooled_jb += jb
            pooled_ja += ja
        tv_repro = 0.5 * float(
            np.abs(pooled_b / pooled_b.sum() - pooled_a / pooled_a.sum()).sum()
        )
        tv_joint = 0.5 * float(
            np.abs(pooled_jb / pooled_jb.sum() - pooled_ja / pooled_ja.sum()).sum()
        )
        results[pair] = NoninterferenceResult(
            pair=pair,
            p_order1=p1,
            p_order2=p2,
            p_joint=pj,
            tv_repro=tv_repro,
            tv_joint=tv_joint,
            samples_per_rep=samples,
        )
    return results


@dataclass(frozen=True)
class SeparationStepReport:
    """One step of the pair-by-pair procedure."""

    pair: tuple
    plan_summary: dict
    rechecks: dict  # other pair -> {"before": eps, "after": eps, "ok": bool}


def separate_network(
    system: NetworkSystem,
    targets,
    seeds: RandomnessHandle,
    common_seed: RandomnessHandle,
    recheck_trials: int = 2000,
    recheck_slack: float = 0.02,
    recheck: bool = True,
):
    """Apply the transformation to every target pair, one at a time.

    After each step the remaining targets' guarantees are re-measured and
    must be statistically unchanged; a degradation beyond combined
    confidence widths plus ``recheck_slack`` aborts loudly. Returns the
    final system and per-step reports; an empty target list returns the
    system unchanged.
    """
    targets = list(targets)
    pairs = [tuple(t.pair) for t in targets]
    if len(set(pairs)) != len(pairs):
        raise ValueError("target pairs must be distinct")
    current = system
    steps = []
    for k, target in enumerate(targets):
        budget = DistortionBudget(target.level, target.metric)
        guar = measure_end_to_end(
            current,
            target.pair,
            budget,
            recheck_trials,
            seeds.derive("plan_guess", *target.pair),
            block_length=target.n or system.block_length,
        )
        plan = plan_separation(current, guar, target, common_seed)
        new_system = apply_separation(current, plan)
        rechecks = {}
        if recheck:
            for other in targets[k + 1 :]:
                obudget = DistortionBudget(other.level, other.metric)
                g_old = measure_end_to_end(
                    current,
                    other.pair,
                    obudget,
                    recheck_trials,
                    seeds.derive("recheck_old", k, *other.pair),
                    block_length=other.n or system.block_length,
                )
                g_new = measure_end_to_end(
                    new_system,
                    other.pair,
                    obudget,
                    recheck_trials,
                    seeds.derive("recheck_new", k, *other.pair),
                    block_length=other.n or system.block_length,
                )
                tol = g_old.half_width + g_new.half_width + recheck_slack
                ok = g_new.epsilon_hat <= g_old.epsilon_hat + tol
                rechecks[tuple(other.pair)] = {
                    "before": g_old.epsilon_hat,
                    "after": g_new.epsilon_hat,
                    "tolerance": tol,
                    "ok": ok,
                }
                if not ok:
                    raise SeparationInterferenceError(
                        f"after separating {target.pair}, pair {other.pair} degraded: "
                        f"{g_old.epsilon_hat:.4f} -> {g_new.epsilon_hat:.4f} "
                        f"(tolerance {tol:.4f}); this falsifies the construction"
                    )
        steps.append(
            SeparationStepReport(
                pair=tuple(target.pair),
                plan_summary=plan.summary(),
                rechecks=rechecks,
            )
        )
        current = new_system
    return current, steps


def network_block_channel(system: NetworkSystem, pair: tuple, seeds: RandomnessHandle):
    """Adapter exposing a pair's end-to-end path as a block channel.

    Returns a callable (blocks, gen) -> received blocks usable by
    mbp_estimate: each call rides the sent blocks through the real system
    as the pair's source blocks and returns the aligned reproductions.
    Successive calls use fresh derived randomness.
    """
    pair = tuple(pair)
    state = {"calls": 0}

    def channel(blocks: np.ndarray, gen) -> np.ndarray:
        B, n = blocks.shape
        lat = system.latency_map[pair]
        t0 = system.warmup
        T = t0 + n + lat + 1
        override = {}
        call_seed = seeds.derive("netchan", *pair, state["calls"])
        state["calls"] += 1
        for p, pmf in system.sources.items():
            arr = sample_iid_array(
                pmf, T * B, call_seed.derive("fill", *p).generator()
            ).reshape(T, B)
            if p == pair:
                arr[t0 : t0 + n] = blocks.T
            override[p] = arr
        traj = rollout(system, call_seed, lanes=B, horizon=T, source_override=override)
        return traj.repro[pair][t0 + lat : t0 + lat + n].T

    return channel
