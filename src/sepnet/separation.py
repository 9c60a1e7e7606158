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
    _hamming_scale,
    batch_min_distortion_rows,
    build_channel_codebook,
    build_source_codebook,
)
from .netmodel import ModemView, ModemWrapper, NetworkSystem, _Tail, rollout
from .probcore import (
    Alphabet,
    RandomnessHandle,
    sample_iid_array,
    two_sample_test,
    wilson_half_width,
)
from .ratedist import DistortionBudget, DistortionMetric, blahut_arimoto

__all__ = [
    "GuaranteeReport",
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
    "plan_separation",
    "separate_network",
    "verify_noninterference",
]

RATE_STRICTNESS = 1e-9
# Fewest trials (blocks) an excess-distortion or noninterference estimate
# is made from.
MIN_TRIALS = 1000
# Slack, on top of the summed confidence half-widths, that a remaining
# pair's excess probability may rise by across a separation step.
RECHECK_SLACK = 0.02
# Block scoring marks at most this many cells, times the table's nonzero
# entries, at a time.
_DISTORTION_CELLS = 1 << 20
# Most lanes one block start of a measurement runs, plain and separated.
_PLAIN_LANES = 4096
_SEPARATED_LANES = 2048


class PlanInfeasible(ValueError):
    """The requested target cannot be planned for this system."""


class SeparationInterferenceError(RuntimeError):
    """A remaining pair's guarantee degraded after a transformation step.

    This would falsify the construction, so it aborts loudly instead of
    being folded into a report.
    """


@dataclass(frozen=True)
class PairTarget:
    """Distortion target for one pair: tighten from level D to D' with
    channel blocks of n and source blocks of n' symbols.

    D' may exceed D; what must hold strictly is R(D') < R(D). The target
    owns n': it holds the ratio n'/n, 0 < ratio <= 1 (default 1, the
    equal-block case), and n' = max(1, round(ratio * n)) at every n, so
    ``dataclasses.replace(target, n=m)`` keeps the ratio at m. n' <= n
    keeps one source block per channel window. psi is required below
    ratio 1, where the rate plan has no default for it. The optional
    slack parameters and the channel decode rule override the plan
    defaults. A bad field raises ValueError, its message starting with
    the field's name.
    """

    pair: tuple
    metric: DistortionMetric
    level: float
    level_prime: float
    n: int
    n_prime_ratio: float = 1.0
    psi: float | None = None
    alpha: float | None = None
    decode_rule: str = "within_d"

    def __post_init__(self):
        if not 0 < self.n_prime_ratio <= 1:
            raise ValueError(f"n_prime_ratio: {self.n_prime_ratio} is not in (0, 1]")
        if self.psi is None and self.n_prime_ratio != 1:
            raise ValueError(f"psi: needed where n_prime_ratio = {self.n_prime_ratio} is "
                             f"below 1")
        if self.decode_rule not in DECODE_RULES:
            raise ValueError(f"decode_rule: {self.decode_rule!r} is not one of {DECODE_RULES}")

    @property
    def n_prime(self) -> int:
        return max(1, round(self.n_prime_ratio * self.n))


@dataclass(frozen=True, eq=False)
class SeparationPlan:
    """The codec of one separated pair, shared by both of its wrapped
    modems: the rate plan, both codebooks (the common randomness), the
    metric and decode rule, and the latency of the inner modems it wraps.
    ``channel_cb`` holds only the message-carrying rows, the first |Cs| of
    the rate plan's |Cc|."""

    pair: tuple
    rate_plan: RatePlan
    source_cb: Codebook
    channel_cb: Codebook
    metric: DistortionMetric
    decode_rule: str
    inner_latency: int
    guarantee: GuaranteeReport

    @property
    def latency(self) -> int:
        """Steps from the first source block's start to its decoded
        reproduction: n' to collect the block, n to send its codeword, then
        the inner latency. Every block's delay is this only when n' = n; in
        general each window's steps are the ``clock``'s."""
        return self.rate_plan.n + self.rate_plan.n_prime + self.inner_latency

    def windows(self, horizon: int) -> int:
        """The number of channel windows whose decode step lies before
        ``horizon``."""
        return max(0, -(-(horizon - self.latency) // self.rate_plan.n))

    def clock(self, windows: int) -> tuple:
        """The block clock of channel windows w = 0 .. ``windows`` - 1, three
        int64 arrays:

        - the start of the source block window w carries, the newest
          complete one at its emit step: w*n rounded down to a multiple of
          n' (n' <= n, so one block per window);
        - the emit step n' + w*n, where the window's n channel steps begin;
        - the decode step ``latency`` + w*n, where the block's n'
          reproduced symbols begin, once the window has passed the inner
          modems.

        At n' = n each block's delay is ``latency``; below, it cycles:
        single_bsc at n = 32, n' = 24 gives 59, 67, 75, 59, ...
        """
        n, npr = self.rate_plan.n, self.rate_plan.n_prime
        wn = n * np.arange(windows, dtype=np.int64)
        return wn // npr * npr, npr + wn, self.latency + wn

    def summary(self) -> dict:
        return {
            "pair": list(self.pair),
            **dataclasses.asdict(self.rate_plan),
            "decode_rule": self.decode_rule,
            "source_codebook": self.source_cb.spec(),
            # the rate plan's |Cc|: a spec whose first rows are the drawn ones
            "channel_codebook": {
                **self.channel_cb.spec(),
                "cardinality": self.rate_plan.channel_cardinality,
            },
            "baseline_epsilon": self.guarantee.epsilon_hat,
        }


class _BlockRecoder:
    """A separated pair's coding, window by window: block k of an input
    stream, rows [a_k, a_k + m), becomes block k of the output, rows
    [b_k, b_k + l), with a_k + m <= b_k. The blocks whose output starts in
    a window [t0, t1) are coded there in one call ``code(lo, hi, blocks)``,
    of blocks k = lo .. hi - 1 as (k-major, lanes) rows of m symbols, to
    (hi - lo, lanes, l) output blocks. The recoder keeps the input rows of
    the blocks not yet coded (``_Tail``) and the output rows that run past
    the window, at most l. A sender recodes its source into its simulated
    stream, a receiver its inner modem's reproduction into its own.
    """

    def __init__(self, in_starts, in_len, out_starts, out_len, code, lanes, dtype):
        self.in_starts, self.in_len = in_starts, in_len
        self.out_starts, self.out_len = out_starts, out_len
        self.code = code
        self.input = _Tail()
        # rows [t0, t0 + out_len) of the output, of blocks coded before t0
        self.carry = np.zeros((out_len, lanes), dtype=dtype)

    def window(self, t0: int, rows: np.ndarray) -> np.ndarray:
        """The output's rows over the steps of the input's ``rows`` from
        ``t0`` on: the blocks' rows, 0 between them."""
        steps, m = len(rows), self.in_len
        t1 = t0 + steps
        self.input.add(t0, rows)
        out = np.zeros((steps + self.out_len, rows.shape[1]), dtype=self.carry.dtype)
        out[: self.out_len] = self.carry
        lo, hi = np.searchsorted(self.out_starts, [t0, t1])
        if hi > lo:
            first = int(self.in_starts[lo])
            stream = self.input.rows(first, int(self.in_starts[hi - 1]) + m)
            blocks = stream[self.in_starts[lo:hi, None] - first + np.arange(m)]  # (k, m, lanes)
            coded = self.code(lo, hi, blocks.transpose(0, 2, 1).reshape(-1, m))
            for tau, block in zip((self.out_starts[lo:hi] - t0).tolist(), coded):
                out[tau : tau + self.out_len] = block.T
        self.input.keep(int(self.in_starts[hi]) if hi < len(self.in_starts) else t1)
        self.carry = out[steps:].copy()
        return out[:steps]


class SeparationSendModem(ModemWrapper):
    """h'_s: source-code a block, embed the message as a codeword, and feed
    the codeword stream to the unchanged inner modem as its source.

    Channel window w starts at its emit step of ``SeparationPlan.clock``
    and carries the source block that the clock assigns it; earlier unsent
    blocks are dropped when n' < n (the stream outpaces the codec, which
    only matters for continuous runs). Only the ``plan.windows(horizon)``
    windows decoded within the horizon are encoded. Before the first window
    and after the last one the simulated stream is fresh i.i.d. symbols
    from the source law, drawn in one draw at the start, so the inner
    modem's input law is exact at every step. A ``_BlockRecoder`` encodes
    the channel windows that start in one rollout window in one search,
    keeping at most n + n' source rows and n codeword rows, and the inner
    modem is handed the simulated stream's rows in place of the source's.
    Telemetry: ``messages`` and ``roundtrip_avg``, (windows, lanes).
    """

    def __init__(self, inner, plan: SeparationPlan):
        super().__init__(inner)
        self.plan = plan

    def start(self, view: ModemView):
        T, B = view.horizon, view.lanes
        plan = self.plan
        pmf = view.source_pmfs[plan.pair]
        windows = plan.windows(T)
        src, emit, _ = plan.clock(windows)
        # the encoded windows are back to back and end by the last one's
        # decode step, inside the horizon
        head, tail = (int(emit[0]), int(emit[-1]) + plan.rate_plan.n) if windows else (T, T)
        # drawn before the inner modem starts, which may draw from the same generator
        filler = sample_iid_array(pmf, (head + T - tail) * B, view.private_gen).reshape(-1, B)
        messages = np.zeros((windows, B), dtype=np.int64)
        roundtrip_avg = np.zeros((windows, B))
        view.telemetry["sep_send"] = {"messages": messages, "roundtrip_avg": roundtrip_avg}

        def encode(lo, hi, blocks):
            found, roundtrip = batch_min_distortion_rows(plan.source_cb, blocks, plan.metric)
            messages[lo:hi] = found.reshape(hi - lo, -1)
            roundtrip_avg[lo:hi] = roundtrip.reshape(hi - lo, -1)
            return plan.channel_cb.rows(messages[lo:hi])

        recoder = _BlockRecoder(src, plan.rate_plan.n_prime, emit, plan.rate_plan.n, encode, B,
                                pmf.alphabet.dtype)
        return recoder, (head, tail, filler), self.inner.start(view)

    def window(self, t0, t1, state, sources, link_in):
        recoder, (head, tail, filler), inner_state = state
        # the simulated stream: the codewords, and the filler outside the
        # encoded windows, its rows [0, head) at steps [0, head) and the rest
        # from step tail on
        sim = recoder.window(t0, sources[self.plan.pair])
        for a, b, shift in ((t0, min(t1, head), 0), (max(t0, tail), t1, head - tail)):
            if a < b:
                sim[a - t0 : b - t0] = filler[a + shift : b + shift]
        return self.inner.window(t0, t1, inner_state, {**sources, self.plan.pair: sim}, link_in)


class SeparationRecvModem(ModemWrapper):
    """h'_r: run the unchanged inner modem, collect its reproduction stream
    (the simulated source as received), decode the embedded message per
    channel block, and emit the source-decoded block as the reproduction.

    The decoder shares the encoder's plan, so its codebooks are the common
    randomness of the pair. The plan's channel codebook holds only the
    rows that carry messages, and decoding searches all of them. Channel
    window w is received over the n steps before its decode step of
    ``SeparationPlan.clock`` and reproduced from that step on, 0 between
    blocks. A ``_BlockRecoder`` decodes the channel windows whose decode
    step falls in one rollout window in one search, keeping at most n
    received rows and n' decoded ones. Telemetry: ``codes``, (windows,
    lanes), the decoded messages or ``NONE_WITHIN``/``AMBIGUOUS``.
    """

    def __init__(self, inner, plan: SeparationPlan):
        super().__init__(inner)
        self.plan = plan

    def start(self, view: ModemView):
        plan = self.plan
        n, windows = plan.rate_plan.n, plan.windows(view.horizon)
        codes = np.zeros((windows, view.lanes), dtype=np.int64)
        view.telemetry["sep_recv"] = {"codes": codes}

        def decode(lo, hi, received):
            codes[lo:hi] = _decode_blocks(
                plan.channel_cb, received, plan.metric, plan.rate_plan.level, plan.decode_rule
            ).reshape(hi - lo, -1)
            return plan.source_cb.rows(np.clip(codes[lo:hi], 0, plan.source_cb.cardinality - 1))

        decode_steps = plan.clock(windows)[2]
        recoder = _BlockRecoder(decode_steps - n, n, decode_steps, plan.rate_plan.n_prime,
                                decode, view.lanes, plan.source_cb.gen_pmf.alphabet.dtype)
        return recoder, self.inner.start(view)

    def window(self, t0, t1, state, sources, link_in):
        recoder, inner_state = state
        iota, repro = self.inner.window(t0, t1, inner_state, sources, link_in)
        pair = self.plan.pair
        return iota, {**repro, pair: recoder.window(t0, repro[pair])}


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
    try:
        rate_plan = RatePlan(
            n=target.n,
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

    return SeparationPlan(
        pair=pair,
        rate_plan=rate_plan,
        source_cb=source_cb,
        channel_cb=channel_cb,
        metric=target.metric,
        decode_rule=target.decode_rule,
        inner_latency=system.latency_map[pair],
        guarantee=guarantee,
    )


def apply_separation(system: NetworkSystem, plan: SeparationPlan) -> NetworkSystem:
    """Wrap the system's modems of ``plan.pair`` in the plan's codec; every
    other modem stays object-identical, and the wrappers keep the inner
    delay (``ModemWrapper``), which the plan's ``clock`` reads."""
    wrappers = {plan.pair[0]: SeparationSendModem, plan.pair[1]: SeparationRecvModem}
    modems = [
        wrappers[m.user](m, plan) if m.user in wrappers else m for m in system.modems
    ]
    return system.with_modems(modems)


def is_separated(system: NetworkSystem, pair: tuple) -> bool:
    modem = system.modem_for(pair[0])
    return isinstance(modem, SeparationSendModem) and modem.plan.pair == tuple(pair)


@dataclass(frozen=True)
class GuaranteeReport:
    """Measured excess-distortion guarantee for one pair.

    This is the empirical contract separation planning starts from: the
    system delivers the pair's source within ``level`` except with
    probability about ``epsilon_hat``.
    """

    pair: tuple
    level: float
    epsilon_hat: float
    half_width: float
    trials: int
    block_length: int
    exceed_count: int


@dataclass(frozen=True)
class SeparatedGuaranteeReport(GuaranteeReport):
    """End-to-end excess report plus the channel/source error split.

    xi is the embedded-message error rate, eta the source-coder overshoot
    rate; every end-to-end failure implies one of the two, so the
    estimates satisfy the union bound on the same sample. eta and epsilon
    share c * N / n: under the 0/1 Hamming table the source coder's
    distance to its row and the block's score are both N / n bit for bit.
    """

    xi_hat: float = 0.0
    xi_half_width: float = 0.0
    eta_hat: float = 0.0
    eta_half_width: float = 0.0
    none_within_count: int = 0
    ambiguous_count: int = 0


class _BlockScorer:
    """Average distortion of each block x[a : a+n] against y[b : b+n], per
    lane, for the starts a, b, scored as ``rollout`` hands over x and y
    window by window: called as its ``consume``, the scorer counts row i of
    block k, x[a + i] against y[b + i], in the window that holds step
    max(a, b) + i, where both rows have passed. It keeps the rows of x and
    of y that its open blocks still need: of a measured pair, whose
    reproduction comes after its source (by the pair's latency, or by a
    plan's decode step less its source start), only source rows, at most
    that offset. ``distortions()`` gives the (blocks, lanes) averages once
    every window has passed.

    The codec's rules. Under c * Hamming (as ``codec._hamming_scale``
    detects it) the block's one count N of x != y gives N * c / n, the
    codec's expression, so eta and epsilon round alike; under the 0/1 table
    that is N / n. Under any other table it is the count-weighted sum_ab
    d(a, b) * N_ab / n over the table's nonzero entries in order, summed
    from zero, N_ab counting the block's cells x*K + y that equal a*K + b,
    and a letter outside the table's alphabets, which no cell x*K + y can
    name, raises ValueError. Rows are counted as slices of at most 255 rows,
    each marked against every entry in one compare and counted per lane in
    one sum, into reused buffers of at most ``_DISTORTION_CELLS`` marks. A
    block that does not lie inside the horizon raises ValueError when the
    scorer is made.
    """

    def __init__(self, metric: DistortionMetric, pair: tuple, x_starts: np.ndarray,
                 y_starts: np.ndarray, n: int, horizon: int, lanes: int):
        table = metric.table
        for starts in (x_starts, y_starts):
            if np.any((starts < 0) | (starts > horizon - n)):
                raise ValueError(f"a block of {n} runs outside the streams")
        self.metric, self.pair, self.n = metric, pair, n
        self.x_starts, self.y_starts = x_starts, y_starts
        self.ready = np.maximum(x_starts, y_starts)  # where each block's row 0 has passed
        self.x, self.y = _Tail(), _Tail()
        scale = _hamming_scale(metric, table.shape[1])
        entries = np.flatnonzero(table)
        self.weights = [scale] if scale is not None else table.reshape(-1)[entries].tolist()
        # the entries in the cells' dtype, one per plane of the marks: an
        # int64 entry would widen every compare to int64
        cells = Alphabet(table.size).dtype
        self.entries = None if scale is not None else entries.astype(cells)[:, None, None]
        # a uint8 count of at most 255 rows cannot overflow
        rows = max(1, min(n, 255, _DISTORTION_CELLS // (lanes * max(1, len(self.weights)))))
        self.hits = np.empty((len(self.weights), rows, lanes), dtype=bool)
        self.cells = None if scale is not None else np.empty((rows, lanes), cells)
        self.counts = np.zeros((len(self.weights), len(x_starts), lanes), dtype=np.int32)

    def __call__(self, t0: int, repro: dict, sources: dict) -> None:
        n = self.n
        t1 = t0 + len(repro[self.pair])
        self.x.add(t0, sources[self.pair])
        self.y.add(t0, repro[self.pair])
        letters, size = self.metric.table.shape
        rows = self.hits.shape[1]
        # the blocks with rows ready in [t0, t1)
        for k in np.flatnonzero((self.ready < t1) & (self.ready + n > t0)).tolist():
            a, b, c = int(self.x_starts[k]), int(self.y_starts[k]), int(self.ready[k])
            start, end = max(t0 - c, 0), min(t1 - c, n)
            # cut where x or y rows enter the window: no slice joins kept rows
            # to the window's, which would copy them
            cuts = sorted({start, end, *(t0 - s for s in (a, b) if start < t0 - s < end)})
            for lo, hi in zip(cuts, cuts[1:]):
                for i in range(lo, hi, rows):
                    m = min(rows, hi - i)
                    xs, ys = self.x.rows(a + i, a + i + m), self.y.rows(b + i, b + i + m)
                    hits = self.hits[:, :m]
                    if self.entries is None:
                        np.not_equal(xs, ys, out=hits[0])
                    else:
                        if xs.max() >= letters or ys.max() >= size:
                            raise ValueError(f"a letter is outside the metric's {letters}-"
                                             f"letter source or {size}-letter reproduction "
                                             f"alphabet")
                        cell = np.multiply(xs, size, out=self.cells[:m], dtype=self.cells.dtype)
                        cell += ys
                        np.equal(cell, self.entries, out=hits)
                    self.counts[:, k] += hits.view(np.uint8).sum(axis=1, dtype=np.uint8)
        # an open block's next row is t1 - c, or row 0 if it is not ready yet
        todo = self.ready + n > t1
        done = np.maximum(t1 - self.ready[todo], 0)
        for tail, starts in ((self.x, self.x_starts), (self.y, self.y_starts)):
            tail.keep(int((starts[todo] + done).min()) if todo.any() else t1)

    def distortions(self) -> np.ndarray:
        """The (blocks, lanes) average distortions."""
        total = np.zeros(self.counts.shape[1:])
        for weight, count in zip(self.weights, self.counts):
            total += weight * count
        return total / self.n


def measure_end_to_end(
    system: NetworkSystem,
    pair: tuple,
    budget: DistortionBudget,
    trials: int,
    seeds: RandomnessHandle,
    block_length: int | None = None,
) -> GuaranteeReport:
    """Excess-distortion estimate for any pair of the (possibly transformed)
    system, from ``trials`` >= MIN_TRIALS blocks.

    The scored blocks are fixed before the rollout, and they are the block
    starts the guarantee covers: the k-th block start of each lane, k = 0,
    1, ..., compares the source from x_k with the reproduction from y_k. A
    plain pair has blocks of n = ``block_length`` (default: the system's),
    x_k = warmup + k*n and y_k = x_k + its latency, worked out from the
    wiring. A separated pair has one block of n' per channel window k of
    its plan's ``clock``, x_k the window's source start and y_k its decode
    step; it ignores ``block_length`` and reports the channel/source error
    split over the same blocks, from the wrappers' telemetry. With a cap of
    _PLAIN_LANES lanes for a plain pair and _SEPARATED_LANES for a
    separated one, the rollout runs ceil(trials / cap) block starts of
    ceil(trials / starts) lanes, so fewer than one block per start goes
    unscored. Trials fill the lanes of one block start before the next. The
    rollout stops where the last scored block ends; every draw is a prefix
    of the same stream, so a longer rollout would score the same blocks bit
    for bit. The blocks are scored as the rollout passes them
    (``_BlockScorer``, the rollout's consumer), under c * Hamming by one
    mismatch count. Nothing of the measurement grows with the horizon: the
    rollout holds one window of every stream, the scorer the source rows
    of its open blocks, at most the pair's offset from source to
    reproduction, and a separated pair's wrappers, in their block
    recoders, the rows of the blocks they have not yet coded
    (``_BlockRecoder``); only the wrappers' telemetry, a few numbers per
    block, and the per-block counts grow with the trials.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need >= {MIN_TRIALS} trials")
    pair = tuple(pair)
    plan = system.modem_for(pair[0]).plan if is_separated(system, pair) else None
    starts = -(-trials // (_PLAIN_LANES if plan is None else _SEPARATED_LANES))
    lanes = -(-trials // starts)
    if plan is None:
        n = int(block_length if block_length is not None else system.block_length)
        x_starts = system.warmup + n * np.arange(starts)
        y_starts = x_starts + system.latency_map[pair]
    else:
        n = plan.rate_plan.n_prime
        x_starts, _, y_starts = plan.clock(starts)
    # a separated rollout to the end of the last block decodes exactly these windows
    horizon = int(y_starts[-1]) + n
    scorer = _BlockScorer(budget.metric, pair, x_starts, y_starts, n, horizon, lanes)
    traj = rollout(system, seeds, lanes=lanes, horizon=horizon, consume=scorer)
    avgs = scorer.distortions().reshape(-1)[:trials]
    exceed = int((avgs > budget.level).sum())
    report = dict(
        pair=pair,
        level=budget.level,
        epsilon_hat=exceed / trials,
        half_width=wilson_half_width(exceed, trials),
        trials=trials,
        block_length=n,
        exceed_count=exceed,
    )
    if plan is None:
        return GuaranteeReport(**report)

    send = traj.telemetry[pair[0]]["sep_send"]
    codes = traj.telemetry[pair[1]]["sep_recv"]["codes"].reshape(-1)[:trials]
    xi = codes != send["messages"].reshape(-1)[:trials]
    eta = send["roundtrip_avg"].reshape(-1)[:trials] > budget.level
    return SeparatedGuaranteeReport(
        **report,
        xi_hat=float(xi.mean()),
        xi_half_width=wilson_half_width(int(xi.sum()), trials),
        eta_hat=float(eta.mean()),
        eta_half_width=wilson_half_width(int(eta.sum()), trials),
        none_within_count=int((codes == NONE_WITHIN).sum()),
        ambiguous_count=int((codes == AMBIGUOUS).sum()),
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

    @property
    def stream_pass_fraction(self) -> float:
        """Fraction of repetitions where both stream tests exceed p = 0.01."""
        both = (self.p_order1 > 0.01) & (self.p_order2 > 0.01)
        return float(both.mean())

    @property
    def min_joint_p(self) -> float:
        return float(self.p_joint.min())


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
    lanes each) and, per repetition, ``two_sample_test``: the reproduction
    stream at order 1 and 2, and the aligned per-letter (source,
    reproduction) joint law as the letters x * K + y of a K-letter source.
    The total variation distances pool all repetitions. ``trials`` counts
    blocks; the stream length is trials * block_length. Each rollout's
    consumer keeps the source and reproduction of the tested pairs only.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need >= {MIN_TRIALS} blocks")
    pairs = [tuple(pair) for pair in untouched_pairs]
    samples = trials * before.block_length
    max_lat = max(before.latency_map.values())
    T = before.warmup + samples + max_lat + 1

    def streams(system, side_seeds) -> dict:
        """{pair: (x, y)}, the tested pairs' streams in a rollout of ``system``."""
        kept = {pair: tuple(np.empty((T, repetitions), before.sources[pair].alphabet.dtype)
                            for _ in "xy") for pair in pairs}

        def consume(t0, repro, sources):
            for pair, (x, y) in kept.items():
                x[t0 : t0 + len(sources[pair])] = sources[pair]
                y[t0 : t0 + len(repro[pair])] = repro[pair]

        rollout(system, side_seeds, lanes=repetitions, horizon=T, consume=consume)
        return kept

    runs = [streams(before, seeds.derive("ni_before")), streams(after, seeds.derive("ni_after"))]

    def tv(cb, ca):
        """Total variation between the laws of the counts ``cb`` and ``ca``."""
        return 0.5 * float(np.abs(cb / cb.sum() - ca / ca.sum()).sum())

    results = {}
    t0 = before.warmup
    for pair in pairs:
        size = before.sources[pair].alphabet.size
        joint = Alphabet(size * size)
        lat = before.latency_map[pair]
        ys, joints = [], []
        for x, y in (run[pair] for run in runs):
            y = y[t0 + lat : t0 + lat + samples]
            x = x[t0 : t0 + samples].astype(joint.dtype, copy=False)
            # (lanes, samples), so that each repetition's stream is contiguous
            ys.append(np.ascontiguousarray(y.T))
            joints.append(np.ascontiguousarray((x * size + y).T))
        p_order1, p_order2, p_joint = (
            np.array([two_sample_test(b, a, letters, order).p_value for b, a in zip(*sides)])
            for sides, letters, order in ((ys, size, 1), (ys, size, 2), (joints, joint.size, 1)))
        # one bincount over all lanes a side; its margin counts the reproductions
        cb, ca = (np.bincount(j.reshape(-1), minlength=joint.size).reshape(size, size)
                  for j in joints)
        results[pair] = NoninterferenceResult(
            pair, p_order1, p_order2, p_joint,
            tv_repro=tv(cb.sum(axis=0), ca.sum(axis=0)),
            tv_joint=tv(cb.reshape(-1), ca.reshape(-1)),
        )
    return results


@dataclass(frozen=True)
class SeparationStepReport:
    """One step of the pair-by-pair procedure; a pair with no feasible
    plan says why in ``infeasible``, and its step has no plan or rechecks."""

    pair: tuple
    plan_summary: dict | None
    rechecks: dict  # other pair -> {"before": eps, "after": eps, "ok": bool}
    infeasible: str | None = None


def separate_network(
    system: NetworkSystem,
    targets,
    seeds: RandomnessHandle,
    common_seed: RandomnessHandle,
    recheck_trials: int = 2000,
):
    """Apply the transformation to every target pair, one at a time.

    After each step every other target's guarantee is re-measured before and
    after the step and must be statistically unchanged: a target still to
    come at D over blocks of n, one already separated at its separated
    guarantee, D' over blocks of n'. A degradation beyond combined
    confidence widths plus ``RECHECK_SLACK`` aborts loudly. A target with
    no feasible plan (``PlanInfeasible``) stays plain, so every other step
    rechecks it at D over n, and does not stop the others. Returns the
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
            block_length=target.n,
        )
        try:
            plan = plan_separation(current, guar, target, common_seed)
        except PlanInfeasible as exc:
            steps.append(SeparationStepReport(tuple(target.pair), None, {}, str(exc)))
            continue
        new_system = apply_separation(current, plan)
        rechecks = {}
        for other in targets[:k] + targets[k + 1 :]:
            separated = is_separated(current, other.pair)
            obudget = DistortionBudget(other.level_prime if separated else other.level,
                                       other.metric)
            g_old = measure_end_to_end(
                current,
                other.pair,
                obudget,
                recheck_trials,
                seeds.derive("recheck_old", k, *other.pair),
                block_length=other.n,
            )
            g_new = measure_end_to_end(
                new_system,
                other.pair,
                obudget,
                recheck_trials,
                seeds.derive("recheck_new", k, *other.pair),
                block_length=other.n,
            )
            tol = g_old.half_width + g_new.half_width + RECHECK_SLACK
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
