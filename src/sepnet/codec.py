"""Random-codebook codecs.

Two constructions share the Codebook type:

* channel embedding (c_e / c_d): codewords drawn i.i.d. from the source
  law, so a message-bearing codeword stream is statistically a source
  stream and the medium cannot tell the difference;
* lossy source coding (s_e / s_d): codewords drawn i.i.d. from the
  optimal reproduction marginal at the target level, encoder picks the
  closest row.

Codebooks are never serialized. Encoder and decoder share the common
randomness (pmf, n, cardinality, seed) of a codebook, and ``from_spec``
draws the identical entries anew from it. Within one process the encoder
and decoder of a pair simply hold the same entries. A table is one
``sample_iid_array`` draw of cardinality * n symbols, row by row, which
``probcore`` shares out over its worker pool. Generation is prefix-stable:
the first m rows of a draw are the draw of m rows, so ``prefix(m)`` is a
codebook of its own that shares the table.

Codeword search (nearest row, unique row within D) runs over every row
of a codebook, batched over blocks; it is exact, and ties go to the
lowest row index. Binary Hamming searches compare bit-packed rows: a
codebook of at least INDEX_MIN_ROWS = 2^16 rows gets a multi-index hash,
built once and cached; smaller ones are scanned. The hash cuts a word into
s substrings and probes them one at a time, radius r by radius; after
substring k is probed at radius r, every row within distance s*r + k has
been found, so a search stops at the first probe whose bound covers its
answer. A search cuts its words into shares of _QUERY_GROUP; a large one
runs them on ``probcore``'s worker pool. Each word's answer depends on
that word alone, so the rows found do not depend on the worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .probcore import Pmf, RandomnessHandle, _run_shares, sample_iid_array
from .ratedist import DistortionMetric, RdPoint

__all__ = [
    "CHANNEL_EMBEDDING",
    "Codebook",
    "CodebookCapError",
    "RatePlan",
    "RatePlanError",
    "SOURCE_COMPRESSION",
    "build_channel_codebook",
    "build_source_codebook",
    "zipf_message_pmf",
]

# Desk-scale ceiling on the rows of any codebook.
CARDINALITY_CAP = 1 << 20
# Binary Hamming searches over at least this many rows use the multi-index
# hash; smaller ones scan every row.
INDEX_MIN_ROWS = 1 << 16
_SUBSTRING_BITS = 16      # log2 INDEX_MIN_ROWS: about one row per bucket or more
_SCAN_BLOCK = 1 << 17     # elements of one (lanes, rows) scan block
_PROBE_BLOCK = 1 << 18    # candidates compared at once by the index
_PROBE_COST = 16          # one probed candidate costs about this many scanned rows
_QUERY_GROUP = 1 << 9     # words per share of a search; the index's probe arrays grow with them
# A search of at least this many (word, row) pairs sends its shares to the
# worker pool; a smaller one runs them on the calling thread.
_POOL_COMPARISONS = 1 << 24

CHANNEL_EMBEDDING = "channel-embedding"
SOURCE_COMPRESSION = "source-compression"


class CodebookCapError(MemoryError):
    """Codebook would exceed the desk-scale cardinality cap."""


class RatePlanError(ValueError):
    """Rate bookkeeping violates the construction's hypotheses."""


def cardinality_for(rate: float, n: int) -> int:
    return max(1, math.ceil(2.0 ** (n * rate)))


@dataclass(frozen=True)
class RatePlan:
    """Rate bookkeeping tying the source coder to the embedding coder.

    ``channel_rate`` = R_X(D) - alpha and ``source_rate`` = R_X'(D') +
    psi/2. Validity requires psi > 0, the block-ratio condition
    n/n' > R_X'(D')/R_X(D) + psi, and that the source coder's message set
    fits inside the channel coder's (n*channel_rate >= n'*source_rate).
    """

    n: int
    n_prime: int
    level: float
    level_prime: float
    rate_at_level: float        # R_X(D)
    rate_at_level_prime: float  # R_X'(D')
    psi: float
    alpha: float
    channel_rate: float = field(init=False)
    source_rate: float = field(init=False)

    def __post_init__(self):
        if self.n < 1 or self.n_prime < 1:
            raise RatePlanError("block lengths must be >= 1")
        if self.psi <= 0:
            raise RatePlanError("psi must be > 0")
        if self.alpha <= 0:
            raise RatePlanError("alpha must be > 0")
        if self.rate_at_level <= 0:
            raise RatePlanError("R_X(D) must be > 0 for embedding to carry anything")
        ratio = self.rate_at_level_prime / self.rate_at_level
        if not self.n / self.n_prime > ratio + self.psi:
            raise RatePlanError(
                f"need n/n' > R'(D')/R(D) + psi: {self.n}/{self.n_prime} "
                f"= {self.n / self.n_prime:.6f} vs {ratio + self.psi:.6f}"
            )
        channel_rate = self.rate_at_level - self.alpha
        source_rate = self.rate_at_level_prime + self.psi / 2
        if channel_rate <= 0:
            raise RatePlanError("alpha too large: channel rate must stay positive")
        if self.n * channel_rate < self.n_prime * source_rate:
            raise RatePlanError(
                "source message set does not fit inside the channel message set: "
                f"{self.n} * {channel_rate:.6f} < {self.n_prime} * {source_rate:.6f}"
            )
        object.__setattr__(self, "channel_rate", channel_rate)
        object.__setattr__(self, "source_rate", source_rate)

    @staticmethod
    def default_psi(rate_at_level: float, rate_at_level_prime: float) -> float:
        """Slack choice for the equal-block-length specialization."""
        return 0.5 * (rate_at_level - rate_at_level_prime) / rate_at_level

    @staticmethod
    def default_alpha(rate_at_level: float, psi: float) -> float:
        """Rate back-off implied by psi in the equal-block construction."""
        return rate_at_level / (rate_at_level + psi) * (psi / 2)

    @classmethod
    def make(
        cls,
        n: int,
        level: float,
        level_prime: float,
        rate_at_level: float,
        rate_at_level_prime: float,
        n_prime: int | None = None,
        psi: float | None = None,
        alpha: float | None = None,
    ) -> "RatePlan":
        n_prime = n if n_prime is None else n_prime
        if psi is None:
            if n_prime != n:
                raise RatePlanError("psi has no default for unequal block lengths")
            psi = cls.default_psi(rate_at_level, rate_at_level_prime)
        if alpha is None:
            alpha = cls.default_alpha(rate_at_level, psi)
        return cls(
            n=n,
            n_prime=n_prime,
            level=level,
            level_prime=level_prime,
            rate_at_level=rate_at_level,
            rate_at_level_prime=rate_at_level_prime,
            psi=psi,
            alpha=alpha,
        )

    @property
    def channel_cardinality(self) -> int:
        return cardinality_for(self.channel_rate, self.n)

    @property
    def source_cardinality(self) -> int:
        return cardinality_for(self.source_rate, self.n_prime)


@dataclass(frozen=True, eq=False)
class Codebook:
    """cardinality x n symbol table regenerable from its generation spec.

    The bit-packed rows and the search index are built on first use and
    kept with the table.
    """

    kind: str
    n: int
    cardinality: int
    gen_pmf: Pmf
    common_seed: RandomnessHandle
    entries: np.ndarray = field(repr=False)

    @classmethod
    def generate(
        cls,
        kind: str,
        gen_pmf: Pmf,
        n: int,
        cardinality: int,
        common_seed: RandomnessHandle,
    ) -> "Codebook":
        if cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        if cardinality > CARDINALITY_CAP:
            raise CodebookCapError(
                f"cardinality {cardinality} exceeds cap {CARDINALITY_CAP}; "
                f"use a smaller n * rate product"
            )
        entries = sample_iid_array(gen_pmf, cardinality * n, common_seed.generator())
        entries = entries.reshape(cardinality, n)
        entries.flags.writeable = False
        return cls(kind, n, cardinality, gen_pmf, common_seed, entries)

    def spec(self) -> dict:
        """Everything needed to regenerate the entries bit-exactly."""
        return {
            "kind": self.kind,
            "n": self.n,
            "cardinality": self.cardinality,
            "gen_probs": [float(v) for v in self.gen_pmf.probs],
            "seed": self.common_seed.seed,
            "stream_id": self.common_seed.stream_id,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Codebook":
        """Draw the codebook of a spec anew; its entries equal the original's."""
        return cls.generate(
            spec["kind"],
            Pmf.from_probs(spec["gen_probs"]),
            spec["n"],
            spec["cardinality"],
            RandomnessHandle(spec["seed"], spec["stream_id"]),
        )

    def prefix(self, m: int) -> "Codebook":
        """The first m rows as a codebook sharing this one's entries; its
        spec regenerates exactly those rows."""
        if not 1 <= m <= self.cardinality:
            raise ValueError(f"prefix of {m} rows out of range [1, {self.cardinality}]")
        return dataclasses.replace(self, cardinality=m, entries=self.entries[:m])

    def packed(self) -> np.ndarray | None:
        """Bit-packed rows for the binary fast path (None if not binary)."""
        cached = getattr(self, "_packed_cache", None)
        if cached is not None:
            return cached
        packed = _pack_bits(self.entries) if _packable(self.entries, self.n) else None
        object.__setattr__(self, "_packed_cache", packed)
        return packed

    def _hamming_index(self) -> "_HammingIndex":
        """Multi-index hash over the packed rows, built once."""
        index = getattr(self, "_index_cache", None)
        if index is None:
            index = _HammingIndex(self.packed(), self.n)
            object.__setattr__(self, "_index_cache", index)
        return index


def _packable(arr: np.ndarray, n: int) -> bool:
    return n <= 64 and arr.size > 0 and arr.max(initial=0) <= 1


def _pack_bits(arr: np.ndarray) -> np.ndarray:
    """Pack (rows, n<=64) binary symbols into one uint64 word per row."""
    rows, n = arr.shape
    padded = np.zeros((rows, 64), dtype=np.uint8)
    padded[:, :n] = arr
    return np.ascontiguousarray(
        np.packbits(padded, axis=1).view(">u8").reshape(rows).astype(np.uint64)
    )


def _hamming_scale(metric: DistortionMetric) -> float | None:
    """If the metric is c * Hamming on matched binary alphabets, return c."""
    t = metric.table
    if t.shape != (2, 2):
        return None
    c = t[0, 1]
    if c > 0 and abs(t[1, 0] - c) < 1e-15 and t[0, 0] == 0 and t[1, 1] == 0:
        return float(c)
    return None


def _scan_distances(packed: np.ndarray, words: np.ndarray):
    """Yield (first lane, (lanes, rows) Hamming distances) block by block."""
    step = max(1, _SCAN_BLOCK // max(len(packed), 1))
    for a in range(0, len(words), step):
        yield a, np.bitwise_count(words[a : a + step, None] ^ packed[None, :])


def _by_shares(search, words: np.ndarray, rows: int):
    """``search(words)`` over shares of _QUERY_GROUP words, joined. The
    shares go to the worker pool when the words meet at least
    _POOL_COMPARISONS (word, row) pairs over ``rows`` rows. Each word's
    answer depends on that word alone, so the split changes no result."""
    starts = range(0, max(len(words), 1), _QUERY_GROUP)  # one share for no words
    shares = [(words[a : a + _QUERY_GROUP],) for a in starts]
    if len(words) * rows >= _POOL_COMPARISONS:
        found = _run_shares(search, shares)
    else:
        found = [search(*share) for share in shares]
    if isinstance(found[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*found))
    return np.concatenate(found)


def _scan_nearest(packed: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row and its distance per word by exhaustive scan."""
    rows = np.empty(len(words), dtype=np.int64)
    dist = np.empty(len(words), dtype=np.int64)
    for a, d in _scan_distances(packed, words):
        j = d.argmin(axis=1)
        rows[a : a + len(j)] = j
        dist[a : a + len(j)] = d[np.arange(len(j)), j]
    return rows, dist


def _scan_within(packed: np.ndarray, words: np.ndarray, thresh: int) -> np.ndarray:
    """Unique row within distance ``thresh`` per word by exhaustive scan."""
    out = np.empty(len(words), dtype=np.int64)
    for a, d in _scan_distances(packed, words):
        within = d <= thresh
        count = within.sum(axis=1)
        out[a : a + len(count)] = np.where(
            count == 1, within.argmax(axis=1), np.where(count == 0, NONE_WITHIN, AMBIGUOUS)
        )
    return out


@functools.cache
def _weight_masks(width: int, r: int) -> np.ndarray:
    """Every width-bit mask with exactly r bits set (shared, read-only)."""
    masks = np.array(
        [sum(1 << i for i in c) for c in itertools.combinations(range(width), r)],
        dtype=np.int64,
    )
    masks.flags.writeable = False
    return masks


class _HammingIndex:
    """Exact multi-index hash over packed n-bit codewords (Norouzi, Punjani
    & Fleet, CVPR 2012).

    Each word is cut into s substrings of at most 16 bits. Per substring
    the rows are kept sorted by substring value, with a dense table of
    bucket offsets. Probing substring k at radius r looks up the buckets
    exactly r bits from the query's key there. The (r, k) pairs are probed
    in order, one substring at a time, so once substring k is probed at
    radius r, the substrings before it are probed up to r and those after
    it up to r - 1. A row still unfound differs from the query in at least
    r + 1 bits on each of substrings 0..k and r on the rest: by pigeonhole,
    every row within distance s*r + k has been found. ``nearest`` stops a
    lane as soon as its best distance is within that bound, ``within``
    after the probe whose bound reaches its threshold. A lane whose probes
    would cost more than a scan of the whole table is scanned instead.
    """

    def __init__(self, packed: np.ndarray, n: int):
        self.m = len(packed)
        self.n = n
        self.packed = packed
        self.budget = self.m // _PROBE_COST  # lookups + candidates per lane
        self.s = -(-n // _SUBSTRING_BITS)
        base, extra = divmod(n, self.s)
        values = packed >> np.uint64(64 - n)
        self.parts = []
        shift = n
        for k in range(self.s):
            width = base + (k < extra)
            shift -= width
            keys = ((values >> np.uint64(shift)) & np.uint64((1 << width) - 1)).astype(
                np.uint16
            )
            order = np.argsort(keys, kind="stable")
            offsets = np.zeros((1 << width) + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys, minlength=1 << width), out=offsets[1:])
            self.parts.append((shift, width, offsets, order.astype(np.int32), packed[order]))

    def _schedule(self, words: np.ndarray):
        """Yield (bound, radius, substring, the words' keys on it) in probe
        order; once that probe is done, every row within ``bound`` of a
        word has been found."""
        values = words >> np.uint64(64 - self.n)
        keys = [
            ((values >> np.uint64(shift)) & np.uint64((1 << width) - 1)).astype(np.int64)
            for shift, width, *_ in self.parts
        ]
        for r in range(_SUBSTRING_BITS + 1):
            for k, part in enumerate(self.parts):
                yield self.s * r + k, r, part, keys[k]

    def _probe(self, words, part, key, lanes, spent, r):
        """Candidates of ``lanes`` in one substring's buckets at radius
        exactly r, as runs from ``_runs``.

        Returns the lanes probed, the lanes that would go over budget (left
        unprobed: first by the mean bucket load, then by the actual one) and
        the runs; ``spent`` counts each lane's lookups and candidates so far.
        """
        _, width, offsets, rows, packed = part
        masks = _weight_masks(width, r)
        likely = spent[lanes] + len(masks) + (len(masks) * self.m >> width) <= self.budget
        over = lanes[~likely]
        lanes = lanes[likely]
        bucket = key[lanes, None] ^ masks[None, :]
        lo = offsets[bucket]
        cnt = offsets[bucket + 1] - lo
        need = spent[lanes] + len(masks) + cnt.sum(axis=1)
        fits = need <= self.budget
        if not fits.all():
            over = np.concatenate([over, lanes[~fits]])
            lanes, lo, cnt = lanes[fits], lo[fits], cnt[fits]
        spent[lanes] = need[fits]
        return lanes, over, self._runs(words, rows, packed, lanes, lo, cnt)

    def _runs(self, words, rows, packed, lanes, lo, cnt):
        """Yield (lanes, candidates per lane, sorted rows, positions,
        distances) in chunks of about _PROBE_BLOCK candidates; each lane's
        candidates are contiguous."""
        per_lane = cnt.sum(axis=1)
        cuts = np.searchsorted(
            np.cumsum(per_lane), np.arange(_PROBE_BLOCK, per_lane.sum(), _PROBE_BLOCK)
        )
        for a, b in itertools.pairwise([0, *np.unique(cuts).tolist(), len(lanes)]):
            if a == b:
                continue
            flat = cnt[a:b].ravel()
            pos = np.repeat(lo[a:b].ravel() - (np.cumsum(flat) - flat), flat)
            pos += np.arange(len(pos))
            lane_words = np.repeat(words[lanes[a:b]], per_lane[a:b])
            dist = np.bitwise_count(packed[pos] ^ lane_words)
            yield lanes[a:b], per_lane[a:b], rows, pos, dist

    def nearest(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest row and its distance per word; ties to the lowest row."""
        return _by_shares(self._nearest, words, self.m)

    def _nearest(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        best = np.full(len(words), np.iinfo(np.int64).max)  # distance << 32 | row
        spent = np.zeros(len(words), dtype=np.int64)
        lanes = np.arange(len(words))
        scan = [np.empty(0, dtype=np.int64)]
        for bound, r, part, key in self._schedule(words):
            lanes, over, runs = self._probe(words, part, key, lanes, spent, r)
            scan.append(over)
            for run_lanes, per_lane, rows, pos, dist in runs:
                ends = np.cumsum(per_lane)
                filled = per_lane > 0
                low = np.minimum.reduceat(dist, (ends - per_lane)[filled])
                # only candidates at their lane's minimum can win; the
                # lowest row among them breaks the tie
                tied = np.flatnonzero(dist == np.repeat(low, per_lane[filled]))
                owner = run_lanes[np.searchsorted(ends, tied, side="right")]
                found = (dist[tied].astype(np.int64) << 32) | rows[pos[tied]]
                np.minimum.at(best, owner, found)
            # every row within ``bound`` is found, so a best at or below it
            # is final, ties included
            lanes = lanes[(best[lanes] >> 32) > bound]
            if not len(lanes):
                break
        rows, dist = best & 0xFFFFFFFF, best >> 32
        scan = np.concatenate(scan)
        if len(scan):
            rows[scan], dist[scan] = _scan_nearest(self.packed, words[scan])
        return rows, dist

    def within(self, words: np.ndarray, thresh: int) -> np.ndarray:
        """Unique row within distance ``thresh`` per word, else NONE_WITHIN
        or AMBIGUOUS."""
        return _by_shares(functools.partial(self._within, thresh=thresh), words, self.m)

    def _within(self, words: np.ndarray, thresh: int) -> np.ndarray:
        low = np.full(len(words), self.m, dtype=np.int64)
        high = np.full(len(words), -1, dtype=np.int64)
        spent = np.zeros(len(words), dtype=np.int64)
        lanes = np.arange(len(words))
        scan = [np.empty(0, dtype=np.int64)]
        for bound, r, part, key in self._schedule(words):
            if bound > thresh:  # the previous probe found every row within thresh
                break
            lanes, over, runs = self._probe(words, part, key, lanes, spent, r)
            scan.append(over)
            for run_lanes, per_lane, rows, pos, dist in runs:
                hit = np.flatnonzero(dist <= thresh)
                owner = run_lanes[np.searchsorted(np.cumsum(per_lane), hit, side="right")]
                np.minimum.at(low, owner, rows[pos[hit]])
                np.maximum.at(high, owner, rows[pos[hit]])
        out = np.where(high < 0, NONE_WITHIN, np.where(low == high, low, AMBIGUOUS))
        scan = np.concatenate(scan)
        if len(scan):
            out[scan] = _scan_within(self.packed, words[scan], thresh)
        return out


def _gathered_distortions(
    codebook: Codebook, blocks: np.ndarray, metric: DistortionMetric
):
    """Yield each block's average distortion to every row, by table
    lookup: the search path for metrics the packed rows do not serve."""
    entries64 = codebook.entries.astype(np.int64)
    for block in blocks:
        yield metric.table[entries64, block.astype(np.int64)[None, :]].mean(axis=1)


def batch_min_distortion_rows(
    codebook: Codebook,
    blocks: np.ndarray,
    metric: DistortionMetric,
) -> tuple[np.ndarray, np.ndarray]:
    """Row index and average distortion of the closest codeword per block.

    ``blocks`` is (batch, n). Exact, with ties to the lowest row index.
    Binary Hamming searches go through the packed rows (multi-index hashed
    from INDEX_MIN_ROWS rows up, scanned below); other metrics gather per
    block.
    """
    scale = _hamming_scale(metric)
    packed = codebook.packed()
    if packed is not None and scale is not None:
        words = _pack_bits(blocks)
        if codebook.cardinality >= INDEX_MIN_ROWS:
            rows, dist = codebook._hamming_index().nearest(words)
        else:
            scan = functools.partial(_scan_nearest, packed)
            rows, dist = _by_shares(scan, words, len(packed))
        return rows, dist * (scale / codebook.n)
    best_idx = np.empty(len(blocks), dtype=np.int64)
    best_avg = np.empty(len(blocks), dtype=np.float64)
    for i, avg in enumerate(_gathered_distortions(codebook, blocks, metric)):
        best_idx[i] = avg.argmin()
        best_avg[i] = avg[best_idx[i]]
    return best_idx, best_avg


NONE_WITHIN = -1
AMBIGUOUS = -2
DECODE_RULES = ("argmin", "within_d")


def batch_unique_within_decode(
    codebook: Codebook,
    blocks: np.ndarray,
    metric: DistortionMetric,
    level: float,
) -> np.ndarray:
    """Unique-within-D decode per block: the message index, or NONE_WITHIN /
    AMBIGUOUS codes. Exact: rows count once however they are found, so two
    identical rows within D are AMBIGUOUS."""
    scale = _hamming_scale(metric)
    packed = codebook.packed()
    if packed is not None and scale is not None:
        words = _pack_bits(blocks)
        thresh = math.floor(level * codebook.n / scale + 1e-12)
        if codebook.cardinality >= INDEX_MIN_ROWS:
            return codebook._hamming_index().within(words, thresh)
        scan = functools.partial(_scan_within, packed, thresh=thresh)
        return _by_shares(scan, words, len(packed))
    out = np.empty(len(blocks), dtype=np.int64)
    for i, avg in enumerate(_gathered_distortions(codebook, blocks, metric)):
        hits = np.flatnonzero(avg <= level + 0.0)
        if len(hits) == 1:
            out[i] = hits[0]
        else:
            out[i] = NONE_WITHIN if len(hits) == 0 else AMBIGUOUS
    return out


def _decode_blocks(
    codebook: Codebook,
    blocks: np.ndarray,
    metric: DistortionMetric,
    level: float,
    rule: str,
) -> np.ndarray:
    """Channel-decode each block under ``rule``: ``argmin`` gives the nearest
    row, ``within_d`` the unique row within ``level`` or NONE_WITHIN /
    AMBIGUOUS."""
    if rule == "argmin":
        return batch_min_distortion_rows(codebook, blocks, metric)[0]
    if rule == "within_d":
        return batch_unique_within_decode(codebook, blocks, metric, level)
    raise ValueError(f"unknown decode rule {rule!r}")


def build_channel_codebook(
    plan: RatePlan,
    p_x: Pmf,
    c_seed: RandomnessHandle,
) -> Codebook:
    """Embedding codebook: codewords i.i.d. from the source law itself."""
    return Codebook.generate(CHANNEL_EMBEDDING, p_x, plan.n, plan.channel_cardinality, c_seed)


def build_source_codebook(
    plan: RatePlan,
    point: RdPoint,
    c_seed: RandomnessHandle,
) -> Codebook:
    """Lossy source codebook: rows i.i.d. from the optimal reproduction
    marginal q* of ``point``, the rate-distortion solution at the target
    level D'. The caller solves and checks it (``plan_separation`` rejects
    an unconverged solve); nothing is solved again here."""
    q_star = Pmf.from_probs(point.repro_marginal)
    return Codebook.generate(
        SOURCE_COMPRESSION, q_star, plan.n_prime, plan.source_cardinality, c_seed
    )


def zipf_message_pmf(cardinality: int, exponent: float) -> Pmf:
    """Zipf-skewed message distribution over a message set."""
    weights = (1.0 + np.arange(cardinality)) ** (-exponent)
    return Pmf.from_probs(weights / weights.sum())
