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
draws the identical rows anew from it. A codebook is stored as nothing
but bit planes: a row over K letters is K - 1 one-hot planes of
ceil(n / 64) uint64 words, plane a marking where letter a + 1 stands, so
a binary row with n <= 64 is one word. The rows are one
``sample_iid_array`` draw of cardinality * n symbols, row by row, drawn
straight into the planes; under the fair coin, exactly (0.5, 0.5), row i
is the generator's raw 64-bit words [i * w, (i + 1) * w), w =
ceil(n / 64). Generation is prefix-stable: the first m rows of a draw are
the draw of m rows, so a channel codebook draws only the rows that carry
messages.

Codeword search (nearest row, unique row within D) is exact over every
row, batched over blocks, with ties to the lowest row. One scan compares
the blocks' planes with the rows'. Under c * Hamming the distance is
c * N / n, N the popcount of the OR over planes of block XOR row: under
the 0/1 Hamming table, block scoring's N / n bit for bit, so eta and
epsilon share it (``separation.SeparatedGuaranteeReport``). Under any
other table d it is the count-weighted sum of d(a, b) * N_ab / n over
letter pairs, N_ab = popcount(X_a & C_b) counting where block X holds a
and row C holds b, letter 0's plane the complement of the others. d is
read as d(block, row) for a source codebook, whose rows are
reproductions, and as d(row, block) for a channel codebook, whose rows
are sources. A binary Hamming search over at least INDEX_MIN_ROWS
one-word rows goes through ``_HammingIndex`` instead: per substring key
of at most 16 bits a part holds int32 bucket offsets, the rows in key
order and their bits outside the key (a uint32 when the n - width of them
fit, as for every n <= 48, else the row's n bits with the key cleared), so
a candidate r bits off in the key is r + popcount(non-key XOR) away. A
search cuts its blocks into shares of _QUERY_GROUP; one of at least
_POOL_COMPARISONS (block, row) pairs goes to ``probcore``'s worker pool in
equal shares, a multiple of the worker count of them. Each block's answer
depends on that block alone, so no result depends on the worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import probcore
from .probcore import (
    Pmf,
    RandomnessHandle,
    _pack_planes,
    _run_shares,
    _unpack_planes,
    sample_iid_array,
)
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

# Desk-scale ceiling on the rows drawn for any codebook.
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
    psi/2. Validity requires n' <= n (a channel window carries one source
    block), psi > 0, the block-ratio condition
    n/n' > R_X'(D')/R_X(D) + psi, and that the source coder's message set
    fits inside the channel coder's (n*channel_rate >= n'*source_rate).
    psi and alpha left None take the equal-block construction's choices:
    psi = (R_X(D) - R_X'(D')) / (2 R_X(D)), which needs n' = n, and alpha =
    R_X(D) / (R_X(D) + psi) * psi/2.
    """

    n: int
    n_prime: int
    level: float
    level_prime: float
    rate_at_level: float        # R_X(D)
    rate_at_level_prime: float  # R_X'(D')
    psi: float | None = None
    alpha: float | None = None
    channel_rate: float = field(init=False)
    source_rate: float = field(init=False)

    def __post_init__(self):
        if self.n < 1 or self.n_prime < 1:
            raise RatePlanError("block lengths must be >= 1")
        if self.n_prime > self.n:
            raise RatePlanError(f"n_prime: {self.n_prime} exceeds n = {self.n}; a channel "
                                f"window carries one source block")
        if self.rate_at_level <= 0:
            raise RatePlanError("R_X(D) must be > 0 for embedding to carry anything")
        rate, rate_prime = self.rate_at_level, self.rate_at_level_prime
        if self.psi is None:
            if self.n_prime != self.n:
                raise RatePlanError("psi has no default for unequal block lengths")
            object.__setattr__(self, "psi", 0.5 * (rate - rate_prime) / rate)
        if self.alpha is None:
            object.__setattr__(self, "alpha", rate / (rate + self.psi) * (self.psi / 2))
        if self.psi <= 0:
            raise RatePlanError("psi must be > 0")
        if self.alpha <= 0:
            raise RatePlanError("alpha must be > 0")
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

    @property
    def channel_cardinality(self) -> int:
        return cardinality_for(self.channel_rate, self.n)

    @property
    def source_cardinality(self) -> int:
        return cardinality_for(self.source_rate, self.n_prime)


@dataclass(frozen=True, eq=False)
class Codebook:
    """cardinality codewords of n symbols, regenerable from their
    generation spec.

    ``table`` is what the codebook stores, read-only: the rows' planes,
    flat, so one word per row for a binary n <= 64 (a symbol table given
    to the constructor is packed). ``rows`` gathers codewords as symbols.
    The search index is built on first use.
    """

    kind: str
    n: int
    cardinality: int
    gen_pmf: Pmf
    common_seed: RandomnessHandle
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.table.ndim == 2:
            object.__setattr__(self, "table", _pack_planes(self.table, len(self.gen_pmf)).ravel())
        self.table.flags.writeable = False

    @classmethod
    def generate(
        cls,
        kind: str,
        gen_pmf: Pmf,
        n: int,
        cardinality: int,
        common_seed: RandomnessHandle,
    ) -> "Codebook":
        """Draw ``cardinality`` rows of n symbols i.i.d. from ``gen_pmf``
        with ``common_seed``'s generator, as one ``sample_iid_array`` draw
        of packed rows."""
        if cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        if cardinality > CARDINALITY_CAP:
            raise CodebookCapError(
                f"cardinality {cardinality} exceeds cap {CARDINALITY_CAP}; "
                f"use a smaller n * rate product"
            )
        table = sample_iid_array(gen_pmf, cardinality * n, common_seed.generator(), packed_row=n)
        return cls(kind, n, cardinality, gen_pmf, common_seed, table)

    def spec(self) -> dict:
        """Everything needed to regenerate the rows bit-exactly."""
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
        """Draw the codebook of a spec anew; its rows equal the original's."""
        return cls.generate(
            spec["kind"],
            Pmf.from_probs(spec["gen_probs"]),
            spec["n"],
            spec["cardinality"],
            RandomnessHandle(spec["seed"], spec["stream_id"]),
        )

    def _planes(self) -> np.ndarray:
        """The rows' planes, (cardinality, planes, words)."""
        return self.table.reshape(self.cardinality, -1, -(-self.n // 64))

    def rows(self, idx) -> np.ndarray:
        """The codewords at ``idx`` (anything that indexes an array) as
        symbols, shape ``idx``'s shape + (n,)."""
        return _unpack_planes(self._planes()[idx], self.n)

    @property
    def entries(self) -> np.ndarray:
        """The whole (cardinality, n) symbol table, unpacked anew. For
        inspection; the codec gathers with ``rows``."""
        return self.rows(slice(None))

    def _hamming_index(self) -> "_HammingIndex":
        """Multi-index hash over the one-word rows, built once."""
        index = getattr(self, "_index_cache", None)
        if index is None:
            index = _HammingIndex(self.table, self.n)
            object.__setattr__(self, "_index_cache", index)
        return index


def _hamming_scale(metric: DistortionMetric, letters: int) -> float | None:
    """c if the metric is c * Hamming on two alphabets of ``letters`` letters."""
    t, off = metric.table, ~np.eye(letters, dtype=bool)
    if t.shape == off.shape and letters > 1 and t[0, 1] > 0 and not t[~off].any():
        if np.all(np.abs(t[off] - t[0, 1]) < 1e-15):
            return float(t[0, 1])
    return None


def _scan_distances(kernel, rows: np.ndarray, words: np.ndarray):
    """Yield ``kernel``'s (lanes, rows) distances, a block of lanes at a time."""
    step = max(1, _SCAN_BLOCK // max(len(rows), 1))
    for a in range(0, len(words), step):
        yield kernel(rows, words[a : a + step])


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits of (lanes, rows, words) words, summed over the last axis."""
    counts = np.bitwise_count(words)
    return counts[..., 0] if counts.shape[-1] == 1 else counts.sum(axis=-1, dtype=np.int32)


def _mismatches(rows: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(lanes, rows) counts of the positions where a word and a row hold
    different letters: where any of their planes differ."""
    diff = words[:, None, 0] ^ rows[None, :, 0]
    for a in range(1, rows.shape[1]):
        diff |= words[:, None, a] ^ rows[None, :, a]
    return _popcounts(diff)


def _weighted(table: np.ndarray, n: int, rows: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(lanes, rows) average distortions, sum_ab table[a, b] * N_ab / n over
    the letter planes: N_ab counts where a word holds a and a row b."""
    total = np.zeros((len(words), len(rows)))
    for a, b in zip(*np.nonzero(table)):
        total += table[a, b] * _popcounts(words[:, None, a] & rows[None, :, b])
    return total / n


def _letter_planes(planes: np.ndarray, letters: int, n: int) -> np.ndarray:
    """Letter 0's plane (no plane set, within n) before those of 1 .. letters - 1."""
    zero = _pack_planes(np.ones((1, n), dtype=np.uint8), 2)[0] & ~np.bitwise_or.reduce(planes, 1)
    return np.concatenate([zero[:, None], planes[:, : letters - 1]], axis=1)


def _search(codebook: Codebook, blocks: np.ndarray, metric: DistortionMetric):
    """The search of ``blocks``: (rows' planes, blocks' planes, kernel, c,
    index). Under c * Hamming the kernel counts differing positions, and
    one-word rows from INDEX_MIN_ROWS up have the multi-index hash; under
    any other table (oriented by kind) c is None and the kernel gives
    distortions. A block letter outside the table's block alphabet raises
    ValueError."""
    table = metric.table if codebook.kind == SOURCE_COMPRESSION else metric.table.T
    if blocks.size and blocks.max() >= table.shape[0]:
        raise ValueError(
            f"block letter {int(blocks.max())} is outside the metric's "
            f"{table.shape[0]}-letter block alphabet"
        )
    rows = codebook._planes()
    c = _hamming_scale(metric, rows.shape[1] + 1)
    if c is not None:
        one_word = len(codebook.table) == codebook.cardinality
        index = codebook._hamming_index() if one_word and len(rows) >= INDEX_MIN_ROWS else None
        return rows, _pack_planes(blocks, rows.shape[1] + 1), _mismatches, c, index
    (ka, kb), n = table.shape, codebook.n
    if len(codebook.gen_pmf) > kb:
        raise ValueError(f"{len(codebook.gen_pmf)}-letter codebook, {kb}-letter metric")
    words = _letter_planes(_pack_planes(blocks, ka), ka, n)
    return _letter_planes(rows, kb, n), words, functools.partial(_weighted, table, n), None, None


def _by_shares(search, words: np.ndarray, rows: int):
    """``search(words)`` over shares of the words, joined. A search of at
    least _POOL_COMPARISONS (word, row) pairs over ``rows`` rows goes to
    the worker pool in equal shares, w of them for each whole w *
    _QUERY_GROUP words (at least w) on w workers, so every worker gets as
    many words; a smaller one runs here in shares of _QUERY_GROUP. Each
    word's answer depends on that word alone, so the split changes no
    result."""
    pooled = len(words) * rows >= _POOL_COMPARISONS
    if pooled:
        workers = probcore._worker_count()
        count = workers * max(1, len(words) // (workers * _QUERY_GROUP))
        cuts = [len(words) * i // count for i in range(count + 1)]
    else:
        cuts = [*range(0, max(len(words), 1), _QUERY_GROUP), len(words)]  # one share for no words
    shares = [(words[a:b],) for a, b in itertools.pairwise(cuts)]
    found = _run_shares(search, shares) if pooled else [search(*share) for share in shares]
    if isinstance(found[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*found))
    return np.concatenate(found)


def _scan_nearest(kernel, rows: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row and its distance per word by exhaustive scan."""
    found = [(np.empty(0, dtype=np.int64),) * 2]  # typed for no words
    for d in _scan_distances(kernel, rows, words):
        j = d.argmin(axis=1)
        found.append((j, d[np.arange(len(j)), j]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _scan_within(kernel, rows: np.ndarray, words: np.ndarray, thresh) -> np.ndarray:
    """Unique row within distance ``thresh`` per word by exhaustive scan."""
    out = [np.empty(0, dtype=np.int64)]
    for d in _scan_distances(kernel, rows, words):
        within = d <= thresh
        count = within.sum(axis=1)
        out.append(np.where(count == 1, within.argmax(axis=1),
                            np.where(count == 0, NONE_WITHIN, AMBIGUOUS)))
    return np.concatenate(out)


@functools.cache
def _weight_masks(width: int, r: int) -> np.ndarray:
    """Every width-bit mask with exactly r bits set (shared, read-only)."""
    masks = np.array(
        [sum(1 << i for i in c) for c in itertools.combinations(range(width), r)],
        dtype=np.int64,
    )
    masks.flags.writeable = False
    return masks


def _rest(values: np.ndarray, shift: int, width: int, n: int) -> np.ndarray:
    """The bits of n-bit ``values`` outside the key bits [shift, shift +
    width), worked out in place of ``values``: closed up into a uint32 when
    the n - width of them fit, else left where they are with the key bits
    cleared."""
    if n - width > 32:
        values &= ~np.uint64(((1 << width) - 1) << shift)
        return values
    low = values & np.uint64((1 << shift) - 1)
    values >>= np.uint64(shift + width)
    values <<= np.uint64(shift)
    values |= low
    return values.astype(np.uint32)


def _index_part(values: np.ndarray, n: int, shift: int, width: int):
    """One substring's part of the index: the rows' keys are ``values``'
    bits [shift, shift + width); returns (shift, width, int32 bucket
    offsets, the rows sorted by key, their non-key bits in that order).
    The parts are built side by side, so each temporary is narrowed or
    dropped as soon as it is spent: the order is int32 from the sort on,
    and non-key bits that fit a uint32 are worked out in row order, in
    blocks of ``_PROBE_BLOCK`` rows, and gathered as uint32."""
    keys = ((values >> np.uint64(shift)) & np.uint64((1 << width) - 1)).astype(np.uint16)
    order = np.argsort(keys, kind="stable").astype(np.int32)
    offsets = np.zeros((1 << width) + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys, minlength=1 << width), out=offsets[1:])
    del keys
    if n - width > 32:
        return shift, width, offsets, order, _rest(values[order], shift, width, n)
    rest = np.empty(len(values), dtype=np.uint32)
    for a in range(0, len(values), _PROBE_BLOCK):
        rest[a : a + _PROBE_BLOCK] = _rest(values[a : a + _PROBE_BLOCK].copy(), shift, width, n)
    return shift, width, offsets, order, rest[order]


class _HammingIndex:
    """Exact multi-index hash over packed n-bit codewords (Norouzi, Punjani
    & Fleet, CVPR 2012).

    Each word is cut into s substrings of at most 16 bits. Per substring a
    part keeps a dense table of int32 bucket offsets, the rows sorted by
    their key (the substring's value), and in that order the rows' bits
    outside the key: closed up into a uint32 when the n - width of them fit,
    as they do for every n <= 48, else the row's n bits as a uint64 with the
    key cleared. Probing substring k at radius r looks up the buckets exactly r
    bits from the query's key there, so a candidate's distance is r plus the
    popcount of its non-key bits XOR the query's, gathered with ``take``.
    The (r, k) pairs are probed in order, one substring at a time, so once
    substring k is probed at radius r, the substrings before it are probed
    up to r and those after it up to r - 1. The parts are built on the
    worker pool, each on its own. A row still unfound differs from the
    query in at least r + 1 bits on each of substrings 0..k and r on the
    rest: by pigeonhole, every row within distance s*r + k has been found.
    ``nearest`` stops a lane as soon as its best distance is within that
    bound, ``within`` after the probe whose bound reaches its threshold. A
    lane whose probes would cost more than a scan of the whole table is
    scanned instead. Both search in shares (``_by_shares``): on the worker
    pool, equal shares, a multiple of the worker count of them.
    """

    def __init__(self, packed: np.ndarray, n: int):
        self.m = len(packed)
        self.n = n
        self.rows = packed[:, None, None]  # as the scan reads them
        self.budget = self.m // _PROBE_COST  # lookups + candidates per lane
        self.s = -(-n // _SUBSTRING_BITS)
        base, extra = divmod(n, self.s)
        cuts, shift = [], n
        for k in range(self.s):
            width = base + (k < extra)
            shift -= width
            cuts.append((shift, width))
        values = packed >> np.uint64(64 - n) if n < 64 else packed  # no copy at n = 64
        build = functools.partial(_index_part, values, n)
        self.parts = _run_shares(build, cuts)

    def _schedule(self, words: np.ndarray):
        """Yield (bound, radius, substring, the words' keys and non-key bits
        on it) in probe order; once that probe is done, every row within
        ``bound`` of a word has been found."""
        values = words >> np.uint64(64 - self.n)
        queries = [
            (((values >> np.uint64(shift)) & np.uint64((1 << width) - 1)).astype(np.int64),
             _rest(values.copy(), shift, width, self.n))
            for shift, width, *_ in self.parts
        ]
        for r in range(_SUBSTRING_BITS + 1):
            for k, part in enumerate(self.parts):
                yield self.s * r + k, r, part, *queries[k]

    def _probe(self, part, key, rest, lanes, spent, r):
        """Candidates of ``lanes`` in one substring's buckets at radius
        exactly r, as runs from ``_runs``.

        Returns the lanes probed, the lanes that would go over budget (left
        unprobed: first by the mean bucket load, then by the actual one) and
        the runs; ``spent`` counts each lane's lookups and candidates so far.
        """
        _, width, offsets, rows, bits = part
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
        return lanes, over, self._runs(rest, rows, bits, lanes, lo, cnt, r)

    def _runs(self, rest, rows, bits, lanes, lo, cnt, r):
        """Yield (lanes, candidates per lane, sorted rows, positions,
        distances) in chunks of about _PROBE_BLOCK candidates; each lane's
        candidates are contiguous, each r bits off in the key, so their
        distance is r + popcount(their non-key ``bits`` ^ the lane's
        ``rest``)."""
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
            dist = np.bitwise_count(bits.take(pos) ^ np.repeat(rest[lanes[a:b]], per_lane[a:b]))
            dist += np.uint8(r)
            yield lanes[a:b], per_lane[a:b], rows, pos, dist

    def nearest(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest row and its distance per word; ties to the lowest row."""
        return _by_shares(self._nearest, words, self.m)

    def _nearest(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        best = np.full(len(words), np.iinfo(np.int64).max)  # distance << 32 | row
        spent = np.zeros(len(words), dtype=np.int64)
        lanes = np.arange(len(words))
        scan = [np.empty(0, dtype=np.int64)]
        for bound, r, part, key, rest in self._schedule(words):
            lanes, over, runs = self._probe(part, key, rest, lanes, spent, r)
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
            rows[scan], dist[scan] = _scan_nearest(_mismatches, self.rows, words[scan, None, None])
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
        for bound, r, part, key, rest in self._schedule(words):
            if bound > thresh:  # the previous probe found every row within thresh
                break
            lanes, over, runs = self._probe(part, key, rest, lanes, spent, r)
            scan.append(over)
            for run_lanes, per_lane, rows, pos, dist in runs:
                hit = np.flatnonzero(dist <= thresh)
                owner = run_lanes[np.searchsorted(np.cumsum(per_lane), hit, side="right")]
                np.minimum.at(low, owner, rows[pos[hit]])
                np.maximum.at(high, owner, rows[pos[hit]])
        out = np.where(high < 0, NONE_WITHIN, np.where(low == high, low, AMBIGUOUS))
        scan = np.concatenate(scan)
        if len(scan):
            out[scan] = _scan_within(_mismatches, self.rows, words[scan, None, None], thresh)
        return out


def batch_min_distortion_rows(
    codebook: Codebook,
    blocks: np.ndarray,
    metric: DistortionMetric,
) -> tuple[np.ndarray, np.ndarray]:
    """Row index and average distortion of the closest codeword per block.

    ``blocks`` is (batch, n). Exact, with ties to the lowest row index.
    The blocks' planes are scanned against the rows' (see the module
    docstring); a binary Hamming search from INDEX_MIN_ROWS one-word rows
    up goes through the multi-index hash.
    """
    rows, words, kernel, c, index = _search(codebook, blocks, metric)
    if index is not None:
        found, dist = index.nearest(words.reshape(-1))
    else:
        scan = functools.partial(_scan_nearest, kernel, rows)
        found, dist = _by_shares(scan, words, len(rows))
    return found, dist if c is None else dist * c / codebook.n


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
    identical rows within D are AMBIGUOUS. Searched as
    ``batch_min_distortion_rows`` searches."""
    rows, words, kernel, c, index = _search(codebook, blocks, metric)
    thresh = level if c is None else math.floor(level * codebook.n / c + 1e-12)
    if index is not None:
        return index.within(words.reshape(-1), thresh)
    scan = functools.partial(_scan_within, kernel, rows, thresh=thresh)
    return _by_shares(scan, words, len(rows))


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
    """Embedding codebook: codewords i.i.d. from the source law itself.

    Only the source coder's messages are ever sent, so only the first
    min(|Cc|, |Cs|) of the rate plan's |Cc| rows are drawn. Generation is
    prefix-stable: these are the first rows of the whole |Cc|-row
    codebook."""
    rows = min(plan.channel_cardinality, plan.source_cardinality)
    return Codebook.generate(CHANNEL_EMBEDDING, p_x, plan.n, rows, c_seed)


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
