"""Finite-alphabet probability primitives.

Distributions, seeded sampling, empirical statistics, and the one
two-sample test, ``two_sample_test``: a chi-square homogeneity test of two
symbol arrays' k-gram counts. Every check in the package that two streams
have the same law runs it: the noninterference tests of ``separation``,
and with them ``verify``'s negative control.

Every chi-square p-value comes from ``_chi2_sf``, which evaluates
``scipy.special.chdtrc``, the function ``scipy.stats.chi2.sf`` itself calls,
so the values are the same bits. It is the only place in the package that
imports scipy, and it does so on first use: most commands never compute a
p-value, and importing scipy at start-up would cost them most of their
start-up time.

Every stream is a PCG64DXSM generator (O'Neill, "PCG: A family of simple
fast space-efficient statistically good algorithms for random number
generation", 2014). One rule picks every letter drawn from a law: the
number of the law's integer thresholds (``_thresholds``) that a 53-bit
draw k, the top bits of one raw word, reaches (``_reached``), so k * 2**-53
is the uniform ``Generator.random`` makes from that word. It has three
layouts: one word per draw (non-fair i.i.d. draws, ``SAMPLE_SLICE`` at a
time, a Markov link's transitions and the medium's tied cells); the fair
coin, exactly (0.5, 0.5), whose one threshold 2**52 needs only k's top
bit, so each raw word gives 64 symbols (``_fair_rows``); and the medium's
bit planes (``_sample_planes``), below.
A draw can come back as rows packed into one-hot bit planes of 64-bit words
(``packed_row``): a fair row is its raw words as they are, and any other
law's slice is packed as it is drawn, so no table of symbols is made.
Every draw runs on the calling thread: a raw-word draw is bound by memory
speed, not by one core.

The worker pool serves codeword search (``codec``) only: its queries and
the build of its index are shared out there. The pool is module-private,
started on first use, one thread per CPU in the process's affinity mask
(at most ``_MAX_WORKERS``); work already on a worker thread runs inline
rather than waiting on the pool. Every result is the same, row for row,
whatever the worker count.

The medium's cells, one per step and lane, are sampled 64 to a word
(``_sample_planes``). A threshold decision needs k's bits only up to their
first difference from the threshold (Knuth & Yao, "The complexity of
nonuniform random number generation", 1976). So the top ``PLANES`` bits
of every k are drawn as bit planes of raw words and compared bit-serially,
with no gather per cell, and the low ``TAIL_BITS`` are drawn only for the
few cells whose top bits tie a threshold, which ``_reached`` then counts.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Alphabet",
    "Pmf",
    "RandomnessHandle",
    "TestReport",
    "sample_iid",
    "two_sample_test",
    "wilson_half_width",
]

# Sum residual allowed after renormalization; inputs further off than
# RENORM_TOL are rejected outright so construction bugs surface early.
PMF_SUM_TOL = 1e-12
PMF_RENORM_TOL = 1e-9

_MASK64 = (1 << 64) - 1

# Symbols a draw makes at a time: small enough that a slice's words stay
# in cache.
SAMPLE_SLICE = 1 << 16
# Ceiling on the worker pool's threads.
_MAX_WORKERS = 4

_pool = None  # the worker pool, started on first use
_pool_lock = threading.Lock()
_on_worker = threading.local()


@functools.cache
def _worker_count() -> int:
    """Threads the pool runs: the CPUs this process may use, capped."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
    return min(os.cpu_count() or 1, _MAX_WORKERS)


def _mark_worker() -> None:
    _on_worker.active = True


def _run_shares(fn, shares) -> list:
    """``[fn(*share) for share in shares]``, the calls spread over the worker
    pool. With one worker, one share, or when called from a worker thread
    (which must not wait on its own pool), the calls run here in order.

    Only codeword search and the build of its index share work out;
    ``sample_iid_array`` draws on the calling thread, since its raw-word
    draws are bound by memory speed."""
    shares = list(shares)
    if len(shares) < 2 or _worker_count() < 2 or getattr(_on_worker, "active", False):
        return [fn(*share) for share in shares]
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: start-up would otherwise pay for it
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                _worker_count(), thread_name_prefix="sepnet", initializer=_mark_worker
            )
    futures = [_pool.submit(fn, *share) for share in shares]
    return [f.result() for f in futures]


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol alphabet; symbols are the indices 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")

    @property
    def dtype(self):
        """Smallest integer dtype that holds every symbol index."""
        if self.size <= 127:
            return np.int8
        if self.size <= 32767:
            return np.int16
        return np.int32


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite alphabet.

    Inputs summing to 1 within ``PMF_RENORM_TOL`` are renormalized to machine
    precision; anything further off is rejected rather than silently fixed.
    """

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (self.alphabet.size,):
            raise ValueError(
                f"probs has shape {probs.shape}, alphabet size is {self.alphabet.size}"
            )
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and >= 0")
        total = probs.sum()
        if abs(total - 1.0) > PMF_RENORM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs = probs / total
        assert abs(probs.sum() - 1.0) <= PMF_SUM_TOL
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_probs(cls, probs) -> "Pmf":
        probs = np.asarray(probs, dtype=np.float64)
        return cls(Alphabet(len(probs)), probs)

    @classmethod
    def uniform(cls, size: int) -> "Pmf":
        return cls(Alphabet(size), np.full(size, 1.0 / size))

    def __len__(self) -> int:
        return self.alphabet.size


@dataclass(frozen=True)
class RandomnessHandle:
    """Seed plus stream-id namespace tag for reproducible randomness.

    Identical (seed, stream_id) always yields an identical sample stream.
    ``derive`` splits off statistically independent child streams, which is
    how shared randomness works here: encoder and decoder that hold the same
    handle regenerate the same draws.
    """

    seed: int
    stream_id: int = 0

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            self.seed & _MASK64, spawn_key=(self.stream_id & _MASK64,)
        )

    def generator(self) -> np.random.Generator:
        """Fresh PCG64DXSM generator positioned at the stream start."""
        return np.random.Generator(np.random.PCG64DXSM(self._seed_sequence()))

    def derive(self, *tags) -> "RandomnessHandle":
        """Build an independent child handle namespaced by the given tags."""
        key = [self.seed & _MASK64, self.stream_id & _MASK64]
        for tag in tags:
            if isinstance(tag, str):
                digest = hashlib.sha256(tag.encode("utf-8")).digest()
                tag = int.from_bytes(digest[:8], "big")
            key.append(int(tag) & _MASK64)
        state = np.random.SeedSequence(key).generate_state(2, np.uint64)
        return RandomnessHandle(seed=int(state[0]), stream_id=int(state[1]))


def sample_iid(pmf: Pmf, n: int, rng: RandomnessHandle) -> np.ndarray:
    """Draw ``n`` i.i.d. symbols from ``pmf``; deterministic given ``rng``."""
    if n < 1:
        raise ValueError("need n >= 1")
    return sample_iid_array(pmf, n, rng.generator())


def sample_iid_array(
    pmf: Pmf, n: int, gen: np.random.Generator, packed_row: int = 0
) -> np.ndarray:
    """Array-returning i.i.d. sampler advancing an existing generator, on
    the calling thread.

    Each symbol is the letter ``_reached`` picks with a 53-bit draw k, in
    one of two layouts (see the module docstring). Under the fair coin,
    exactly (0.5, 0.5), a symbol is one bit of the bit generator's raw
    words (``_fair_rows``): a row of w symbols is ceil(w / 64) words, and
    an unpacked draw is one row of n, unpacked ``SAMPLE_SLICE`` symbols
    (whole words) at a time. Under any other law each symbol takes one raw
    word, k its top 53 bits, ``SAMPLE_SLICE`` symbols at a time. ``gen``
    ends in the state the draw leaves. With ``packed_row`` = w > 0 (n a
    multiple of w) the draw is n / w rows of w symbols and comes back as
    ``_pack_planes`` of those rows, flat: no table of symbols is made. A
    binary row with w <= 64 is one word.
    """
    if packed_row and (packed_row < 1 or n % packed_row):
        raise ValueError(f"cannot pack {n} symbols into rows of {packed_row}")
    if np.array_equal(pmf.probs, (0.5, 0.5)):
        if packed_row:
            return _fair_rows(gen.bit_generator, n // packed_row, packed_row).reshape(-1)
        out = np.empty(n, dtype=pmf.alphabet.dtype)
        step = -(-SAMPLE_SLICE // 64) * 64  # whole words a slice: the bits of one row of n
        for a in range(0, n, step):
            part = out[a : a + step]
            part[...] = _unpack_planes(_fair_rows(gen.bit_generator, 1, len(part)), len(part))[0]
        return out
    thresholds = _thresholds(pmf.probs[None, :])
    width = max(packed_row, 1)
    if packed_row:
        out = np.empty((n // packed_row, max(len(pmf) - 1, 1), -(-packed_row // 64)),
                       dtype=np.uint64)
    else:
        out = np.empty(n, dtype=pmf.alphabet.dtype)
    per = max(1, SAMPLE_SLICE // width)  # rows per slice
    syms = np.empty(min(per, len(out)) * width, dtype=np.uint8) if packed_row else None
    for a in range(0, len(out), per):
        part = out[a : a + per]
        m = len(part) * width
        k = (gen.bit_generator.random_raw(m) >> np.uint64(11)).view(np.int64)
        if not packed_row:
            _reached(thresholds, 0, k, part)
            continue
        _reached(thresholds, 0, k, syms[:m])
        _pack_planes(syms[:m].reshape(-1, packed_row), len(pmf), out=part)
    return out.reshape(-1)


def _fair_rows(bitgen, rows: int, n: int) -> np.ndarray:
    """``rows`` fair-coin rows of n symbols as planes (rows, 1, w), w =
    ceil(n / 64): row i is the raw words [i * w, (i + 1) * w) of
    ``bitgen``, read from the top bit down, the last word's low
    n - 64(w - 1) bits moved to its top (where ``_pack_planes`` puts a
    word's first position)."""
    w = -(-n // 64)
    table = bitgen.random_raw(rows * w).reshape(rows, 1, w)
    table[..., -1] <<= np.uint64(64 * w - n)
    return table


def _pack_planes(symbols: np.ndarray, letters: int, out: np.ndarray | None = None) -> np.ndarray:
    """Pack (rows, n) symbols over ``letters`` letters into one-hot bit
    planes, (rows, planes, ceil(n / 64)) uint64 words, one plane per letter
    past 0 and at least one: plane a marks where letter a + 1 stands, its
    word w holds positions [64w, 64w + 64), the first in the top bit. Into
    ``out`` when it is given."""
    rows, n = symbols.shape
    planes = max(letters - 1, 1)
    if out is None:
        out = np.empty((rows, planes, -(-n // 64)), dtype=np.uint64)
    width = -(-n // 8)
    padded = np.zeros((rows, out.shape[2] * 8), dtype=np.uint8)
    for a in range(planes):
        bits = symbols if planes == 1 else symbols == a + 1  # binary rows are their plane
        # rows of whole bytes pack fastest as one run
        octets = np.packbits(bits.reshape(-1) if n % 8 == 0 else bits, axis=-1)
        padded[:, :width] = octets.reshape(rows, width)
        out[:, a] = padded.view(">u8")
    return out


def _unpack_planes(words: np.ndarray, n: int) -> np.ndarray:
    """The int8 symbols of rows' planes (..., planes, words), shape
    ``words.shape[:-2] + (n,)``: the inverse of ``_pack_planes``."""
    octets = np.asarray(words).astype(">u8").view(np.uint8)
    bits = np.unpackbits(octets, axis=-1, count=n).view(np.int8)
    syms = bits[..., 0, :]
    for a in range(1, bits.shape[-2]):
        syms = syms + (a + 1) * bits[..., a, :]
    return syms


_NEVER = 1 << 53  # a threshold that no 53-bit draw reaches


def _thresholds(table: np.ndarray) -> np.ndarray:
    """The thresholds T = ceil(cumsum * 2**53) of the stochastic rows
    (..., K) of ``table``, over every column but the last: int64 (..., K - 1),
    at most 2**53. Since cumsum * 2**53 is exact, a 53-bit k reaches T,
    k >= T, exactly when k * 2**-53 >= cumsum."""
    cum = np.cumsum(table, axis=-1)[..., :-1]
    return np.minimum(np.ceil(cum * float(_NEVER)), float(_NEVER)).astype(np.int64)


def _reached(thresholds: np.ndarray, row, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Into ``out`` (of k's shape), the number of thresholds of row ``row``
    of ``thresholds`` (rows, K - 1) that the int64 53-bit draw k reaches:
    the letter k picks from that row. ``row`` is an int or an index array
    of k's shape; each column costs one ``take`` and one compare."""
    # a row without thresholds is one letter; bools fill a 1-byte count as they are
    np.greater_equal(k, thresholds[:, 0].take(row) if thresholds.shape[1] else _NEVER,
                     out=out.view(np.bool_) if out.itemsize == 1 else out)
    for c in range(1, thresholds.shape[1]):
        out += k >= thresholds[:, c].take(row)
    return out


# The bits of a medium cell's 53-bit draw k drawn as planes for every cell,
# and the rest, drawn only for a cell whose planes tie one of its
# thresholds: about one cell in 2**PLANES per threshold.
PLANES = 16
TAIL_BITS = 53 - PLANES
_CELL_WORD = np.dtype("<u8")  # bit i of a row of cells is bit i % 64 of word i // 64


def _cell_masks(values: np.ndarray, letters: int, offset: int = 0) -> list:
    """Per letter a < ``letters``, the cells of ``values`` that hold a, as
    a row of ``_CELL_WORD`` words: cell i of ``values`` in C order is bit
    ``offset`` + i (``offset`` < 64), and every other bit is 0."""
    flat = values.reshape(-1)
    n = flat.size
    count = -(-(offset + n) // 64)

    def pack(bits):
        octets = np.zeros(-(-n // 64) * 8, dtype=np.uint8)
        octets[: -(-n // 8)] = np.packbits(bits, bitorder="little")
        words = octets.view(_CELL_WORD)
        if not offset:
            return words
        moved = np.zeros(count, dtype=_CELL_WORD)
        moved[: len(words)] = words << np.uint64(offset)
        moved[1:] |= words[: count - 1] >> np.uint64(64 - offset)
        return moved

    return [pack(flat == a) for a in range(letters)]


def _compare_planes(planes, top: int, strict: bool, out: np.ndarray) -> np.ndarray:
    """Into ``out``, the cells whose top bits h (``planes[0]`` the highest)
    have h > ``top`` when ``strict``, h >= ``top`` otherwise.

    This is the comparison's carry chain from the lowest bit up: prev
    starts as no cell for > and every cell for >=, and bit j of ``top``
    turns it into p_j & prev where it is 1 and p_j | prev where it is 0.
    The low bits that leave the start unchanged (1s for >, 0s for >=) are
    skipped; the first other bit makes prev p_j itself."""
    started = False
    for j in range(PLANES):
        plane, bit = planes[PLANES - 1 - j], top >> j & 1
        if started:
            (np.bitwise_and if bit else np.bitwise_or)(out, plane, out=out)
        elif bit != strict:
            np.copyto(out, plane)
            started = True
    if not started:
        out.fill(0 if strict else _MASK64)
    return out


def _sample_planes(thresholds: np.ndarray, masks, planes, tail, out: np.ndarray,
                   offset: int = 0) -> None:
    """Fill ``out`` with one symbol per cell, the medium's layout of the
    one rule: the number of columns c with k >= ``thresholds[r, c]``
    (``_thresholds``), where r is the row whose mask ``masks[r]`` holds
    the cell. Cell i of ``out`` in C order is bit ``offset`` + i of every
    mask and plane, rows of ``_CELL_WORD`` words (``_cell_masks``); the
    masks are disjoint and 0 at other bits.

    The cell's k is h * 2**TAIL_BITS + l. Its top bits h are read from the
    PLANES rows of ``planes``, ``planes[0]`` the highest bit: each
    (row, column) threshold is compared bit-serially with 64 cells a word
    (``_compare_planes``) and selected by the row's mask, and each
    column's bits are unpacked once into the count. Only a cell whose h
    equals the top bits of one of its thresholds whose low TAIL_BITS are
    not 0 needs l: those cells, in C order, take one raw word each from
    ``tail`` (anything with ``random_raw``), whose top TAIL_BITS are l,
    and are counted again by ``_reached`` from their whole k. So every
    cell's symbol is ``_reached``'s for its k, and no bit outside the
    cells draws.
    """
    cols = thresholds.shape[1]
    if cols == 0:
        out.fill(0)
        return
    cells = out.size
    shape = planes[0].shape
    hits = np.zeros((cols, *shape), dtype=_CELL_WORD)
    tie = np.zeros(shape, dtype=_CELL_WORD)
    above, equal = np.empty(shape, dtype=_CELL_WORD), np.empty(shape, dtype=_CELL_WORD)
    low_bits = (1 << TAIL_BITS) - 1
    for mask, row in zip(masks, thresholds.tolist()):
        for c, t in enumerate(row):
            if t >= _NEVER:
                continue
            top, needs_tail = t >> TAIL_BITS, bool(t & low_bits)
            # with the low bits of t all 0, k >= t exactly when h >= top
            _compare_planes(planes, top, needs_tail, above)
            if needs_tail:
                np.bitwise_xor(_compare_planes(planes, top, False, equal), above, out=equal)
                np.bitwise_and(equal, mask, out=equal)
                np.bitwise_or(tie, equal, out=tie)
            np.bitwise_and(above, mask, out=above)
            np.bitwise_or(hits[c], above, out=hits[c])

    def unpacked(c):
        bits = np.unpackbits(hits[c].view(np.uint8), count=offset + cells, bitorder="little")
        return bits[offset:].view(np.int8).reshape(out.shape)

    out[...] = unpacked(0)
    for c in range(1, cols):
        out += unpacked(c)

    words = np.flatnonzero(tie)
    if not len(words):
        return
    bits = np.unpackbits(tie[words].view(np.uint8), bitorder="little")
    which, bit = np.divmod(np.flatnonzero(bits), 64)  # in cell order
    word, shift = words[which], bit.astype(np.uint64)

    def cell_bits(rows_of_words):
        return (np.asarray(rows_of_words)[:, word] >> shift & 1).astype(np.int64)

    h = (1 << np.arange(PLANES - 1, -1, -1, dtype=np.int64)) @ cell_bits(planes)
    low = (tail.random_raw(len(word)) >> np.uint64(64 - TAIL_BITS)).astype(np.int64)
    rows = np.argmax(cell_bits(masks), axis=0)
    k = h << TAIL_BITS | low
    step, lane = np.divmod(word * 64 + bit - offset, out.shape[1])
    out[step, lane] = _reached(thresholds, rows, k, np.empty(len(k), dtype=out.dtype))


class _PlaneSampler:
    """``_sample_planes`` over the windows of one medium link: its PLANES
    plane streams and its tail stream, derived from ``seeds``. Each plane
    is a stream of bits, one per cell in (step, lane) order, so a window's
    cells go on where the window before stopped, mid-word if need be."""

    def __init__(self, seeds: RandomnessHandle):
        self.planes = [seeds.derive("plane", p).generator().bit_generator
                       for p in range(PLANES)]
        self.tail = seeds.derive("tail").generator().bit_generator
        self._words = np.empty((PLANES, 0), dtype=np.uint64)  # reused by every window
        self._used = 0  # bits of each plane's last word that earlier cells read
        self._last = np.empty(PLANES, dtype=np.uint64)

    def sample(self, thresholds, digits, out) -> None:
        """Fill ``out`` (steps, lanes) from a table's thresholds, where each
        cell reads the row whose mixed-radix digits are its values in
        ``digits``, a list of ((steps, lanes) values, letters) pairs."""
        offset = self._used
        count = -(-(offset + out.size) // 64)
        if self._words.shape[1] < count:
            self._words = np.empty((PLANES, count), dtype=np.uint64)
        planes = self._words[:, :count]
        fresh = 1 if offset else 0  # the first word is the last one's rest
        planes[:, 0] = self._last
        for plane, gen in zip(planes, self.planes):
            plane[fresh:] = gen.random_raw(count - fresh)
        self._used = (offset + out.size) % 64
        self._last = planes[:, -1].copy()
        masks = None
        for values, letters in digits:
            column = _cell_masks(values, letters, offset)
            masks = column if masks is None else [m & d for m in masks for d in column]
        _sample_planes(thresholds, masks, planes, self.tail, out, offset)


@dataclass(frozen=True)
class TestReport:
    """Outcome of a chi-square comparison."""

    statistic: float
    p_value: float
    df: int
    order: int
    low_expected: bool  # >20% of cells had expected count < 5; test unreliable


def _kgram_counts(values: np.ndarray, size: int, order: int) -> np.ndarray:
    if order == 1:
        return np.bincount(values, minlength=size)
    # Disjoint adjacent pairs so the counts form a genuine multinomial
    # sample; overlapping pairs would break the chi-square calibration.
    m = (len(values) // 2) * 2
    pairs = values[0:m:2].astype(np.int64) * size + values[1:m:2]
    return np.bincount(pairs, minlength=size * size)


def _chi2_sf(stat, df):
    """P[chi-square with ``df`` degrees of freedom > ``stat``], a numpy scalar."""
    from scipy.special import chdtrc

    return chdtrc(df, stat)


def chi_square_homogeneity(counts_a: np.ndarray, counts_b: np.ndarray, order: int = 1) -> TestReport:
    """Two-sample chi-square homogeneity test on two count vectors."""
    counts_a = np.asarray(counts_a, dtype=np.float64)
    counts_b = np.asarray(counts_b, dtype=np.float64)
    keep = (counts_a + counts_b) > 0
    a, b = counts_a[keep], counts_b[keep]
    k = len(a)
    if k <= 1:
        return TestReport(0.0, 1.0, 0, order, False)
    na, nb = a.sum(), b.sum()
    total = na + nb
    col = a + b
    ea = col * (na / total)
    eb = col * (nb / total)
    stat = float((((a - ea) ** 2) / ea).sum() + (((b - eb) ** 2) / eb).sum())
    df = k - 1
    p = float(_chi2_sf(stat, df))
    low = float(np.mean((ea < 5) | (eb < 5))) > 0.2
    return TestReport(stat, p, df, order, low)


def two_sample_test(a: np.ndarray, b: np.ndarray, letters: int, order: int = 1) -> TestReport:
    """Chi-square homogeneity test on the k-gram counts of two arrays of
    symbols in [0, ``letters``).

    ``order`` selects single-symbol (1) or disjoint adjacent-pair (2)
    frequencies. Identical inputs give statistic 0 and p-value 1.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    for values in (a, b):
        if values.min() < 0 or values.max() >= letters:
            raise ValueError(f"symbol out of the alphabet [0, {letters})")
    return chi_square_homogeneity(_kgram_counts(a, letters, order),
                                  _kgram_counts(b, letters, order), order)


def wilson_half_width(successes: int, trials: int, z: float = 1.959964) -> float:
    """Half-width of the 95% Wilson score interval for a proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    phat = successes / trials
    z2 = z * z
    return float(
        z * np.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
        / (1 + z2 / trials)
    )
