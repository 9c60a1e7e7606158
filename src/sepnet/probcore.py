"""Finite-alphabet probability primitives.

Distributions, seeded sampling, empirical statistics, and the chi-square
two-sample machinery used everywhere else to verify that two symbol streams
have the same law.

Every chi-square p-value comes from ``_chi2_sf``, which evaluates
``scipy.special.chdtrc``, the function ``scipy.stats.chi2.sf`` itself calls,
so the values are the same bits. It is the only place in the package that
imports scipy, and it does so on first use: most commands never compute a
p-value, and importing scipy at start-up would cost them most of their
start-up time.

Every stream is a PCG64DXSM generator (O'Neill, "PCG: A family of simple
fast space-efficient statistically good algorithms for random number
generation", 2014). A fair-coin draw, exactly (0.5, 0.5), takes 64
symbols from each raw 64-bit word; a draw under any other law maps one
uniform, one word, to each symbol. PCG64DXSM can ``advance`` by any number
of words, so ``sample_iid_array`` cuts a draw of at least two
``SAMPLE_SLICE``-symbol slices into one contiguous share per worker, each
drawn slice by slice from its own advanced copy of the generator, and the
caller's generator ends where a sequential draw would leave it. A draw can
come back as rows packed into one-hot bit planes of 64-bit words
(``packed_row``): each slice is packed as it is drawn and the shares cut
at row boundaries, so no table of symbols is made. Codeword search
(``codec``) shares its queries out on the same pool. The pool is
module-private, started on first use, one thread per CPU in the process's
affinity mask (at most ``_MAX_WORKERS``); work already on a worker thread
runs inline rather than waiting on the pool. Every result is the same,
draw for draw and row for row, whatever the worker count.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "Pmf",
    "RandomnessHandle",
    "Sequence",
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

# Symbols a share draws at a time: small enough that a slice's words stay
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
    (which must not wait on its own pool), the calls run here in order."""
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


class AlphabetMismatchError(ValueError):
    """Raised when two objects on different alphabets are compared."""


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


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


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
        object.__setattr__(self, "probs", _as_readonly(probs))

    @classmethod
    def from_probs(cls, probs) -> "Pmf":
        probs = np.asarray(probs, dtype=np.float64)
        return cls(Alphabet(len(probs)), probs)

    @classmethod
    def uniform(cls, size: int) -> "Pmf":
        return cls(Alphabet(size), np.full(size, 1.0 / size))

    def __len__(self) -> int:
        return self.alphabet.size


@dataclass(frozen=True, eq=False)
class Sequence:
    """Ordered string of symbol indices over a finite alphabet."""

    alphabet: Alphabet
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("a sequence is a non-empty 1-d array of symbols")
        if values.min() < 0 or values.max() >= self.alphabet.size:
            raise ValueError("symbol index out of alphabet range")
        object.__setattr__(
            self, "values", _as_readonly(values.astype(self.alphabet.dtype))
        )

    def __len__(self) -> int:
        return len(self.values)


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


def sample_iid(pmf: Pmf, n: int, rng: RandomnessHandle) -> Sequence:
    """Draw ``n`` i.i.d. symbols from ``pmf``; deterministic given ``rng``."""
    if n < 1:
        raise ValueError("need n >= 1")
    values = sample_iid_array(pmf, n, rng.generator())
    return Sequence(pmf.alphabet, values)


def sample_iid_array(
    pmf: Pmf, n: int, gen: np.random.Generator, packed_row: int = 0
) -> np.ndarray:
    """Array-returning i.i.d. sampler advancing an existing generator.

    Under the fair coin, exactly (0.5, 0.5), the symbols are bits of the
    bit generator's raw words (``_fair_rows``): a row of w symbols is
    ceil(w / 64) words, and an unpacked draw is one row of n. Under any
    other law the draw is ``_sample_indexed(cum, 0, gen.random(n))``, one
    word per symbol. ``gen`` ends in the state the draw leaves. With
    ``packed_row`` = w > 0 (n a multiple of w) the draw is n / w rows of w
    symbols and comes back as ``_pack_planes`` of those rows, flat, packed
    slice by slice: no table of symbols is made. A binary row with w <= 64
    is one word.

    A draw of at least two slices is shared out over the worker pool in
    runs of whole rows (of 64 symbols, one word, for an unpacked fair
    draw): each share draws from a copy of ``gen`` advanced past the words
    of the runs before it, and ``gen`` itself advances past them all.
    """
    if packed_row and (packed_row < 1 or n % packed_row):
        raise ValueError(f"cannot pack {n} symbols into rows of {packed_row}")
    fair = np.array_equal(pmf.probs, (0.5, 0.5))
    if packed_row:
        out = np.empty((n // packed_row, max(len(pmf) - 1, 1), -(-packed_row // 64)),
                       dtype=np.uint64)
        unit, words = 1, (out.shape[2] if fair else packed_row)  # out rows, words per run
    else:
        out = np.empty(n, dtype=pmf.alphabet.dtype)
        unit, words = (64, 1) if fair else (1, 1)
    fill = functools.partial(_fill, _row_cumsum(pmf.probs)[None, :], packed_row, fair)
    if n < 2 * SAMPLE_SLICE:
        fill(gen, out)
        return out.reshape(-1)
    runs = -(-len(out) // unit)
    workers = _worker_count()
    cuts = [runs * k // workers for k in range(workers + 1)]
    bitgen = gen.bit_generator
    _run_shares(fill, [(np.random.Generator(copy.deepcopy(bitgen).advance(a * words)),
                        out[a * unit : b * unit]) for a, b in itertools.pairwise(cuts) if a < b])
    # advancing drops the half-used 32-bit word a sequential draw keeps
    pending = {key: bitgen.state[key] for key in ("has_uint32", "uinteger")}
    bitgen.state = {**bitgen.advance(runs * words).state, **pending}
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


def _fill(cum: np.ndarray, packed_row: int, fair: bool, gen, out: np.ndarray) -> None:
    """Fill ``out`` with symbols drawn from ``gen``, or with rows of
    ``packed_row`` symbols packed into planes, one slice at a time."""
    width = max(packed_row, 1)
    per = max(1, SAMPLE_SLICE // width)  # rows per slice
    if fair:
        per = per if packed_row else -(-per // 64) * 64  # whole words
        for a in range(0, len(out), per):
            part = out[a : a + per]
            if packed_row:
                part[...] = _fair_rows(gen.bit_generator, len(part), packed_row)
            else:
                part[...] = _unpack_planes(_fair_rows(gen.bit_generator, 1, len(part)), len(part))[0]
        return
    u = np.empty(min(per, len(out)) * width)
    syms = np.empty(len(u), dtype=np.uint8) if packed_row else None
    for a in range(0, len(out), per):
        part = out[a : a + per]
        m = len(part) * width
        gen.random(out=u[:m])
        if not packed_row:
            _sample_indexed(cum, 0, u[:m], out.dtype, out=part)
            continue
        _sample_indexed(cum, 0, u[:m], np.uint8, out=syms[:m])
        _pack_planes(syms[:m].reshape(-1, packed_row), cum.shape[-1], out=part)


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


def _row_cumsum(mat: np.ndarray) -> np.ndarray:
    cum = np.cumsum(mat, axis=-1)
    cum[..., -1] = 1.0
    return cum


def _sample_indexed(cum: np.ndarray, idx, u: np.ndarray, dtype, out=None) -> np.ndarray:
    """One symbol per uniform in ``u``, drawn from row ``idx`` of the
    cumulative table ``cum`` (rows, K): the number of columns k < K-1 with
    ``u >= cum[idx, k]``, read by one ``take`` per column. The symbols go
    to ``out`` (of ``dtype`` and the shape of ``u``) when it is given.

    ``idx`` has the shape of ``u``. Draw for draw this equals gathering the
    rows and counting ``rows <= u``, since ``_row_cumsum`` pins the last
    column to 1 and ``u < 1``.
    """
    size = cum.shape[-1]
    if size == 1:
        if out is None:
            return np.zeros(u.shape, dtype=dtype)
        out.fill(0)
        return out
    if out is None:
        # a bool array is 0/1 bytes, so the first column's hits are its counts
        out = (u >= cum[:, 0].take(idx)).view(np.int8).astype(dtype, copy=False)
    else:
        np.greater_equal(u, cum[:, 0].take(idx), out=out)
    for k in range(1, size - 1):
        out += u >= cum[:, k].take(idx)
    return out


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


def _goodness_of_fit_p(counts: np.ndarray, probs: np.ndarray):
    """Pearson chi-square p-value of ``counts`` against the law ``probs``, as
    a numpy scalar: the bits ``scipy.stats.chisquare`` gives."""
    expected = probs * counts.sum()
    return _chi2_sf(((counts - expected) ** 2 / expected).sum(), counts.size - 1)


def two_sample_test(a: Sequence, b: Sequence, order: int = 1) -> TestReport:
    """Chi-square homogeneity test on k-gram counts of two sequences.

    ``order`` selects single-symbol (1) or disjoint adjacent-pair (2)
    frequencies. Identical inputs give statistic 0 and p-value 1.
    """
    if a.alphabet.size != b.alphabet.size:
        raise AlphabetMismatchError("sequences on different alphabets")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    size = a.alphabet.size
    ca = _kgram_counts(a.values, size, order)
    cb = _kgram_counts(b.values, size, order)
    return chi_square_homogeneity(ca, cb, order)


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
