"""Finite-alphabet probability primitives.

Distributions, seeded sampling, empirical statistics, and the chi-square
two-sample machinery used everywhere else to verify that two symbol streams
have the same law.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "Pmf",
    "RandomnessHandle",
    "Sequence",
    "TestReport",
    "empirical_pmf",
    "sample_iid",
    "tv_distance",
    "two_sample_test",
    "wilson_half_width",
]

# Sum residual allowed after renormalization; inputs further off than
# RENORM_TOL are rejected outright so construction bugs surface early.
PMF_SUM_TOL = 1e-12
PMF_RENORM_TOL = 1e-9

_MASK64 = (1 << 64) - 1


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
        """Fresh counter-based generator positioned at the stream start."""
        return np.random.Generator(np.random.Philox(self._seed_sequence()))

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


def sample_iid_array(pmf: Pmf, n: int, gen: np.random.Generator) -> np.ndarray:
    """Array-returning i.i.d. sampler advancing an existing generator."""
    u = gen.random(n)
    if pmf.alphabet.size == 2:
        return (u >= pmf.probs[0]).astype(pmf.alphabet.dtype)
    cum = _row_cumsum(pmf.probs)
    return np.searchsorted(cum, u, side="right").astype(pmf.alphabet.dtype)


def _row_cumsum(mat: np.ndarray) -> np.ndarray:
    cum = np.cumsum(mat, axis=-1)
    cum[..., -1] = 1.0
    return cum


def _sample_indexed(cum: np.ndarray, idx, u: np.ndarray, dtype) -> np.ndarray:
    """One symbol per uniform in ``u``, drawn from row ``idx`` of the
    cumulative table ``cum`` (rows, K): the number of columns k < K-1 with
    ``u >= cum[idx, k]``, read by one ``take`` per column.

    ``idx`` has the shape of ``u``. Draw for draw this equals gathering the
    rows and counting ``rows <= u``, since ``_row_cumsum`` pins the last
    column to 1 and ``u < 1``.
    """
    size = cum.shape[-1]
    if size == 1:
        return np.zeros(u.shape, dtype=dtype)
    # a bool array is 0/1 bytes, so the first column's hits are its counts
    out = (u >= cum[:, 0].take(idx)).view(np.int8).astype(dtype, copy=False)
    for k in range(1, size - 1):
        out += u >= cum[:, k].take(idx)
    return out


def empirical_pmf(seq: Sequence) -> Pmf:
    """Normalized symbol counts of a sequence."""
    counts = np.bincount(seq.values, minlength=seq.alphabet.size)
    return Pmf(seq.alphabet, counts / counts.sum())


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance 0.5 * sum |p - q|."""
    if p.alphabet.size != q.alphabet.size:
        raise AlphabetMismatchError(
            f"distributions on alphabets of size {p.alphabet.size} and "
            f"{q.alphabet.size} are not comparable"
        )
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


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
    p = float(chi2.sf(stat, df))
    low = float(np.mean((ea < 5) | (eb < 5))) > 0.2
    return TestReport(stat, p, df, order, low)


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
