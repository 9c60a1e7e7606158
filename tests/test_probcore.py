import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chisquare

from conftest import codebook_symbols, goodness_of_fit_p, sequential_draw

from sepnet import probcore
from sepnet.probcore import (
    SAMPLE_SLICE,
    Alphabet,
    Pmf,
    RandomnessHandle,
    chi_square_homogeneity,
    sample_iid,
    sample_iid_array,
    _IidStream,
    _pack_planes,
    _reached,
    _run_shares,
    _thresholds,
    two_sample_test,
    wilson_half_width,
)


class TestAlphabetAndPmf:
    def test_alphabet_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(0)

    def test_pmf_renormalizes_small_drift(self):
        p = Pmf.from_probs([0.5 + 3e-10, 0.5])
        assert abs(p.probs.sum() - 1.0) <= 1e-12

    def test_pmf_rejects_large_drift(self):
        with pytest.raises(ValueError):
            Pmf.from_probs([0.5, 0.52])

    def test_pmf_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf.from_probs([1.1, -0.1])

    def test_pmf_probs_read_only(self):
        p = Pmf.from_probs([0.25, 0.75])
        with pytest.raises(ValueError):
            p.probs[0] = 0.5

    def test_sequence_validates_symbols(self):
        for bad in ([0, 2], [-1, 1]):
            with pytest.raises(ValueError, match="out of the alphabet"):
                two_sample_test(np.array(bad), np.array([0, 1]), 2)
            with pytest.raises(ValueError, match="out of the alphabet"):
                two_sample_test(np.array([0, 1]), np.array(bad), 2)


class TestSampling:
    def test_degenerate_pmf_all_zero(self, root):
        seq = sample_iid(Pmf.from_probs([1.0]), 5, root)
        assert list(seq) == [0, 0, 0, 0, 0]

    def test_determinism(self, fair_coin, root):
        a = sample_iid(fair_coin, 1000, root)
        b = sample_iid(fair_coin, 1000, root)
        assert np.array_equal(a, b)

    def test_binary_frequency_and_gof(self, fair_coin, root):
        # chi-square goodness-of-fit oracle at significance 0.01
        seq = sample_iid(fair_coin, 100_000, root.derive("gof"))
        freq0 = float((seq == 0).mean())
        assert abs(freq0 - 0.5) < 0.01
        counts = np.bincount(seq, minlength=2)
        _, p = chisquare(counts, fair_coin.probs * counts.sum())
        assert p > 0.01

    def test_distinct_streams_differ(self, fair_coin, root):
        a = sample_iid(fair_coin, 1000, root.derive("s", 0))
        b = sample_iid(fair_coin, 1000, root.derive("s", 1))
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic(self, root):
        assert root.derive("x", 3) == root.derive("x", 3)
        assert root.derive("x", 3) != root.derive("x", 4)

    def test_empirical_convergence_binary(self, root):
        # tv to the truth <= 0.02 at n = 1e5 across skews, plus chi-square
        for p0 in (0.1, 0.5, 0.9):
            pmf = Pmf.from_probs([p0, 1 - p0])
            seq = sample_iid(pmf, 100_000, root.derive("conv", int(p0 * 10)))
            counts = np.bincount(seq, minlength=2)
            assert 0.5 * np.abs(counts / counts.sum() - pmf.probs).sum() <= 0.02
            _, p = chisquare(counts, pmf.probs * counts.sum())
            assert p > 0.001


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 6), size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_indexed_sampler_equals_row_gather(rows, size, seed):
    # the gathered-rows count of thresholds and of the float cumulative
    # sums, on draws that include the table's own thresholds and the draws
    # just below them, where >= and > part ways, and 0 and 2**53 - 1
    rng = np.random.default_rng(seed)
    table = rng.dirichlet(np.ones(size), size=rows)
    thresholds = _thresholds(table)
    assert thresholds.shape == (rows, size - 1) and thresholds.dtype == np.int64
    idx = rng.integers(0, rows, (5, 40))
    k = rng.integers(0, 2**53, (5, 40))
    if size > 1:
        k[0] = thresholds[idx[0], rng.integers(0, size - 1, 40)]
        k[2] = thresholds[idx[2], rng.integers(0, size - 1, 40)] - 1
    k = np.clip(k, 0, 2**53 - 1)
    k[1, :3], k[1, 3:6] = 0, 2**53 - 1
    out = _reached(thresholds, idx, k, np.empty(k.shape, Alphabet(size).dtype))
    assert out.dtype == Alphabet(size).dtype
    assert np.array_equal(out, (thresholds[idx] <= k[..., None]).sum(axis=-1))
    cum = np.cumsum(table, axis=-1)[:, :-1]
    assert np.array_equal(out, (cum[idx] <= k[..., None] * 2.0**-53).sum(axis=-1))


class _FixedWords:
    """Generator stand-in whose bit generator hands out the given raw words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.bit_generator = self

    def random_raw(self, size):
        assert size == len(self.words)
        return self.words.copy()


@pytest.mark.parametrize(
    "probs", [(0.5, 0.5), (0.3, 0.7), (0.15, 0.35, 0.5), (0.2, 0, 0.3, 0.5), (1.0,)]
)
def test_iid_sampler_equals_threshold_search(probs, root):
    # the sorted search of the float cumulative sums, draw for draw, on
    # draws that include the pmf's own thresholds, the draws just below
    # them, 0 and 2**53 - 1; the sampler takes a word's top 53 bits as its
    # draw under every law but the fair coin, whose raw words are its bits
    pmf = Pmf.from_probs(list(probs))
    thresholds = _thresholds(pmf.probs[None, :])[0]
    k = np.concatenate([root.derive("k").generator().integers(0, 2**53, 4000),
                        thresholds, thresholds - 1, [0, 2**53 - 1]])
    k = np.clip(k, 0, 2**53 - 1)
    reference = np.searchsorted(np.cumsum(pmf.probs)[:-1], k * 2.0**-53, side="right")
    if len(probs) == 2:
        assert np.array_equal(reference, k * 2.0**-53 >= pmf.probs[0])
    drawn = _reached(thresholds[None, :], 0, k, np.empty(len(k), pmf.alphabet.dtype))
    assert np.array_equal(drawn, reference)
    if probs == (0.5, 0.5):
        # 67 symbols are two words read from the top bit down, of the
        # second only its low 3 bits
        out = sample_iid_array(pmf, 67, _FixedWords([(1 << 63) | 1, 0b1101]))
        assert out.dtype == pmf.alphabet.dtype
        assert out.tolist() == [1] + [0] * 62 + [1] + [1, 0, 1]
        return
    # a word's low 11 bits do not count
    words = k.astype(np.uint64) << np.uint64(11) | (np.arange(len(k)) % 2048).astype(np.uint64)
    out = sample_iid_array(pmf, len(k), _FixedWords(words))
    assert out.dtype == pmf.alphabet.dtype
    assert np.array_equal(out, reference)


def _two_slices_and_about():
    two = 2 * SAMPLE_SLICE
    return st.integers(two - 5, two + 5) | st.integers(two, 5 * SAMPLE_SLICE + 3)


@settings(max_examples=60, deadline=None)
@example(law="fair", width=0, n=2 * SAMPLE_SLICE + 3, pending=True, used=3, seed=1)
@example(law="fair", width=65, n=2 * SAMPLE_SLICE, pending=True, used=1, seed=2)
@example(law=2, width=63, n=2 * SAMPLE_SLICE + 1, pending=True, used=5, seed=3)
@example(law=3, width=0, n=2 * SAMPLE_SLICE + 5, pending=False, used=7, seed=4)
@given(law=st.sampled_from(["fair", 1, 2, 3, 200]), width=st.sampled_from([0, 1, 7, 63, 64, 65, 130]),
       n=_two_slices_and_about(), pending=st.booleans(), used=st.integers(0, 7),
       seed=st.integers(0, 2**32 - 1))
def test_shared_draw_equals_sequential_draw(law, width, n, pending, used, seed):
    # the fair coin's raw words and another law's uniforms, unpacked (width
    # 0) and in packed rows of odd and even widths, from a generator that
    # has drawn 0-7 doubles and holds a half-used 32-bit word or none, n
    # below, at and above two slices
    probs = (0.5, 0.5) if law == "fair" else np.random.default_rng(seed).dirichlet(np.ones(law))
    pmf = Pmf.from_probs(probs)
    if width:
        n = -(-n // width) * width
    gens = [RandomnessHandle(seed).generator() for _ in range(2)]
    for gen in gens:
        assert isinstance(gen.bit_generator, np.random.PCG64DXSM)
        if pending:
            gen.integers(0, 2**32, dtype=np.uint32)
        gen.random(used)
    shared, sequential = gens
    out = sample_iid_array(pmf, n, shared, packed_row=width)
    if width:
        # row by row the reference draw is the whole one, so it is packed and
        # compared a slice of rows at a time, with no second whole table
        assert out.dtype == np.uint64
        rows = out.reshape(n // width, max(len(pmf) - 1, 1), -(-width // 64))
        per = max(1, SAMPLE_SLICE // width)
        for a in range(0, len(rows), per):
            part = rows[a : a + per]
            reference = codebook_symbols(pmf, len(part), width, sequential)
            assert np.array_equal(part, _pack_planes(reference, len(pmf)))
    else:
        reference = sequential_draw(pmf, n, sequential)
        assert out.dtype == reference.dtype == pmf.alphabet.dtype
        assert np.array_equal(out, reference)
    # the generator is left where the sequential draw leaves it
    assert shared.bit_generator.state == sequential.bit_generator.state
    for _ in range(2):
        assert np.array_equal(shared.integers(0, 2**32, 3, dtype=np.uint32),
                              sequential.integers(0, 2**32, 3, dtype=np.uint32))
        assert np.array_equal(shared.random(9), sequential.random(9))


@pytest.mark.parametrize("n", [199, 200, 201, 1000, 1003])
def test_fair_draw_in_slices_off_the_word(root, n):
    # 100-symbol slices: an unpacked fair draw still takes whole words a
    # slice, so the bits are those of one sequential row of n
    gens = [root.derive("slices", n).generator() for _ in range(2)]
    with mock.patch.object(probcore, "SAMPLE_SLICE", 100):
        out = sample_iid_array(Pmf.from_probs([0.5, 0.5]), n, gens[0])
    assert np.array_equal(out, sequential_draw(Pmf.from_probs([0.5, 0.5]), n, gens[1]))
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


LAWS = {"fair": (0.5, 0.5), "binary": (0.3, 0.7), "ternary": (0.5, 0.3, 0.2)}


@st.composite
def windows(draw):
    """A horizon of 1-300 steps and the steps where its windows end."""
    horizon = draw(st.integers(1, 300))
    cuts = draw(st.sets(st.integers(1, horizon - 1), max_size=6)) if horizon > 1 else set()
    return horizon, sorted(cuts)


@settings(max_examples=60, deadline=None)
# 303 fair symbols: the last word gives its low 47 bits, cut mid-word twice
@example(law="fair", lanes=3, cut=(101, [1, 50]), seed=1)
@given(law=st.sampled_from(sorted(LAWS)), lanes=st.sampled_from([1, 3, 64, 1500]),
       cut=windows(), seed=st.integers(0, 2**32 - 1))
def test_a_draw_read_window_by_window_is_the_whole_draw(law, lanes, cut, seed):
    # a rollout reads its horizon * lanes source symbols window by window,
    # cut at any steps: they must be the one whole draw's bits, the fair
    # coin's partial last word read from its low bits, and leave the
    # generator where the whole draw does
    horizon, cuts = cut
    pmf = Pmf.from_probs(LAWS[law])
    gens = [RandomnessHandle(seed).generator() for _ in range(2)]
    stream = _IidStream(pmf, horizon * lanes, gens[0])
    bounds = [0, *cuts, horizon]
    pieces = [stream.read((t1 - t0) * lanes) for t0, t1 in zip(bounds, bounds[1:])]
    whole = sequential_draw(pmf, horizon * lanes, gens[1])
    assert all(piece.dtype == pmf.alphabet.dtype for piece in pieces)
    assert np.array_equal(np.concatenate(pieces), whole)
    assert gens[0].bit_generator.state == gens[1].bit_generator.state
    with pytest.raises(ValueError, match="cannot read"):
        stream.read(1)


def test_a_worker_runs_its_own_shares_inline():
    # every worker busy with an outer share that shares out again: waiting
    # on the pool from a worker would never return
    def outer(k):
        return sum(_run_shares(lambda j: (k, j, threading.current_thread().name), [(0,), (1,)]),
                   ())

    result = []
    with mock.patch.object(probcore, "_worker_count", lambda: 2):
        caller = threading.Thread(
            target=lambda: result.append(_run_shares(outer, [(k,) for k in range(4)])),
            daemon=True)
        caller.start()
        caller.join(timeout=60)
    assert not caller.is_alive()
    (shares,) = result
    assert [s[:2] + s[3:5] for s in shares] == [(k, 0, k, 1) for k in range(4)]
    # each outer share and its inner ones ran on the same worker thread
    assert all(s[2] == s[5] and s[2].startswith("sepnet") for s in shares)


class TestTwoSampleTest:
    def test_identical_sequence_object(self, fair_coin, root):
        s = sample_iid(fair_coin, 5000, root)
        for order in (1, 2):
            rep = two_sample_test(s, s, 2, order)
            assert rep.statistic == 0.0
            assert rep.p_value == 1.0

    def test_same_law_calibration(self, fair_coin, root):
        # 100 seeded repetitions; under the null each passes w.p. 0.99
        reps, passed = 100, 0
        for k in range(reps):
            a = sample_iid(fair_coin, 100_000, root.derive("cal_a", k))
            b = sample_iid(fair_coin, 100_000, root.derive("cal_b", k))
            if two_sample_test(a, b, 2, 1).p_value > 0.01:
                passed += 1
        assert passed >= 98

    def test_same_law_calibration_at_order_two(self, root):
        # a law that is not uniform, tested on its letters and on its
        # disjoint pairs: 30 seeded repetitions, and a repetition passes
        # when both p-values exceed 0.01
        pmf = Pmf.from_probs([0.3, 0.7])
        reps, passed = 30, 0
        for k in range(reps):
            a = sample_iid(pmf, 20_000, root.derive("cal2_a", k))
            b = sample_iid(pmf, 20_000, root.derive("cal2_b", k))
            passed += all(two_sample_test(a, b, 2, order).p_value > 0.01 for order in (1, 2))
        assert passed >= 27

    def test_different_laws_rejected(self, root):
        a = sample_iid(Pmf.from_probs([0.9, 0.1]), 10_000, root.derive("pa"))
        b = sample_iid(Pmf.from_probs([0.5, 0.5]), 10_000, root.derive("pb"))
        assert two_sample_test(a, b, 2, 1).p_value < 1e-6

    def test_order_two_detects_pair_structure(self, fair_coin, root):
        # alternating sequence matches i.i.d. in order-1 but not order-2
        n = 20_000
        alt = np.tile([0, 1], n // 2)
        iid = sample_iid(fair_coin, n, root.derive("iid"))
        assert two_sample_test(alt, iid, 2, 1).p_value > 1e-4
        assert two_sample_test(alt, iid, 2, 2).p_value < 1e-10

    def test_low_expected_warning(self):
        rep = two_sample_test(np.arange(8), np.arange(8)[::-1], 8, 1)
        assert rep.low_expected

    def test_bad_order(self, fair_coin, root):
        s = sample_iid(fair_coin, 10, root)
        with pytest.raises(ValueError):
            two_sample_test(s, s, 2, 3)


DFS = range(1, 16)


def _tail_cases(df: int, rng) -> list:
    """Count vectors over df + 1 cells: random, and one whose statistic is
    large enough that the chi-square tail underflows to 0."""
    k = df + 1
    flat = rng.integers(1, 200, size=k)
    lopsided = np.ones(k, dtype=np.int64)
    lopsided[0] = 10**6
    return [flat, rng.multinomial(5000, rng.dirichlet(np.ones(k))), lopsided]


@pytest.mark.parametrize("df", DFS)
def test_homogeneity_tail_is_scipy_stats_bit_for_bit(df):
    rng = np.random.default_rng(df)
    a_cases = _tail_cases(df, rng)
    b_cases = [a_cases[0], rng.integers(1, 200, size=df + 1), np.roll(a_cases[2], 1)]
    reports = [chi_square_homogeneity(a, b) for a, b in zip(a_cases, b_cases)]
    assert [r.df for r in reports] == [df] * 3
    assert (reports[0].statistic, reports[0].p_value) == (0.0, 1.0)
    assert reports[2].p_value == 0.0
    for rep in reports:
        assert rep.p_value == chi2.sf(rep.statistic, rep.df)


@pytest.mark.parametrize("df", DFS)
def test_goodness_of_fit_is_scipy_chisquare_bit_for_bit(df):
    rng = np.random.default_rng(100 + df)
    k = df + 1
    laws = [np.full(k, 1 / k), rng.dirichlet(np.ones(k)), np.full(k, 1 / k)]
    cases = _tail_cases(df, rng)
    if k & (k - 1) == 0:
        # 1/k is exact, so equal counts meet their expectation exactly
        cases.append(np.full(k, 7))
        laws.append(np.full(k, 1 / k))
    for counts, probs in zip(cases, laws):
        p = goodness_of_fit_p(counts, probs)
        assert isinstance(p, np.floating)
        assert p == chisquare(counts, probs * counts.sum()).pvalue
    assert goodness_of_fit_p(cases[2], laws[2]) == 0.0
    if k & (k - 1) == 0:
        assert goodness_of_fit_p(cases[3], laws[3]) == 1.0


def test_wilson_half_width_matches_formula():
    # spot value: 10 successes out of 100 at z = 1.96
    hw = wilson_half_width(10, 100)
    assert hw == pytest.approx(0.0598, abs=2e-3)
    with pytest.raises(ValueError):
        wilson_half_width(0, 0)


class TestAlphabet:
    def test_dtype_scaling(self):
        assert Alphabet(2).dtype == np.int8
        assert Alphabet(1000).dtype == np.int16
        assert Alphabet(100_000).dtype == np.int32
