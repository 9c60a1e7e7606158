import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chisquare

from conftest import codebook_symbols, sequential_draw

from sepnet import probcore
from sepnet.probcore import (
    SAMPLE_SLICE,
    Alphabet,
    AlphabetMismatchError,
    Pmf,
    RandomnessHandle,
    Sequence,
    chi_square_homogeneity,
    sample_iid,
    sample_iid_array,
    _goodness_of_fit_p,
    _pack_planes,
    _row_cumsum,
    _run_shares,
    _sample_indexed,
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
        with pytest.raises(ValueError):
            Sequence(Alphabet(2), np.array([0, 2]))


class TestSampling:
    def test_degenerate_pmf_all_zero(self, root):
        seq = sample_iid(Pmf.from_probs([1.0]), 5, root)
        assert list(seq.values) == [0, 0, 0, 0, 0]

    def test_determinism(self, fair_coin, root):
        a = sample_iid(fair_coin, 1000, root)
        b = sample_iid(fair_coin, 1000, root)
        assert np.array_equal(a.values, b.values)

    def test_binary_frequency_and_gof(self, fair_coin, root):
        # chi-square goodness-of-fit oracle at significance 0.01
        seq = sample_iid(fair_coin, 100_000, root.derive("gof"))
        freq0 = float((seq.values == 0).mean())
        assert abs(freq0 - 0.5) < 0.01
        counts = np.bincount(seq.values, minlength=2)
        _, p = chisquare(counts, fair_coin.probs * counts.sum())
        assert p > 0.01

    def test_distinct_streams_differ(self, fair_coin, root):
        a = sample_iid(fair_coin, 1000, root.derive("s", 0))
        b = sample_iid(fair_coin, 1000, root.derive("s", 1))
        assert not np.array_equal(a.values, b.values)

    def test_derive_is_deterministic(self, root):
        assert root.derive("x", 3) == root.derive("x", 3)
        assert root.derive("x", 3) != root.derive("x", 4)

    def test_empirical_convergence_binary(self, root):
        # tv to the truth <= 0.02 at n = 1e5 across skews, plus chi-square
        for p0 in (0.1, 0.5, 0.9):
            pmf = Pmf.from_probs([p0, 1 - p0])
            seq = sample_iid(pmf, 100_000, root.derive("conv", int(p0 * 10)))
            counts = np.bincount(seq.values, minlength=2)
            assert 0.5 * np.abs(counts / counts.sum() - pmf.probs).sum() <= 0.02
            _, p = chisquare(counts, pmf.probs * counts.sum())
            assert p > 0.001


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 6), size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_indexed_sampler_equals_row_gather(rows, size, seed):
    # the gathered-rows count it replaced, on uniforms that include the
    # table's own thresholds, where >= and > part ways
    rng = np.random.default_rng(seed)
    cum = _row_cumsum(rng.dirichlet(np.ones(size), size=rows))
    idx = rng.integers(0, rows, (5, 40))
    u = rng.random((5, 40))
    u[0] = cum[idx[0], rng.integers(0, size, 40)]
    u[1, :3] = 0.0
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    gathered = np.minimum((cum[idx] <= u[..., None]).sum(axis=-1), size - 1)
    out = _sample_indexed(cum, idx, u, Alphabet(size).dtype)
    assert out.dtype == Alphabet(size).dtype
    assert np.array_equal(out, gathered)


class _FixedUniforms:
    """Generator stand-in that hands out the given uniforms, or the given
    raw words."""

    def __init__(self, u, words=()):
        self.u = u
        self.words = np.array(words, dtype=np.uint64)
        self.bit_generator = self

    def random(self, out):
        assert len(out) == len(self.u)
        out[:] = self.u
        return out

    def random_raw(self, size):
        assert size == len(self.words)
        return self.words.copy()


@pytest.mark.parametrize(
    "probs", [(0.5, 0.5), (0.3, 0.7), (0.15, 0.35, 0.5), (0.2, 0, 0.3, 0.5), (1.0,)]
)
def test_iid_sampler_equals_threshold_search(probs, root):
    # the binary threshold and the sorted search it replaced, draw for draw,
    # on uniforms that include the pmf's own thresholds; the sampler maps
    # uniforms this way under every law but the fair coin, which reads raw
    # words
    pmf = Pmf.from_probs(list(probs))
    cum = _row_cumsum(pmf.probs)
    u = np.concatenate(
        [root.derive("u").generator().random(4000), cum[:-1], [0.0, np.nextafter(1.0, 0.0)]]
    )
    reference = np.searchsorted(cum, u, side="right")
    if len(probs) == 2:
        assert np.array_equal(reference, u >= pmf.probs[0])
    assert np.array_equal(_sample_indexed(cum[None, :], 0, u, pmf.alphabet.dtype), reference)
    if probs == (0.5, 0.5):
        # 67 symbols are two words read from the top bit down, of the
        # second only its low 3 bits
        out = sample_iid_array(pmf, 67, _FixedUniforms(u, [(1 << 63) | 1, 0b1101]))
        assert out.dtype == pmf.alphabet.dtype
        assert out.tolist() == [1] + [0] * 62 + [1] + [1, 0, 1]
        return
    out = sample_iid_array(pmf, len(u), _FixedUniforms(u))
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
        reference = _pack_planes(codebook_symbols(pmf, n // width, width, sequential), len(pmf))
        assert out.dtype == np.uint64
        assert np.array_equal(out, reference.reshape(-1))
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [199, 200, 201, 1000, 1003])
def test_fair_draw_in_slices_off_the_word(root, workers, n):
    # 100-symbol slices: an unpacked fair draw still takes whole words a
    # slice, so the bits are those of one sequential row of n
    gens = [root.derive("slices", n).generator() for _ in range(2)]
    with mock.patch.object(probcore, "SAMPLE_SLICE", 100), \
            mock.patch.object(probcore, "_worker_count", lambda: workers):
        out = sample_iid_array(Pmf.from_probs([0.5, 0.5]), n, gens[0])
    assert np.array_equal(out, sequential_draw(Pmf.from_probs([0.5, 0.5]), n, gens[1]))
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


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
            rep = two_sample_test(s, s, order)
            assert rep.statistic == 0.0
            assert rep.p_value == 1.0

    def test_same_law_calibration(self, fair_coin, root):
        # 100 seeded repetitions; under the null each passes w.p. 0.99
        reps, passed = 100, 0
        for k in range(reps):
            a = sample_iid(fair_coin, 100_000, root.derive("cal_a", k))
            b = sample_iid(fair_coin, 100_000, root.derive("cal_b", k))
            if two_sample_test(a, b, 1).p_value > 0.01:
                passed += 1
        assert passed >= 98

    def test_different_laws_rejected(self, root):
        a = sample_iid(Pmf.from_probs([0.9, 0.1]), 10_000, root.derive("pa"))
        b = sample_iid(Pmf.from_probs([0.5, 0.5]), 10_000, root.derive("pb"))
        assert two_sample_test(a, b, 1).p_value < 1e-6

    def test_order_two_detects_pair_structure(self, fair_coin, root):
        # alternating sequence matches i.i.d. in order-1 but not order-2
        n = 20_000
        alt = Sequence(Alphabet(2), np.tile([0, 1], n // 2))
        iid = sample_iid(fair_coin, n, root.derive("iid"))
        assert two_sample_test(alt, iid, 1).p_value > 1e-4
        assert two_sample_test(alt, iid, 2).p_value < 1e-10

    def test_low_expected_warning(self):
        a = Sequence(Alphabet(8), np.arange(8))
        b = Sequence(Alphabet(8), np.arange(8)[::-1])
        rep = two_sample_test(a, b, 1)
        assert rep.low_expected

    def test_alphabet_mismatch(self, root):
        a = sample_iid(Pmf.from_probs([1.0]), 10, root)
        b = sample_iid(Pmf.from_probs([0.5, 0.5]), 10, root)
        with pytest.raises(AlphabetMismatchError):
            two_sample_test(a, b, 1)

    def test_bad_order(self, fair_coin, root):
        s = sample_iid(fair_coin, 10, root)
        with pytest.raises(ValueError):
            two_sample_test(s, s, 3)


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
        p = _goodness_of_fit_p(counts, probs)
        assert isinstance(p, np.floating)
        assert p == chisquare(counts, probs * counts.sum()).pvalue
    assert _goodness_of_fit_p(cases[2], laws[2]) == 0.0
    if k & (k - 1) == 0:
        assert _goodness_of_fit_p(cases[3], laws[3]) == 1.0


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
