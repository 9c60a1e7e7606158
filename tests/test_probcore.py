import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from sepnet.probcore import (
    Alphabet,
    AlphabetMismatchError,
    Pmf,
    RandomnessHandle,
    Sequence,
    empirical_pmf,
    sample_iid,
    _row_cumsum,
    _sample_indexed,
    tv_distance,
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
            emp = empirical_pmf(seq)
            assert tv_distance(emp, pmf) <= 0.02
            counts = np.bincount(seq.values, minlength=2)
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


class TestEmpiricalPmf:
    def test_direct_count(self):
        seq = Sequence(Alphabet(2), np.array([0, 0, 1, 1]))
        assert np.allclose(empirical_pmf(seq).probs, [0.5, 0.5])

    def test_single_symbol_on_binary(self):
        seq = Sequence(Alphabet(2), np.array([0]))
        assert np.allclose(empirical_pmf(seq).probs, [1.0, 0.0])

    def test_concatenation_invariance(self):
        vals = np.array([0, 1, 1, 2, 0])
        a = Sequence(Alphabet(3), vals)
        b = Sequence(Alphabet(3), np.concatenate([vals, vals]))
        assert np.allclose(empirical_pmf(a).probs, empirical_pmf(b).probs)


class TestTvDistance:
    def test_identity(self):
        p = Pmf.from_probs([0.3, 0.7])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_support(self):
        assert tv_distance(Pmf.from_probs([1, 0]), Pmf.from_probs([0, 1])) == 1.0

    def test_direct_value(self):
        p = Pmf.from_probs([0.75, 0.25])
        q = Pmf.from_probs([0.5, 0.5])
        assert tv_distance(p, q) == pytest.approx(0.25)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            tv_distance(Pmf.from_probs([1.0]), Pmf.from_probs([0.5, 0.5]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 1), min_size=3, max_size=3).map(lambda v: np.array(v)),
           st.lists(st.floats(0.01, 1), min_size=3, max_size=3).map(lambda v: np.array(v)),
           st.lists(st.floats(0.01, 1), min_size=3, max_size=3).map(lambda v: np.array(v)))
    def test_metric_properties(self, a, b, c):
        p = Pmf.from_probs(a / a.sum())
        q = Pmf.from_probs(b / b.sum())
        r = Pmf.from_probs(c / c.sum())
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
        if np.array_equal(p.probs, q.probs):
            assert tv_distance(p, q) == 0.0


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
