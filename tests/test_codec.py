import math

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from sepnet.codec import (
    AMBIGUOUS,
    NONE_WITHIN,
    Codebook,
    CodebookCapError,
    RatePlan,
    RatePlanError,
    batch_min_distortion_rows,
    batch_unique_within_decode,
    build_channel_codebook,
    build_source_codebook,
    cardinality_for,
    mbp_estimate,
    zipf_message_pmf,
)
from sepnet.probcore import Pmf
from sepnet.ratedist import DistortionMetric, blahut_arimoto, hamming_metric

R_125 = 0.4564355568004036   # R(0.125), binary uniform + Hamming
R_200 = 0.2780719051126377   # R(0.2)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def small_plan(n=32, n_prime=None, psi=None, alpha=None):
    return RatePlan.make(
        n=n, level=0.125, level_prime=0.2,
        rate_at_level=R_125, rate_at_level_prime=R_200,
        n_prime=n_prime, psi=psi, alpha=alpha,
    )


class TestMessageSetAndPlan:
    def test_cardinality_ceiling(self):
        assert cardinality_for(0.5, 10) == 32
        assert cardinality_for(0.26, 16) == 18

    def test_default_psi_matches_equal_block_choice(self):
        plan = RatePlan.make(n=64, level=0.125, level_prime=0.2,
                             rate_at_level=R_125, rate_at_level_prime=R_200)
        assert plan.psi == pytest.approx(0.5 * (R_125 - R_200) / R_125)
        assert plan.alpha == pytest.approx(R_125 / (R_125 + plan.psi) * plan.psi / 2)

    def test_rate_condition_enforced(self):
        # n/n' must strictly exceed R'/R + psi
        with pytest.raises(RatePlanError):
            RatePlan.make(n=32, level=0.125, level_prime=0.2,
                          rate_at_level=R_125, rate_at_level_prime=R_200,
                          n_prime=64, psi=0.25, alpha=0.1)

    def test_nesting_enforced(self):
        # huge alpha starves the channel message set
        with pytest.raises(RatePlanError):
            RatePlan.make(n=32, level=0.125, level_prime=0.2,
                          rate_at_level=R_125, rate_at_level_prime=R_200,
                          psi=0.01, alpha=0.44)

    def test_psi_positive(self):
        with pytest.raises(RatePlanError):
            small_plan(psi=0.0)

    def test_unequal_blocks_need_explicit_psi(self):
        with pytest.raises(RatePlanError):
            RatePlan.make(n=32, level=0.125, level_prime=0.2,
                          rate_at_level=R_125, rate_at_level_prime=R_200,
                          n_prime=24)


class TestChannelCodebook:
    def test_cardinality_one_constant_encoder(self, fair_coin, root):
        cb = Codebook.generate("channel-embedding", fair_coin, 8, 1, root)
        assert cb.entries.shape == (1, 8)
        blocks = root.derive("y").generator().integers(0, 2, (5, 8)).astype(np.int8)
        assert np.array_equal(batch_min_distortion_rows(cb, blocks, hamming_metric(2))[0],
                              np.zeros(5))
        with pytest.raises(ValueError):
            cb.prefix(2)

    def test_same_seed_identical(self, fair_coin, root):
        plan = small_plan()
        a = build_channel_codebook(plan, fair_coin, root.derive("cb"))
        b = build_channel_codebook(plan, fair_coin, root.derive("cb"))
        assert np.array_equal(a.entries, b.entries)

    def test_regeneration_from_spec(self, fair_coin, root):
        cb = build_channel_codebook(small_plan(), fair_coin, root.derive("rg"))
        again = Codebook.from_spec(cb.spec())
        assert again is not cb
        assert np.array_equal(cb.entries, again.entries)

    def test_pooled_symbols_match_generation_law(self, fair_coin, root):
        # 64 codewords x 32 symbols pooled: chi-square GOF at 0.01
        cb = Codebook.generate("channel-embedding", fair_coin, 32, 64, root.derive("gof"))
        counts = np.bincount(cb.entries.reshape(-1), minlength=2)
        _, p = chisquare(counts, fair_coin.probs * counts.sum())
        assert p > 0.01

    def test_cap_guard(self, fair_coin, root):
        plan = RatePlan.make(n=256, level=0.125, level_prime=0.2,
                             rate_at_level=R_125, rate_at_level_prime=R_200)
        with pytest.raises(CodebookCapError):
            build_channel_codebook(plan, fair_coin, root)

    def test_encoded_stream_matches_source_law(self, fair_coin, root):
        cb = build_channel_codebook(small_plan(), fair_coin, root.derive("enc"))
        gen = root.derive("msgs").generator()
        msgs = gen.integers(0, cb.cardinality, 2000)
        pooled = cb.entries[msgs].reshape(-1)
        counts = np.bincount(pooled, minlength=2)
        _, p = chisquare(counts, fair_coin.probs * counts.sum())
        assert p > 0.01


class TestChannelDecode:
    def setup_method(self):
        self.metric = hamming_metric(2)
        self.pmf = Pmf.from_probs([0.5, 0.5])

    def hand_codebook(self, rows):
        arr = np.array(rows, dtype=np.int8)
        return Codebook("channel-embedding", arr.shape[1], arr.shape[0],
                        self.pmf, __import__("sepnet").RandomnessHandle(0), arr)

    def within(self, cb, rows, level):
        return batch_unique_within_decode(cb, np.array(rows, dtype=np.int8), self.metric, level)

    def test_unique_qualifier(self):
        cb = self.hand_codebook([[0] * 8, [1] * 8])
        assert self.within(cb, [[0] * 7 + [1]], 0.25)[0] == 0

    def test_ambiguous_tie(self):
        cb = self.hand_codebook([[0] * 8, [0] * 7 + [1]])
        assert self.within(cb, [[0] * 8], 0.25)[0] == AMBIGUOUS

    def test_none_within(self):
        cb = self.hand_codebook([[0] * 8, [1] * 8])
        assert self.within(cb, [[0, 1] * 4], 0.125)[0] == NONE_WITHIN

    def test_argmin_rule(self):
        # equidistant from both rows: the lowest row wins
        cb = self.hand_codebook([[0] * 8, [1] * 8])
        blocks = np.array([[0, 1] * 4], dtype=np.int8)
        rows, avg = batch_min_distortion_rows(cb, blocks, self.metric)
        assert (rows[0], avg[0]) == (0, 0.5)

    def test_shared_seed_roundtrip_noiseless(self, root):
        cb = build_channel_codebook(small_plan(), self.pmf, root.derive("rt"))
        assert len(np.unique(cb.packed())) == cb.cardinality  # distinct rows
        decoder_cb = Codebook.from_spec(cb.spec())
        messages = np.arange(0, cb.cardinality, 97)
        decoded = batch_unique_within_decode(decoder_cb, cb.entries[messages], self.metric, 0.0)
        assert np.array_equal(decoded, messages)

    def test_matches_bruteforce_on_nonbinary(self, root):
        # gather path vs an explicit double loop
        pmf = Pmf.uniform(3)
        metric = hamming_metric(3)
        cb = Codebook.generate("channel-embedding", pmf, 12, 40, root.derive("t3"))
        gen = root.derive("t3y").generator()
        blocks = gen.integers(0, 3, (20, 12)).astype(np.int8)
        idx, avg = batch_min_distortion_rows(cb, blocks, metric)
        for k in range(20):
            dists = [(cb.entries[m] != blocks[k]).mean() for m in range(40)]
            assert idx[k] == int(np.argmin(dists))
            assert avg[k] == pytest.approx(min(dists))


class TestMbp:
    def setup_method(self):
        self.metric = hamming_metric(2)
        self.pmf = Pmf.from_probs([0.5, 0.5])

    def test_noiseless_sup_zero(self, root):
        cb = build_channel_codebook(small_plan(), self.pmf, root.derive("m0"))
        identity = np.eye(2)
        rep = mbp_estimate(cb, identity, 100, self.metric, 0.0, root.derive("m0t"),
                           messages=np.arange(0, cb.cardinality, 50))
        assert rep.sup == 0.0

    def test_cardinality_one_noiseless(self, root):
        cb = Codebook.generate("channel-embedding", self.pmf, 16, 1, root.derive("m1"))
        rep = mbp_estimate(cb, np.eye(2), 100, self.metric, 0.0, root.derive("m1t"))
        assert rep.sup == 0.0

    def test_duplicate_rows_always_ambiguous(self, root):
        row = np.array([0, 1] * 8, dtype=np.int8)
        cb = Codebook("channel-embedding", 16, 2, self.pmf,
                      root, np.stack([row, row]))
        rep = mbp_estimate(cb, np.eye(2), 100, self.metric, 0.0, root.derive("dup"))
        assert rep.sup == 1.0

    def test_sup_dominates_average(self, root):
        cb = build_channel_codebook(small_plan(n=16), self.pmf, root.derive("dom"))
        chan = np.array([[0.89, 0.11], [0.11, 0.89]])
        rep = mbp_estimate(cb, chan, 200, self.metric, 0.125, root.derive("domt"))
        assert rep.sup >= rep.average

    def test_callable_channel(self, root):
        cb = build_channel_codebook(small_plan(n=16), self.pmf, root.derive("cc"))

        def noiseless(blocks, gen):
            return blocks

        rep = mbp_estimate(cb, noiseless, 100, self.metric, 0.0, root.derive("cct"))
        assert rep.sup == 0.0

    def test_unknown_rule_rejected(self, root):
        # a misspelt rule used to run within-D decoding silently
        cb = build_channel_codebook(small_plan(n=16), self.pmf, root.derive("rule"))
        with pytest.raises(ValueError, match="argmn"):
            mbp_estimate(cb, np.eye(2), 100, self.metric, 0.0, root.derive("rt"),
                         rule="argmn")


class TestSourceCodec:
    def setup_method(self):
        self.metric = hamming_metric(2)
        self.pmf = Pmf.from_probs([0.5, 0.5])

    def q_point(self, level_prime):
        """The R(D') solution a plan hands to build_source_codebook."""
        return blahut_arimoto(self.pmf, self.metric, level_prime, tol=1e-9)

    def test_symmetric_marginal_is_uniform(self, root):
        cb = build_source_codebook(small_plan(), self.q_point(0.2), root.derive("q"))
        assert np.allclose(cb.gen_pmf.probs, [0.5, 0.5], atol=1e-6)

    def test_near_dmax_marginal_concentrates(self, root):
        # q* collapses onto the best single reproduction letter as D -> Dmax
        skew = Pmf.from_probs([0.8, 0.2])
        pt = blahut_arimoto(skew, self.metric, 0.19)
        assert pt.repro_marginal[0] > 0.95

    def test_same_seed_identical(self, root):
        a = build_source_codebook(small_plan(), self.q_point(0.2), root.derive("s"))
        b = build_source_codebook(small_plan(), self.q_point(0.2), root.derive("s"))
        assert np.array_equal(a.entries, b.entries)

    def encode(self, cb, blocks):
        return batch_min_distortion_rows(cb, blocks, self.metric)[0]

    def test_encode_matches_rows(self, root):
        cb = build_source_codebook(small_plan(), self.q_point(0.2), root.derive("e"))
        m = self.encode(cb, cb.entries[[17]])[0]
        # an identical row earlier in the table may win the tie
        assert np.array_equal(cb.entries[m], cb.entries[17]) or m == 17

    def test_cardinality_one(self, root):
        cb = Codebook.generate("source-compression", self.pmf, 16, 1, root.derive("c1"))
        assert self.encode(cb, np.ones((1, 16), dtype=np.int8))[0] == 0
        assert cb.entries[0].shape == (16,)

    def test_roundtrip_is_row_minimum(self, root):
        cb = build_source_codebook(small_plan(n=16, n_prime=16), self.q_point(0.2),
                                   root.derive("rt"))
        gen = root.derive("rtx").generator()
        x = gen.integers(0, 2, (1, 16)).astype(np.int8)
        y = cb.entries[self.encode(cb, x)[0]]
        best = min(float((row != x[0]).mean()) for row in cb.entries)
        assert float((y != x[0]).mean()) == pytest.approx(best)

    def test_encode_decode_identity_on_distinct_rows(self, root):
        cb = build_source_codebook(small_plan(), self.q_point(0.2), root.derive("id"))
        if len(np.unique(cb.packed())) == cb.cardinality:
            messages = np.arange(0, cb.cardinality, 199)
            assert np.array_equal(self.encode(cb, cb.entries[messages]), messages)

    def test_overshoot_point_estimate(self, root):
        # codeword chosen for a fresh block exceeds D' + 0.05 rarely
        plan = small_plan(n=32, n_prime=32)
        cb = build_source_codebook(plan, self.q_point(0.2), root.derive("ov"))
        gen = root.derive("ovx").generator()
        blocks = gen.integers(0, 2, (1000, 32)).astype(np.int8)
        _, avg = batch_min_distortion_rows(cb, blocks, self.metric)
        assert float((avg > 0.25).mean()) <= 0.2

    def test_overshoot_decays_with_block_length(self, root):
        # covering failure Pr(best row worse than D') shrinks as n' grows at
        # fixed rate margin; tested against the exhaustive-search encoder
        rates = {}
        for n_prime in (16, 32, 64):
            plan = RatePlan.make(n=2 * n_prime, level=0.125, level_prime=0.3,
                                 rate_at_level=R_125,
                                 rate_at_level_prime=1 - h2(0.3),
                                 n_prime=n_prime, psi=0.25, alpha=0.15)
            cb = build_source_codebook(plan, self.q_point(0.3), root.derive("dec", n_prime))
            gen = root.derive("decx", n_prime).generator()
            blocks = gen.integers(0, 2, (2000, n_prime)).astype(np.int8)
            _, avg = batch_min_distortion_rows(cb, blocks, self.metric)
            rates[n_prime] = float((avg > 0.3).mean())
        assert rates[16] > rates[32] > rates[64]


def test_zipf_message_pmf_shape():
    pmf = zipf_message_pmf(1000, 0.5)
    assert pmf.probs[0] > pmf.probs[-1]
    assert pmf.probs.sum() == pytest.approx(1.0)
