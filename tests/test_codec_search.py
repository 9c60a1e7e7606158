"""The codeword-search contract: exact answers, ties to the lowest row,
whichever path runs (scan below INDEX_MIN_ROWS rows, multi-index hash
from there up, and the index's scan fallback for costly lanes)."""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet import codec
from sepnet.codec import (
    AMBIGUOUS,
    INDEX_MIN_ROWS,
    NONE_WITHIN,
    Codebook,
    CodebookCapError,
    batch_min_distortion_rows,
    batch_unique_within_decode,
)
from sepnet.probcore import Pmf, RandomnessHandle, sample_iid_array
from sepnet.ratedist import hamming_metric

METRIC = hamming_metric(2)
COIN = Pmf.from_probs([0.5, 0.5])


def brute_distances(entries, blocks):
    """(lanes, rows) Hamming distances on unpacked symbols, row by row."""
    return np.stack([(entries != b).sum(axis=1) for b in blocks])


def brute_within(d, thresh):
    out = []
    for row in d:
        hits = np.flatnonzero(row <= thresh)
        out.append(hits[0] if len(hits) == 1 else (NONE_WITHIN if not len(hits) else AMBIGUOUS))
    return np.array(out)


def hand_codebook(entries):
    m, n = entries.shape
    return Codebook("channel-embedding", n, m, COIN, RandomnessHandle(0), entries)


@st.composite
def search_cases(draw):
    """Small binary codebooks with duplicate rows, and queries near them."""
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, 40))
    pool = draw(st.integers(1, m))  # fewer distinct rows than rows: ties
    lanes = draw(st.integers(1, 6))
    flip = draw(st.floats(0.0, 0.5))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = g.integers(0, 2, (pool, n), dtype=np.int8)[g.integers(0, pool, m)]
    noise = (g.random((lanes, n)) < flip).astype(np.int8)
    blocks = entries[g.integers(0, m, lanes)] ^ noise
    restrict = draw(st.none() | st.integers(1, m + 2))
    thresh = draw(st.integers(-1, n))
    return entries, blocks, restrict, thresh


@settings(max_examples=150, deadline=None)
@given(case=search_cases(), budget=st.sampled_from([0, 6, 10**9]),
       queries=st.sampled_from([2, codec._INDEX_QUERIES]))
def test_index_matches_bruteforce(case, budget, queries):
    # budget 0 scans every lane, 10**9 never does, 6 mixes the two; two
    # words per pass through the index splits most batches
    entries, blocks, restrict, thresh = case
    m = min(restrict or len(entries), len(entries))
    d = brute_distances(entries[:m], blocks)
    index = codec._HammingIndex(codec._pack_bits(entries[:m]), entries.shape[1])
    index.budget = budget
    words = codec._pack_bits(blocks)
    with mock.patch.object(codec, "_INDEX_QUERIES", queries):
        rows, dist = index.nearest(words)
        within = index.within(words, thresh)
    assert np.array_equal(rows, d.argmin(axis=1))
    assert np.array_equal(dist, d.min(axis=1))
    assert np.array_equal(within, brute_within(d, thresh))


def test_index_probes_up_to_the_pigeonhole_bound():
    # n = 32 is two 16-bit substrings. Both rows are 2 bits from the zero
    # query: row 1 in one substring (found at radius 0), row 0 one bit in
    # each (found only at radius 1). Radius 0 proves distances <= 1 only,
    # so the search must go on to radius 1 to see that row 0 ties.
    entries = np.zeros((2, 32), dtype=np.int8)
    entries[0, [0, 16]] = 1
    entries[1, [0, 1]] = 1
    index = codec._HammingIndex(codec._pack_bits(entries), 32)
    index.budget = 10**9
    words = codec._pack_bits(np.zeros((1, 32), dtype=np.int8))
    rows, dist = index.nearest(words)
    assert (rows[0], dist[0]) == (0, 2)
    assert index.within(words, 2)[0] == AMBIGUOUS
    assert index.within(words, 1)[0] == NONE_WITHIN


@settings(max_examples=150, deadline=None)
@given(case=search_cases())
def test_public_search_matches_bruteforce(case):
    entries, blocks, restrict, thresh = case
    m = min(restrict or len(entries), len(entries))
    d = brute_distances(entries[:m], blocks)
    n = entries.shape[1]
    cb = hand_codebook(entries)
    rows, avg = batch_min_distortion_rows(cb, blocks, METRIC, restrict=restrict)
    assert np.array_equal(rows, d.argmin(axis=1))
    assert np.array_equal(avg, d.min(axis=1) * (1 / n))  # as the codec scales
    level = thresh / n
    codes = batch_unique_within_decode(cb, blocks, METRIC, level, restrict=restrict)
    assert np.array_equal(codes, brute_within(d, thresh))


@pytest.mark.parametrize("m", [INDEX_MIN_ROWS - 1, INDEX_MIN_ROWS, INDEX_MIN_ROWS + 1])
def test_both_sides_of_the_index_threshold(m):
    g = np.random.default_rng(m)
    entries = g.integers(0, 2, (m, 64), dtype=np.int8)
    entries[-1] = entries[5]  # exact duplicate: ties go to row 5
    cb = hand_codebook(entries)
    sent = np.array([5, m - 1, 17, 17, 40_000, m // 2, 3, 9])
    flips = np.array([0, 0, 3, 8, 6, 12, 1, 20])
    noise = np.zeros((len(sent), 64), dtype=np.int8)
    for k, f in enumerate(flips):
        noise[k, g.choice(64, f, replace=False)] = 1
    blocks = np.concatenate([entries[sent] ^ noise, g.integers(0, 2, (4, 64), dtype=np.int8)])
    for restrict in (None, m - 1):
        rows_m = min(restrict or m, m)
        d = brute_distances(entries[:rows_m], blocks)
        rows, avg = batch_min_distortion_rows(cb, blocks, METRIC, restrict=restrict)
        assert np.array_equal(rows, d.argmin(axis=1))
        assert np.array_equal(avg, d.min(axis=1) * (1 / 64))
        assert rows[0] == rows[1] == 5  # row 5's duplicate loses the tie
        for level in (0.0, 0.125, 0.2):
            codes = batch_unique_within_decode(cb, blocks, METRIC, level, restrict=restrict)
            assert np.array_equal(codes, brute_within(d, int(level * 64)))
    indexed = set(getattr(cb, "_index_cache", {}))
    assert indexed == {k for k in (m, m - 1) if k >= INDEX_MIN_ROWS}
    codes = batch_unique_within_decode(cb, blocks, METRIC, 0.125)
    assert codes[0] == AMBIGUOUS and NONE_WITHIN in codes and (codes >= 0).any()


@pytest.mark.parametrize(
    "probs, n, m, chunk",
    [([0.3, 0.7], 7, 61, 100), ([1 / 3] * 3, 12, 40, 100), ([0.5, 0.5], 200, 3, 100),
     ([0.5, 0.5], 64, 70_000, None)],
)
def test_chunked_generation_equals_one_shot(monkeypatch, root, probs, n, m, chunk):
    if chunk is not None:
        monkeypatch.setattr(codec, "GEN_CHUNK_SYMBOLS", chunk)
    pmf = Pmf.from_probs(probs)
    handle = root.derive("chunked", n, m)
    cb = Codebook.generate("source-compression", pmf, n, m, handle)
    one_shot = sample_iid_array(pmf, n * m, handle.generator()).reshape(m, n)
    assert np.array_equal(cb.entries, one_shot)
    assert not cb.entries.flags.writeable


class TestLiveCodebooks:
    def test_from_spec_returns_the_live_codebook(self, root):
        cb = Codebook.generate("channel-embedding", COIN, 24, 300, root.derive("live"))
        assert Codebook.from_spec(cb.spec()) is cb
        fresh = Codebook.from_spec(cb.spec(), fresh=True)
        assert fresh is not cb and np.array_equal(fresh.entries, cb.entries)

    def test_registry_keeps_nothing_alive(self, root):
        cb = Codebook.generate("channel-embedding", COIN, 24, 300, root.derive("gone"))
        spec, entries, ref = cb.spec(), cb.entries.copy(), weakref.ref(cb)
        del cb
        gc.collect()
        assert ref() is None
        again = Codebook.from_spec(spec)
        assert np.array_equal(again.entries, entries)

    def test_cap_applies_to_live_codebooks(self, root):
        cb = Codebook.generate("channel-embedding", COIN, 24, 300, root.derive("cap"))
        with pytest.raises(CodebookCapError):
            Codebook.from_spec(cb.spec(), cap=299)
