"""The codeword-search contract: exact answers over every row of a
codebook, ties to the lowest row, for every alphabet, block length and
distortion table, whichever path runs (the plane scan; for binary Hamming
over one word per row, the multi-index hash from INDEX_MIN_ROWS rows up
and the index's scan fallback for costly lanes)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import codebook_symbols, sequential_draw

from sepnet import codec, probcore
from sepnet.codec import (
    AMBIGUOUS,
    CHANNEL_EMBEDDING,
    INDEX_MIN_ROWS,
    NONE_WITHIN,
    SOURCE_COMPRESSION,
    Codebook,
    CodebookCapError,
    _decode_blocks,
    batch_min_distortion_rows,
    batch_unique_within_decode,
)
from sepnet.probcore import (
    Alphabet,
    Pmf,
    RandomnessHandle,
    _pack_planes,
)
from sepnet.ratedist import DistortionMetric, hamming_metric

METRIC = hamming_metric(2)
COIN = Pmf.from_probs([0.5, 0.5])


def brute_distances(entries, blocks):
    """(lanes, rows) Hamming distances on unpacked symbols, row by row."""
    return np.stack([(entries != b).sum(axis=1) for b in blocks])


def words_of(symbols):
    """Binary rows of n <= 64 as the index takes them, one word each."""
    return _pack_planes(symbols, 2).reshape(-1)


def brute_within(d, thresh):
    out = []
    for row in d:
        hits = np.flatnonzero(row <= thresh)
        out.append(hits[0] if len(hits) == 1 else (NONE_WITHIN if not len(hits) else AMBIGUOUS))
    return np.array(out)


def hand_codebook(entries, kind=CHANNEL_EMBEDDING, letters=2):
    m, n = entries.shape
    return Codebook(kind, n, m, Pmf.uniform(letters), RandomnessHandle(0), entries)


def brute_sums(table, kind, entries, blocks):
    """(lanes, rows) summed distortions by lookup, table[block letter, row
    letter] for a source codebook and table[row letter, block letter] for
    a channel codebook."""
    if kind == SOURCE_COMPRESSION:
        return np.stack([table[b, entries].sum(axis=1) for b in blocks])
    return np.stack([table[entries, b].sum(axis=1) for b in blocks])


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
    prefix = draw(st.none() | st.integers(1, m))
    thresh = draw(st.integers(-1, n))
    return entries, blocks, prefix, thresh


@settings(max_examples=150, deadline=None)
@given(case=search_cases(), budget=st.sampled_from([0, 6, 10**9]),
       queries=st.sampled_from([2, codec._QUERY_GROUP]))
def test_index_matches_bruteforce(case, budget, queries):
    # budget 0 scans every lane, 10**9 never does, 6 mixes the two; two
    # words per pass through the index splits most batches
    entries, blocks, prefix, thresh = case
    entries = entries[:prefix]
    d = brute_distances(entries, blocks)
    index = codec._HammingIndex(words_of(entries), entries.shape[1])
    index.budget = budget
    words = words_of(blocks)
    with mock.patch.object(codec, "_QUERY_GROUP", queries):
        rows, dist = index.nearest(words)
        within = index.within(words, thresh)
    assert np.array_equal(rows, d.argmin(axis=1))
    assert np.array_equal(dist, d.min(axis=1))
    assert np.array_equal(within, brute_within(d, thresh))


def test_index_probes_up_to_the_pigeonhole_bound():
    # n = 40 is three substrings of 14, 13 and 13 bits, probed one at a
    # time; after substring k at radius r every row within 3r + k is found.
    # Both rows are 3 bits from the zero query. Row 1 has all three in the
    # last substring, so the first probe (r = 0, k = 0) finds it. Row 0 has
    # one bit at the end of each substring, so only the fourth probe
    # (r = 1, k = 0, bound 3) finds it. Stopping one probe early, at bound
    # 2 < 3, would return the tied higher row 1.
    entries = np.zeros((2, 40), dtype=np.int8)
    entries[0, [13, 26, 39]] = 1
    entries[1, [27, 28, 29]] = 1
    index = codec._HammingIndex(words_of(entries), 40)
    assert [width for _, width, *_ in index.parts] == [14, 13, 13]
    index.budget = 10**9
    words = words_of(np.zeros((1, 40), dtype=np.int8))

    def probed(search, *args):
        with mock.patch.object(index, "_probe", wraps=index._probe) as probe:
            return search(words, *args), probe.call_count

    # each search makes the probes up to its bound and no more
    (rows, dist), probes = probed(index.nearest)
    assert (rows[0], dist[0], probes) == (0, 3, 4)
    codes, probes = probed(index.within, 3)
    assert (codes[0], probes) == (AMBIGUOUS, 4)
    codes, probes = probed(index.within, 2)
    assert (codes[0], probes) == (NONE_WITHIN, 3)


@st.composite
def plane_cases(draw):
    """Codebooks over 2-4 letters, one to three words a plane, with
    duplicate rows; blocks near them; and an integer-valued table, c *
    Hamming or random, oriented by the codebook's kind."""
    kind = draw(st.sampled_from([SOURCE_COMPRESSION, CHANNEL_EMBEDDING]))
    row_letters = draw(st.integers(2, 4))
    block_letters = draw(st.integers(2, 4))
    n = draw(st.integers(1, 130))
    m = draw(st.integers(1, 40))
    pool = draw(st.integers(1, m))
    lanes = draw(st.integers(1, 6))
    flip = draw(st.floats(0.0, 0.5))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = g.integers(0, row_letters, (pool, n), dtype=np.int8)[g.integers(0, pool, m)]
    noise = g.integers(0, block_letters, (lanes, n), dtype=np.int8)
    blocks = np.where(g.random((lanes, n)) < flip, noise, entries[g.integers(0, m, lanes)])
    blocks %= block_letters
    shape = (block_letters, row_letters)  # [block letter, row letter]
    if row_letters == block_letters and draw(st.booleans()):
        table = draw(st.integers(1, 3)) * (1.0 - np.eye(row_letters))
    else:
        table = g.integers(0, 4, shape).astype(np.float64)
    oriented = table if kind == SOURCE_COMPRESSION else table.T
    metric = DistortionMetric(Alphabet(len(oriented)), Alphabet(oriented.shape[1]), oriented)
    return kind, row_letters, entries, blocks, metric, draw(st.integers(-1, 3 * n))


@settings(max_examples=200, deadline=None)
@given(case=plane_cases())
def test_public_search_matches_bruteforce(case):
    kind, letters, entries, blocks, metric, total = case
    cb = hand_codebook(entries, kind, letters)
    assert np.array_equal(cb.entries, entries)
    sums = brute_sums(metric.table, kind, entries, blocks)
    n = entries.shape[1]
    rows, avg = batch_min_distortion_rows(cb, blocks, metric)
    best = sums.argmin(axis=1)
    assert np.array_equal(rows, best)
    assert np.array_equal(_decode_blocks(cb, blocks, metric, 0.0, "argmin"), best)
    c = codec._hamming_scale(metric, letters)
    if c is None:  # the count-weighted sum over n
        assert np.array_equal(avg, sums.min(axis=1) / n)
    else:  # differing positions times c, over n
        assert np.array_equal(avg, sums.min(axis=1) / c * c / n)
    # a level of total / n takes the rows whose summed distortion is at most total
    level = total / n
    codes = batch_unique_within_decode(cb, blocks, metric, level)
    assert np.array_equal(codes, brute_within(sums, total))
    assert np.array_equal(_decode_blocks(cb, blocks, metric, level, "within_d"), codes)


@pytest.mark.parametrize("kind, row", [(SOURCE_COMPRESSION, 1), (CHANNEL_EMBEDDING, 0)])
def test_asymmetric_metric_reads_by_kind(kind, row):
    # d(x, y) = 1 for x = 0, y = 1 and 3 for x = 1, y = 0. Encoding the
    # source block 1100 with reproductions 0000 and 1111 costs 2 * 3 / 4 =
    # 1.5 and 2 * 1 / 4 = 0.5. A channel codebook's rows are the sources,
    # and the block is what was received: 0000 sent, 1100 received costs
    # 0.5, 1111 sent costs 1.5.
    binary = Alphabet(2)
    metric = DistortionMetric(binary, binary, np.array([[0.0, 1.0], [3.0, 0.0]]))
    cb = hand_codebook(np.array([[0] * 4, [1] * 4], dtype=np.int8), kind)
    block = np.array([[1, 1, 0, 0]], dtype=np.int8)
    rows, avg = batch_min_distortion_rows(cb, block, metric)
    assert (rows[0], avg[0]) == (row, 0.5)
    assert batch_unique_within_decode(cb, block, metric, 0.5)[0] == row


def test_codebook_letters_outside_the_metric_are_rejected():
    # the plane scan would count the letter-2 positions nowhere
    binary = Alphabet(2)
    metric = DistortionMetric(binary, binary, np.array([[0.0, 1.0], [3.0, 0.0]]))
    cb = hand_codebook(np.array([[2] * 4, [1] * 4], dtype=np.int8), SOURCE_COMPRESSION, 3)
    with pytest.raises(ValueError, match="3-letter codebook, 2-letter metric"):
        batch_min_distortion_rows(cb, np.array([[1, 1, 0, 0]], dtype=np.int8), metric)


@pytest.mark.parametrize("kind", [SOURCE_COMPRESSION, CHANNEL_EMBEDDING])
def test_block_letters_outside_the_metric_are_rejected(kind):
    # one plane would pack the letter 2 of block 2200 as a 1, so that row
    # 1111 came back at 0.5 instead of an error
    binary = Alphabet(2)
    metric = DistortionMetric(binary, binary, np.array([[0.0, 1.0], [3.0, 0.0]]))
    cb = hand_codebook(np.array([[0] * 4, [1] * 4], dtype=np.int8), kind)
    block = np.array([[2, 2, 0, 0]], dtype=np.int8)
    for search in (batch_min_distortion_rows, batch_unique_within_decode):
        args = (0.5,) if search is batch_unique_within_decode else ()
        with pytest.raises(ValueError, match="block letter 2 .* 2-letter block alphabet"):
            search(cb, block, metric, *args)
        with pytest.raises(ValueError, match="2-letter block alphabet"):
            search(cb, block, METRIC, *args)


@pytest.mark.parametrize("m", [INDEX_MIN_ROWS - 1, INDEX_MIN_ROWS, INDEX_MIN_ROWS + 1])
def test_both_sides_of_the_index_threshold(m):
    g = np.random.default_rng(m)
    entries = g.integers(0, 2, (m, 64), dtype=np.int8)
    entries[-1] = entries[5]  # exact duplicate: ties go to row 5
    full = hand_codebook(entries)
    sent = np.array([5, m - 1, 17, 17, 40_000, m // 2, 3, 9])
    flips = np.array([0, 0, 3, 8, 6, 12, 1, 20])
    noise = np.zeros((len(sent), 64), dtype=np.int8)
    for k, f in enumerate(flips):
        noise[k, g.choice(64, f, replace=False)] = 1
    blocks = np.concatenate([entries[sent] ^ noise, g.integers(0, 2, (4, 64), dtype=np.int8)])
    for cb in (full, hand_codebook(entries[: m - 1])):
        d = brute_distances(entries[: cb.cardinality], blocks)
        rows, avg = batch_min_distortion_rows(cb, blocks, METRIC)
        assert np.array_equal(rows, d.argmin(axis=1))
        assert np.array_equal(avg, d.min(axis=1) * (1 / 64))
        assert rows[0] == rows[1] == 5  # row 5's duplicate loses the tie
        for level in (0.0, 0.125, 0.2):
            codes = batch_unique_within_decode(cb, blocks, METRIC, level)
            assert np.array_equal(codes, brute_within(d, int(level * 64)))
        # one index per codebook, over all of its rows, built on first use
        index = getattr(cb, "_index_cache", None)
        assert (index is not None) == (cb.cardinality >= INDEX_MIN_ROWS)
        assert index is None or (index.m == cb.cardinality and cb._hamming_index() is index)
    codes = batch_unique_within_decode(full, blocks, METRIC, 0.125)
    assert codes[0] == AMBIGUOUS and NONE_WITHIN in codes and (codes >= 0).any()


@pytest.mark.parametrize(
    "probs, n, m, slice_",
    [([0.3, 0.7], 7, 61, 100), ([1 / 3] * 3, 12, 40, 100), ([0.5, 0.5], 200, 3, 100),
     ([0.5, 0.5], 64, 70_000, None)],
)
def test_chunked_generation_equals_one_shot(monkeypatch, root, probs, n, m, slice_):
    # with 100-symbol slices every table here is drawn in shares
    if slice_ is not None:
        monkeypatch.setattr(probcore, "SAMPLE_SLICE", slice_)
    pmf = Pmf.from_probs(probs)
    handle = root.derive("chunked", n, m)
    cb = Codebook.generate("source-compression", pmf, n, m, handle)
    one_shot = codebook_symbols(pmf, m, n, handle.generator())
    assert np.array_equal(cb.entries, one_shot)
    assert not cb.table.flags.writeable


@pytest.mark.parametrize("probs", [[0.3, 0.7], [0.2, 0.3, 0.5]])
def test_prefix_regenerates_from_its_spec(monkeypatch, root, probs):
    # 100-symbol slices: the 61-row table is drawn in shares, the 30-row
    # draw (210 symbols) ends inside its third slice
    monkeypatch.setattr(probcore, "SAMPLE_SLICE", 100)
    pmf = Pmf.from_probs(probs)
    handle = root.derive("pre")
    cb = Codebook.generate("channel-embedding", pmf, 7, 61, handle)
    assert np.array_equal(cb.entries, sequential_draw(pmf, 7 * 61, handle.generator()).reshape(61, 7))
    prefix = Codebook.generate("channel-embedding", pmf, 7, 30, handle)
    assert prefix.cardinality == len(prefix.entries) == 30
    assert np.array_equal(prefix.entries, cb.entries[:30])
    assert np.array_equal(Codebook.from_spec(prefix.spec()).entries, cb.entries[:30])


def test_cap_applies_to_regeneration(monkeypatch, root):
    cb = Codebook.generate("channel-embedding", COIN, 24, 300, root.derive("cap"))
    monkeypatch.setattr(codec, "CARDINALITY_CAP", 299)
    with pytest.raises(CodebookCapError):
        Codebook.from_spec(cb.spec())


@pytest.mark.parametrize("m", [INDEX_MIN_ROWS - 1, INDEX_MIN_ROWS + 5])
def test_pooled_search_equals_one_worker(m):
    # 600 words over at least 2^16 rows: over _POOL_COMPARISONS, so their
    # shares go to the pool; the random words go over the index's budget
    # and fall back to the scan from a worker thread
    assert 600 * m >= codec._POOL_COMPARISONS
    g = np.random.default_rng(m)
    entries = g.integers(0, 2, (m, 64), dtype=np.int8)
    cb = hand_codebook(entries)
    noise = (g.random((300, 64)) < 0.08).astype(np.int8)
    blocks = np.concatenate([entries[g.integers(0, m, 300)] ^ noise,
                             g.integers(0, 2, (300, 64), dtype=np.int8)])
    found = {}
    for workers in (1, max(2, probcore._worker_count())):
        with mock.patch.object(probcore, "_worker_count", lambda: workers):
            rows, avg = batch_min_distortion_rows(cb, blocks, METRIC)
            codes = batch_unique_within_decode(cb, blocks, METRIC, 0.125)
        found[workers] = rows, avg, codes
    (rows, avg, codes), pooled = found.values()
    assert all(np.array_equal(a, b) for a, b in zip((rows, avg, codes), pooled))
    assert (codes >= 0).any() and (codes == NONE_WITHIN).any()


@pytest.mark.parametrize("table", [1.0 - np.eye(3), [[0, 1, 2], [3, 0, 1], [1, 4, 0]]],
                         ids=["hamming", "asymmetric"])
def test_pooled_plane_search_equals_one_worker(table):
    # every search goes to the pool, in shares of 64 blocks of two words a plane
    metric = DistortionMetric(Alphabet(3), Alphabet(3), np.array(table, dtype=np.float64))
    g = np.random.default_rng(5)
    entries = g.integers(0, 3, (300, 70), dtype=np.int8)
    cb = hand_codebook(entries, SOURCE_COMPRESSION, 3)
    blocks = g.integers(0, 3, (1000, 70), dtype=np.int8)
    blocks[:500] = entries[g.integers(0, 300, 500)]
    sums = brute_sums(metric.table, SOURCE_COMPRESSION, entries, blocks)
    found = {}
    for workers in (1, 2):
        with mock.patch.object(probcore, "_worker_count", lambda: workers), \
                mock.patch.object(codec, "_POOL_COMPARISONS", 1), \
                mock.patch.object(codec, "_QUERY_GROUP", 64):
            rows, avg = batch_min_distortion_rows(cb, blocks, metric)
            codes = batch_unique_within_decode(cb, blocks, metric, 0.4)
        found[workers] = rows, avg, codes
    (rows, avg, codes), pooled = found.values()
    assert all(np.array_equal(a, b) for a, b in zip((rows, avg, codes), pooled))
    assert np.array_equal(rows, sums.argmin(axis=1))
    assert np.array_equal(codes, brute_within(sums, 28))
    assert (codes >= 0).any() and (codes == NONE_WITHIN).any()


def test_index_built_on_the_pool_equals_one_worker():
    # each substring's table is built on its own, so the split changes nothing
    g = np.random.default_rng(3)
    words = words_of(g.integers(0, 2, (INDEX_MIN_ROWS + 5, 64), dtype=np.int8))
    built = []
    for workers in (1, 2):
        with mock.patch.object(probcore, "_worker_count", lambda: workers):
            built.append(codec._HammingIndex(words, 64).parts)
    one, pooled = built
    assert len(one) == len(pooled) == 4
    for a, b in zip(one, pooled):
        assert a[:2] == b[:2] and all(np.array_equal(x, y) for x, y in zip(a[2:], b[2:]))


@pytest.mark.parametrize("n", range(1, 65))
def test_index_parts_keep_only_their_non_key_bits(n):
    # each part holds its rows in key order and, per row, the symbols outside
    # its key read as one number: closed up into a uint32 for every n <= 48,
    # where the n - width of them fit in 32 bits, and in the row's n-bit word
    # with the key bits cleared from n = 49 up
    g = np.random.default_rng(n)
    entries = g.integers(0, 2, (50, n), dtype=np.int8)
    index = codec._HammingIndex(words_of(entries), n)
    weight = 1 << np.arange(n - 1, -1, -1, dtype=np.uint64)  # first symbol on top
    for shift, width, offsets, rows, bits in index.parts:
        key = slice(n - shift - width, n - shift)  # the key's symbols
        assert offsets.dtype == np.int32 and rows.dtype == np.int32
        keys = entries[rows, key] @ weight[-width:]
        assert np.all(np.diff(keys.astype(np.int64)) >= 0)
        assert np.array_equal(np.diff(offsets), np.bincount(keys.astype(np.int64),
                                                             minlength=1 << width))
        if n <= 48:
            rest = np.delete(entries[rows], np.arange(n)[key], axis=1)
            assert bits.dtype == np.uint32
            assert np.array_equal(bits, rest.astype(np.uint64) @ weight[width:])
        else:
            cleared = entries[rows].copy()
            cleared[:, key] = 0
            assert bits.dtype == np.uint64
            assert np.array_equal(bits, cleared.astype(np.uint64) @ weight)


def test_pooled_search_splits_evenly_over_the_workers():
    # 1,500 words on two workers: two shares of 750 words, one a worker,
    # rather than shares of _QUERY_GROUP (512 + 512 + 476); the split
    # changes no result
    m = INDEX_MIN_ROWS
    assert 1500 * m >= codec._POOL_COMPARISONS and 1500 < 4 * codec._QUERY_GROUP
    g = np.random.default_rng(1500)
    entries = g.integers(0, 2, (m, 64), dtype=np.int8)
    cb = hand_codebook(entries)
    cb._hamming_index()  # built before the shares are counted
    blocks = entries[g.integers(0, m, 1500)] ^ (g.random((1500, 64)) < 0.05).astype(np.int8)
    found, shares = {}, {}
    for workers in (1, 2):
        with mock.patch.object(probcore, "_worker_count", lambda: workers), \
                mock.patch.object(codec, "_run_shares", wraps=codec._run_shares) as run:
            found[workers] = (*batch_min_distortion_rows(cb, blocks, METRIC),
                              batch_unique_within_decode(cb, blocks, METRIC, 0.1))
        shares[workers] = [[len(words) for words, in call.args[1]] for call in run.call_args_list]
    assert shares[2] == [[750, 750]] * 2
    assert all(np.array_equal(a, b) for a, b in zip(found[1], found[2]))
    d = brute_distances(entries, blocks[:50])
    assert np.array_equal(found[2][0][:50], d.argmin(axis=1))
