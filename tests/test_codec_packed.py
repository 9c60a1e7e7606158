"""Binary codebooks are drawn straight into packed words, one uint64 per
row for n <= 64, and without a table of symbols. A fair coin's rows are
the generator's raw words (``conftest.codebook_symbols``); every other
law's words equal packing the sequential draw, whatever the worker count."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import codebook_symbols, sequential_draw

from sepnet import codec, probcore
from sepnet.codec import Codebook
from sepnet.probcore import (
    Pmf,
    RandomnessHandle,
    _pack_planes,
    _unpack_planes,
    sample_iid_array,
)

LAWS = [(0.5, 0.5), (0.11, 0.89)]
WIDTHS = [1, 7, 24, 48, 63, 64, 65, 128]
SLICE = 100  # symbols per slice here: every table of 200 symbols or more is shared


def sequential_words(pmf, rows, n, gen):
    """rows * n uniforms in one call, mapped to symbols, then packed row by row."""
    return _pack_planes(sequential_draw(pmf, rows * n, gen).reshape(rows, n), 2).reshape(-1)


def law_words(pmf, rows, n, gen):
    """The definition of a binary codebook's words under ``pmf``."""
    return _pack_planes(codebook_symbols(pmf, rows, n, gen), 2).reshape(-1)


def row_counts(n):
    """Row counts just below, at and above two slices, and some that split
    into shares of unequal length."""
    two = -(-2 * SLICE // n)
    return sorted({1, two - 1, two, two + 1, 61, 403})


@pytest.fixture(params=[1, 2], ids=["one-worker", "two-workers"])
def workers(request):
    with mock.patch.object(probcore, "_worker_count", lambda: request.param):
        yield request.param


def test_pack_bits_puts_the_first_symbol_in_the_top_bit():
    symbols = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int8)
    words = _pack_planes(symbols, 2)
    assert words.reshape(-1).tolist() == [(1 << 63) | (1 << 61), 1 << 61]
    assert np.array_equal(_unpack_planes(words, 3), symbols)
    assert _unpack_planes(np.full((1, 1), 1 << 63, dtype=np.uint64), 2).tolist() == [1, 0]
    # plane a marks letter a + 1, and word w holds positions from 64w on
    wide = np.zeros((1, 70), dtype=np.int8)
    wide[0, [0, 65]], wide[0, 1] = 2, 1
    assert _pack_planes(wide, 3).tolist() == [[[1 << 62, 0], [1 << 63, 1 << 62]]]
    assert np.array_equal(_unpack_planes(_pack_planes(wide, 3), 70), wide)


@pytest.mark.parametrize("probs", LAWS)
@pytest.mark.parametrize("n", WIDTHS)
def test_generated_words_equal_the_packed_sequential_draw(monkeypatch, root, workers, probs, n):
    monkeypatch.setattr(probcore, "SAMPLE_SLICE", SLICE)
    # the fair coin (probs0) takes raw words, the other law the sequential draw
    pmf = Pmf.from_probs(probs)
    for rows in row_counts(n):
        handle = root.derive("packed", n, rows)
        cb = Codebook.generate("channel-embedding", pmf, n, rows, handle)
        words = cb.table
        assert words.dtype == np.uint64 and words.shape == (rows * -(-n // 64),)
        assert not words.flags.writeable
        assert np.array_equal(words, law_words(pmf, rows, n, handle.generator()))
        # prefix-stable and regenerable from the spec
        prefix = Codebook.generate("channel-embedding", pmf, n, -(-rows // 2), handle)
        assert np.array_equal(prefix.table, words[: len(prefix.table)])
        assert np.array_equal(Codebook.from_spec(cb.spec()).table, words)


@pytest.mark.parametrize("n, rows", [(64, 2047), (64, 2048), (64, 2049), (63, 5003), (48, 7001)])
def test_full_slices_equal_the_packed_sequential_draw(root, n, rows):
    pmf = Pmf.from_probs(LAWS[1])
    handle = root.derive("full-slices", n, rows)
    cb = Codebook.generate("source-compression", pmf, n, rows, handle)
    assert np.array_equal(cb.table, sequential_words(pmf, rows, n, handle.generator()))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 64])
@pytest.mark.parametrize("used", range(8))
@pytest.mark.parametrize("pending", [False, True])
def test_packed_draw_after_buffered_words(monkeypatch, workers, n, used, pending):
    # a generator that has drawn 0-7 doubles and holds a half-used 32-bit
    # word or none: the shares start at the caller's state, whatever it is
    monkeypatch.setattr(probcore, "SAMPLE_SLICE", SLICE)
    pmf = Pmf.from_probs(LAWS[1])
    rows = -(-3 * SLICE // n) + 1
    gens = [RandomnessHandle(used).generator() for _ in range(2)]
    for gen in gens:
        if pending:
            gen.integers(0, 2**32, dtype=np.uint32)
        gen.random(used)
    shared, sequential = gens
    words = sample_iid_array(pmf, rows * n, shared, packed_row=n)
    assert np.array_equal(words, sequential_words(pmf, rows, n, sequential))
    # the generator is left where the sequential draw leaves it
    assert np.array_equal(shared.integers(0, 2**32, 5, dtype=np.uint32),
                          sequential.integers(0, 2**32, 5, dtype=np.uint32))
    assert np.array_equal(shared.random(9), sequential.random(9))


@pytest.mark.parametrize("probs", LAWS)
def test_spec_prefix_and_rows_agree_on_the_words(monkeypatch, root, probs):
    monkeypatch.setattr(probcore, "SAMPLE_SLICE", SLICE)
    pmf = Pmf.from_probs(probs)
    cb = Codebook.generate("channel-embedding", pmf, 24, 403, root.derive("agree"))
    table = _unpack_planes(cb.table[:, None, None], 24)
    assert np.array_equal(Codebook.from_spec(cb.spec()).table, cb.table)
    for m in (1, 8, 9, 402):
        # an m-row draw from the same seed is the first m rows
        prefix = Codebook.generate("channel-embedding", pmf, 24, m, root.derive("agree"))
        assert np.array_equal(prefix.table, cb.table[:m])
    idx = np.array([[402, 0], [17, 17]])
    assert np.array_equal(cb.rows(idx), table[idx])
    assert cb.rows(5).shape == (24,) and np.array_equal(cb.rows(5), table[5])
    assert np.array_equal(cb.entries, table)
    # a symbol table handed to the constructor is stored packed
    again = Codebook(cb.kind, cb.n, cb.cardinality, cb.gen_pmf, cb.common_seed, table)
    assert np.array_equal(again.table, cb.table)


def test_wider_or_larger_alphabets_round_trip_their_symbols(root):
    # a ternary row is two planes of one word, a 65-bit binary row one plane of two
    for probs, n, words in (((0.5, 0.5), 65, 2), ((0.2, 0.3, 0.5), 8, 2)):
        cb = Codebook.generate("channel-embedding", Pmf.from_probs(probs), n, 10, root)
        assert cb.table.shape == (10 * words,) and cb.table.dtype == np.uint64
        table = cb.entries
        assert table.shape == (10, n) and set(np.unique(table)) <= set(range(len(probs)))
        assert np.array_equal(cb.rows([3, 1]), table[[3, 1]])
        again = Codebook(cb.kind, n, 10, cb.gen_pmf, cb.common_seed, table)
        assert np.array_equal(again.table, cb.table)


def test_generation_holds_no_symbol_table(root):
    # 200,000 x 64 symbols would take 12.8 MB as int8; the words take 1.6 MB
    rows, n = 200_000, 64
    for probs in LAWS:
        pmf = Pmf.from_probs(probs)
        Codebook.generate("channel-embedding", pmf, n, 1000, root)  # pool and caches warm
        tracemalloc.start()
        try:
            cb = Codebook.generate("channel-embedding", pmf, n, rows, root.derive("rss"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cb.table.nbytes == rows * 8
        assert peak < rows * n / 4


def test_generation_never_uses_the_pool(root):
    # every draw runs on the calling thread, whatever the worker count: a
    # table of many slices on two workers never reaches the pool
    fail = mock.Mock(side_effect=AssertionError("generation reached the worker pool"))
    with mock.patch.object(probcore, "_worker_count", lambda: 2), \
            mock.patch.object(probcore, "_run_shares", fail), \
            mock.patch.object(codec, "_run_shares", fail):
        for probs in LAWS:
            cb = Codebook.generate("channel-embedding", Pmf.from_probs(probs), 64, 200_000,
                                   root.derive("off-the-pool"))
            assert cb.table.shape == (200_000,)
    fail.assert_not_called()
