"""The medium's bit-plane sampler.

A cell's symbol is the number of columns c < K - 1 with
k * 2**-53 >= cum[row, c], for a 53-bit uniform k whose top 16 bits are
read from 16 planes, 64 cells to a word, and whose low 37 bits come from a
tail stream, drawn only for the cells whose top bits tie a threshold. The
contract test rebuilds every cell's k from the planes and the tail words
it handed out and counts the columns from the floats; the law tests check
each row of each form of link table by chi-square.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bsc, goodness_of_fit_p

from sepnet.netmodel import MarkovLinkRule, MediumKernel
from sepnet.probcore import (
    PLANES,
    TAIL_BITS,
    RandomnessHandle,
    _cell_masks,
    _sample_planes,
    _thresholds,
)

LANE_COUNTS = [1, 63, 64, 65, 130]
OFFSETS = [0, 1, 37, 63]


def cell_words(bits, offset: int = 0) -> np.ndarray:
    """0/1 cells, in C order, as uint64 words: cell i is bit offset + i,
    counted from bit 0 of word 0, and every other bit is 0."""
    bits = np.asarray(bits).reshape(-1)
    words = -(-(offset + len(bits)) // 64)
    padded = np.zeros(words * 64, dtype=np.uint64)
    padded[offset : offset + len(bits)] = bits
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    return np.bitwise_or.reduce(padded.reshape(words, 64) * weights, axis=-1)


def exact_threshold(c: float) -> int:
    """The least 53-bit k with k * 2**-53 >= c, from exact arithmetic."""
    return math.ceil(Fraction(c) * 2**53)


class TailWords:
    """Tail stream stand-in: hands out the given words once, all at once."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.calls = 0

    def random_raw(self, size):
        self.calls += 1
        assert size == len(self.words), (size, len(self.words))
        return self.words.copy()


# cumulative values: the ends, multiples of 2**-16 (low 37 bits of the
# threshold 0), exact 53-bit values, and any float in [0, 1]
CUM_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    st.integers(0, 2**16).map(lambda i: i / 2**16),
    st.integers(0, 2**53).map(lambda i: i / 2**53),
    st.floats(0.0, 1.0),
)


@st.composite
def plane_cases(draw):
    rows = draw(st.integers(1, 6))
    letters = draw(st.integers(2, 4))
    pool = draw(st.lists(CUM_VALUES, min_size=1, max_size=2 * letters))
    # rows drawn from a small pool repeat thresholds across and within rows
    cum = np.array([sorted(draw(st.lists(st.sampled_from(pool), min_size=letters - 1,
                                         max_size=letters - 1))) + [1.0]
                    for _ in range(rows)])
    lanes = draw(st.sampled_from(LANE_COUNTS))
    steps = draw(st.integers(1, 3))
    offset = draw(st.sampled_from(OFFSETS))
    tie_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return cum, lanes, steps, offset, tie_share, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=plane_cases())
def test_cells_count_the_thresholds_their_uniform_reaches(case):
    cum, lanes, steps, offset, tie_share, seed = case
    rng = np.random.default_rng(seed)
    rows, letters = cum.shape
    exact = np.array([[exact_threshold(c) for c in row[:-1]] for row in cum], dtype=np.int64)
    cells = steps * lanes
    width = -(-(offset + cells) // 64) * 64
    # every bit of every word, those outside the cells too, gets a row and
    # top bits, a share of them copied from one of the row's thresholds (a tie)
    row = rng.integers(0, rows, width)
    tops = exact[row, rng.integers(0, letters - 1, width)] >> TAIL_BITS
    h = np.where(rng.random(width) < tie_share, np.minimum(tops, 2**16 - 1),
                 rng.integers(0, 2**16, width))
    h = np.clip(h + rng.integers(-1, 2, width) * (rng.random(width) < 0.2), 0, 2**16 - 1)
    inside = slice(offset, offset + cells)
    # the bits outside the cells tie row 0's first threshold
    h[:offset] = h[offset + cells :] = min(exact[0, 0] >> TAIL_BITS, 2**16 - 1)
    planes = np.stack([cell_words((h >> (PLANES - 1 - j)) & 1) for j in range(PLANES)])
    masks = [cell_words(row[inside] == r, offset) for r in range(rows)]

    # the cells that need their low bits, in (step, lane) order
    real_row, real_h = row[inside].reshape(steps, lanes), h[inside].reshape(steps, lanes)
    t = exact[real_row]
    tied = ((t < 2**53) & (t % 2**TAIL_BITS != 0) & (t >> TAIL_BITS == real_h[..., None])).any(-1)
    # a tied cell's low bits sit at, just below or just above a tied threshold's
    near = t[tied, rng.integers(0, letters - 1, tied.sum())] % 2**TAIL_BITS
    near = near + rng.integers(-1, 2, len(near))
    low = rng.integers(0, 2**TAIL_BITS, (steps, lanes))
    low[tied] = np.where(rng.random(len(near)) < 0.8, near, low[tied]) % 2**TAIL_BITS
    tail = TailWords((low[tied].astype(np.uint64) << np.uint64(64 - TAIL_BITS))
                     | rng.integers(0, 2**(64 - TAIL_BITS), tied.sum()).astype(np.uint64))

    out = np.full((steps, lanes), -1, dtype=np.int8)
    _sample_planes(exact, masks, planes, tail, out, offset)

    k = real_h.astype(np.int64) << TAIL_BITS | low
    want = (k[..., None] * 2.0**-53 >= cum[real_row, :-1]).sum(-1)
    assert np.array_equal(out, want)
    # one tail word per tied cell, and none for a bit outside the cells
    assert tail.calls == int(tied.any())


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("letters", [1, 2, 3, 5])
def test_cell_masks_pack_each_letter(letters, lanes, offset):
    values = np.random.default_rng(lanes * letters).integers(0, letters, (3, lanes))
    masks = _cell_masks(values.astype(np.int8), letters, offset)
    assert len(masks) == letters
    for a, mask in enumerate(masks):
        assert np.array_equal(mask, cell_words(values == a, offset))


def test_thresholds_are_the_least_reaching_uniform():
    table = np.array([[0.11, 0.89], [0.0, 1.0], [1.0, 0.0], [np.nextafter(0.3, 1.0), 0.7]])
    want = [[exact_threshold(c)] for c in table[:, 0]]
    assert _thresholds(table).tolist() == want
    assert want[1] == [0] and want[2] == [2**53]
    # every column but the last, and a cumulative sum past 1 reached by no draw
    over = np.array([[0.6, 0.4 + 2**-52, 0.0]])
    assert np.cumsum(over)[1] > 1.0
    assert _thresholds(over).tolist() == [[exact_threshold(0.6), 2**53]]


# chi-square per table row, at a fixed seed
LAW_P = 1e-3
STEPS, LANES = 64, 1000


def assert_rows_follow(out, row, table):
    for r, probs in enumerate(table):
        counts = np.bincount(out[row == r], minlength=len(probs))
        assert counts.sum() > 2000, r
        assert goodness_of_fit_p(counts, probs) > LAW_P, (r, counts, probs)


def window(medium, link, iota_prev, seed):
    out = np.empty(iota_prev.shape[1:], dtype=np.int8)
    medium.window(link, medium.start(iota_prev.shape[2], RandomnessHandle(seed)), iota_prev,
                  out=out)
    return out


def test_dmc_rows_follow_their_law():
    mat = np.array([[0.7, 0.2, 0.1], [0.15, 0.6, 0.25], [0.05, 0.3, 0.65]])
    iota_prev = np.random.default_rng(1).integers(0, 3, (2, STEPS, LANES), dtype=np.int8)
    out = window(MediumKernel(2, {(0, 1): (mat, (), None)}), (0, 1), iota_prev, 2)
    assert_rows_follow(out, iota_prev[0], mat)


def test_coupled_rows_follow_their_law():
    # the link's row is its sender's input, its matrix the watched user's
    stack = np.stack([bsc(0.1), bsc(0.3), np.array([[0.6, 0.4], [0.45, 0.55]])])
    medium = MediumKernel(3, {(0, 1): (stack, (2,), None),
                              (2, 1): (np.ones((3, 2)) / 2, (), None)})
    rng = np.random.default_rng(3)
    iota_prev = np.stack([rng.integers(0, 2, (STEPS, LANES)), np.zeros((STEPS, LANES)),
                          rng.integers(0, 3, (STEPS, LANES))]).astype(np.int8)
    out = window(medium, (0, 1), iota_prev, 4)
    assert_rows_follow(out, iota_prev[2] * 2 + iota_prev[0], stack.reshape(-1, 2))


def test_markov_emission_rows_follow_their_law():
    # a deterministic cycle of three states, so the state at each step is
    # known: the window starts in state 1 and advances one state a step
    emission = np.stack([bsc(0.05), bsc(0.4), np.array([[0.3, 0.7], [0.8, 0.2]])])
    rule = MarkovLinkRule(np.roll(np.eye(3), 1, axis=1), initial_state=1)
    iota_prev = np.random.default_rng(5).integers(0, 2, (2, 3 * STEPS, LANES), dtype=np.int8)
    out = window(MediumKernel(2, {(0, 1): (emission, (), rule)}), (0, 1), iota_prev, 6)
    state = ((1 + np.arange(3 * STEPS)) % 3)[:, None]
    assert_rows_follow(out, state * 2 + iota_prev[0], emission.reshape(-1, 2))
