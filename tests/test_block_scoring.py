"""Block scoring counts each block as the rollout hands over its
reproduction, window by window, against the source where it lies, and
equals its rule on a gathered copy of the block bit for bit (c * N / n
under c * Hamming, as the codec's search reads it, else the count-weighted
sum), under any table, any block starts, any cut of the horizon into
windows and any chunking of the rows; so does a whole measurement, which
keeps one window of its reproduction."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import collected_rollout, score_blocks
from test_golden import golden_system

from sepnet import separation
from sepnet.codec import SOURCE_COMPRESSION, Codebook, batch_min_distortion_rows
from sepnet.probcore import Alphabet, Pmf, RandomnessHandle
from sepnet.ratedist import DistortionBudget, DistortionMetric, hamming_metric
from sepnet.separation import is_separated, measure_end_to_end

TABLES = {
    "hamming": hamming_metric(2).table,
    "hamming3": hamming_metric(3).table,
    # a multiple of Hamming that is no power of two: its sums round
    "0.3-hamming": 0.3 * hamming_metric(2).table,
    "asymmetric": np.array([[0.1, 0.7], [2.3, 0.0]]),
    "ternary": np.array([[0.0, 0.5, 1.75], [0.2, 0.0, 0.0], [3.1, 1.0, 0.4]]),
    # one letter each way: no nonzero entry to count against
    "one-letter": hamming_metric(1).table,
}


def gathered_reference(table, x, y, x_starts, y_starts, n):
    """The scoring rules written out, each block gathered. Under a multiple
    c of the 0/1 Hamming table: its count N of x != y, times c, over n, as
    the codec reads it. Under any other table: its cells x*K + y counted
    against every nonzero entry in order, the counts weighted by their
    entries and summed from zero, over n."""
    flat, size = table.reshape(-1), table.shape[1]
    scaled = size > 1 and np.array_equal(table, table[0, 1] * (1 - np.eye(size)))
    out = np.zeros((len(x_starts), x.shape[1]))
    for k, (a, b) in enumerate(zip(x_starts, y_starts)):
        if scaled:
            out[k] = np.count_nonzero(x[a : a + n] != y[b : b + n], axis=0) * table[0, 1]
            continue
        cells = x[a + np.arange(n)].astype(np.int64) * size + y[b + np.arange(n)]
        for e in np.flatnonzero(flat):
            out[k] += flat[e] * np.count_nonzero(cells == e, axis=0)
    return out / n


def metric_of(name):
    table = TABLES[name]
    return DistortionMetric(Alphabet(table.shape[0]), Alphabet(table.shape[1]), table)


@st.composite
def starts(draw, n, blocks):
    """Block starts of three kinds: evenly spaced, uneven as a separated
    pair's source blocks are (w*m // n * n for a window length m), and
    overlapping (closer than n)."""
    first = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["even", "uneven", "overlapping"]))
    w = np.arange(blocks)
    if kind == "even":
        return first + n * w
    if kind == "uneven":
        m = draw(st.integers(n + 1, 2 * n + 3))
        return first + w * m // n * n
    return first + w * draw(st.integers(0, max(0, n - 1)))


@st.composite
def cuts(draw, horizon, y_starts, n):
    """Steps where the rollout's windows end: after every row, every few
    rows, inside each block (at its middle row), or nowhere but the
    horizon."""
    kind = draw(st.sampled_from(["row", "few", "split", "whole"]))
    if kind == "row":
        return list(range(1, horizon))
    if kind == "few":
        lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
        ends = np.cumsum(lengths * (horizon // sum(lengths) + 1))  # repeated past the horizon
        return ends[ends < horizon].tolist()
    if kind == "split":
        return sorted({int(b) + max(1, n // 2) for b in y_starts} - {horizon})
    return []


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(TABLES)), n=st.integers(1, 600),
       blocks=st.integers(1, 4), lanes=st.integers(1, 9),
       cells=st.sampled_from([None, 1, 7, 64]), seed=st.integers(0, 2**32 - 1))
def test_in_place_scoring_equals_the_gathered_rule(data, name, n, blocks, lanes, cells, seed):
    # the reproduction comes in windows cut anywhere, and cells, a cell
    # budget, cuts each window's rows of a block into slices of one row or
    # a few rows, or the default, where the 255-row cap cuts long blocks
    metric = metric_of(name)
    x_starts, y_starts = data.draw(starts(n, blocks)), data.draw(starts(n, blocks))
    rng = np.random.default_rng(seed)
    horizon = int(max(x_starts.max(), y_starts.max())) + n + data.draw(st.integers(0, 3))
    x = rng.integers(0, metric.table.shape[0], (horizon, lanes), dtype=np.int8)
    y = rng.integers(0, metric.table.shape[1], (horizon, lanes), dtype=np.int8)
    windows = data.draw(cuts(horizon, y_starts, n))
    budget = separation._DISTORTION_CELLS if cells is None else cells
    with mock.patch.object(separation, "_DISTORTION_CELLS", budget):
        got = score_blocks(metric, x, y, x_starts, y_starts, n, windows)
    want = gathered_reference(metric.table, x, y, x_starts, y_starts, n)
    assert got.shape == (blocks, lanes)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["hamming", "asymmetric"])
@pytest.mark.parametrize("n", [255, 256, 600])
def test_counts_run_past_a_byte(name, n):
    # every cell of the block is the entry (0, 1): a slice's count of 255
    # must carry into the block's count without wrapping
    x, y = np.zeros((n, 3), dtype=np.int8), np.ones((n, 3), dtype=np.int8)
    metric = metric_of(name)
    got = score_blocks(metric, x, y, [0], [0], n)
    assert np.array_equal(got, np.full((1, 3), metric.table[0, 1] * n / n))


@pytest.mark.parametrize("x_start, y_start", [(-1, 0), (0, -1), (1, 0), (0, 1)])
def test_a_block_outside_the_streams_raises(x_start, y_start):
    x = np.zeros((10, 3), dtype=np.int8)
    with pytest.raises(ValueError, match="outside"):
        score_blocks(hamming_metric(2), x, x, [x_start], [y_start], 10)


@pytest.mark.parametrize("name, buffers", [("hamming", 1), ("asymmetric", 2)])
def test_scoring_copies_no_block(name, buffers):
    # a block of 1000 x 4096 int8 cells is 4.1 MB and a slice of 255 rows
    # a quarter of that: scoring holds its reused slice buffers (the hit
    # marks, and the cells of a non-Hamming table) and a few rows of
    # counts, and no copy of a block or a slice
    n, lanes = 1000, 4096
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2, (n + 5, lanes), dtype=np.int8)
    y = rng.integers(0, 2, (n + 5, lanes), dtype=np.int8)
    starts = np.array([0, 5])
    tracemalloc.start()
    try:
        score_blocks(metric_of(name), x, y, starts[::-1], starts, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (buffers + 0.5) * 255 * lanes


@pytest.mark.parametrize("letters", [2, 3])
@pytest.mark.parametrize("n", [24, 40, 64])
def test_search_distance_is_the_block_score(n, letters):
    # eta reads the source coder's distance to its row, epsilon the block's
    # score against it: both are N / n bit for bit, so a block at exactly
    # D' is judged alike (at n = 40 a row 12 letters off is 0.3 both ways,
    # not 12 * (1 / 40) = 0.30000000000000004)
    metric = hamming_metric(letters)
    codebook = Codebook.generate(SOURCE_COMPRESSION, Pmf.uniform(letters), n, 1,
                                 RandomnessHandle(n * letters))
    row = codebook.rows(0)
    # block d differs from the one row at its first d letters
    blocks = np.tile(row, (n + 1, 1))
    for d in range(n + 1):
        blocks[d, :d] = (blocks[d, :d] + 1) % letters
    found, dist = batch_min_distortion_rows(codebook, blocks, metric)
    assert not found.any()
    score = score_blocks(metric, blocks.T, np.tile(row, (n + 1, 1)).T, [0], [0], n)[0]
    assert np.array_equal(score, np.arange(n + 1) / n)
    assert np.array_equal(dist, score)


@pytest.mark.parametrize("x, y", [(0, 2), (2, 0), (1, 3)])
def test_a_letter_the_table_cannot_score_raises(x, y):
    # cells x*K + y would read a 2x2 table's (0, 2) as its (1, 0) entry
    metric = DistortionMetric(Alphabet(2), Alphabet(2), np.array([[0.0, 1.0], [5.0, 0.0]]))
    xs, ys = np.full((4, 3), x, dtype=np.int8), np.full((4, 3), y, dtype=np.int8)
    with pytest.raises(ValueError, match="alphabet"):
        score_blocks(metric, xs, ys, [0], [0], 4)
    # the 0/1 Hamming count is untouched: any two letters that differ count one
    assert np.array_equal(score_blocks(hamming_metric(2), xs, ys, [0], [0], 4), [[1.0] * 3])


def test_scaled_hamming_scores_round_as_the_search_does():
    # under 0.3 * Hamming at n = 40 a block N01 = 1, N10 = 6 letters off its
    # row is 7 * 0.3 / 40 = 0.052500000000000005 to the codec; adding 0.3 * 1
    # and 0.3 * 6 first gives 0.05249999999999999. Every split (N01, N10)
    # of up to 20 each must score as the search measures it
    n, c = 40, 0.3
    metric = DistortionMetric(Alphabet(2), Alphabet(2), c * hamming_metric(2).table)
    row = np.repeat(np.array([1, 0], dtype=np.int8), 20)
    codebook = Codebook(SOURCE_COMPRESSION, n, 1, Pmf.uniform(2), RandomnessHandle(0), row[None])
    splits = [(a, b) for a in range(21) for b in range(21)]
    blocks = np.tile(row, (len(splits), 1))
    for k, (n01, n10) in enumerate(splits):
        blocks[k, :n01] = 0  # block 0 where the row holds 1
        blocks[k, 20 : 20 + n10] = 1  # block 1 where the row holds 0
    _, dist = batch_min_distortion_rows(codebook, blocks, metric)
    score = score_blocks(metric, blocks.T, np.tile(row, (len(splits), 1)).T, [0], [0], n)[0]
    assert score[splits.index((1, 6))] == 7 * c / n == 0.052500000000000005
    assert np.array_equal(score, np.array([a + b for a, b in splits]) * c / n)
    assert np.array_equal(score, dist)


@pytest.mark.parametrize("name, trials, block_length", [
    ("single_bsc", 5000, 64),  # a plain pair: two block starts of 2500 lanes
    ("separated_argmin", 3000, None),  # n' = 24 < n = 32: two windows of 1500 lanes
])
def test_a_weighted_budget_is_measured_by_the_gathered_rule(name, trials, block_length):
    # measure_end_to_end scores its blocks as its rollout passes them; the
    # same rollout collected whole, at the same seeds, lanes and horizon,
    # and scored by the rule written out must judge every block alike, at
    # levels that are some block's exact score. A scorer that read only the
    # mismatch count would not: the asymmetric table weighs each cell
    system, pair = golden_system(name), (0, 1)
    seeds = RandomnessHandle(3).derive("weighted", name)
    if is_separated(system, pair):
        plan = system.modem_for(pair[0]).plan
        starts = -(-trials // separation._SEPARATED_LANES)
        n = plan.rate_plan.n_prime
        x_starts, _, y_starts = plan.clock(starts)
    else:
        starts = -(-trials // separation._PLAIN_LANES)
        n = block_length
        x_starts = system.warmup + n * np.arange(starts)
        y_starts = x_starts + system.latency_map[pair]
    assert starts == 2
    traj = collected_rollout(system, seeds, lanes=-(-trials // starts),
                             horizon=int(y_starts[-1]) + n)
    metric = metric_of("asymmetric")
    gathered = gathered_reference(metric.table, traj.sources[pair], traj.repro[pair],
                                  x_starts, y_starts, n).reshape(-1)[:trials]
    for level in np.quantile(gathered, [0.25, 0.5, 0.75], method="nearest"):
        report = measure_end_to_end(system, pair, DistortionBudget(float(level), metric),
                                    trials, seeds, block_length=block_length)
        exceed = int((gathered > level).sum())
        assert 0 < exceed < trials
        assert report.exceed_count == exceed


def measurement_peak(trials: int) -> int:
    """The tracemalloc peak of ``measure_end_to_end`` on single_bsc at
    ``trials``, in bytes."""
    budget = DistortionBudget(0.125, hamming_metric(2))
    tracemalloc.start()
    try:
        report = measure_end_to_end(golden_system("single_bsc"), (0, 1), budget, trials,
                                    RandomnessHandle(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.trials == trials
    return peak


def test_a_measurement_keeps_one_window_of_its_reproduction():
    # single_bsc at 16,384 trials: 4 block starts of 4,096 lanes, blocks of
    # 1000, a rollout of 4,011 steps. The measurement holds one window of
    # the source, the medium and the reproduction, and the source rows of
    # its open blocks, a few steps; a whole-horizon source or reproduction
    # would be 1 byte a (step, lane) each
    system = golden_system("single_bsc")
    lanes = separation._PLAIN_LANES
    horizon = system.warmup + 3 * system.block_length + system.latency_map[(0, 1)] + 1000
    assert measurement_peak(16_384) / (horizon * lanes) < 0.5


def test_a_measurements_memory_does_not_grow_with_its_horizon():
    # 16,384 and 65,536 trials both run 4,096 lanes, over 4,011 and 16,011
    # steps: the peak per lane must agree within 10%, where a whole-horizon
    # stream would add 12,000 bytes a lane
    small, large = (measurement_peak(trials) / separation._PLAIN_LANES
                    for trials in (16_384, 65_536))
    assert abs(large - small) <= 0.1 * small
