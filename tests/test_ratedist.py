"""Distortion accounting and the R(D) solver.

Block distortions and excess-distortion estimates are measured batched,
over the blocks and lanes of a rollout, by ``separation``; they are held
here to hand-computed values and exact oracles.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import binom

from conftest import single_link_system

from sepnet.netmodel import MediumKernel, rollout
from sepnet.probcore import Alphabet, Pmf
from sepnet.ratedist import (
    DistortionBudget,
    DistortionMetric,
    InfeasibleDistortionError,
    blahut_arimoto,
    hamming_metric,
    rd_sweep,
)
from sepnet import separation
from sepnet.separation import _block_distortions, measure_end_to_end

PAIR = (0, 1)


def h2(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def block_avgs(x, y, metric) -> np.ndarray:
    """Average distortion of source row x[k] against reproduction row y[k],
    one block per row, each row in a lane of its own."""
    x, y = np.array(x, dtype=np.int8).T, np.array(y, dtype=np.int8).T
    start = np.array([0])
    return _block_distortions(metric, x, y, start, start, len(x)).reshape(-1)


class TestBlockDistortion:
    def test_identical_hamming(self, hamming2):
        assert block_avgs([[0, 1, 0]], [[0, 1, 0]], hamming2).tolist() == [0.0]

    def test_single_disagreement(self, hamming2):
        assert block_avgs([[0, 0, 1, 1]], [[0, 1, 1, 1]], hamming2).tolist() == [0.25]

    def test_constant_metric(self):
        c = 2.5
        metric = DistortionMetric(Alphabet(2), Alphabet(2), np.full((2, 2), c))
        avg = block_avgs([[0, 1, 0, 1]], [[1, 1, 0, 0]], metric)
        assert avg.tolist() == [pytest.approx(c)]

    def test_blocks_match_a_loop_at_their_own_starts(self, monkeypatch):
        # a ternary metric, x and y starts apart by a varying delay, and two
        # blocks per chunk of the table lookup
        rng = np.random.default_rng(5)
        table = rng.random((3, 3))
        metric = DistortionMetric(Alphabet(3), Alphabet(3), table)
        x = rng.integers(0, 3, (200, 4), dtype=np.int8)
        y = rng.integers(0, 3, (200, 4), dtype=np.int8)
        xs, ys, n = np.array([0, 20, 40, 97, 150]), np.array([3, 30, 41, 101, 180]), 16
        monkeypatch.setattr(separation, "_DISTORTION_CELLS", 2 * n * 4)
        got = _block_distortions(metric, x, y, xs, ys, n)
        want = [[np.mean([table[x[a + i, lane], y[b + i, lane]] for i in range(n)])
                 for lane in range(4)] for a, b in zip(xs, ys)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("letters", [2, 3, 5])
    def test_integer_tables_equal_the_gather_exactly(self, monkeypatch, letters):
        # counts weighted by integer entries are the gathered mean bit for
        # bit: Hamming and tables with zeros off the diagonal, blocks split
        # across chunks of the cell count
        rng = np.random.default_rng(letters)
        tables = [hamming_metric(letters).table, rng.integers(0, 4, (letters, letters))]
        x = rng.integers(0, letters, (1400, 7), dtype=np.int8)
        y = rng.integers(0, letters, (1400, 7), dtype=np.int8)
        xs, ys, n = np.array([0, 31, 64, 380, 700]), np.array([5, 31, 70, 400, 701]), 600
        monkeypatch.setattr(separation, "_DISTORTION_CELLS", 2 * n * 7)
        for table in tables:
            metric = DistortionMetric(Alphabet(letters), Alphabet(letters), table.astype(float))
            cells = x[xs[:, None] + np.arange(n)] * letters + y[ys[:, None] + np.arange(n)]
            gathered = metric.table.reshape(-1).take(cells).mean(axis=1)
            assert np.array_equal(_block_distortions(metric, x, y, xs, ys, n), gathered)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            DistortionMetric(Alphabet(2), Alphabet(2), np.array([[0, -1], [1, 0]]))


class TestExcessDistortion:
    def test_identical_pairs_zero(self, root):
        # a ternary source and link, swapped in together: the system is
        # checked whole when it is built
        system = dataclasses.replace(
            single_link_system(0.0, block_length=16),
            medium=MediumKernel(2, {PAIR: (np.eye(3), (), None)}),
            sources={PAIR: Pmf.from_probs([0.2, 0.3, 0.5])},
        )
        rep = measure_end_to_end(
            system, PAIR, DistortionBudget(0.0, hamming_metric(3)), 1000, root.derive("same")
        )
        assert rep.epsilon_hat == 0.0

    def test_boundary_is_success(self, root, hamming2):
        # every block of an always-flipping link sits exactly at average 1:
        # the strict inequality counts it in budget
        system = single_link_system(1.0, block_length=4)
        at = measure_end_to_end(system, PAIR, DistortionBudget(1.0, hamming2), 1000, root)
        below = DistortionBudget(np.nextafter(1.0, 0.0), hamming2)
        assert at.epsilon_hat == 0.0
        assert measure_end_to_end(system, PAIR, below, 1000, root).epsilon_hat == 1.0

    def test_flip_noise_matches_binomial_tail(self, hamming2, root):
        # exact oracle: Pr(Binomial(100, 0.2) > 25)
        system = single_link_system(0.2, block_length=100)
        rep = measure_end_to_end(
            system, PAIR, DistortionBudget(0.25, hamming2), 10_000, root.derive("flip")
        )
        oracle = binom.sf(25, 100, 0.2)
        assert abs(rep.epsilon_hat - oracle) <= 0.02

    def test_level_above_max_entry_is_exactly_zero(self, hamming2, root):
        system = single_link_system(0.5, block_length=16)
        rep = measure_end_to_end(system, PAIR, DistortionBudget(2.0, hamming2), 1000, root)
        assert rep.epsilon_hat == 0.0


class TestExpectedDistortion:
    def test_identical_pairs(self, hamming2):
        assert block_avgs([[0, 1], [1, 1]], [[0, 1], [1, 1]], hamming2).mean() == 0.0

    def test_two_trial_mean(self, hamming2):
        x = [[0] * 10, [0] * 10]
        y = [[1] + [0] * 9, [1, 1, 1] + [0] * 7]  # averages 0.1 and 0.3
        assert block_avgs(x, y, hamming2).mean() == pytest.approx(0.2)

    def test_flip_noise_mean(self, hamming2, root):
        # 100 lanes x 20 blocks of 200 symbols
        q, n = 0.15, 200
        traj = rollout(single_link_system(q, block_length=n), root.derive("mean"),
                       lanes=100, horizon=8 + 20 * n + 3)
        starts = 8 + n * np.arange(20)
        avgs = _block_distortions(hamming2, traj.sources[PAIR], traj.repro[PAIR],
                                  starts, starts + 3, n)
        assert avgs.shape == (20, 100)
        assert avgs.mean() == pytest.approx(q, abs=0.01)


class TestBlahutArimoto:
    def test_binary_uniform_closed_form(self, fair_coin, hamming2):
        pt = blahut_arimoto(fair_coin, hamming2, 0.1, tol=1e-6)
        assert pt.rate == pytest.approx(1 - h2(0.1), abs=1e-4)
        assert pt.converged

    def test_zero_distortion_gives_entropy(self, fair_coin, hamming2):
        pt = blahut_arimoto(fair_coin, hamming2, 0.0, tol=1e-6)
        assert pt.rate == pytest.approx(1.0, abs=1e-4)

    def test_dmax_gives_zero_rate(self, fair_coin, hamming2):
        pt = blahut_arimoto(fair_coin, hamming2, 0.75, tol=1e-6)
        assert pt.rate == 0.0
        assert pt.converged

    def test_infeasible_distortion(self, fair_coin, hamming2):
        with pytest.raises(InfeasibleDistortionError):
            blahut_arimoto(fair_coin, hamming2, -0.01)

    def test_ternary_closed_form(self):
        pt = blahut_arimoto(Pmf.uniform(3), hamming_metric(3), 0.1, tol=1e-6)
        assert pt.rate == pytest.approx(math.log2(3) - h2(0.1) - 0.1, abs=1e-3)

    def test_ternary_oracle_verified_independently(self):
        # The closed form itself is verified by direct convex minimization of
        # mutual information over test channels before the solver is trusted.
        cvxpy = pytest.importorskip("cvxpy")
        p = np.ones(3) / 3
        d = 1.0 - np.eye(3)
        j = cvxpy.Variable((3, 3), nonneg=True)
        q = cvxpy.sum(j, axis=0)
        denom = cvxpy.multiply(np.outer(p, np.ones(3)), cvxpy.vstack([q] * 3))
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum(cvxpy.rel_entr(j, denom))),
            [cvxpy.sum(j, axis=1) == p, cvxpy.sum(cvxpy.multiply(j, d)) <= 0.1],
        )
        prob.solve(solver=cvxpy.CLARABEL)
        oracle_bits = prob.value / math.log(2)
        closed = math.log2(3) - h2(0.1) - 0.1
        assert oracle_bits == pytest.approx(closed, abs=1e-6)

    def test_label_permutation_invariance(self, root):
        p = np.array([0.2, 0.5, 0.3])
        d = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 0.7], [2.0, 0.4, 0.0]])
        perm = np.array([2, 0, 1])
        base = blahut_arimoto(
            Pmf.from_probs(p), DistortionMetric(Alphabet(3), Alphabet(3), d), 0.5
        )
        permuted = blahut_arimoto(
            Pmf.from_probs(p[perm]),
            DistortionMetric(Alphabet(3), Alphabet(3), d[perm][:, perm]),
            0.5,
        )
        assert permuted.rate == pytest.approx(base.rate, abs=1e-6)

    def test_scale_invariance(self, fair_coin):
        c = 3.7
        base = blahut_arimoto(fair_coin, hamming_metric(2), 0.15)
        scaled_metric = DistortionMetric(Alphabet(2), Alphabet(2), c * (1 - np.eye(2)))
        scaled = blahut_arimoto(fair_coin, scaled_metric, c * 0.15)
        assert scaled.rate == pytest.approx(base.rate, abs=1e-6)

    def test_repro_marginal_sums_to_one(self, fair_coin, hamming2):
        pt = blahut_arimoto(fair_coin, hamming2, 0.2)
        assert pt.repro_marginal.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(pt.repro_marginal, [0.5, 0.5], atol=1e-6)


class TestRdSweep:
    def test_matches_closed_form_pointwise(self, fair_coin, hamming2):
        grid = np.arange(0.05, 0.46, 0.05)
        pts, _ = rd_sweep(fair_coin, hamming2, grid, tol=1e-6)
        for pt, d in zip(pts, grid):
            assert pt.rate == pytest.approx(1 - h2(float(d)), abs=1e-4)

    def test_dmax_only_grid(self, fair_coin, hamming2):
        pts, _ = rd_sweep(fair_coin, hamming2, [0.5])
        assert pts[0].rate == 0.0

    def test_monotone_and_convex(self):
        p = Pmf.from_probs([0.15, 0.35, 0.5])
        metric = hamming_metric(3)
        grid = np.linspace(0.05, 0.6, 12)
        pts, _ = rd_sweep(p, metric, grid)
        rates = np.array([pt.rate for pt in pts])
        assert np.all(np.diff(rates) <= 1e-9)
        assert np.diff(rates, 2).min() >= -1e-6
