"""Distortion metrics and numerical rate-distortion computation.

Per-letter distortion tables, distortion budgets, and a Blahut-Arimoto
solver for R(D) with bisection on the Lagrange slope. All rates are in
bits. Block distortions and excess-distortion estimates are measured on
rollouts, batched over blocks and lanes, by
``separation.measure_end_to_end``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .probcore import Alphabet, Pmf

__all__ = [
    "DistortionBudget",
    "DistortionMetric",
    "InfeasibleDistortionError",
    "RdPoint",
    "blahut_arimoto",
    "hamming_metric",
    "rd_sweep",
]

LN2 = math.log(2.0)


class InfeasibleDistortionError(ValueError):
    """Requested distortion level is below what any code can achieve."""


@dataclass(frozen=True, eq=False)
class DistortionMetric:
    """Per-letter distortion table d(x, y) >= 0."""

    source_alphabet: Alphabet
    repro_alphabet: Alphabet
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        expected = (self.source_alphabet.size, self.repro_alphabet.size)
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape}, expected {expected}")
        if np.any(table < 0) or not np.all(np.isfinite(table)):
            raise ValueError("distortion entries must be finite and >= 0")
        table = np.ascontiguousarray(table)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def d_min(self, source: Pmf) -> float:
        """Distortion floor: best reproduction letter chosen per source letter."""
        return float(source.probs @ self.table.min(axis=1))

    def d_max(self, source: Pmf) -> float:
        """Distortion of the best single constant reproduction letter."""
        return float((source.probs @ self.table).min())


def hamming_metric(size: int) -> DistortionMetric:
    a = Alphabet(size)
    return DistortionMetric(a, a, 1.0 - np.eye(size))


@dataclass(frozen=True)
class DistortionBudget:
    """Average per-letter distortion level D under a metric."""

    level: float
    metric: DistortionMetric

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("distortion level must be >= 0")


@dataclass(frozen=True, eq=False)
class RdPoint:
    """One point of the rate-distortion curve.

    ``rate`` is the rate at the requested level ``distortion``;
    ``achieved_distortion`` is where the inner solver actually landed before
    the tangent correction (always within the bisection tolerance).
    ``repro_marginal`` is the optimal reproduction distribution q*(y), used
    to generate lossy source codebooks.
    """

    distortion: float
    rate: float
    lagrange_s: float
    iterations: int
    converged: bool
    achieved_distortion: float
    repro_marginal: np.ndarray = field(repr=False)


def _ba_inner(p, w, gap_tol_nats, max_iter):
    """Alternating updates at a fixed slope; stops on the duality-gap bound.

    The gap bound is max_y log c(y) where c(y) are the multiplicative update
    factors; it upper-bounds the distance to the optimum of the Lagrangian.
    """
    ny = w.shape[1]
    q = np.full(ny, 1.0 / ny)
    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        z = w @ q
        c = (p / z) @ w
        gap = math.log(max(float(c.max()), 1e-300))
        q = q * c
        q /= q.sum()
        if gap <= gap_tol_nats:
            break
    return q, it, gap


def _ba_eval(p, d, w, q, beta):
    """Rate (bits) and distortion of the conditional implied by (q, beta)."""
    z = w @ q
    cond = q[None, :] * w / z[:, None]
    distortion = float(p @ (cond * d).sum(axis=1))
    rate_nats = float(-beta * distortion - p @ np.log(np.maximum(z, 1e-300)))
    return max(rate_nats, 0.0) / LN2, distortion


_BISECT_D_TOL = 1e-9
_BETA_MAX = 1e6


def blahut_arimoto(
    source: Pmf,
    metric: DistortionMetric,
    target_d: float,
    tol: float = 1e-6,
    max_iter: int = 50_000,
) -> RdPoint:
    """Compute R(target_d) for an i.i.d. source under an additive metric.

    Bisects on the Lagrange slope (the solver's native parameter) until the
    achieved distortion brackets the target, then applies the tangent-line
    correction, which is exact on linear segments of the curve. ``converged``
    reflects whether the final inner loop met the duality-gap bound <= tol.
    A NaN or infinite ``target_d`` raises ValueError.
    """
    if source.alphabet.size != metric.source_alphabet.size:
        raise ValueError("source pmf and metric disagree on the alphabet")
    if not math.isfinite(target_d):
        raise ValueError(f"distortion level {target_d} is not finite")
    p = source.probs
    d = metric.table
    dmin, dmax = metric.d_min(source), metric.d_max(source)
    if target_d < dmin - 1e-12:
        raise InfeasibleDistortionError(
            f"infeasible distortion: target {target_d} < floor {dmin}"
        )
    target_d = max(target_d, dmin)
    if target_d >= dmax:
        q = np.zeros(metric.repro_alphabet.size)
        q[int(np.argmin(p @ d))] = 1.0
        q.flags.writeable = False
        return RdPoint(target_d, 0.0, 0.0, 0, True, target_d, q)

    gap_tol = min(tol, 1e-10) * LN2

    def solve(beta):
        q, it, gap = _ba_inner(p, np.exp(-beta * d), gap_tol, max_iter)
        rate, dist = _ba_eval(p, d, np.exp(-beta * d), q, beta)
        return q, it, gap, rate, dist

    lo = 0.0
    hi = 1.0
    total_iters = 0
    while True:
        q, it, gap, rate, dist = solve(hi)
        total_iters += it
        if dist <= target_d or hi >= _BETA_MAX:
            break
        hi *= 2.0

    best = (q, gap, rate, dist, hi)
    for _ in range(200):
        if abs(best[3] - target_d) <= _BISECT_D_TOL or hi - lo < 1e-14 * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        q, it, gap, rate, dist = solve(mid)
        total_iters += it
        if dist > target_d:
            lo = mid
        else:
            hi = mid
            best = (q, gap, rate, dist, mid)

    q, gap, rate, dist, beta = best
    # Tangent correction from the achieved point onto the target level;
    # the curve slope at the point is -beta in nats per unit distortion.
    rate = max(rate - beta / LN2 * (target_d - dist), 0.0)
    q = q.copy()
    q.flags.writeable = False
    converged = gap <= tol * LN2
    return RdPoint(target_d, rate, beta, total_iters, converged, dist, q)


def rd_sweep(
    source: Pmf,
    metric: DistortionMetric,
    d_grid,
    tol: float = 1e-6,
    shape_tol: float = 1e-6,
) -> tuple[list[RdPoint], list[str]]:
    """Evaluate R(D) at each level of a grid and verify the curve shape.

    Returns the points in the grid's order and one note per level below the
    metric's d_min: such a level's point has NaN rate and slope, 0
    iterations and ``converged`` False, and the sweep goes on. Over the
    feasible levels the rates must be nonincreasing and convex
    (divided-difference slopes nondecreasing within ``shape_tol``); a
    violation means the solver misbehaved and raises rather than returning
    a silently bad curve.
    """
    points, notes = [], []
    for level in d_grid:
        try:
            points.append(blahut_arimoto(source, metric, float(level), tol=tol))
        except InfeasibleDistortionError as exc:
            points.append(RdPoint(float(level), math.nan, math.nan, 0, False, math.nan,
                                  np.empty(0)))
            notes.append(str(exc))
    # one rate per distinct feasible level, in increasing D
    curve = sorted({pt.distortion: pt.rate for pt in points if not math.isnan(pt.rate)}.items())
    grid, rates = [d for d, _ in curve], [r for _, r in curve]
    for i in range(1, len(rates)):
        if rates[i] > rates[i - 1] + shape_tol:
            raise RuntimeError(
                f"R(D) not nonincreasing at D={grid[i]}: {rates[i-1]} -> {rates[i]}"
            )
    for i in range(1, len(rates) - 1):
        left = (rates[i] - rates[i - 1]) / (grid[i] - grid[i - 1])
        right = (rates[i + 1] - rates[i]) / (grid[i + 1] - grid[i])
        if right < left - shape_tol / min(grid[i] - grid[i - 1], grid[i + 1] - grid[i]):
            raise RuntimeError(f"R(D) not convex near D={grid[i]}")
    return points, notes
