"""Iso-revenue cuts of a reference distribution.

For a revenue level pi, the cut collects the maximal intervals on which the
reference CCDF weakly exceeds the iso-revenue curve pi/x, together with the
Wasserstein gap between the truncated iso-revenue distribution
min{ccdf, pi/x} and the reference.  These objects drive every solver: the
gap's root locates worst-case-optimal revenue, and the interval log-ratios
drive the fragility first-order condition.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .distributions import (
    Empirical,
    ValuationDistribution,
    _scan_grid,
    max_posted_revenue,
)
from .errors import DomainError, InfeasibleLevelError
from .numerics import refine_crossing

__all__ = ["IsoRevenueCut", "cut", "gap_only", "worst_case_ccdf"]

#: log of the lowest revenue level the solvers' level searches visit; it
#: stands in for level 0, whose cut spans all of (0, 1]
LOG_LEVEL_FLOOR = -700.0
#: intervals narrower than this are tangency artifacts and carry no measure
_TANGENCY_WIDTH = 1e-9
#: tie band for a crossing landing exactly on an empirical atom
_TIE_BAND = 1e-12


@dataclass(frozen=True)
class IsoRevenueCut:
    """Intervals where the reference revenue curve stays at or above ``pi``.

    ``gap`` is the Wasserstein distance from the truncated iso-revenue
    distribution to the reference; ``log_sum`` is the sum of ln(w/u) over the
    intervals (reported as +inf when the cut starts at 0, which happens only
    at pi = 0).  ``tie_points`` records empirical atoms hit exactly by a
    crossing; such intervals are kept separate rather than merged.
    """

    pi: float
    intervals: tuple[tuple[float, float], ...]
    gap: float
    log_sum: float
    tie_points: tuple[float, ...] = field(default=())

    @property
    def count(self) -> int:
        return len(self.intervals)

    def to_json(self) -> dict:
        return {
            "pi": self.pi,
            "intervals": [[u, w] for u, w in self.intervals],
            "gap": self.gap,
            "log_sum": self.log_sum,
            "tie_points": list(self.tie_points),
        }


def _validate_level(dist: ValuationDistribution, pi: float) -> float:
    if pi < 0.0:
        raise DomainError(f"revenue level must be nonnegative, got {pi}")
    pi0, _ = max_posted_revenue(dist)
    if pi > pi0 * (1.0 + 1e-12) + 1e-15:
        raise InfeasibleLevelError(pi, pi0)
    return pi0


def _empirical_regions(dist: Empirical, pi: float):
    """Exact interval arithmetic on the CCDF steps of an empirical reference.

    On a step of height L the crossing of the iso-revenue curve is x = pi/L;
    a step lies in the cut from max(left end, pi/L) when that is below its
    right end.  A step joins the interval of the previous cut step when the
    two touch at an atom and the curve passes strictly below the step there,
    matching the half-open [u, w) convention; when the crossing lands on the
    atom itself the intervals stay separate and the atom is a tie point.
    """
    a, b, height = dist._steps
    with np.errstate(divide="ignore"):
        crossing = pi / height
    on = np.flatnonzero((height > 0.0) & (crossing < b))
    a, b, crossing = a[on], b[on], crossing[on]
    lo = np.maximum(a, crossing)
    touch = np.zeros(len(on), dtype=bool)
    touch[1:] = (lo[1:] <= a[1:] + _TIE_BAND) & (np.abs(b[:-1] - a[1:]) <= _TIE_BAND)
    join = touch & (crossing < a - _TIE_BAND)
    starts = np.flatnonzero(~join)
    ends = np.flatnonzero(~np.append(join, False)[1:])
    intervals = list(zip(lo[starts].tolist(), b[ends].tolist()))
    return intervals, a[touch & ~join].tolist()


@lru_cache(maxsize=64)
def _monotone_runs(dist: ValuationDistribution):
    """Maximal monotone runs of the cached revenue grid g = x * ccdf(x).

    Run i spans grid points bounds[i]..bounds[i + 1] (neighbours share their
    boundary point) and is nondecreasing when rising[i], nonincreasing
    otherwise; flat steps join the run they sit in.  Returns the bounds, the
    directions and g at each run's two ends.
    """
    _, g = _scan_grid(dist)
    # int8 steps keep the scratch arrays small next to the 0.8 MB grid
    step = (g[1:] > g[:-1]).view(np.int8) - (g[1:] < g[:-1]).view(np.int8)
    moves = step[step != 0]
    heads = np.flatnonzero(moves[1:] != moves[:-1]) + 1
    # a run goes the way of its first step that is not flat
    rising = moves[np.concatenate(([0], heads))] > 0
    # the k-th step that is not flat follows every flat step i with
    # flat[i] - i <= k
    flat = np.flatnonzero(step == 0)
    turns = heads + np.searchsorted(flat - np.arange(len(flat)), heads, side="right")
    bounds = np.concatenate(([0], turns, [len(g) - 1]))
    runs = bounds, rising, g[bounds[:-1]], g[bounds[1:]]
    for a in runs:
        # every caller shares the cached arrays
        a.setflags(write=False)
    return runs


def _crossing_cells(dist: ValuationDistribution, pi: float) -> list[tuple[int, bool]]:
    """Cells [xs[j], xs[j + 1]] of the cached grid where g = x * ccdf(x)
    crosses pi, in order, each with whether g rises through pi there.

    g >= pi holds on one end of a monotone run, so a run whose two ends
    straddle pi holds exactly one such cell, found by one binary search.
    """
    _, g = _scan_grid(dist)
    bounds, rising, g_first, g_last = _monotone_runs(dist)
    up = rising & (g_first < pi) & (g_last >= pi)
    down = ~rising & (g_first >= pi) & (g_last < pi)
    cells = []
    for i in np.flatnonzero(up | down):
        lo, hi = int(bounds[i]), int(bounds[i + 1]) + 1
        if up[i]:
            # first point of the run at or above pi
            cells.append((bisect_left(g, pi, lo, hi) - 1, True))
        else:
            # first point of the run below pi; bisect reads the run in place
            cells.append((bisect_right(g, -pi, lo, hi, key=operator.neg) - 1, False))
    return cells


def _continuous_regions(dist: ValuationDistribution, pi: float):
    """Crossings of g(x) = x * ccdf(x) and pi, refined to float resolution
    from the grid cells that hold them, with the grid values at a cell's ends
    as the refinement's end values."""
    xs, g = _scan_grid(dist)

    def f(x: float) -> float:
        return x * float(dist._ccdf(np.asarray(x))) - pi

    starts: list[float] = []
    ends: list[float] = []
    if g[0] >= pi:
        # g(xs[0]) >= pi; x ccdf(x) <= x and ccdf(x) >= ccdf(xs[0]) below xs[0], so the
        # crossing is in [pi, min(xs[0], pi / ccdf(xs[0]))] (a float up for rounding),
        # or is pi if that is empty or f(pi) >= 0 (ccdf rounding above 1 at pi)
        x0 = float(xs[0])
        hi = min(x0, math.nextafter(pi / float(dist._ccdf(np.asarray(x0))), 1.0))
        fl = f(pi) if pi < hi else 0.0
        starts.append(pi if fl >= 0.0 else refine_crossing(f, pi, hi, flo=fl))
    for j, rises in _crossing_cells(dist, pi):
        # the grid is f's expression on an array, so g[j] - pi is f(xs[j])
        x = refine_crossing(
            f, float(xs[j]), float(xs[j + 1]), flo=float(g[j]) - pi, fhi=float(g[j + 1]) - pi
        )
        (starts if rises else ends).append(x)
    if g[-1] >= pi:
        ends.append(1.0)
    intervals = [(u, w) for u, w in zip(starts, ends)]
    return intervals, []


def cut(dist: ValuationDistribution, pi: float) -> IsoRevenueCut:
    """Compute the iso-revenue cut of ``dist`` at revenue level ``pi``.

    Requires 0 <= pi <= max posted revenue.  At pi = 0 the cut spans all of
    (0, 1]; its log-ratio sum is +inf and the gap equals the reference mean.
    """
    _validate_level(dist, pi)
    if pi == 0.0:
        return IsoRevenueCut(0.0, ((0.0, 1.0),), dist.mean(), math.inf)
    if isinstance(dist, Empirical):
        raw, ties = _empirical_regions(dist, pi)
    else:
        raw, ties = _continuous_regions(dist, pi)
    intervals = tuple((u, w) for u, w in raw if w - u >= _TANGENCY_WIDTH)
    gap = 0.0
    log_sum = 0.0
    for u, w in intervals:
        gap += dist.ccdf_integral(u, w) - pi * math.log(w / u)
        log_sum += math.log(w / u)
    return IsoRevenueCut(pi, intervals, max(gap, 0.0), log_sum, tuple(ties))


def gap_only(dist: ValuationDistribution, pi: float) -> float:
    """The Wasserstein gap d(pi) alone; same value as ``cut(...).gap``."""
    return cut(dist, pi).gap


def worst_case_ccdf(dist: ValuationDistribution, pi: float, x):
    """CCDF of the truncated iso-revenue distribution min{ccdf(x), pi/x}."""
    _validate_level(dist, pi)
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0.0) or np.any(xs > 1.0):
        raise DomainError("valuation outside (0, 1]")
    out = np.clip(np.minimum(dist._ccdf(xs), pi / xs), 0.0, 1.0)
    return float(out) if np.ndim(x) == 0 else out
