"""Iso-revenue cuts of a reference distribution.

For a revenue level pi, the cut collects the maximal intervals on which the
reference CCDF weakly exceeds the iso-revenue curve pi/x, together with the
Wasserstein gap between the truncated iso-revenue distribution
min{ccdf, pi/x} and the reference.  These objects drive every solver: the
gap's root locates worst-case-optimal revenue, and the interval log-ratios
drive the fragility first-order condition.

On an empirical reference a cut is one O(n) pass over the CCDF steps, while
``level_query`` answers the gap, the log-ratio sum and its slope at a level
from two binary searches in arrays built once per reference; the level
searches use the queries and finish on exact cuts.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .distributions import (
    _SCAN_XS,
    Empirical,
    ValuationDistribution,
    _scan_grid,
    max_posted_revenue,
)
from .errors import DomainError, InfeasibleLevelError, any_outside
from .numerics import bisect_root
from .records import Record

__all__ = ["IsoRevenueCut", "cut", "gap_only", "worst_case_ccdf"]

#: log of the lowest revenue level the solvers' level searches visit; it
#: stands in for level 0, whose cut spans all of (0, 1]
LOG_LEVEL_FLOOR = -700.0
#: intervals narrower than this are tangency artifacts and carry no measure
_TANGENCY_WIDTH = 1e-9
#: tie band for a crossing landing exactly on an empirical atom
_TIE_BAND = 1e-12
#: the scan grid's points, read as Python floats
_SCAN_VIEW = memoryview(_SCAN_XS)


@dataclass(frozen=True)
class IsoRevenueCut(Record):
    """Intervals where the reference revenue curve stays at or above ``pi``.

    ``gap`` is the Wasserstein distance from the truncated iso-revenue
    distribution to the reference; ``log_sum`` is the sum of ln(w/u) over the
    intervals (reported as +inf when the cut starts at 0, which happens only
    at pi = 0).  ``tie_points`` records empirical atoms hit exactly by a
    crossing; such intervals are kept separate rather than merged.

    ``dlog_sum`` = d log_sum / d pi sums 1/(w g'(w)) - 1/(u g'(u)) over the
    interior ends, g' = ccdf - x pdf, or -1/pi per empirical interval that
    starts partway along a step; the level searches step with it and with
    d gap / d pi = -log_sum (the envelope theorem).
    """

    pi: float
    intervals: tuple[tuple[float, float], ...]
    gap: float
    log_sum: float
    tie_points: tuple[float, ...] = field(default=())
    dlog_sum: float = field(default=0.0)

    @property
    def count(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True, slots=True)
class LevelQuery:
    """The sums of the cut at level ``pi`` that a level search reads, without
    its intervals: ``gap``, ``log_sum`` (0 exactly when the cut is empty) and
    ``dlog_sum``, as in ``IsoRevenueCut``."""

    pi: float
    gap: float
    log_sum: float
    dlog_sum: float


def _level_table(dist: Empirical):
    """Sorted thresholds of the empirical cut's steps and suffix sums over them.

    A step [a, b) of height h is wholly in the cut at levels pi <= a h and in
    it from pi/h onward when a h < pi < b h.  The table holds the lower
    thresholds a h in ascending order with suffix sums of a h and ln(a h),
    and the same for the upper thresholds b h.  It is built on the first
    query and kept on the instance (not pickled); two threads that build it
    at once build the same arrays.
    """
    table = getattr(dist, "_level_table", None)
    if table is None:
        a, b, height = dist._steps
        on = height > 0.0
        table = []
        for ends in (a[on], b[on]):
            ts = np.sort(ends * height[on])
            # the step from 0 is never whole, so its log term is never read
            logs = np.log(ts, out=np.zeros_like(ts), where=ts > 0.0)
            for arr in (ts, _suffix_sums(ts), _suffix_sums(logs)):
                arr.flags.writeable = False
                table.append(arr)
        table = tuple(table)
        object.__setattr__(dist, "_level_table", table)
    return table


def _suffix_sums(xs: np.ndarray) -> np.ndarray:
    """out[i] = xs[i] + ... + xs[-1], with out[len(xs)] = 0."""
    return np.append(np.cumsum(xs[::-1])[::-1], 0.0)


def level_query(dist: Empirical, pi: float) -> LevelQuery:
    """The gap, log-ratio sum and its slope of the empirical cut at pi > 0,
    from two binary searches in ``_level_table``.

    With W the whole steps and P the partial ones, log_sum is the sum of
    ln(b/a) over W plus ln(b h / pi) over P, the CCDF's integral over the cut
    is the sum of h (b - a) over W plus b h - pi over P, and dlog_sum is
    -|P|/pi.  Each is a difference of suffix sums, so near the tangency pi0
    the gap loses digits to cancellation; the level searches finish on exact
    cuts.  Intervals narrower than the cut's tangency width are counted.
    """
    lows, low_sums, low_logs, highs, high_sums, high_logs = _level_table(dist)
    # whole steps: a h >= pi; steps in the cut: b h > pi (a superset)
    i_whole = int(lows.searchsorted(pi, side="left"))
    i_cut = int(highs.searchsorted(pi, side="right"))
    partial = i_whole - i_cut
    # .item reads Python floats: the same arithmetic, without numpy scalars
    log_sum = max(high_logs.item(i_cut) - low_logs.item(i_whole) - partial * math.log(pi), 0.0)
    integral = high_sums.item(i_cut) - low_sums.item(i_whole) - partial * pi
    return LevelQuery(pi, max(integral - pi * log_sum, 0.0), log_sum, -partial / pi)


def _validate_level(dist: ValuationDistribution, pi: float) -> float:
    if not pi >= 0.0:
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
    slopes = np.where(crossing[starts] > a[starts], -1.0 / pi, 0.0).tolist()
    return intervals, slopes, a[touch & ~join].tolist()


@lru_cache(maxsize=64)
def _monotone_runs(dist: ValuationDistribution):
    """Maximal monotone runs of the cached revenue grid g = x * ccdf(x).

    Returns a read-only memoryview of g, whose items are Python floats, and
    a tuple with one (lo, hi, rising, g[lo], g[hi]) per run: the run spans
    grid points lo..hi (neighbours share their boundary point) and is
    nondecreasing when rising, nonincreasing otherwise; flat steps join the
    run they sit in.
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
    lo, hi = bounds[:-1], bounds[1:]
    runs = zip(lo.tolist(), hi.tolist(), rising.tolist(), g[lo].tolist(), g[hi].tolist())
    # every caller shares the cached view and runs
    return memoryview(g).toreadonly(), tuple(runs)


def _crossing_cells(dist: ValuationDistribution, pi: float) -> list[tuple[int, bool]]:
    """Cells [xs[j], xs[j + 1]] of the cached grid where g = x * ccdf(x)
    crosses pi, in order, each with whether g rises through pi there.

    g >= pi holds on one end of a monotone run, so a run whose two ends
    straddle pi holds exactly one such cell, found by one binary search of
    the run's interior in the grid's memoryview: Python floats throughout.
    """
    g, runs = _monotone_runs(dist)
    cells = []
    for lo, hi, rising, first, last in runs:
        if rising and first < pi <= last:
            # first point of the run at or above pi: inside it, or else hi
            cells.append((bisect_left(g, pi, lo + 1, hi) - 1, True))
        elif not rising and first >= pi > last:
            # first point of the run below pi: inside it, or else hi
            cells.append((bisect_right(g, -pi, lo + 1, hi, key=operator.neg) - 1, False))
    return cells


def _continuous_regions(dist: ValuationDistribution, pi: float):
    """Crossings of g(x) = x * ccdf(x) and pi, refined to float resolution by
    Newton steps on g - pi, with g' = ccdf - x pdf, from the grid cells that
    hold them (the grid values at a cell's ends are the end values); and per
    interval, d ln(w/u) / d pi from 1 / (x g'(x)) at its ends."""
    xs = _SCAN_VIEW
    g, _ = _monotone_runs(dist)
    ccdf = 1.0

    def f(x: float) -> float:
        nonlocal ccdf
        ccdf = float(dist._ccdf(np.asarray(x)))
        return x * ccdf - pi

    def df(x: float) -> float:
        # called right after f(x), whose ccdf it reuses
        return ccdf - x * dist._pdf(x)

    # each end as (x, d ln x / d pi = 1 / (x g'(x))); a g' that rounding put
    # on the wrong side of 0 (at a tangency) reads as vertical
    ends: dict[bool, list[tuple[float, float]]] = {True: [], False: []}

    def add(rises: bool, x: float, slope: float) -> None:
        xg = x * slope if (slope > 0.0) == rises else 0.0
        ends[rises].append((x, 1.0 / xg if xg else (math.inf if rises else -math.inf)))

    def refine(rises: bool, lo: float, hi: float, flo: float, fhi: float, dflo=None) -> None:
        res = bisect_root(f, lo, hi, flo=flo, fhi=fhi, df=df, dflo=dflo)
        add(rises, res.root, res.slope)

    if g[0] >= pi:
        # g(xs[0]) >= pi and x ccdf(x) <= x, so the first crossing is in
        # [pi, xs[0]], or is pi if f(pi) >= 0 (ccdf rounding above 1 at pi);
        # g' is close to 1 there, so the Newton step from pi lands on it
        fl, dl = f(pi), df(pi)
        if fl >= 0.0:
            add(True, pi, dl)
        else:
            refine(True, pi, xs[0], fl, g[0] - pi, dl)
    cells = _crossing_cells(dist, pi)
    for j, rises in cells:
        # the grid is f's expression on an array, so g[j] - pi is f(xs[j])
        refine(rises, xs[j], xs[j + 1], g[j] - pi, g[j + 1] - pi)
    if not cells and g[0] < pi:
        # every grid value is below pi, so only the hump around the argmax
        # p, between two grid points, can reach a level short of pi0
        pi0, p = max_posted_revenue(dist)
        j = bisect_right(xs, p)
        if pi < pi0 and j > 0:
            refine(True, xs[j - 1], p, g[j - 1] - pi, pi0 - pi)
            refine(False, p, xs[j], pi0 - pi, g[j] - pi)
    if g[-1] >= pi:
        ends[False].append((1.0, 0.0))
    pairs = list(zip(ends[True], ends[False]))
    return [(u, w) for (u, _), (w, _) in pairs], [rw - ru for (_, ru), (_, rw) in pairs], []


def cut(dist: ValuationDistribution, pi: float) -> IsoRevenueCut:
    """Compute the iso-revenue cut of ``dist`` at revenue level ``pi``.

    Requires 0 <= pi <= max posted revenue.  At pi = 0 the cut spans all of
    (0, 1]; its log-ratio sum is +inf and the gap equals the reference mean.
    """
    _validate_level(dist, pi)
    if pi == 0.0:
        return IsoRevenueCut(0.0, ((0.0, 1.0),), dist.mean(), math.inf, (), -math.inf)
    if isinstance(dist, Empirical):
        raw, slopes, ties = _empirical_regions(dist, pi)
    else:
        raw, slopes, ties = _continuous_regions(dist, pi)
    keep = [j for j, (u, w) in enumerate(raw) if w - u >= _TANGENCY_WIDTH]
    intervals = tuple(raw[j] for j in keep)
    gap = 0.0
    log_sum = 0.0
    for u, w in intervals:
        gap += dist.ccdf_integral(u, w) - pi * math.log(w / u)
        log_sum += math.log(w / u)
    dlog_sum = math.fsum(slopes[j] for j in keep)
    return IsoRevenueCut(pi, intervals, max(gap, 0.0), log_sum, tuple(ties), dlog_sum)


def gap_only(dist: ValuationDistribution, pi: float) -> float:
    """The Wasserstein gap d(pi) alone; same value as ``cut(...).gap``."""
    return cut(dist, pi).gap


def worst_case_ccdf(dist: ValuationDistribution, pi: float, x):
    """CCDF of the truncated iso-revenue distribution min{ccdf(x), pi/x}."""
    _validate_level(dist, pi)
    xs = np.asarray(x, dtype=float)
    # the least positive float is the least valuation in (0, 1]
    if any_outside(xs, math.ulp(0.0), 1.0):
        raise DomainError("valuation outside (0, 1]")
    out = np.clip(np.minimum(dist._ccdf(xs), pi / xs), 0.0, 1.0)
    return float(out) if np.ndim(x) == 0 else out
