"""Robust satisficing solver.

Given a reference distribution and a revenue target tau, the solver finds the
smallest fragility k such that the target shortfall under any valuation
distribution P is bounded by k times the Wasserstein distance of P from the
reference.  The solution is indexed by the revenue level pi of the
iso-revenue cut: with L(pi) = sum_j ln(w_j/u_j) over the cut intervals,

* the fragility whose worst-case revenue is pi is k(pi) = 1/L(pi), and
* the minimal fragility-adjusted revenue at that fragility is
  rho(pi) = pi + gap(pi)/L(pi) >= pi, nondecreasing in pi,

so ``level_search`` solves rho(pi) = tau, as gap - (tau - pi) L = 0, and
k* = 1/L(pi*).  Its probes step down from log(tau) to the floor level; when
rho at the floor still reaches tau, pi* underflows it, the floor cut already
covers the reference and k* = tau / int ccdf over it.  The optimal mechanism
is the randomized log menu on the cut at pi*.  The RO solver picks its
level with ``level_search`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .distributions import Empirical, ValuationDistribution, max_posted_revenue
from .errors import DomainError, InfeasibleTargetError, check_target
from .isorevenue import LOG_LEVEL_FLOOR, IsoRevenueCut, LevelQuery, cut, gap_only, level_query
from .mechanisms import RandomizedLogMechanism
from .numerics import bisect_root
from .records import Record

__all__ = ["SolveReport", "fragility_adjusted_revenue", "pi_star", "rho_star", "solve"]


@dataclass(frozen=True, slots=True)
class SolveReport(Record):
    """Robust satisficing solution for one (reference, target) instance."""

    tau: float
    k_star: float
    pi_star: float
    rho_at_solution: float
    intervals: tuple[tuple[float, float], ...]
    mechanism: RandomizedLogMechanism
    iterations: int
    residual: float
    warnings: tuple[str, ...] = field(default=())


def fragility_adjusted_revenue(
    dist: ValuationDistribution, pi: float, k: float
) -> float:
    """rho(pi, k) = pi + k * d(pi): convex in pi with a unique minimum."""
    return pi + k * gap_only(dist, pi)


#: offsets below log_hi, in log(level), of the levels cut before the root
#: finder starts, down to the floor; it starts from the first with a negative
#: excess
_PROBE_STEPS = (1.0, 4.0, 16.0, 64.0, 256.0)


def level_search(
    dist: ValuationDistribution,
    excess: Callable[[IsoRevenueCut | LevelQuery], float],
    log_hi: float,
    slope: Callable[[IsoRevenueCut | LevelQuery], float],
) -> tuple[IsoRevenueCut, int | None]:
    """Cut at the root of ``excess(cut(pi))``, and the number of levels the
    search evaluated (None when ``excess`` is already nonnegative at the
    floor level, whose cut is then returned).

    ``excess`` is nondecreasing in the level and taken as +inf at ``log_hi``;
    ``slope(cut)`` is d excess / d pi.  The levels log_hi - 1, - 4, - 16,
    - 64, - 256 and then the floor are evaluated down to the first with a
    negative excess, and log(pi) is searched by Newton steps between that
    level and the last one above it down to adjacent floats, so the level
    keeps float resolution at every scale (5 to 12 cuts on closed-form
    references, probes included).

    On an empirical reference the probes and the search evaluate
    ``level_query`` (two binary searches) instead of ``cut``, so ``excess``
    and ``slope`` read only ``pi``, ``gap``, ``log_sum`` and ``dlog_sum``.
    The search then finishes with Newton steps in log(pi) on exact cuts from
    the queries' root, inside the bracket the probes left, until the exact
    excess changes sign or the level stops moving (2 cuts in most searches).
    """
    queried = isinstance(dist, Empirical)
    evaluate = partial(level_query if queried else cut, dist)
    # the root is the last level evaluated on one side of the sign change
    ends = {}
    last = None
    evaluations = 0

    def f(t: float) -> float:
        nonlocal evaluations, last
        evaluations += 1
        last = evaluate(math.exp(t))
        e = excess(last)
        ends[e < 0.0] = last
        return e

    def df(t: float) -> float:
        # the slope in log(level), at the level f(t) just evaluated
        return last.pi * slope(last)

    hi, fhi = log_hi, math.inf
    ladder = [log_hi - step for step in _PROBE_STEPS if log_hi - step > LOG_LEVEL_FLOOR]
    for lo in ladder + [LOG_LEVEL_FLOOR]:
        flo = f(lo)
        if flo < 0.0:
            break
        hi, fhi = lo, flo
    else:
        return (cut(dist, last.pi) if queried else last), None
    t = bisect_root(f, lo, hi, flo=flo, fhi=fhi, df=df, dflo=df(lo)).root
    if queried:
        evaluate = partial(cut, dist)
        e = f(t)
        while e != 0.0:
            d = df(t)
            step = t - e / d if d else math.nan
            if not lo < step < hi or step == t:
                break
            e_step = f(step)
            crossed = (e_step < 0.0) != (e < 0.0)
            t, e = step, e_step
            if crossed:
                break
        return last, evaluations
    level = math.exp(t)
    for c in ends.values():
        if c.pi == level:
            return c, evaluations
    return cut(dist, level), evaluations


def _pi_star_cut(dist: ValuationDistribution, k: float) -> IsoRevenueCut:
    """Cut at the root of log_sum(cut(pi)) = 1/k; the root scales like
    exp(-1/k) for small k, and below the floor level the floor cut is kept."""
    if not k > 0.0:
        raise DomainError(f"fragility must be positive, got {k}")
    pi0, _ = max_posted_revenue(dist)
    # log_sum falls to 0 at the tangency level pi0
    target = 1.0 / k
    return level_search(
        dist, lambda c: target - c.log_sum, math.log(pi0), lambda c: -c.dlog_sum
    )[0]


def pi_star(dist: ValuationDistribution, k: float) -> float:
    """Worst-case revenue pi*(k): minimizer of the fragility-adjusted revenue."""
    return _pi_star_cut(dist, k).pi


def rho_star(dist: ValuationDistribution, k: float) -> float:
    """Minimal fragility-adjusted revenue rho*(k); strictly increasing in k."""
    c = _pi_star_cut(dist, k)
    return c.pi + k * c.gap


def solve(dist: ValuationDistribution, tau: float) -> SolveReport:
    """Solve the satisficing problem: k* with rho*(k*) = tau, plus the mechanism.

    Requires 0 < tau < max posted revenue of the reference (strictly: at the
    boundary the fragility diverges).
    """
    pi0, _ = max_posted_revenue(dist)
    check_target(tau, pi0)
    warnings: tuple[str, ...] = ()
    # gap - (tau - pi) log_sum = log_sum (rho - tau) rises with pi below tau,
    # at (pi - tau) dlog_sum as the gap moves as -log_sum; an empty cut
    # (log_sum = 0) sits at the tangency (k = inf), and rho(tau) >= tau
    # closes the bracket
    c, iterations = level_search(
        dist, lambda c: c.gap - (tau - c.pi) * c.log_sum if c.log_sum > 0.0 else math.inf,
        math.log(tau), lambda c: (c.pi - tau) * c.dlog_sum,
    )
    integral = math.fsum(dist.ccdf_integral(u, w) for u, w in c.intervals)
    if iterations is None:
        # pi* underflows the floor level; the cut there already covers the
        # reference up to a negligible measure, so k* = tau / int ccdf is exact
        warnings = (
            f"pi* underflows the floor level exp({LOG_LEVEL_FLOOR:g}); "
            "the cut at the floor is reported",
        )
        k_star, iterations = tau / integral, 0
    elif not c.intervals:
        # tau is within the tangency resolution of pi0
        raise InfeasibleTargetError(tau, pi0)
    else:
        k_star = 1.0 / c.log_sum
    rho = k_star * integral
    return SolveReport(
        tau=tau,
        k_star=k_star,
        pi_star=c.pi,
        rho_at_solution=rho,
        intervals=c.intervals,
        mechanism=RandomizedLogMechanism.from_cut(c),
        iterations=iterations,
        residual=rho - tau,
        warnings=warnings,
    )
