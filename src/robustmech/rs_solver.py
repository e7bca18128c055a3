"""Robust satisficing solver.

Given a reference distribution and a revenue target tau, the solver finds the
smallest fragility k such that the target shortfall under any valuation
distribution P is bounded by k times the Wasserstein distance of P from the
reference.  The solution is indexed by the revenue level pi of the
iso-revenue cut: with L(pi) = sum_j ln(w_j/u_j) over the cut intervals,

* the fragility whose worst-case revenue is pi is k(pi) = 1/L(pi), and
* the minimal fragility-adjusted revenue at that fragility is
  rho(pi) = pi + gap(pi)/L(pi) >= pi, nondecreasing in pi,

so ``level_search`` solves rho(pi) = tau and k* = 1/L(pi*).  When pi*
underflows the floor level, the floor cut already covers the reference and
k* = tau / int ccdf over it.  The optimal mechanism is the randomized log
menu on the cut at pi*.  The PP regular path and the RO solver pick their
levels with ``level_search`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from .distributions import ValuationDistribution, max_posted_revenue
from .errors import InfeasibleTargetError
from .isorevenue import LOG_LEVEL_FLOOR, IsoRevenueCut, cut, gap_only
from .mechanisms import RandomizedLogMechanism
from .numerics import RootResult, bisect_root

__all__ = ["SolveReport", "fragility_adjusted_revenue", "pi_star", "rho_star", "solve"]

#: targets closer to the posted-price optimum than this are rejected: the
#: fragility diverges as tau approaches the maximum posted revenue
FEASIBILITY_MARGIN = 1e-9


@dataclass(frozen=True)
class SolveReport:
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

    def to_json(self) -> dict:
        return {
            "tau": self.tau,
            "k_star": self.k_star,
            "pi_star": self.pi_star,
            "rho_at_solution": self.rho_at_solution,
            "intervals": [[u, w] for u, w in self.intervals],
            "mechanism": self.mechanism.to_json(),
            "iterations": self.iterations,
            "residual": self.residual,
            "warnings": list(self.warnings),
        }


def fragility_adjusted_revenue(
    dist: ValuationDistribution, pi: float, k: float
) -> float:
    """rho(pi, k) = pi + k * d(pi): convex in pi with a unique minimum."""
    return pi + k * gap_only(dist, pi)


#: offsets below log_hi, in log(level), of the levels cut before the root
#: finder starts; it starts from the first with a negative excess
_PROBE_STEPS = (1.0, 4.0, 16.0, 64.0, 256.0)


def level_search(
    dist: ValuationDistribution,
    excess: Callable[[IsoRevenueCut], float],
    log_hi: float,
) -> tuple[IsoRevenueCut, RootResult | None]:
    """Cut at the root of ``excess(cut(pi))``, and the search (None when
    ``excess`` is already nonnegative at the floor level, whose cut is then
    returned).  The search's ``iterations`` counts every level it cut after
    the floor.

    ``excess`` is nondecreasing in the level and taken as +inf at ``log_hi``.
    After the floor, the levels log_hi - 1, - 4, - 16, - 64 and - 256 are cut
    down to the first with a negative excess (or the floor), and log(pi) is
    searched between that level and the last one above it by ITP steps with
    a bisection fallback down to adjacent floats, so the level keeps float
    resolution at every scale; a search takes about 15 cuts.
    """
    floor = cut(dist, math.exp(LOG_LEVEL_FLOOR))
    flo = excess(floor)
    if flo >= 0.0:
        return floor, None
    # the root is the last level evaluated on one side of the sign change
    ends = {True: floor}
    cuts = 0

    def f(t: float) -> float:
        nonlocal cuts
        cuts += 1
        c = cut(dist, math.exp(t))
        e = excess(c)
        ends[e < 0.0] = c
        return e

    lo, hi = LOG_LEVEL_FLOOR, log_hi
    for step in _PROBE_STEPS:
        t = log_hi - step
        if t <= LOG_LEVEL_FLOOR:
            break
        e = f(t)
        if e < 0.0:
            lo, flo = t, e
            break
        hi = t
    # a finite end value far from the root misleads the interpolation and
    # costs more cuts than midpoints do, so the upper end stays +inf
    res = bisect_root(f, lo, hi, xtol=0.0, flo=flo, fhi=math.inf)
    res = replace(res, iterations=cuts)
    level = math.exp(res.root)
    for c in ends.values():
        if c.pi == level:
            return c, res
    return cut(dist, level), res


def _pi_star_cut(dist: ValuationDistribution, k: float) -> IsoRevenueCut:
    """Cut at the root of log_sum(cut(pi)) = 1/k; the root scales like
    exp(-1/k) for small k, and below the floor level the floor cut is kept."""
    if not k > 0.0:
        raise ValueError(f"fragility must be positive, got {k}")
    pi0, _ = max_posted_revenue(dist)
    # log_sum falls to 0 at the tangency level pi0
    target = 1.0 / k
    return level_search(dist, lambda c: target - c.log_sum, math.log(pi0))[0]


def pi_star(dist: ValuationDistribution, k: float) -> float:
    """Worst-case revenue pi*(k): minimizer of the fragility-adjusted revenue."""
    return _pi_star_cut(dist, k).pi


def rho_star(dist: ValuationDistribution, k: float) -> float:
    """Minimal fragility-adjusted revenue rho*(k); strictly increasing in k."""
    c = _pi_star_cut(dist, k)
    return c.pi + k * c.gap


def _level_rho(c: IsoRevenueCut) -> float:
    """rho(pi) = pi + gap/log_sum; an empty cut sits at the tangency, k = inf."""
    return c.pi + c.gap / c.log_sum if c.intervals else math.inf


def solve(dist: ValuationDistribution, tau: float) -> SolveReport:
    """Solve the satisficing problem: k* with rho*(k*) = tau, plus the mechanism.

    Requires 0 < tau < max posted revenue of the reference (strictly: at the
    boundary the fragility diverges).
    """
    pi0, _ = max_posted_revenue(dist)
    if not tau > 0.0 or tau >= pi0 - FEASIBILITY_MARGIN:
        raise InfeasibleTargetError(tau, pi0)
    warnings: tuple[str, ...] = ()
    # rho(tau) >= tau, so log(tau) closes the bracket
    c, res = level_search(dist, lambda c: _level_rho(c) - tau, math.log(tau))
    if res is None:
        # pi* underflows the floor level; the cut there already covers the
        # reference up to a negligible measure, so k* = tau / int ccdf is exact
        warnings = (
            f"pi* underflows the floor level exp({LOG_LEVEL_FLOOR:g}); "
            "the cut at the floor is reported",
        )
        k_star = tau / math.fsum(dist.ccdf_integral(u, w) for u, w in c.intervals)
        iterations = 0
    else:
        if not c.intervals:
            # tau is within the tangency resolution of pi0
            raise InfeasibleTargetError(tau, pi0)
        k_star, iterations = 1.0 / c.log_sum, res.iterations
    rho = k_star * math.fsum(dist.ccdf_integral(u, w) for u, w in c.intervals)
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
