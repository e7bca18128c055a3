"""Robust satisficing solver.

Given a reference distribution and a revenue target tau, the solver finds the
smallest fragility k such that the target shortfall under any valuation
distribution P is bounded by k times the Wasserstein distance of P from the
reference.  The solution is indexed by the revenue level pi of the
iso-revenue cut: with L(pi) = sum_j ln(w_j/u_j) over the cut intervals,

* the fragility whose worst-case revenue is pi is k(pi) = 1/L(pi), and
* the minimal fragility-adjusted revenue at that fragility is
  rho(pi) = pi + gap(pi)/L(pi) >= pi, nondecreasing in pi,

so one bisection in log(pi) solves rho(pi) = tau and k* = 1/L(pi*).  When
pi* underflows the floor level, the floor cut already covers the reference
and k* = tau / int ccdf over it.  The optimal mechanism is the randomized
log menu on the cut at pi*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .distributions import ValuationDistribution, max_posted_revenue
from .errors import InfeasibleTargetError
from .isorevenue import LOG_LEVEL_FLOOR, IsoRevenueCut, cut, gap_only
from .mechanisms import RandomizedLogMechanism
from .numerics import bisect_root

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


def _pi_star_cut(dist: ValuationDistribution, k: float) -> IsoRevenueCut:
    """Cut at the root of log_sum(cut(pi)) = 1/k, found in log(pi).

    The root scales like exp(-1/k) for small k; below the floor level (the
    root underflows) the floor cut is returned.
    """
    if not k > 0.0:
        raise ValueError(f"fragility must be positive, got {k}")
    pi0, _ = max_posted_revenue(dist)
    target = 1.0 / k
    floor = cut(dist, math.exp(LOG_LEVEL_FLOOR))
    if floor.log_sum <= target:
        return floor
    # log_sum falls to 0 at the tangency level pi0
    res = bisect_root(
        lambda t: cut(dist, math.exp(t)).log_sum - target,
        LOG_LEVEL_FLOOR,
        math.log(pi0),
        xtol=0.0,
        flo=floor.log_sum - target,
        fhi=-target,
    )
    return cut(dist, math.exp(res.root))


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
    c = cut(dist, math.exp(LOG_LEVEL_FLOOR))
    rho_floor = _level_rho(c)
    if rho_floor >= tau:
        # pi* underflows the floor level; the cut there already covers the
        # reference up to a negligible measure, so k* = tau / int ccdf is exact
        warnings = (
            f"pi* underflows the floor level exp({LOG_LEVEL_FLOOR:g}); "
            "the cut at the floor is reported",
        )
        k_star = tau / math.fsum(dist.ccdf_integral(u, w) for u, w in c.intervals)
        iterations = 0
    else:
        # rho(tau) >= tau, so log(tau) closes the bracket
        res = bisect_root(
            lambda t: _level_rho(cut(dist, math.exp(t))) - tau,
            LOG_LEVEL_FLOOR,
            math.log(tau),
            xtol=0.0,
            flo=rho_floor - tau,
            fhi=math.inf,
        )
        c = cut(dist, math.exp(res.root))
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
