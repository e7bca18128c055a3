"""Robust optimization counterpart: worst-case-optimal screening.

For an ambiguity radius r, the maximum worst-case revenue is the revenue
level whose Wasserstein gap equals r; the worst-case-optimal mechanism is the
same randomized log menu as in the satisficing problem, built on the cut at
that level, with slope pinned to 1 / sum(ln(w/u)).  The level comes from
``rs_solver.level_search`` on r - gap(pi).  The frameworks coincide when the
satisficing target equals the worst-case revenue plus r times that slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .distributions import Uniform, ValuationDistribution, max_posted_revenue
from .errors import (
    DomainError,
    InfeasibleTargetError,
    RadiusTooLargeError,
    UnsupportedReferenceError,
)
from .isorevenue import IsoRevenueCut, cut, gap_only
from .mechanisms import Mechanism, PostedPrice, RandomizedLogMechanism
from .numerics import bisect_root  # noqa: F401  (bench/spans.py patches this name)
from .records import Record
from .rs_solver import level_search

__all__ = [
    "ROSolveReport",
    "pi_ro_star",
    "build_ro_mechanism",
    "ro_pp_price",
    "ro_pp_price_uniform",
    "tau_equiv",
    "radius_for_target",
    "solve_ro",
]


@dataclass(frozen=True, slots=True)
class ROSolveReport(Record):
    """Worst-case-optimal solution for one (reference, radius) instance."""

    r: float
    pi_ro_star: float
    mechanism: Mechanism
    pp_price_uniform: float | None
    iterations: int
    residual: float
    warnings: tuple[str, ...] = field(default=())


def _check_radius(dist: ValuationDistribution, r: float) -> None:
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"ambiguity radius must be finite and nonnegative, got {r}")
    mu0 = dist.mean()
    if r >= mu0:
        raise RadiusTooLargeError(r, mu0)


def _pi_ro_cut(dist: ValuationDistribution, r: float) -> tuple[IsoRevenueCut, int]:
    """Cut at the root of gap(pi) = r, and the levels the search evaluated."""
    _check_radius(dist, r)
    pi0, _ = max_posted_revenue(dist)
    if r == 0.0:
        return cut(dist, pi0), 0
    # the gap falls from the mean at level 0 to zero at pi0, with slope -log_sum
    c, iterations = level_search(dist, lambda c: r - c.gap, math.log(pi0), lambda c: c.log_sum)
    return c, iterations or 0


def _mechanism(dist: ValuationDistribution, c: IsoRevenueCut) -> Mechanism:
    """Log menu on the cut; an empty cut (the tangency at pi0) collapses the
    menu to the classical posted price at the reference argmax."""
    if not c.intervals:
        _, p_opt = max_posted_revenue(dist)
        return PostedPrice(p_opt)
    return RandomizedLogMechanism.from_cut(c)


def pi_ro_star(dist: ValuationDistribution, r: float) -> float:
    """Maximum worst-case revenue: the unique root of gap(pi) = r."""
    return _pi_ro_cut(dist, r)[0].pi


def build_ro_mechanism(dist: ValuationDistribution, r: float) -> Mechanism:
    """Worst-case-optimal mechanism at radius r (a posted price at r = 0)."""
    return _mechanism(dist, _pi_ro_cut(dist, r)[0])


def ro_pp_price_uniform(r: float) -> float:
    """Worst-case-optimal posted price for the uniform reference: (1 - sqrt(2r))/2."""
    if not 0.0 <= r <= 0.5:
        raise DomainError(f"radius {r!r} outside [0, 0.5]")
    return (1.0 - math.sqrt(2.0 * r)) / 2.0


def tau_equiv(dist: ValuationDistribution, r: float) -> float:
    """Satisficing target at which the two robust frameworks produce the same
    mechanism: pi_ro_star(r) + r / sum(ln(w/u)) over the cut at that level."""
    c, _ = _pi_ro_cut(dist, r)
    return c.pi + r / c.log_sum if c.intervals else c.pi


def radius_for_target(dist: ValuationDistribution, tau: float) -> float:
    """Radius whose maximum worst-case revenue equals tau.

    Since the worst-case revenue inverts the gap function, this is simply the
    gap at tau; used when comparing frameworks at matched targets.
    """
    pi0, _ = max_posted_revenue(dist)
    if not 0.0 < tau <= pi0 * (1.0 + 1e-12):
        raise InfeasibleTargetError(tau, pi0)
    return gap_only(dist, min(tau, pi0))


def solve_ro(dist: ValuationDistribution, r: float) -> ROSolveReport:
    """Full worst-case-optimal solve at radius r."""
    c, iterations = _pi_ro_cut(dist, r)
    pp_price = ro_pp_price_uniform(r) if isinstance(dist, Uniform) else None
    return ROSolveReport(
        r=r,
        pi_ro_star=c.pi,
        mechanism=_mechanism(dist, c),
        pp_price_uniform=pp_price,
        iterations=iterations,
        residual=c.gap - r,
    )


def ro_pp_price(dist: ValuationDistribution, r: float) -> float:
    """Worst-case-optimal posted price; closed form exists only for uniform."""
    if isinstance(dist, Uniform):
        return ro_pp_price_uniform(r)
    raise UnsupportedReferenceError(
        "the worst-case-optimal posted price is implemented only for the "
        "uniform reference distribution; general references are unsupported"
    )
