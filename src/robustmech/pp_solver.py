"""Deterministic posted-price satisficing solver.

The fragility-adjusted posted revenue is the reference expectation of
min{p, k (v - p)^+}: a buyer below the price contributes nothing, a buyer
within p/k above it contributes the fragility-scaled surplus gap, and higher
buyers contribute the full price.  It is increasing in k and piecewise
linear in p for empirical references, with kinks only at {k/(k+1) * atom}
and the atoms themselves.

On a reference whose revenue curve g(x) = x ccdf(x) has a single hump, the
paper puts the optimal price for fragility k at the lower end u of the
one-interval iso-revenue cut [u, w] with w/u = (k+1)/k.  The solver does not
build that cut: ``solve_pp`` searches log k on every reference, pricing each
k by exact candidates on an empirical reference, and otherwise by a
1,001-point array pass of rho_pp (the guard: rho_pp can have several local
maxima in p) whose CCDF integrals from 0 to the grid prices are cached per
reference, refined by Newton steps on the sign change of its slope in p, the
first-order condition (k+1) ccdf(w) = k ccdf(u) of the same cut.  The search
starts from its true end values, f < 0 at k = tau/mean and f >= 0 at
k = tau/(pi0 - tau), returns an end when f rounds to the other side there, and
takes Newton steps in log k on the envelope slope of max_p rho_pp,
rho - p k/(k+1) ccdf(p) at the best price p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .distributions import Empirical, ValuationDistribution, max_posted_revenue
from .errors import DomainError, check_target
from .isorevenue import cut  # noqa: F401  (bench/spans.py patches cut)
from .mechanisms import PostedPrice
from .numerics import bisect_root
from .records import Record

__all__ = [
    "PPSolveReport",
    "rho_pp",
    "optimal_price_given_k",
    "solve_pp",
    "solve_pp_two_point",
]


@dataclass(frozen=True, slots=True)
class PPSolveReport(Record):
    """Optimal posted price and fragility for one (reference, target) instance."""

    tau: float
    k_pp: float
    p_pp: float
    rho_at_solution: float
    mechanism: PostedPrice
    iterations: int
    residual: float
    #: "scan" (grid and slope root search per k), "empirical" (exact
    #: candidates per k) or "closed_form" (two atoms)
    path: str
    warnings: tuple[str, ...] = field(default=())


def rho_pp(dist: ValuationDistribution, p: float, k: float) -> float:
    """Fragility-adjusted posted revenue E[min{p, k (v - p)^+}] at price p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"price {p!r} outside [0, 1]")
    if not k > 0.0:
        raise DomainError(f"fragility must be positive, got {k!r}")
    if p == 0.0:
        return 0.0
    # the integrand is continuous piecewise linear in v with slope k on
    # [p, (1+1/k) p], so the expectation reduces to a CCDF partial integral
    # (for atoms as well as densities)
    upper = min((1.0 + 1.0 / k) * p, 1.0)
    return k * dist.ccdf_integral(p, upper)


#: the fallback's price grid; the CCDF integrals from 0 to its prices are
#: cached per reference, so each k integrates only up to (1 + 1/k) p
_PRICE_GRID = np.arange(1001) / 1000.0
_PRICE_GRID.setflags(write=False)


@lru_cache(maxsize=64)
def _grid_integrals(dist: ValuationDistribution) -> np.ndarray:
    """Read-only int_0^p ccdf at every price p of the fallback's grid."""
    out = dist._integrals(0.0, _PRICE_GRID)
    out.setflags(write=False)
    return out


def _price_slope(dist: ValuationDistribution, p: float, k: float) -> float:
    """Slope of rho_pp in p: (k+1) ccdf(U) - k ccdf(p), U = min((1+1/k) p, 1)."""
    upper = min((1.0 + 1.0 / k) * p, 1.0)
    return float((k + 1.0) * dist._ccdf(np.asarray(upper)) - k * dist._ccdf(np.asarray(p)))


def _price_slope_dp(dist: ValuationDistribution, p: float, k: float) -> float:
    """Derivative in p of ``_price_slope``, at p in (0, 1): k pdf(p) -
    ((k+1)^2/k) pdf(U) while U = (1+1/k) p < 1, and k pdf(p) once U sits at 1."""
    upper = (1.0 + 1.0 / k) * p
    d = k * dist._pdf(p)
    return d - (k + 1.0) ** 2 / k * dist._pdf(upper) if upper < 1.0 else d


def _envelope_slope(dist: ValuationDistribution, p: float, k: float, rho: float) -> float:
    """Slope in log k of max_p rho_pp(p, k), at its best price p, where rho_pp = rho.

    Along p = k/(k+1) U with U fixed, rho_pp = k int_p^U ccdf moves with log k
    as rho - p k/(k+1) ccdf(p).  That is the slope of the maximum wherever p is
    stationary, (k+1) ccdf(U) = k ccdf(p) (the envelope theorem), and on an
    empirical reference, whose best price is the candidate k/(k+1) x of an
    atom x = U and follows this path."""
    return rho - p * k / (k + 1.0) * float(dist._ccdf(np.asarray(p)))


def _optimal_price_scan(dist: ValuationDistribution, k: float) -> float:
    """Best price on a 1,001-point grid, refined by Newton steps on the sign
    change of ``_price_slope`` on the grid cells either side of it.  The grid
    is the guard against local maxima of rho_pp in p."""
    ps = _PRICE_GRID
    ups = np.minimum((1.0 + 1.0 / k) * ps, 1.0)
    i = int(np.argmax(k * (dist._integrals(0.0, ups) - _grid_integrals(dist))))
    lo, hi = float(ps[max(i - 1, 0)]), float(ps[min(i + 1, len(ps) - 1)])
    flo, fhi = _price_slope(dist, lo, k), _price_slope(dist, hi, k)
    if not flo > 0.0 > fhi:
        return float(ps[i])
    # the ends are not evaluated again, so neither is a density at 0 or 1
    return bisect_root(
        partial(_price_slope, dist, k=k),
        lo,
        hi,
        flo=flo,
        fhi=fhi,
        df=partial(_price_slope_dp, dist, k=k),
    ).root


def optimal_price_given_k(dist: ValuationDistribution, k: float) -> float:
    """Price maximizing the fragility-adjusted posted revenue for fixed k."""
    if not k > 0.0:
        raise DomainError(f"fragility must be positive, got {k!r}")
    if isinstance(dist, Empirical):
        # rho_pp is piecewise linear in p with kinks at the atoms and at
        # k/(k+1) times the atoms, so its maximum sits on one of them: the
        # lower of the sorted halves' first maxima (0 if every atom is 0)
        best = (math.inf, 0.0)  # (-revenue, price)
        for cands in (k / (k + 1.0) * dist._values, dist._values):
            cands = cands[cands > 0.0]
            if cands.size:
                revs = k * dist._integrals(cands, np.minimum((1.0 + 1.0 / k) * cands, 1.0))
                i = int(np.argmax(revs))
                best = min(best, (-float(revs[i]), float(cands[i])))
        return best[1]
    return _optimal_price_scan(dist, k)


def solve_pp(dist: ValuationDistribution, tau: float) -> PPSolveReport:
    """Minimal fragility k with max_p rho_pp(p, k) = tau, and its price."""
    pi0, _ = max_posted_revenue(dist)
    check_target(tau, pi0)
    # search log k, which bounds the relative error of k at every scale;
    # each evaluation keeps its k, price and revenue
    evals: list[tuple[float, float, float]] = []

    def price(k: float) -> float:
        p = optimal_price_given_k(dist, k)
        evals.append((k, p, rho_pp(dist, p, k)))
        return evals[-1][2] - tau

    def f(t: float) -> float:
        return price(math.exp(t))

    def df(t: float) -> float:
        k, p, rho = evals[-1]
        return _envelope_slope(dist, p, k, rho)

    # pricing at k/(k+1) * p0 earns at least k/(k+1) * pi0, so f >= 0 at
    # k = tau/(pi0 - tau); rho_pp*(k) < k * mean, so f < 0 at tau/mean.
    # When f rounds to <= 0 at the top, the root is that end (a two-atom
    # reference's high branch).  When f rounds to >= 0 at the bottom, the
    # root is that end: at tiny k, rho_pp*(k) = k * mean - O(k^2), so the
    # root is within O(k) relative of it
    k_hi = tau / (pi0 - tau)
    f_hi = price(k_hi)
    if f_hi > 0.0:
        t_lo = math.log(tau / dist.mean())
        f_lo = f(t_lo)
        if f_lo < 0.0:
            bisect_root(f, t_lo, math.log(k_hi), xtol=1e-12, flo=f_lo, fhi=f_hi, df=df, dflo=df(t_lo))
    # f is increasing, so the evaluation nearest the target is an end of
    # the last bracket, within the 1e-12 stop of the root
    k_pp, p, rho = min(evals, key=lambda e: abs(e[2] - tau))
    return PPSolveReport(
        tau=tau,
        k_pp=k_pp,
        p_pp=p,
        rho_at_solution=rho,
        mechanism=PostedPrice(p),
        iterations=len(evals),
        residual=rho - tau,
        path="empirical" if isinstance(dist, Empirical) else "scan",
    )


def solve_pp_two_point(
    v1: float, a1: float, v2: float, a2: float, tau: float
) -> PPSolveReport:
    """Closed-form posted-price solution for a two-atom reference.

    The optimum sits at one of the two candidate prices k/(k+1) * atom; which
    one, and which fragility branch applies, depends on how the target
    compares with (1 - a1) v1 and on whether v1 exceeds (1 - a1) v2.
    """
    if not (0.0 < v1 < v2 <= 1.0):
        raise DomainError("need 0 < v1 < v2 <= 1")
    if not (a1 > 0.0 and a2 > 0.0 and abs(a1 + a2 - 1.0) <= 1e-9):
        raise DomainError("atom masses must be positive and sum to 1")
    mu0 = a1 * v1 + a2 * v2
    pi0 = max(v1, (1.0 - a1) * v2)
    check_target(tau, pi0)
    warnings: list[str] = []
    low_branch_edge = (1.0 - a1) * v1
    if abs(tau - low_branch_edge) <= 1e-12:
        warnings.append("target sits on a fragility branch boundary")
    if tau <= low_branch_edge:
        disc = (mu0 - tau) ** 2 - 4.0 * a1 * tau * (v2 - v1)
        # the smaller root of a1 (v2 - v1) k^2 - (mu0 - tau) k + tau = 0,
        # written without the cancellation of mu0 - tau - sqrt(disc)
        k = 2.0 * tau / (mu0 - tau + math.sqrt(max(disc, 0.0)))
        p = k / (k + 1.0) * v2
    elif v1 <= (1.0 - a1) * v2:
        k = tau / ((1.0 - a1) * v2 - tau)
        p = k / (k + 1.0) * v2
    else:
        k = tau / (v1 - tau)
        p = k / (k + 1.0) * v1
    dist = Empirical(((v1, a1), (v2, a2)))
    return PPSolveReport(
        tau=tau,
        k_pp=k,
        p_pp=p,
        rho_at_solution=rho_pp(dist, p, k),
        mechanism=PostedPrice(p),
        iterations=0,
        residual=0.0,
        path="closed_form",
        warnings=tuple(warnings),
    )
