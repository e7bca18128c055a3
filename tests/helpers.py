"""Independent numerical oracles shared by the test suite.

These deliberately avoid the library's own integration and interval code:
distances come from sorted-quantile transport, gaps from dense trapezoid
grids, payments from Riemann-Stieltjes sums against the allocation, so each
check pits two genuinely different computations against each other.
"""

import math

import mpmath
import numpy as np
from scipy.special import betaincinv

from robustmech import (
    Beta,
    DomainError,
    Empirical,
    Mixture,
    Power,
    TruncatedExponential,
    Uniform,
    ValuationDistribution,
)


def sorted_quantile_transport(p: Empirical, q: Empirical) -> float:
    """Exact 1-D optimal transport between discrete distributions.

    Integrates |F_p^{-1}(u) - F_q^{-1}(u)| over u by matching sorted quantile
    segments.
    """
    vp = np.asarray([v for v, _ in p.atoms])
    cp = np.cumsum([m for _, m in p.atoms])
    vq = np.asarray([v for v, _ in q.atoms])
    cq = np.cumsum([m for _, m in q.atoms])
    cp[-1] = cq[-1] = 1.0
    levels = np.unique(np.concatenate([[0.0], cp, cq]))
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        xp = vp[np.searchsorted(cp, mid, side="left")]
        xq = vq[np.searchsorted(cq, mid, side="left")]
        total += (hi - lo) * abs(float(xp) - float(xq))
    return total


def interior_atoms(dist: ValuationDistribution) -> tuple[float, ...]:
    """An empirical reference's atoms inside (0, 1), where its CCDF jumps;
    () for a continuous law."""
    if not isinstance(dist, Empirical):
        return ()
    return tuple(v for v, _ in dist.atoms if 0.0 < v < 1.0)


def merged_knot_distance(p: Empirical, q: Empirical) -> float:
    """W1 between two samples: on each segment between their merged atoms
    both CCDFs are constant, so |ccdf_p - ccdf_q| at its midpoint, times its
    width, is exact."""
    pts = sorted({0.0, 1.0} | {v for v, _ in p.atoms} | {v for v, _ in q.atoms})
    return math.fsum(
        (hi - lo) * abs(atom_ccdf(p, 0.5 * (lo + hi)) - atom_ccdf(q, 0.5 * (lo + hi)))
        for lo, hi in zip(pts[:-1], pts[1:])
    )


def trapezoid_gap(dist, pi: float, n: int = 1_000_000) -> float:
    """Dense-grid quadrature of the positive part of (ccdf(x) - pi/x))."""
    xs = np.linspace(1.0 / n, 1.0, n)
    integrand = np.clip(dist.ccdf(xs) - pi / xs, 0.0, None)
    return float(np.trapezoid(integrand, xs))


def trapezoid_ccdf_distance(ccdf_a, ccdf_b, n: int = 1_000_000) -> float:
    """Dense-grid quadrature of |ccdf_a(x) - ccdf_b(x)| on (0, 1]."""
    xs = np.linspace(1.0 / n, 1.0, n)
    return float(np.trapezoid(np.abs(ccdf_a(xs) - ccdf_b(xs)), xs))


def stieltjes_payment(mech, v: float, panels_per_interval: int = 400_000) -> float:
    """Riemann-Stieltjes integral of x dq(x) over [0, v] using only q values."""
    total = 0.0
    for u, w in mech.intervals:
        hi = min(w, v)
        if hi <= u:
            continue
        xs = np.linspace(u, hi, panels_per_interval + 1)
        q = mech.allocation(xs)
        mids = 0.5 * (xs[1:] + xs[:-1])
        total += float(np.dot(mids, np.diff(q)))
    return total


def allocation_integral(mech, v: float, n: int = 400_001) -> float:
    """Quadrature of the allocation over [0, v] (equals the buyer surplus)."""
    xs = np.linspace(0.0, v, n)
    return float(np.trapezoid(mech.allocation(xs), xs))


def random_empirical(rng: np.random.Generator, max_atoms: int = 10) -> Empirical:
    n = int(rng.integers(1, max_atoms + 1))
    values = np.sort(rng.random(n))
    masses = rng.random(n) + 0.05
    masses = masses / masses.sum()
    return Empirical(tuple(zip(values.tolist(), masses.tolist())))


def atom_ccdf(p: Empirical, x: float) -> float:
    """P(v > x) summed atom by atom."""
    return math.fsum(m for v, m in p.atoms if v > x)


def midpoint_ccdf_integral(p: Empirical, a: float, b: float) -> float:
    """Integral of the CCDF over [a, b]: exact midpoint sum between atoms."""
    pts = [a] + [v for v, _ in p.atoms if a < v < b] + [b]
    return math.fsum(
        (hi - lo) * atom_ccdf(p, 0.5 * (lo + hi)) for lo, hi in zip(pts[:-1], pts[1:])
    )


def atom_rho_pp(p: Empirical, price: float, k: float) -> float:
    """E[min{price, k (v - price)^+}] summed atom by atom."""
    return math.fsum(m * min(k * max(v - price, 0.0), price) for v, m in p.atoms)


def atom_best_posted(p: Empirical, k: float) -> float:
    """Largest fragility-adjusted posted revenue over every candidate price
    (the atoms and k/(k+1) times the atoms)."""
    cands = {v for v, _ in p.atoms} | {k / (k + 1.0) * v for v, _ in p.atoms}
    return max(atom_rho_pp(p, c, k) for c in cands if 0.0 < c <= 1.0)


def mask_crossing_cells(g: np.ndarray, pi: float) -> list[tuple[int, bool]]:
    """Cells [j, j + 1] of a revenue grid g where g >= pi changes truth value,
    read off a mask over the whole grid, each with whether g rises through
    pi there."""
    mask = g >= pi
    return [(int(j), not mask[j]) for j in np.flatnonzero(mask[1:] != mask[:-1])]


def loop_empirical_regions(p: Empirical, pi: float, band: float = 1e-12):
    """Cut intervals and tie points of an empirical reference, one step at a
    time: the step of height L enters at max(left end, pi/L); it extends the
    previous interval through a shared atom only when pi/L is more than
    ``band`` below that atom, and records the atom as a tie otherwise."""
    remaining = 1.0
    segments = []
    prev = 0.0
    for v, m in p.atoms:
        if v > prev:
            segments.append((prev, v, remaining))
        remaining -= m
        prev = v
    intervals: list[tuple[float, float]] = []
    ties: list[float] = []
    for a, b, level in segments:
        if level <= 0.0:
            continue
        crossing = pi / level
        if crossing >= b:
            continue
        lo = max(a, crossing)
        if intervals and lo <= a + band:
            prev_u, prev_w = intervals[-1]
            if abs(prev_w - a) <= band:
                if crossing < a - band:
                    intervals[-1] = (prev_u, b)
                    continue
                ties.append(a)
        intervals.append((lo, b))
    return intervals, ties


def loop_empirical_atoms(atoms) -> tuple:
    """Sorted, merged and renormalized atoms, built one atom at a time with a
    dict of running sums (values clipped into [0, 1], masses of equal values
    added in input order, the total taken over the merged masses in order of
    first appearance); raises DomainError on the first bad atom."""
    merged: dict[float, float] = {}
    for v, m in atoms:
        v = float(v)
        m = float(m)
        if not -1e-12 <= v <= 1.0 + 1e-12:
            raise DomainError(f"atom value {v} outside [0, 1]")
        if not m > 0.0:
            raise DomainError(f"atom mass must be positive, got {m}")
        v = min(max(v, 0.0), 1.0)
        merged[v] = merged.get(v, 0.0) + m
    total = sum(merged.values())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"atom masses sum to {total}, expected 1")
    return tuple((v, merged[v] / total) for v in sorted(merged))


def skewness_se(n: int) -> float:
    """Approximate standard error of a sample skewness estimate."""
    return np.sqrt(6.0 / n)


def mp_beta_quantile(a: float, b: float, u: float) -> mpmath.mpf:
    """The Beta(a, b) quantile of the float u in 50-digit arithmetic.

    Solves I(a, b, x) = u for u <= 1/2 and I(b, a, y) = 1 - u in y = 1 - x
    otherwise (1 - u is exact there), by Newton steps on log I against
    log x, which are exact on the power-law tails.  Starts from scipy's
    ``betaincinv`` (or from the tail's power law when that returns 0) and
    stops once a step is below 1e-25 relative, which leaves an error near
    the square of that.
    """
    if u in (0.0, 1.0):
        return mpmath.mpf(u)
    p, q, w = (a, b, u) if u <= 0.5 else (b, a, 1.0 - u)
    with mpmath.workdps(50):
        p, q, w = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(w)
        beta = mpmath.beta(p, q)
        start = float(betaincinv(float(p), float(q), float(w)))
        z = mpmath.mpf(start) if 0.0 < start < 1.0 else (w * p * beta) ** (1 / p)
        for _ in range(100):
            big_i = mpmath.betainc(p, q, 0, z, regularized=True)
            step = (mpmath.log(big_i) - mpmath.log(w)) * big_i * beta / (z**p * (1 - z) ** (q - 1))
            z *= mpmath.exp(-step)
            if abs(step) < mpmath.mpf("1e-25"):
                return z if u <= 0.5 else 1 - z
    raise RuntimeError(f"no 50-digit quantile of Beta({a}, {b}) at u = {u!r}")


def mp_ccdf(dist, x) -> mpmath.mpf:
    """The CCDF of a closed-form family at x, in the working mpmath precision.

    Beta's upper tail is I(beta, alpha, 1 - x), with 1 - x exact in mpmath,
    so no digits cancel near x = 1.
    """
    x = mpmath.mpf(x)
    if isinstance(dist, Uniform):
        return 1 - x
    if isinstance(dist, Power):
        return 1 - x ** mpmath.mpf(dist.alpha)
    if isinstance(dist, TruncatedExponential):
        lam = mpmath.mpf(dist.rate)
        return (mpmath.exp(-lam * x) - mpmath.exp(-lam)) / -mpmath.expm1(-lam)
    if isinstance(dist, Beta):
        return mpmath.betainc(dist.beta, dist.alpha, 0, 1 - x, regularized=True)
    if isinstance(dist, Mixture):
        return mpmath.fsum(mpmath.mpf(w) * mp_ccdf(c, x) for w, c in zip(dist.weights, dist.components))
    raise TypeError(f"no 50-digit CCDF for {dist!r}")


def mp_cdf(dist, x) -> mpmath.mpf:
    """The CDF of a closed-form family at x, in the working mpmath precision,
    written from the lower tail so that no digits cancel near x = 0."""
    x = mpmath.mpf(x)
    if isinstance(dist, Uniform):
        return x
    if isinstance(dist, Power):
        return x ** mpmath.mpf(dist.alpha)
    if isinstance(dist, TruncatedExponential):
        lam = mpmath.mpf(dist.rate)
        return mpmath.expm1(-lam * x) / mpmath.expm1(-lam)
    if isinstance(dist, Beta):
        return mpmath.betainc(dist.alpha, dist.beta, 0, x, regularized=True)
    if isinstance(dist, Mixture):
        return mpmath.fsum(mpmath.mpf(w) * mp_cdf(c, x) for w, c in zip(dist.weights, dist.components))
    raise TypeError(f"no 50-digit CDF for {dist!r}")


class TruncatedPareto(ValuationDistribution):
    """Pareto-shaped CDF (8/7)(1 - (1+x)^-3) on [0, 1].

    Regular (increasing virtual valuation) but with a non-monotone hazard
    rate; exercises the generic CCDF fallbacks of the base class.
    """

    def _ccdf(self, xs):
        return 1.0 - (8.0 / 7.0) * (1.0 - (1.0 + xs) ** -3.0)

    def __eq__(self, other):
        return isinstance(other, TruncatedPareto)

    def __hash__(self):
        return hash("truncated_pareto_8_7_3")

    def to_json(self):
        return {"kind": "truncated_pareto"}
