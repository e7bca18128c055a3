"""Scalar root finding, maximization and quadrature used by the solvers.

All solver equations in this package are monotone scalar equations whose
derivatives are kinked at interval-count transitions, so roots are kept in
a bracket, never found by derivative steps: ``bisect_root`` takes ITP steps
with a bisection fallback and stops at an exact zero, at xtol, or when the
bracket collapses to adjacent floats (``rs_solver.level_search`` and
``refine_crossing`` pass xtol = 0).  The tolerances below are plain defaults
of the function arguments; nothing here reads module state at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BracketError

ROOT_XTOL = 1e-12
QUAD_TOL = 1e-10
QUAD_MAX_DEPTH = 60


@dataclass(frozen=True)
class RootResult:
    root: float
    iterations: int
    residual: float
    converged: bool


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = ROOT_XTOL,
    max_iter: int = 200,
    flo: float | None = None,
    fhi: float | None = None,
) -> RootResult:
    """Find a root of ``f`` in [lo, hi] by ITP steps.

    ITP (Oliveira and Takahashi, ACM TOMS 2020) moves the regula falsi point
    toward the midpoint by kappa1 (b - a)**2, kappa1 = 0.2 / (b - a) on the
    first bracket with finite end values, then into a window around the
    midpoint budgeted (n0 = 1) from the float spacing at the ends or xtol:
    at most one step more than bisection reaches that width.  A step is the
    midpoint at an infinite end value, outside (a, b) and once the budget is
    spent.  It stops at an exact zero, at ``xtol`` or at adjacent floats.

    ``flo``/``fhi`` may be supplied to avoid evaluating at an endpoint (for
    instance when the function diverges there; ``math.inf`` is accepted).
    When finite they must be the true end values: ITP interpolates on them,
    while an infinite value forces midpoints until that end moves.
    """
    if not lo < hi:
        raise BracketError(f"invalid bracket [{lo}, {hi}]")
    fa = f(lo) if flo is None else flo
    fb = f(hi) if fhi is None else fhi
    if fa == 0.0:
        return RootResult(lo, 0, 0.0, True)
    if fb == 0.0:
        return RootResult(hi, 0, 0.0, True)
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={fa}, {fb}")
    a, b = lo, hi
    kappa1 = 0.0
    # 1e-323 is two least subnormals: half an ulp there would round to 0
    eps = 0.5 * max(xtol, math.ulp(max(abs(lo), abs(hi))), 1e-323)
    # eps * 2**(n_max - j), with n_max = ceil(log2((hi - lo) / (2 eps))) + n0
    budget = eps * 2.0 ** (math.ceil(math.log2((hi - lo) / (2.0 * eps))) + 1)
    mid = 0.5 * (a + b)
    fm = math.inf
    for it in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # bracket has collapsed to adjacent floats
            return RootResult(mid, it, fm if math.isfinite(fm) else 0.0, True)
        x = mid
        r, budget = budget - 0.5 * (b - a), 0.5 * budget
        if r > 0.0 and math.isfinite(fa) and math.isfinite(fb):
            kappa1 = kappa1 or 0.2 / (b - a)
            xf = a + (b - a) * fa / (fa - fb)
            sigma = math.copysign(1.0, mid - xf)
            delta = kappa1 * (b - a) ** 2
            xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
            x = xt if abs(xt - mid) <= r else mid - sigma * r
            x = x if a < x < b else mid
        fm = f(x)
        if fm == 0.0:
            return RootResult(x, it, fm, True)
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = x, fm
        else:
            b, fb = x, fm
        if b - a <= xtol:
            return RootResult(0.5 * (a + b), it, fm, True)
    return RootResult(mid, max_iter, fm, False)


def refine_crossing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    flo: float | None = None,
    fhi: float | None = None,
) -> float:
    """Refine a bracketed sign change down to float resolution.

    Polishes interval endpoints located by grid scans with ITP steps (bisection
    fallback) until the bracket collapses to adjacent floats (well below 1e-12);
    the iteration cap accommodates roots many orders below the bracket width.
    """
    res = bisect_root(f, lo, hi, xtol=0.0, max_iter=1200, flo=flo, fhi=fhi)
    return res.root


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    iterations: int = 200,
) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on [lo, hi]; returns (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if b - a <= 1e-14:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return _adaptive(f, a, m, fa, flm, fm, left, half, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    tol: float = QUAD_TOL,
    max_depth: int = QUAD_MAX_DEPTH,
    split_points: Sequence[float] = (),
) -> float:
    """Adaptive Simpson quadrature of ``f`` on [a, b].

    Known kink locations should be passed as ``split_points``; the integrand
    is assumed smooth between consecutive splits.
    """
    if b <= a:
        return 0.0
    pts = [a] + sorted(p for p in split_points if a < p < b) + [b]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo <= 0.0:
            continue
        m = 0.5 * (lo + hi)
        flo, fm, fhi = f(lo), f(m), f(hi)
        whole = _simpson(flo, fm, fhi, hi - lo)
        total += _adaptive(f, lo, hi, flo, fm, fhi, whole, tol, max_depth)
    return total

