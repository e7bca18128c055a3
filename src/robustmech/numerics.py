"""Scalar root finding and quadrature used by the solvers.

Every solver equation here is monotone, and its root is kept in a bracket
down to adjacent floats.  ``bisect_root`` takes ITP steps; given f', it
takes Newton steps while f looks linear around them (cuts gain and lose
intervals, so the derivatives have kinks) and ITP steps otherwise.  The
iteration cap and the quadrature's tolerance and depth are the constants
below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BracketError

QUAD_TOL = 1e-10
QUAD_MAX_DEPTH = 60
#: ``bisect_root``'s cap, which allows for roots many orders below the bracket width
_MAX_ITER = 1200


@dataclass(frozen=True)
class RootResult:
    root: float
    iterations: int
    residual: float
    converged: bool
    #: f' at the last point evaluated (at an exact root at lo, the first slope)
    slope: float = math.nan


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 0.0,
    flo: float | None = None,
    fhi: float | None = None,
    df: Callable[[float], float] | None = None,
    dflo: float | None = None,
) -> RootResult:
    """Find a root of ``f`` in [lo, hi] by ITP steps, or by safeguarded Newton
    steps when ``df`` = f' is given.

    ITP (Oliveira and Takahashi, ACM TOMS 2020) moves the regula falsi point
    toward the midpoint by kappa1 (b - a)**2, kappa1 = 0.2 / (b - a) on the
    first bracket with finite end values, then into a window around the
    midpoint budgeted (n0 = 1) from the float spacing at the ends or xtol:
    at most one step more than bisection reaches that width.  A step is the
    midpoint at an infinite end value, outside (a, b) and once the budget is
    spent.  It stops at an exact zero, at ``xtol`` (0 by default) or at
    adjacent floats, or unconverged after ``_MAX_ITER`` steps.

    With ``df``, each point is the Newton step from the last one (an end of
    the bracket; the first from ``lo``, with slope ``dflo`` or else the
    chord's: the regula falsi point) when that step stays inside the bracket
    and, with both end values finite, the chord to the other end has 2/3 to
    3/2 of its slope (this also stops the crawl down power-law tails), or,
    with an end value infinite, |f| has at least halved since the point
    before (else twice the step, to land past the root).  Otherwise it takes
    a restarted ITP step.  A step under half an ulp lands on the next float,
    so the search ends on a sign change across adjacent floats.  ``df(x)``
    is called only right after ``f(x)``, so the two may share work.

    ``flo``/``fhi`` may be supplied to avoid evaluating at an endpoint (for
    instance when the function diverges there; ``math.inf`` is accepted).
    When finite they must be the true end values: ITP interpolates on them,
    while an infinite value forces midpoints until that end moves.
    """
    if not lo < hi:
        raise BracketError(f"invalid bracket [{lo}, {hi}]")
    fa = f(lo) if flo is None else flo
    dfa = math.nan if df is None else df(lo) if flo is None else dflo
    fb = f(hi) if fhi is None else fhi
    if dfa is None:
        dfa = (fb - fa) / (hi - lo)
    if fa == 0.0:
        return RootResult(lo, 0, 0.0, True, dfa)
    if fb == 0.0:
        return RootResult(hi, 0, 0.0, True)
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={fa}, {fb}")
    a, b = lo, hi
    kappa1 = 0.0
    # 1e-323 is two least subnormals: half an ulp there would round to 0
    eps = 0.5 * max(xtol, math.ulp(max(abs(lo), abs(hi))), 1e-323)
    # eps * 2**(n_max - j), with n_max = ceil(log2((b - a) / (2 eps))) + n0
    budget = eps * 2.0 ** (math.ceil(math.log2((hi - lo) / (2.0 * eps))) + 1)
    mid = 0.5 * (a + b)
    x, fx, dfx, fprev, newton = lo, fa, dfa, math.inf, False
    for it in range(1, _MAX_ITER + 1):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # bracket has collapsed to adjacent floats
            return RootResult(mid, it, fx if it > 1 and math.isfinite(fx) else 0.0, True, dfx)
        finite = math.isfinite(fa) and math.isfinite(fb)
        xn = x - fx / dfx if math.isfinite(dfx) and dfx != 0.0 else math.nan
        if xn == x:
            # a step under half an ulp: the float next to x, toward the root
            xn = math.nextafter(x, b if x == a else a)
        if not a < xn < b:
            xn = math.nan
        elif finite:
            far, ffar = (b, fb) if x == a else (a, fa)
            if not 2.0 / 3.0 <= (ffar - fx) / ((far - x) * dfx) <= 1.5:
                xn = math.nan
        elif not abs(fx) <= 0.5 * fprev:
            xn = 2.0 * xn - x if a < 2.0 * xn - x < b else math.nan
        if newton and xn != xn:
            kappa1 = 0.0
            budget = eps * 2.0 ** (math.ceil(math.log2((b - a) / (2.0 * eps))) + 1)
        newton = xn == xn
        r, budget = budget - 0.5 * (b - a), 0.5 * budget
        x = xn
        if not newton:
            x = mid
            if r > 0.0 and finite:
                kappa1 = kappa1 or 0.2 / (b - a)
                xf = a + (b - a) * fa / (fa - fb)
                sigma = math.copysign(1.0, mid - xf)
                delta = kappa1 * (b - a) ** 2
                xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
                x = xt if abs(xt - mid) <= r else mid - sigma * r
                x = x if a < x < b else mid
        fprev = abs(fx)
        fx = f(x)
        dfx = math.nan if df is None else df(x)
        if fx == 0.0:
            return RootResult(x, it, fx, True, dfx)
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b, fb = x, fx
        if b - a <= xtol:
            return RootResult(0.5 * (a + b), it, fx, True, dfx)
    return RootResult(mid, _MAX_ITER, fx, False, dfx)


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
    split_points: Sequence[float] = (),
) -> float:
    """Adaptive Simpson quadrature of ``f`` on [a, b], to ``QUAD_TOL`` within
    ``QUAD_MAX_DEPTH`` halvings.

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
        total += _adaptive(f, lo, hi, flo, fm, fhi, whole, QUAD_TOL, QUAD_MAX_DEPTH)
    return total

