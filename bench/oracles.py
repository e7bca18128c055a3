"""Reference answers the benchmark checks library outputs against.

Closed forms for the uniform and two-point references, and independent
computations (scipy special functions and adaptive quadrature, never the
library's own cut, scan or integration code) for Beta truths and empirical
references.  Each ``check_*`` returns a list of problems; an empty list means
the output passed.

Tolerances are the Tier-1 suite's: 1e-8 absolute on closed-form identities,
on rho_at_solution - tau and on gap - r (criterion 03 and the solver tests),
1e-6 between the two-point closed form and the generic posted-price solver
(criterion 09), and four standard errors for Monte Carlo estimates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

TOL = 1e-8
TWO_POINT_TOL = 1e-6
MC_SIGMAS = 4.0
TWO_POINT = (0.3, 0.5, 0.7, 0.5)


def mismatch(label, got, want, tol):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return [f"{label}: got {got!r}, expected {want!r} within {tol:g}"]
    return []


# ---- uniform reference -------------------------------------------------------

def uniform_roots(pi: float) -> tuple[float, float]:
    """The two roots of x (1 - x) = pi; the lower one as pi / w, which keeps
    its precision when pi is tiny."""
    w = (1.0 + math.sqrt(1.0 - 4.0 * pi)) / 2.0
    return pi / w, w


def uniform_radius(pi: float) -> float:
    """Wasserstein gap of the uniform reference at level pi."""
    u, w = uniform_roots(pi)
    return (w - u) / 2.0 - pi * math.log(w / u)


def uniform_ccdf_integral(a: float, b: float) -> float:
    return (b - a) - 0.5 * (b * b - a * a)


def check_uniform_rs(tau, k_star, pi_star, intervals, rho):
    """RS on the uniform reference: one interval at the roots of x(1-x) = pi*,
    k* = 1/ln(w/u) and k* times the CCDF integral over it equal to tau."""
    if len(intervals) != 1:
        return [f"uniform RS: expected one interval, got {len(intervals)}"]
    u, w = uniform_roots(pi_star)
    (iu, iw), = intervals
    k = 1.0 / math.log(w / u)
    return (
        mismatch("uniform RS lower root", iu, u, TOL)
        + mismatch("uniform RS upper root", iw, w, TOL)
        + mismatch("uniform RS k*", k_star, k, TOL * max(1.0, k))
        + mismatch("uniform RS rho(k*)", k * uniform_ccdf_integral(u, w), tau, TOL)
        + mismatch("uniform RS rho_at_solution", rho, tau, TOL)
    )


def check_uniform_pp(tau, k_pp, p_pp):
    return mismatch("uniform PP k", k_pp, 2.0 * tau / (1.0 - 4.0 * tau), TOL) + mismatch(
        "uniform PP price", p_pp, 2.0 * tau, TOL
    )


def check_uniform_ro(r, pi_ro):
    return mismatch("uniform RO gap identity", uniform_radius(pi_ro), r, TOL)


def uniform_tau_equiv(r, pi_ro):
    u, w = uniform_roots(pi_ro)
    return pi_ro + r / math.log(w / u)


# ---- invariants on every instance -------------------------------------------

def check_rho(tau, rho):
    return mismatch("rho_at_solution vs tau", rho, tau, TOL)


def check_gap(r, gap):
    return mismatch("gap(pi_ro_star) vs r", gap, r, TOL)


def check_fragility_order(k_star, k_pp):
    if not k_star <= k_pp + TOL:
        return [f"k_star {k_star!r} exceeds posted-price fragility {k_pp!r}"]
    return []


def check_monte_carlo(estimate, standard_error, exact):
    if not abs(estimate - exact) <= MC_SIGMAS * standard_error:
        return [
            f"Monte Carlo {estimate!r} differs from exact {exact!r} by more than "
            f"{MC_SIGMAS:g} standard errors ({standard_error!r})"
        ]
    return []


# ---- mechanisms, Beta truths and empirical references ----------------------

def menu_payment(intervals, slope, v):
    """Payment of the randomized log menu, from its definition: slope times the
    length of the menu intervals lying below v."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for u, w in intervals:
        out += np.clip(v, u, w) - u
    return slope * out


def beta_ccdf(a, b, x):
    return 1.0 - special.betainc(a, b, x)


def beta_menu_revenue(intervals, slope, a, b):
    """E[m(V)] for V ~ Beta(a, b), by adaptive quadrature of m(v) times the density."""
    from scipy import integrate  # imported here to keep it out of the timed set-up

    knots = sorted({x for iv in intervals for x in iv if 0.0 < x < 1.0})
    pdf = lambda x: math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - special.betaln(a, b))
    f = lambda x: float(menu_payment(intervals, slope, x)) * pdf(x) if 0.0 < x < 1.0 else 0.0
    val, _ = integrate.quad(f, 0.0, 1.0, points=knots or None, limit=400, epsabs=1e-13, epsrel=1e-12)
    return val


def beta_posted_revenue(price, a, b):
    return 0.0 if price == 0.0 else price * float(beta_ccdf(a, b, price))


def empirical_menu_revenue(intervals, slope, values, masses):
    return float(np.dot(masses, menu_payment(intervals, slope, values)))


def w1_empirical_beta(values, masses, a, b):
    """Exact W1 between an empirical distribution and Beta(a, b).

    W1 is the integral of |F_e - F_b|.  Between atoms F_e is a constant c, and
    |c - F_b| changes sign once, at the Beta quantile of c; both pieces
    integrate in closed form through G(x) = int_0^x F_b = x F_b(x) - mean I_x(a+1, b).
    """
    values = np.asarray(values, dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(masses)))[:-1]
    lefts = np.concatenate(([0.0], values))
    rights = np.concatenate((values, [1.0]))
    levels = np.concatenate((cum, [1.0]))
    mean = a / (a + b)

    def G(x):
        return x * special.betainc(a, b, x) - mean * special.betainc(a + 1.0, b, x)

    cross = np.clip(special.betaincinv(a, b, np.clip(levels, 0.0, 1.0)), lefts, rights)
    below = levels * (cross - lefts) - (G(cross) - G(lefts))
    above = (G(rights) - G(cross)) - levels * (rights - cross)
    return float(np.sum(below + above))
