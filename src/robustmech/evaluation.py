"""Out-of-sample and comparative analytics.

Expected revenue of any mechanism under any true valuation distribution,
posted-price-to-optimal performance ratios for both robust frameworks,
crossing-threshold detection between mechanisms, the iso-revenue sensitivity
diagnostic, and Beta-grid sweeps comparing the frameworks out of sample.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    Beta,
    Empirical,
    Uniform,
    ValuationDistribution,
    max_posted_revenue,
    wasserstein_distance,
)
from .errors import DomainError, InfeasibleTargetError
from .isorevenue import cut
from .mechanisms import Mechanism, PostedPrice
from .numerics import refine_crossing
from .pp_solver import solve_pp
from .ro_solver import build_ro_mechanism, radius_for_target, ro_pp_price
from .rs_solver import solve

logger = logging.getLogger(__name__)

__all__ = [
    "EvalReport",
    "expected_revenue",
    "revenue_ratio",
    "eta_rs",
    "eta_ro",
    "CrossingThresholds",
    "crossing_thresholds",
    "ThetaDiagnostic",
    "theta_condition",
    "theta_sensitivity",
    "SweepConfig",
    "SweepCell",
    "beta_sweep",
    "sweep_csv",
]

DEFAULT_MC_N = 1_000_000
DEFAULT_SEED = 42
#: revenue differences below this are reported as ties in sweeps
PREFERENCE_DEAD_BAND = 1e-10


@dataclass(frozen=True)
class EvalReport:
    """Expected revenue of one mechanism under one true distribution.

    The true distribution is kept as the object itself and rendered to JSON
    only on demand, so a report costs the same for a 10^5-atom sample as for
    a Beta truth.
    """

    mechanism_id: str
    truth: ValuationDistribution
    expected_revenue: float
    method: str
    mc_n: int | None = None
    seed: int | None = None
    standard_error: float | None = None

    @property
    def true_dist(self) -> dict:
        return self.truth.to_json()

    def to_json(self) -> dict:
        return {
            "mechanism_id": self.mechanism_id,
            "true_dist": self.true_dist,
            "expected_revenue": self.expected_revenue,
            "method": self.method,
            "mc_n": self.mc_n,
            "seed": self.seed,
            "standard_error": self.standard_error,
        }


def _exact_expected_revenue(mech: Mechanism, p: ValuationDistribution) -> float:
    if isinstance(mech, PostedPrice):
        if mech.price == 0.0:
            return 0.0
        return mech.price * p.ccdf_left(mech.price)
    if isinstance(p, Empirical):
        return math.fsum(p._masses * mech.payment(p._values))
    # the payment is continuous piecewise linear with slope k on the menu
    # intervals, so E[m] collapses to CCDF partial integrals of the truth
    return mech.slope * math.fsum(
        p.ccdf_integral(u, w) for u, w in mech.intervals
    )


def _check_mc_n(mc_n, least: int) -> None:
    if not isinstance(mc_n, numbers.Integral) or mc_n < least:
        raise DomainError(
            f"Monte Carlo sample size must be an integer >= {least}, got {mc_n!r}"
        )


def expected_revenue(
    mech: Mechanism,
    p: ValuationDistribution,
    method: str = "quadrature",
    *,
    mc_n: int = DEFAULT_MC_N,
    seed: int = DEFAULT_SEED,
) -> EvalReport:
    """E_P[m(v)]: exact piecewise integration or seeded inverse-CDF sampling."""
    if method == "quadrature":
        value = _exact_expected_revenue(mech, p)
        return EvalReport(mech.describe(), p, value, "quadrature")
    if method == "monte_carlo":
        _check_mc_n(mc_n, 1)
        rng = np.random.default_rng(seed)
        draws = p.sample(mc_n, rng)
        pays = mech.payment(draws)
        value = float(np.mean(pays))
        se = float(np.std(pays) / math.sqrt(mc_n))
        return EvalReport(
            mech.describe(), p, value, "monte_carlo", mc_n, seed, se
        )
    raise DomainError(f"unknown evaluation method {method!r}")


def revenue_ratio(pp_revenue: float, opt_revenue: float) -> float:
    """Posted-price to optimal-mechanism revenue ratio; inf, with a logged
    warning, when the optimal-mechanism revenue is below 1e-12."""
    if opt_revenue < 1e-12:
        logger.warning(
            "optimal-mechanism revenue %.3e below tolerance; ratio reported as inf",
            opt_revenue,
        )
        return math.inf
    return pp_revenue / opt_revenue


def eta_rs(
    dist_ref: ValuationDistribution, tau: float, true_dist: ValuationDistribution
) -> float:
    """Posted-price to optimal-mechanism revenue ratio, satisficing framework.

    Both mechanisms are solved on the reference at target tau and evaluated
    under the true distribution.
    """
    opt = solve(dist_ref, tau).mechanism
    pp = solve_pp(dist_ref, tau).mechanism
    return revenue_ratio(
        _exact_expected_revenue(pp, true_dist), _exact_expected_revenue(opt, true_dist)
    )


def eta_ro(
    dist_ref: ValuationDistribution, r: float, true_dist: ValuationDistribution
) -> float:
    """Posted-price to optimal-mechanism revenue ratio, worst-case framework.

    Available only for the uniform reference, where the worst-case-optimal
    posted price has a closed form.
    """
    price = ro_pp_price(dist_ref, r)
    opt = build_ro_mechanism(dist_ref, r)
    return revenue_ratio(
        _exact_expected_revenue(PostedPrice(price), true_dist),
        _exact_expected_revenue(opt, true_dist),
    )


@dataclass(frozen=True)
class CrossingThresholds:
    """Largest valuations below which mechanism A weakly dominates B.

    ``None`` means the corresponding difference never changes sign.  Change
    counts above one indicate a multi-crossing profile.
    """

    v_q: float | None
    v_m: float | None
    v_s: float | None
    q_changes: int
    m_changes: int
    s_changes: int

    def to_json(self) -> dict:
        return {
            "v_q": self.v_q,
            "v_m": self.v_m,
            "v_s": self.v_s,
            "q_changes": self.q_changes,
            "m_changes": self.m_changes,
            "s_changes": self.s_changes,
        }


def _sign_profile(diff: np.ndarray, band: float = 1e-13):
    signs = np.zeros(diff.shape, dtype=int)
    signs[diff > band] = 1
    signs[diff < -band] = -1
    return signs


def _threshold_of(grid, fa, fb):
    """Threshold bracket and sign-change count for diff = fa - fb sampled on
    grid; the bracket is (lo, hi, diff at lo, diff at hi)."""
    diff = fa - fb
    signs = _sign_profile(diff)
    nz = np.flatnonzero(signs)
    if nz.size == 0:
        return None, 0
    changes = 0
    threshold = None
    prev_idx = nz[0]
    for idx in nz[1:]:
        if signs[idx] != signs[prev_idx]:
            changes += 1
            if signs[prev_idx] > 0 and signs[idx] < 0:
                threshold = (float(grid[prev_idx]), float(grid[idx]),
                             float(diff[prev_idx]), float(diff[idx]))
        prev_idx = idx
    return threshold, changes


def crossing_thresholds(
    mech_a: Mechanism, mech_b: Mechanism, *, grid_points: int = 10_001
) -> CrossingThresholds:
    """Locate where allocation, payment and surplus differences change sign.

    A threshold is the refined location of the last positive-to-negative sign
    change of (A minus B) on a dense grid; differences within 1e-13 count as
    zero so shared plateaus do not register as crossings.
    """
    grid = np.linspace(0.0, 1.0, grid_points)
    out: list[float | None] = []
    counts: list[int] = []
    for name in ("allocation", "payment", "buyer_surplus"):
        fa, fb = getattr(mech_a, name), getattr(mech_b, name)
        bracket, changes = _threshold_of(grid, fa(grid), fb(grid))
        if bracket is None:
            out.append(None)
        else:
            # both ends lie outside the zero band, with opposite signs
            lo, hi, flo, fhi = bracket
            out.append(refine_crossing(lambda v: fa(v) - fb(v), lo, hi, flo=flo, fhi=fhi))
        counts.append(changes)
    return CrossingThresholds(out[0], out[1], out[2], counts[0], counts[1], counts[2])


def theta_sensitivity(kappa: float) -> float:
    """Sensitivity weight (kappa - ln kappa - 1) / (1/kappa + ln kappa - 1).

    Tends to 1 as kappa -> 1+ and grows without bound as kappa -> inf.
    """
    if not kappa > 1.0:
        raise DomainError(f"price ratio must exceed 1, got {kappa}")
    lk = math.log(kappa)
    return (kappa - lk - 1.0) / (1.0 / kappa + lk - 1.0)


@dataclass(frozen=True)
class ThetaDiagnostic:
    """Iso-revenue sensitivity check at revenue level c.

    Compares the revenue slope at the lower iso-revenue price against the
    weighted magnitude of the (negative) slope at the upper price; ``holds``
    is the sufficient condition for the surplus-dominance single crossing.
    """

    c: float
    u: float
    w: float
    kappa: float
    theta: float
    lhs: float
    rhs: float
    holds: bool

    def to_json(self) -> dict:
        return {
            "c": self.c,
            "u": self.u,
            "w": self.w,
            "kappa": self.kappa,
            "theta": self.theta,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


def theta_condition(dist: ValuationDistribution, c: float) -> ThetaDiagnostic:
    """Evaluate the sensitivity condition R'(u) <= theta * |R'(w)| at level c.

    Requires a reference whose iso-revenue cut at c is a single interval with
    distinct prices u < w; tangency is rejected as degenerate.  Derivatives
    use central finite differences with step 1e-6.
    """
    pi0, _ = max_posted_revenue(dist)
    if not 0.0 < c < pi0:
        raise DomainError(f"revenue level {c!r} outside (0, {pi0!r})")
    cc = cut(dist, c)
    if cc.count != 1:
        raise DomainError(
            f"sensitivity check needs exactly two iso-revenue prices, "
            f"got {cc.count} interval(s) at level {c!r}"
        )
    u, w = cc.intervals[0]
    if w - u < 1e-9:
        raise DomainError("degenerate cut: the two iso-revenue prices coincide")

    def rev(x: float) -> float:
        return x * float(dist.ccdf(x))

    def slope(x: float) -> float:
        h = min(1e-6, x / 2.0, (1.0 - x) / 2.0)
        if h <= 0.0:
            h = 1e-6
            return (rev(x) - rev(x - h)) / h
        return (rev(x + h) - rev(x - h)) / (2.0 * h)

    kappa = w / u
    theta = theta_sensitivity(kappa)
    lhs = slope(u)
    rhs = theta * (-slope(w))
    return ThetaDiagnostic(c, u, w, kappa, theta, lhs, rhs, lhs <= rhs + 1e-9)


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for the Beta out-of-sample sweep.

    ``mc_n`` = 0 evaluates cells exactly; a positive value switches the cell
    revenues to Monte Carlo estimates on a per-cell PRNG stream derived from
    (seed, cell index), so results do not depend on evaluation order.
    """

    alphas: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    betas: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    tau_fracs: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    reference: ValuationDistribution = field(default_factory=Uniform)
    seed: int = DEFAULT_SEED
    mc_n: int = 0

    def __post_init__(self):
        _check_mc_n(self.mc_n, 0)

    def to_json(self) -> dict:
        return {
            "alphas": list(self.alphas),
            "betas": list(self.betas),
            "tau_fracs": list(self.tau_fracs),
            "reference": self.reference.to_json(),
            "seed": self.seed,
            "mc_n": self.mc_n,
        }


@dataclass(frozen=True)
class SweepCell:
    alpha: float
    beta: float
    tau_over_pi0: float
    rev_rs: float | None
    rev_ro: float | None
    rev_pp: float | None
    preferred: str
    in_ambiguity_set: bool
    wasserstein_to_ref: float
    skipped: bool = False

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "tau_over_pi0": self.tau_over_pi0,
            "rev_rs": self.rev_rs,
            "rev_ro": self.rev_ro,
            "rev_pp": self.rev_pp,
            "preferred": self.preferred,
            "in_ambiguity_set": self.in_ambiguity_set,
            "wasserstein_to_ref": self.wasserstein_to_ref,
            "skipped": self.skipped,
        }


def _classify(rev_rs: float, rev_ro: float, rev_pp: float) -> str:
    revs = {"RS": rev_rs, "RO": rev_ro, "PP": rev_pp}
    ordered = sorted(revs.items(), key=lambda kv: kv[1], reverse=True)
    if ordered[0][1] - ordered[1][1] <= PREFERENCE_DEAD_BAND:
        return "tie"
    return ordered[0][0]


def beta_sweep(config: SweepConfig = SweepConfig()) -> list[SweepCell]:
    """Compare out-of-sample revenues of the three mechanisms on a Beta grid.

    For each normalized target the satisficing, worst-case and posted-price
    problems are solved once on the reference (the solves do not depend on the
    true distribution) and evaluated exactly under every Beta(alpha, beta)
    cell.  Infeasible targets mark their cells skipped instead of aborting.
    """
    ref = config.reference
    pi0, _ = max_posted_revenue(ref)
    per_frac: dict[float, tuple | None] = {}
    for frac in config.tau_fracs:
        tau = frac * pi0
        try:
            rs_mech = solve(ref, tau).mechanism
            pp_mech = solve_pp(ref, tau).mechanism
            r = radius_for_target(ref, tau)
            ro_mech = build_ro_mechanism(ref, r)
            per_frac[frac] = (rs_mech, pp_mech, ro_mech, r)
        except InfeasibleTargetError:
            per_frac[frac] = None
    cells: list[SweepCell] = []
    cell_index = 0
    for alpha in config.alphas:
        for beta in config.betas:
            truth = Beta(alpha, beta)
            wd = wasserstein_distance(truth, ref)
            for frac in config.tau_fracs:
                cell_index += 1
                solved = per_frac[frac]
                if solved is None:
                    cells.append(
                        SweepCell(
                            alpha, beta, frac, None, None, None,
                            "skipped", False, wd, skipped=True,
                        )
                    )
                    continue
                rs_mech, pp_mech, ro_mech, r = solved
                if config.mc_n > 0:
                    # the cell's own stream keeps results order-independent;
                    # one draw set shared by the three mechanisms pairs the
                    # comparison
                    rng = np.random.default_rng([config.seed, cell_index])
                    draws = truth.sample(config.mc_n, rng)
                    rev_rs = float(np.mean(rs_mech.payment(draws)))
                    rev_ro = float(np.mean(ro_mech.payment(draws)))
                    rev_pp = float(np.mean(pp_mech.payment(draws)))
                else:
                    rev_rs = _exact_expected_revenue(rs_mech, truth)
                    rev_ro = _exact_expected_revenue(ro_mech, truth)
                    rev_pp = _exact_expected_revenue(pp_mech, truth)
                cells.append(
                    SweepCell(
                        alpha=alpha,
                        beta=beta,
                        tau_over_pi0=frac,
                        rev_rs=rev_rs,
                        rev_ro=rev_ro,
                        rev_pp=rev_pp,
                        preferred=_classify(rev_rs, rev_ro, rev_pp),
                        in_ambiguity_set=wd <= r,
                        wasserstein_to_ref=wd,
                    )
                )
    return cells


def sweep_csv(cells: list[SweepCell]) -> str:
    """Render sweep cells as CSV."""
    lines = [
        "alpha,beta,tau_over_pi0,rev_rs,rev_ro,rev_pp,"
        "preferred,in_ambiguity_set,wasserstein_to_ref"
    ]
    for c in cells:
        revs = [
            "" if v is None else repr(v) for v in (c.rev_rs, c.rev_ro, c.rev_pp)
        ]
        lines.append(
            f"{c.alpha!r},{c.beta!r},{c.tau_over_pi0!r},{revs[0]},{revs[1]},"
            f"{revs[2]},{c.preferred},{str(c.in_ambiguity_set).lower()},"
            f"{c.wasserstein_to_ref!r}"
        )
    return "\n".join(lines) + "\n"
