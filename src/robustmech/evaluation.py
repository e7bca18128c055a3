"""Out-of-sample and comparative analytics.

Expected revenue of any mechanism under any true valuation distribution,
posted-price-to-optimal performance ratios for both robust frameworks,
crossing-threshold detection between mechanisms, the iso-revenue sensitivity
diagnostic, and Beta-grid sweeps comparing the frameworks out of sample.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    Beta,
    Empirical,
    Uniform,
    ValuationDistribution,
    _revenue_slope,
    max_posted_revenue,
    revenue,
    wasserstein_distance,
)
from .errors import DomainError, InfeasibleTargetError, check_count
from .isorevenue import cut
from .mechanisms import Mechanism, PostedPrice
from .numerics import bisect_root
from .pp_solver import solve_pp
from .records import Record
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
class EvalReport(Record):
    """Expected revenue of one mechanism under one true distribution.

    The true distribution is kept as the object itself and rendered to JSON
    only on demand, so a report costs the same for a 10^5-atom sample as for
    a Beta truth.
    """

    mechanism_id: str
    truth: ValuationDistribution = field(metadata={"json_key": "true_dist"})
    expected_revenue: float
    method: str
    mc_n: int | None = None
    seed: int | None = None
    standard_error: float | None = None


def _exact_expected_revenue(mech: Mechanism, p: ValuationDistribution) -> float:
    if isinstance(mech, PostedPrice):
        return revenue(p, mech.price)
    if isinstance(p, Empirical):
        return math.fsum(p._masses * mech.payment(p._values))
    # the payment is continuous piecewise linear with slope k on the menu
    # intervals, so E[m] collapses to CCDF partial integrals of the truth
    return mech.slope * math.fsum(
        p.ccdf_integral(u, w) for u, w in mech.intervals
    )


def expected_revenue(
    mech: Mechanism,
    p: ValuationDistribution,
    method: str = "quadrature",
    *,
    mc_n: int = DEFAULT_MC_N,
    seed: int = DEFAULT_SEED,
) -> EvalReport:
    """E_P[m(v)]: exact piecewise integration or seeded inverse-CDF sampling.

    ``monte_carlo`` averages the payment over ``p.sample(mc_n, rng)`` with
    ``rng = default_rng(seed)``: draws Q(U) from the closed-form quantile of
    each family; a Beta law (alone or in a mixture) reads its draws off a
    cached table of certified quintic polynomials, and inverts its CDF by
    Halley steps only for the few (about 2 per million) outside it.  The
    standard error is ``np.std``'s, taken in place in the payments.
    """
    if method == "quadrature":
        value = _exact_expected_revenue(mech, p)
        return EvalReport(mech.describe(), p, value, "quadrature")
    if method == "monte_carlo":
        check_count(mc_n, 1, "Monte Carlo sample size")
        rng = np.random.default_rng(seed)
        draws = p.sample(mc_n, rng)
        pays = mech.payment(draws)
        value = float(np.mean(pays))
        # np.std's operations, in place in the payments: no full-size temporary
        pays -= value
        np.multiply(pays, pays, out=pays)
        se = math.sqrt(float(np.add.reduce(pays)) / mc_n) / math.sqrt(mc_n)
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
class CrossingThresholds(Record):
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
            out.append(bisect_root(lambda v: fa(v) - fb(v), lo, hi, flo=flo, fhi=fhi).root)
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
class ThetaDiagnostic(Record):
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


def theta_condition(dist: ValuationDistribution, c: float) -> ThetaDiagnostic:
    """Evaluate the sensitivity condition R'(u) <= theta * |R'(w)| at level c.

    Requires a reference whose iso-revenue cut at c is a single interval with
    distinct prices u < w; tangency is rejected as degenerate.  R' is the
    revenue curve's slope ccdf - x pdf, so an empirical reference is rejected.
    """
    if isinstance(dist, Empirical):
        raise DomainError("sensitivity check needs a reference with a density")
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

    kappa = w / u
    theta = theta_sensitivity(kappa)
    lhs = _revenue_slope(dist, u)
    rhs = theta * (-_revenue_slope(dist, w))
    return ThetaDiagnostic(c, u, w, kappa, theta, lhs, rhs, lhs <= rhs + 1e-9)


@dataclass(frozen=True)
class SweepConfig(Record):
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
        check_count(self.mc_n, 0, "Monte Carlo sample size")


@dataclass(frozen=True)
class SweepCell(Record):
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
                mechs = (rs_mech, ro_mech, pp_mech)
                if config.mc_n > 0:
                    # the cell's own stream keeps results order-independent;
                    # one draw set shared by the three mechanisms pairs the
                    # comparison
                    rng = np.random.default_rng([config.seed, cell_index])
                    draws = truth.sample(config.mc_n, rng)
                    rev_rs, rev_ro, rev_pp = (float(np.mean(m.payment(draws))) for m in mechs)
                else:
                    rev_rs, rev_ro, rev_pp = (_exact_expected_revenue(m, truth) for m in mechs)
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
