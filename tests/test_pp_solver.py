import math

import mpmath
import numpy as np
import pytest
from helpers import TruncatedPareto, mp_ccdf

from robustmech import (
    Beta,
    DomainError,
    Empirical,
    InfeasibleTargetError,
    Mixture,
    Power,
    TruncatedExponential,
    Uniform,
    ValuationDistribution,
    cut,
    max_posted_revenue,
    optimal_price_given_k,
    pp_solver,
    rho_pp,
    rs_solver,
    solve,
    solve_pp,
    solve_pp_two_point,
)

IRREGULAR = Mixture((Beta(10.0, 2.0), Beta(2.0, 10.0)), (0.9, 0.1))
BIMODAL = Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15))
#: the benchmark's jittered targets (seeds 401, 1 and 7) and the nominal ones,
#: as fractions of pi0
TARGET_FRACS = (
    0.0499976864092151, 0.4493491712913078, 0.9555992016333149,
    0.049634364244112404, 0.4523739715707895, 0.9499132666547467,
    0.049650849173924504, 0.4513584102573587, 0.9418762894466832,
    0.05, 0.45, 0.95,
)


class QuadraticCCDF(ValuationDistribution):
    """CCDF 1 - x^2 and nothing else: the base-class density and kernel."""

    def _ccdf(self, xs):
        return 1.0 - xs * xs


#: single-hump revenue curves without an increasing hazard rate
SINGLE_HUMP = {
    "beta.5_.5": Beta(0.5, 0.5),
    "beta.5_3": Beta(0.5, 3.0),
    "beta3_.5": Beta(3.0, 0.5),
    "irregular": IRREGULAR,
}
#: every single-hump revenue curve of this file
ONE_HUMP = {
    "uniform": Uniform(),
    "beta2_5": Beta(2.0, 5.0),
    "power3": Power(3.0),
    "texp1": TruncatedExponential(1.0),
    **SINGLE_HUMP,
    "quadratic": QuadraticCCDF(),
    "truncated_pareto": TruncatedPareto(),
}
#: every continuous reference of this file: the single humps and two humps
CONTINUOUS = {**ONE_HUMP, "bimodal": BIMODAL}


class TestRhoPP:
    def test_zero_price(self, uniform, two_point):
        assert rho_pp(uniform, 0.0, 1.0) == 0.0
        assert rho_pp(two_point, 0.0, 2.0) == 0.0

    def test_two_point_direct_sum(self, two_point):
        # 0.5*min(0.4, 2*(0.3-0.4)^+) + 0.5*min(0.4, 2*0.3)
        assert rho_pp(two_point, 0.4, 2.0) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("k", np.geomspace(0.05, 50.0, 50).tolist())
    def test_uniform_value_at_optimal_price(self, uniform, k):
        p = k / (2.0 * k + 1.0)
        assert rho_pp(uniform, p, k) == pytest.approx(k / (4.0 * k + 2.0), abs=1e-12)

    def test_continuous_matches_pointwise_expectation(self, beta25):
        # independent route: dense-grid expectation of min{p, k (v - p)^+}
        p, k = 0.23, 1.7
        n = 2_000_001
        vs = np.linspace(0.0, 1.0, n)
        integrand = np.minimum(p, k * np.clip(vs - p, 0.0, None))
        cdf = beta25.cdf(vs)
        oracle = float(np.trapezoid(integrand, cdf))
        assert rho_pp(beta25, p, k) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("fixture", ["uniform", "beta25", "two_point"])
    def test_concave_in_price(self, fixture, request):
        dist = request.getfixturevalue(fixture)
        grid = np.linspace(0.0, 1.0, 401)
        vals = np.asarray([rho_pp(dist, float(p), 1.3) for p in grid])
        assert np.min(np.diff(vals, 2)) <= 1e-8

    def test_validation(self, uniform):
        with pytest.raises(DomainError):
            rho_pp(uniform, 1.2, 1.0)
        with pytest.raises(DomainError):
            rho_pp(uniform, 0.5, 0.0)


class TestOptimalPrice:
    @pytest.mark.parametrize("k", [0.2, 0.5, 1.0, 2.0, 10.0])
    def test_uniform_closed_form(self, uniform, k):
        assert optimal_price_given_k(uniform, k) == pytest.approx(
            k / (2.0 * k + 1.0), abs=1e-8
        )

    @pytest.mark.parametrize("k", [0.3, 0.75, 1.33, 5.0])
    def test_two_point_closed_form(self, two_point, k):
        assert optimal_price_given_k(two_point, k) == pytest.approx(
            0.7 * k / (1.0 + k), abs=1e-12
        )

    @pytest.mark.parametrize(
        "fixture,n_grid",
        [("uniform", 100_001), ("two_point", 100_001), ("beta25", 20_001)],
    )
    def test_beats_price_grid(self, fixture, n_grid, request):
        dist = request.getfixturevalue(fixture)
        k = 1.1
        p_opt = optimal_price_given_k(dist, k)
        best = max(
            rho_pp(dist, i / (n_grid - 1), k) for i in range(n_grid)
        )
        assert rho_pp(dist, p_opt, k) >= best - 1e-6

    def test_irregular_mixture_beats_price_grid(self):
        k = 0.9
        p_opt = optimal_price_given_k(IRREGULAR, k)
        grid = np.linspace(0.0, 1.0, 20_001)
        best = max(rho_pp(IRREGULAR, float(p), k) for p in grid)
        assert rho_pp(IRREGULAR, p_opt, k) >= best - 1e-6

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan])
    def test_rejects_fragility_not_above_zero(self, uniform, two_point, k):
        for dist in (uniform, two_point):
            with pytest.raises(DomainError):
                optimal_price_given_k(dist, k)

    @pytest.mark.parametrize("fixture", ["uniform", "beta25", "exp1"])
    @pytest.mark.parametrize("k", [0.4, 1.0, 3.0])
    def test_first_order_condition(self, fixture, k, request):
        # iso-revenue characterization: both prices yield the same revenue
        dist = request.getfixturevalue(fixture)
        p = optimal_price_given_k(dist, k)
        b = (1.0 + 1.0 / k) * p
        assert b * dist.ccdf(b) == pytest.approx(p * dist.ccdf(p), abs=1e-8)


class TestSolvePP:
    @pytest.mark.parametrize("tau", np.linspace(0.005, 0.24, 50).tolist())
    def test_uniform_closed_form(self, uniform, tau):
        rep = solve_pp(uniform, tau)
        assert rep.k_pp == pytest.approx(2.0 * tau / (1.0 - 4.0 * tau), abs=1e-8)
        assert rep.p_pp == pytest.approx(2.0 * tau, abs=1e-8)

    def test_uniform_known_solutions(self, uniform):
        rep = solve_pp(uniform, 0.1)
        assert rep.k_pp == pytest.approx(1.0 / 3.0, abs=0.005)
        assert rep.p_pp == pytest.approx(0.2, abs=0.005)
        rep = solve_pp(uniform, 0.2)
        assert rep.k_pp == pytest.approx(2.0, abs=0.005)
        assert rep.p_pp == pytest.approx(0.4, abs=1e-6)

    def test_rho_at_solution_hits_target(self, uniform, two_point, beta25):
        for dist, tau in ((uniform, 0.22), (two_point, 0.12), (beta25, 0.07)):
            rep = solve_pp(dist, tau)
            assert rep.rho_at_solution == pytest.approx(tau, abs=1e-8)

    def test_infeasible(self, uniform, two_point):
        with pytest.raises(InfeasibleTargetError):
            solve_pp(uniform, 0.26)
        with pytest.raises(InfeasibleTargetError):
            solve_pp(two_point, 0.35)

    def test_rho_star_increasing_in_k(self, uniform, two_point):
        for dist in (uniform, two_point):
            ks = np.geomspace(0.05, 30.0, 20)
            vals = [
                rho_pp(dist, optimal_price_given_k(dist, float(k)), float(k))
                for k in ks
            ]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_fragility_dominates_optimal_mechanism(self, uniform, two_point, beta25):
        # the optimal menu minimizes fragility over a superset of posted prices
        for dist, tau in ((uniform, 0.1), (uniform, 0.2), (two_point, 0.18),
                          (beta25, 0.08)):
            assert solve_pp(dist, tau).k_pp >= solve(dist, tau).k_star - 1e-9


class TestNearTangency:
    """Targets and fragilities whose cut sits within 1e-6 of pi0."""

    @pytest.mark.parametrize(
        "dist",
        [Uniform(), Beta(2.0, 5.0), Power(3.0), TruncatedExponential(1.0)],
        ids=["uniform", "beta2_5", "power3", "texp1"],
    )
    def test_regular_path_hits_target(self, dist):
        tau = (1.0 - 1e-6) * max_posted_revenue(dist)[0]
        rep = solve_pp(dist, tau)
        assert rep.path == "scan"
        assert abs(rep.residual) <= 1e-9 * tau

    def test_uniform_fragility_closed_form(self, uniform):
        tau = 0.25 * (1.0 - 1e-6)
        assert solve_pp(uniform, tau).k_pp == pytest.approx(
            2.0 * tau / (1.0 - 4.0 * tau), rel=1e-4
        )

    @pytest.mark.parametrize("k", [1e5, 1e6, 1e7])
    def test_uniform_price_at_large_fragility(self, uniform, k):
        assert optimal_price_given_k(uniform, k) == pytest.approx(k / (2.0 * k + 1.0), rel=1e-9)

    def test_level_rounding_to_the_tangency_falls_back_to_the_scan(self):
        # the root cut is narrower than the tangency width, so it is empty
        dist = Beta(1.0, 3.0)
        tau = max_posted_revenue(dist)[0] - 1.01e-9
        rep = solve_pp(dist, tau)
        assert abs(rep.residual) <= 1e-7 * tau


def _count_prices(monkeypatch):
    """Count the calls of ``optimal_price_given_k`` that ``solve_pp`` makes."""
    calls = []
    price = pp_solver.optimal_price_given_k

    def counted(dist, k):
        calls.append(k)
        return price(dist, k)

    monkeypatch.setattr(pp_solver, "optimal_price_given_k", counted)
    return calls


def _best_revenue(dist, t):
    k = math.exp(t)
    return rho_pp(dist, optimal_price_given_k(dist, k), k)


class TestFallbackSearch:
    """The log-k search, the one posted-price search on every reference."""

    @pytest.mark.parametrize("frac", TARGET_FRACS)
    @pytest.mark.parametrize("dist", list(CONTINUOUS.values()), ids=list(CONTINUOUS))
    def test_prices_at_most_twelve_k(self, dist, frac, monkeypatch):
        # the two ends included
        calls = _count_prices(monkeypatch)
        tau = frac * max_posted_revenue(dist)[0]
        rep = solve_pp(dist, tau)
        assert rep.path == "scan"
        assert len(calls) <= 12
        assert rep.iterations == len(calls)
        assert abs(rep.residual) <= 5e-13 * tau

    @pytest.mark.parametrize("tau", [0.2, 0.45 * 0.35, 0.95 * 0.35, 0.9556 * 0.35])
    def test_two_point_high_branch_prices_the_top_end(self, two_point, tau, monkeypatch):
        # the root is k = tau/(pi0 - tau), the top of the bracket
        calls = _count_prices(monkeypatch)
        rep = solve_pp(two_point, tau)
        assert rep.path == "empirical"
        assert len(calls) <= 2
        assert rep.iterations == len(calls)
        assert rep.k_pp == pytest.approx(tau / (0.35 - tau), rel=1e-15)

    @pytest.mark.parametrize(
        "dist", [Beta(0.5, 0.5), TruncatedExponential(1e-6)], ids=["beta.5_.5", "texp1e-6"]
    )
    def test_tiny_target_prices_the_bottom_end(self, dist, monkeypatch):
        # rho_pp*(k) = k mean - O(k^2) rounds to at least tau at k = tau/mean,
        # so the root is that end of the bracket, within O(k) relative
        calls = _count_prices(monkeypatch)
        tau = 1e-12 * max_posted_revenue(dist)[0]
        rep = solve_pp(dist, tau)
        assert len(calls) == 2
        assert rep.k_pp == pytest.approx(tau / dist.mean(), rel=1e-14)
        assert 0.0 <= rep.residual <= 1e-8 * tau

    @pytest.mark.parametrize("k", [0.05, 0.42, 2.0, 9.0])
    @pytest.mark.parametrize(
        "dist", [Beta(0.5, 0.5), BIMODAL, QuadraticCCDF()], ids=["beta.5_.5", "bimodal", "quadratic"]
    )
    def test_envelope_slope_is_the_derivative_in_log_k(self, dist, k):
        t, h = math.log(k), 1e-5
        p = optimal_price_given_k(dist, k)
        slope = pp_solver._envelope_slope(dist, p, k, rho_pp(dist, p, k))
        central = (_best_revenue(dist, t + h) - _best_revenue(dist, t - h)) / (2.0 * h)
        assert slope == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize("k", [0.3, 1.0, 4.0])
    def test_envelope_slope_on_an_empirical_reference(self, k):
        # the best price k/(k+1) x of an atom x moves with k; one-sided
        # differences, since the best atom changes at some k
        dist = Empirical.from_samples(np.random.default_rng(7).beta(2.0, 5.0, 300))
        t, h = math.log(k), 1e-7
        p = optimal_price_given_k(dist, k)
        slope = pp_solver._envelope_slope(dist, p, k, rho_pp(dist, p, k))
        base = _best_revenue(dist, t)
        right = (_best_revenue(dist, t + h) - base) / h
        left = (base - _best_revenue(dist, t - h)) / h
        assert min(abs(slope - right), abs(slope - left)) <= 1e-6 * slope

    @pytest.mark.parametrize(
        "p,k", [(0.2, 0.5), (0.3, 2.0), (0.6, 0.7), (0.45, 0.5), (0.9, 4.0)]
    )
    @pytest.mark.parametrize(
        "dist", [Beta(0.5, 0.5), BIMODAL, QuadraticCCDF()], ids=["beta.5_.5", "bimodal", "quadratic"]
    )
    def test_price_slope_derivative(self, dist, p, k):
        # (0.45, 0.5) and (0.9, 4.0) put (1 + 1/k) p above 1, where that end stays put
        h = 1e-6
        slope = pp_solver._price_slope_dp(dist, p, k)
        central = (pp_solver._price_slope(dist, p + h, k) - pp_solver._price_slope(dist, p - h, k)) / (2 * h)
        assert slope == pytest.approx(central, rel=1e-6)

    def test_base_kernel_broadcasts_a_scalar_lower_end(self):
        ps = np.array([0.0, 0.25, 0.5, 1.0])
        got = QuadraticCCDF()._integrals(0.0, ps)
        assert got.shape == ps.shape
        assert got == pytest.approx(ps - ps**3 / 3.0, rel=1e-14, abs=1e-300)


class TestSingleHump:
    """On a single-hump revenue curve the paper's characterization holds: the
    best price for fragility k is the lower end u of the one-interval cut
    with w/u = (k+1)/k.  The solver does not build that cut; these tests do."""

    @pytest.mark.parametrize("frac", TARGET_FRACS)
    @pytest.mark.parametrize("name", list(ONE_HUMP))
    def test_solution_is_the_lower_end_of_its_cut(self, name, frac):
        dist = ONE_HUMP[name]
        rep = solve_pp(dist, frac * max_posted_revenue(dist)[0])
        p = rep.p_pp
        c = cut(dist, p * float(dist.ccdf(p)))
        assert c.count == 1
        (u, w), = c.intervals
        assert u == pytest.approx(p, rel=1e-13, abs=0.0)
        assert w == pytest.approx((1.0 + 1.0 / rep.k_pp) * p, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k", np.logspace(-3.0, 4.0, 29).tolist())
    @pytest.mark.parametrize("name", list(SINGLE_HUMP))
    def test_price_matches_the_scan(self, name, k):
        # above k = 100, rho_pp's own rounding moves the two apart either way
        dist = SINGLE_HUMP[name]
        at_cut = rs_solver._pi_star_cut(dist, 1.0 / math.log1p(1.0 / k)).intervals[0][0]
        rho = rho_pp(dist, at_cut, k)
        scanned = rho_pp(dist, optimal_price_given_k(dist, k), k)
        assert abs(rho - scanned) <= (1e-13 if k <= 100.0 else 2e-11) * scanned

    @pytest.mark.parametrize("k", np.logspace(-3.0, 4.0, 29).tolist())
    @pytest.mark.parametrize(
        "dist",
        [Uniform(), Beta(2.0, 5.0), TruncatedExponential(1.0)],
        ids=["uniform", "beta2_5", "texp1"],
    )
    def test_price_against_50_digit_first_order_condition(self, dist, k):
        # the root of (k+1) ccdf((1 + 1/k) p) = k ccdf(p), from the returned price
        p = optimal_price_given_k(dist, k)
        with mpmath.workdps(50):
            mk = mpmath.mpf(k)
            root = mpmath.findroot(
                lambda x: (mk + 1) * mp_ccdf(dist, (1 + 1 / mk) * x) - mk * mp_ccdf(dist, x),
                mpmath.mpf(p),
            )
            err = float(abs(p - root) / root)
        assert err <= (1e-14 if k <= 100.0 else 1e-12)


class TestTwoPointClosedForm:
    def test_high_target_branch(self):
        rep = solve_pp_two_point(0.3, 0.5, 0.7, 0.5, 0.2)
        assert rep.k_pp == pytest.approx(0.2 / 0.15, abs=1e-12)
        assert rep.p_pp == pytest.approx(0.4, abs=1e-12)

    def test_low_target_branch(self):
        rep = solve_pp_two_point(0.3, 0.5, 0.7, 0.5, 0.1)
        expected_k = (0.4 - math.sqrt(0.16 - 0.08)) / 0.4
        assert rep.k_pp == pytest.approx(expected_k, abs=1e-12)
        assert rep.p_pp == pytest.approx(0.7 * expected_k / (1 + expected_k), abs=1e-12)

    @pytest.mark.parametrize(
        "v1,a1,v2,tau",
        [
            (0.3, 0.5, 0.7, 0.1),
            (0.3, 0.5, 0.7, 0.2),
            (0.2, 0.3, 0.9, 0.15),
            (0.5, 0.4, 0.6, 0.3),   # v1 > (1-a1)v2 branch
            (0.5, 0.4, 0.6, 0.45),
            (0.25, 0.7, 0.8, 0.2),
        ],
    )
    def test_matches_generic_solver(self, v1, a1, v2, tau):
        closed = solve_pp_two_point(v1, a1, v2, 1.0 - a1, tau)
        generic = solve_pp(Empirical(((v1, a1), (v2, 1.0 - a1))), tau)
        assert closed.k_pp == pytest.approx(generic.k_pp, abs=1e-6)
        assert closed.p_pp == pytest.approx(generic.p_pp, abs=1e-6)

    def test_random_references_match_the_generic_solver(self):
        rng = np.random.default_rng(1800)
        worst = 0.0
        for _ in range(1800):
            v1, v2 = np.sort(rng.uniform(0.01, 1.0, 2)).tolist()
            a1, frac = rng.uniform(0.01, 0.99, 2).tolist()
            tau = frac * max(v1, (1.0 - a1) * v2)
            closed = solve_pp_two_point(v1, a1, v2, 1.0 - a1, tau)
            generic = solve_pp(Empirical(((v1, a1), (v2, 1.0 - a1))), tau)
            worst = max(
                worst,
                abs(generic.k_pp - closed.k_pp) / closed.k_pp,
                abs(generic.p_pp - closed.p_pp) / closed.p_pp,
            )
        assert worst <= 2e-12

    def test_branch_boundary_warning(self):
        rep = solve_pp_two_point(0.3, 0.5, 0.7, 0.5, 0.15)
        assert rep.warnings

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_pp_two_point(0.7, 0.5, 0.3, 0.5, 0.1)
        with pytest.raises(DomainError, match="sum to 1"):
            solve_pp_two_point(0.3, 0.5, 0.7, 0.6, 0.1)
        with pytest.raises(InfeasibleTargetError):
            solve_pp_two_point(0.3, 0.5, 0.7, 0.5, 0.36)


class TestPath:
    @pytest.mark.parametrize(
        "dist,path",
        [
            (Beta(2.0, 5.0), "scan"),
            (Beta(0.5, 0.5), "scan"),
            (Beta(0.5, 3.0), "scan"),
            (Beta(3.0, 0.5), "scan"),
            (IRREGULAR, "scan"),
            (QuadraticCCDF(), "scan"),
            (TruncatedPareto(), "scan"),
            (BIMODAL, "scan"),
            (
                Empirical.from_samples(np.random.default_rng(7).beta(2.0, 5.0, 300)),
                "empirical",
            ),
        ],
        ids=[
            "beta2_5", "beta.5_.5", "beta.5_3", "beta3_.5", "irregular", "quadratic",
            "truncated_pareto", "bimodal", "empirical300",
        ],
    )
    def test_solve_pp_reports_path(self, dist, path):
        rep = solve_pp(dist, 0.45 * max_posted_revenue(dist)[0])
        assert rep.path == path
        assert rep.to_json()["path"] == path

    def test_two_point_closed_form_path(self):
        rep = solve_pp_two_point(0.3, 0.5, 0.7, 0.5, 0.2)
        assert rep.path == "closed_form"
        assert rep.to_json()["path"] == "closed_form"
