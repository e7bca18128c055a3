import math

import numpy as np
import pytest

from helpers import random_empirical
from robustmech import (
    Beta,
    InfeasibleTargetError,
    Mixture,
    Power,
    TruncatedExponential,
    Uniform,
    cut,
    expected_revenue,
    fragility_adjusted_revenue,
    gap_only,
    max_posted_revenue,
    pi_star,
    radius_for_target,
    rho_star,
    rs_solver,
    solve,
    solve_pp,
    solve_ro,
    tau_equiv,
    wasserstein_distance,
)
from robustmech.isorevenue import LOG_LEVEL_FLOOR

LN_14_3 = math.log(14.0 / 3.0)
LN_7_6 = math.log(7.0 / 6.0)


def uniform_pi_star(k: float) -> float:
    t = math.exp(1.0 / k)
    return 0.25 * (1.0 - ((t - 1.0) / (t + 1.0)) ** 2)


def uniform_rho_star(k: float) -> float:
    t = math.exp(1.0 / k)
    return k * (t - 1.0) / (2.0 * (t + 1.0))


def two_point_pi_star(k: float) -> float:
    if k < 1.0 / LN_14_3:
        return 0.7 * math.exp(-1.0 / k)
    if k < 1.0 / LN_7_6:
        return math.sqrt(0.105 * math.exp(-1.0 / k))
    return 0.35 * math.exp(-1.0 / k)


def two_point_rho_star(k: float) -> float:
    # rho*(k) = k * sum of CCDF integrals over the cut at pi*(k); on the
    # low branch the single interval (pi, 0.7) integrates to 0.5 - pi
    pi = two_point_pi_star(k)
    if k < 1.0 / LN_14_3:
        return k * (0.5 - pi)
    if k < 1.0 / LN_7_6:
        return k * (0.65 - 2.0 * pi)
    return k * (0.35 - pi)


def uniform_gap_closed_form(pi: float) -> float:
    s = math.sqrt(1.0 - 4.0 * pi)
    return s / 2.0 - pi * math.log((1.0 + s) / (1.0 - s))


class TestFragilityAdjustedRevenue:
    def test_no_gap_at_max_revenue(self, uniform, two_point):
        for dist in (uniform, two_point):
            pi0, _ = max_posted_revenue(dist)
            assert fragility_adjusted_revenue(dist, pi0, 3.0) == pytest.approx(
                pi0, abs=1e-7
            )

    def test_definition(self, uniform):
        k, pi = 0.7, 0.1
        assert fragility_adjusted_revenue(uniform, pi, k) == pytest.approx(
            pi + k * gap_only(uniform, pi)
        )

    @pytest.mark.parametrize("k", [0.3, 0.56, 1.0, 2.0])
    def test_convex_in_level(self, uniform, k):
        grid = np.linspace(0.0, 0.2499, 120)
        rho = np.asarray(
            [fragility_adjusted_revenue(uniform, float(p), k) for p in grid]
        )
        assert np.min(np.diff(rho, 2)) >= -1e-8


class TestPiStarGridOracle:
    """Minimization route vs first-order-condition route.

    The oracle minimizes pi + k*d(pi) over a dense level grid, with d(pi)
    evaluated from independently derived closed forms.
    """

    @pytest.mark.parametrize("k", [0.2, 0.56, 1.0, 3.0])
    def test_uniform(self, uniform, k):
        grid = np.linspace(1e-9, 0.25 - 1e-9, 100_000)
        s = np.sqrt(1.0 - 4.0 * grid)
        gaps = s / 2.0 - grid * np.log((1.0 + s) / (1.0 - s))
        rho = grid + k * gaps
        oracle = float(grid[np.argmin(rho)])
        assert abs(pi_star(uniform, k) - oracle) < 1e-5

    @pytest.mark.parametrize("k", [0.3, 1.0, 8.0])
    def test_two_point(self, two_point, k):
        grid = np.linspace(1e-9, 0.35 - 1e-9, 100_000)
        # piecewise closed-form gap from exact step arithmetic
        gaps = np.where(
            grid < 0.15,
            (0.5 - grid) - grid * np.log(0.7 / grid),
            np.where(
                grid < 0.3,
                (0.65 - 2 * grid)
                - grid * (np.log(0.3 / grid) + np.log(0.35 / grid)),
                (0.35 - grid) - grid * np.log(0.35 / grid),
            ),
        )
        rho = grid + k * gaps
        oracle = float(grid[np.argmin(rho)])
        assert abs(pi_star(two_point, k) - oracle) < 1e-5


class TestClosedForms:
    @pytest.mark.parametrize("k", np.geomspace(0.12, 40.0, 50).tolist())
    def test_uniform_pi_star(self, uniform, k):
        assert pi_star(uniform, k) == pytest.approx(uniform_pi_star(k), abs=1e-8)

    @pytest.mark.parametrize("k", np.geomspace(0.12, 40.0, 50).tolist())
    def test_uniform_rho_star(self, uniform, k):
        assert rho_star(uniform, k) == pytest.approx(uniform_rho_star(k), abs=1e-8)

    @pytest.mark.parametrize("k", np.geomspace(0.15, 30.0, 50).tolist())
    def test_two_point_piecewise(self, two_point, k):
        assert pi_star(two_point, k) == pytest.approx(two_point_pi_star(k), abs=1e-8)
        assert rho_star(two_point, k) == pytest.approx(
            two_point_rho_star(k), abs=1e-8
        )

    def test_two_point_branch_continuity(self):
        for k_edge in (1.0 / LN_14_3, 1.0 / LN_7_6):
            below = two_point_rho_star(k_edge - 1e-9)
            above = two_point_rho_star(k_edge + 1e-9)
            assert below == pytest.approx(above, abs=1e-7)

    def test_rho_definition_consistency(self, uniform, two_point):
        for dist, k in ((uniform, 0.7), (two_point, 0.5), (two_point, 2.0)):
            assert rho_star(dist, k) == pytest.approx(
                fragility_adjusted_revenue(dist, pi_star(dist, k), k), abs=1e-8
            )

    def test_pi_star_approaches_max_revenue(self, uniform):
        assert pi_star(uniform, 1e3) > 0.2499


class TestRhoStarMonotonicity:
    @pytest.mark.parametrize("fixture", ["uniform", "two_point", "beta25"])
    def test_strictly_increasing(self, fixture, request):
        dist = request.getfixturevalue(fixture)
        ks = np.geomspace(0.05, 50.0, 25)
        vals = [rho_star(dist, float(k)) for k in ks]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSolve:
    def test_uniform_known_solutions(self, uniform):
        rep = solve(uniform, 0.1)
        assert 0.195 <= rep.k_star <= 0.205
        (u, w), = rep.intervals
        assert u == pytest.approx(0.007, abs=0.005)
        assert w == pytest.approx(0.99, abs=0.005)
        rep2 = solve(uniform, 0.2)
        assert 0.555 <= rep2.k_star <= 0.565
        assert rep2.pi_star == pytest.approx(0.12, abs=0.005)

    def test_two_point_known_solutions(self, two_point):
        rep = solve(two_point, 0.1)
        assert rep.k_star == pytest.approx(0.20, abs=0.005)
        (u, w), = rep.intervals
        assert u == pytest.approx(0.005, abs=0.005)
        assert w == pytest.approx(0.70, abs=0.005)
        rep2 = solve(two_point, 0.2)
        assert rep2.k_star == pytest.approx(0.49, abs=0.005)
        assert rep2.pi_star == pytest.approx(0.09, abs=0.005)

    def test_report_consistency(self, uniform):
        rep = solve(uniform, 0.17)
        assert rep.rho_at_solution == pytest.approx(0.17, abs=1e-8)
        assert rep.mechanism.slope == pytest.approx(rep.k_star, rel=1e-7)
        assert rep.mechanism.intervals == rep.intervals
        assert rep.mechanism.cut_level == rep.pi_star

    def test_infeasible_targets(self, uniform):
        with pytest.raises(InfeasibleTargetError):
            solve(uniform, 0.25)
        with pytest.raises(InfeasibleTargetError):
            solve(uniform, 0.3)
        with pytest.raises(InfeasibleTargetError):
            solve(uniform, 0.0)
        with pytest.raises(InfeasibleTargetError):
            solve(uniform, 0.25 - 1e-12)

    def test_in_sample_revenue_meets_target(self, uniform, two_point):
        for dist, tau in ((uniform, 0.2), (two_point, 0.15)):
            mech = solve(dist, tau).mechanism
            rev = expected_revenue(mech, dist).expected_revenue
            assert rev >= tau - 1e-8


class TestSatisficingGuarantee:
    """Direct check of the defining constraint on random deviations."""

    @pytest.mark.parametrize("fixture,tau", [("uniform", 0.2), ("two_point", 0.15)])
    def test_shortfall_bounded_by_scaled_distance(self, fixture, tau, request):
        dist = request.getfixturevalue(fixture)
        rep = solve(dist, tau)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            deviation = random_empirical(rng, max_atoms=10)
            shortfall = tau - expected_revenue(rep.mechanism, deviation).expected_revenue
            bound = rep.k_star * wasserstein_distance(deviation, dist)
            assert shortfall <= bound + 1e-8


class TestLevelSearch:
    """The one search over the level shared by the RS and RO solvers."""

    @pytest.fixture
    def cut_levels(self, monkeypatch):
        """The levels ``rs_solver.cut`` is called at, in call order."""
        levels = []
        inner = rs_solver.cut

        def recording_cut(d, pi):
            levels.append(pi)
            return inner(d, pi)

        monkeypatch.setattr(rs_solver, "cut", recording_cut)
        return levels

    MID_RANGE_SEARCHES = [
        pytest.param(lambda d: solve(d, 0.45 * max_posted_revenue(d)[0]), id="solve"),
        pytest.param(lambda d: pi_star(d, 0.56), id="pi_star"),
        pytest.param(lambda d: solve_ro(d, 0.1 * d.mean()), id="solve_ro"),
        pytest.param(lambda d: tau_equiv(d, 0.1 * d.mean()), id="tau_equiv"),
    ]

    @pytest.mark.parametrize("search", MID_RANGE_SEARCHES)
    @pytest.mark.parametrize("fixture", ["uniform", "beta25"])
    def test_no_level_is_cut_twice(self, search, fixture, request, cut_levels):
        dist = request.getfixturevalue(fixture)
        search(dist)
        assert len(cut_levels) > 2
        assert len(set(cut_levels)) == len(cut_levels)

    @pytest.mark.parametrize("search", MID_RANGE_SEARCHES)
    @pytest.mark.parametrize("fixture", ["uniform", "beta25"])
    def test_mid_range_searches_leave_the_floor_uncut(self, search, fixture, request, cut_levels):
        # the floor is the probe ladder's last rung, under log_hi - 256
        search(request.getfixturevalue(fixture))
        assert math.exp(LOG_LEVEL_FLOOR) not in cut_levels

    def test_pi_star_below_floor_returns_floor_cut(self, uniform):
        # the root exp(-1/k) ~ exp(-1000) underflows the floor level
        assert pi_star(uniform, 1e-3) == math.exp(-700.0)

    @pytest.mark.parametrize("frac", [0.05, 0.45, 0.95])
    @pytest.mark.parametrize(
        "dist",
        [
            pytest.param(Uniform(), id="uniform"),
            pytest.param(Beta(2.0, 5.0), id="beta25"),
            pytest.param(Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15)), id="bimodal"),
        ],
    )
    def test_cuts_per_solve(self, dist, frac, cut_levels):
        # probes down from log(tau) and Newton steps between two of them take
        # 6-11 cuts; ITP steps took 12-17, ITP from the floor about 20 and
        # plain bisection of log(level) about 60
        solve(dist, frac * max_posted_revenue(dist)[0])
        assert 2 < len(cut_levels) <= 11

    @pytest.mark.parametrize("frac", [0.05, 0.45, 0.95])
    @pytest.mark.parametrize(
        "dist",
        [
            pytest.param(Uniform(), id="uniform"),
            pytest.param(Beta(2.0, 5.0), id="beta25"),
            pytest.param(Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15)), id="bimodal"),
        ],
    )
    def test_ro_cuts_per_solve(self, dist, frac, cut_levels):
        # the radius whose worst-case revenue is frac * pi0: Newton steps take
        # 5-12 cuts, ITP steps took 12-35
        r = radius_for_target(dist, frac * max_posted_revenue(dist)[0])
        solve_ro(dist, r)
        assert 2 < len(cut_levels) <= 12

    @pytest.mark.parametrize("frac", [0.05, 0.45, 0.95])
    @pytest.mark.parametrize(
        "dist",
        [
            pytest.param(Uniform(), id="uniform"),
            pytest.param(Beta(2.0, 5.0), id="beta25"),
            pytest.param(Power(3.0), id="power3"),
            pytest.param(TruncatedExponential(1.0), id="texp1"),
        ],
    )
    def test_pp_cuts_per_solve(self, dist, frac, cut_levels):
        # the posted-price solver searches log k, not the level
        rep = solve_pp(dist, frac * max_posted_revenue(dist)[0])
        assert rep.path == "scan"
        assert cut_levels == []

    @pytest.mark.parametrize(
        "search",
        [
            pytest.param(lambda d: solve(d, 0.45 * max_posted_revenue(d)[0]), id="solve"),
            pytest.param(lambda d: solve_ro(d, 0.1 * d.mean()), id="solve_ro"),
        ],
    )
    @pytest.mark.parametrize("fixture", ["uniform", "beta25"])
    def test_iterations_count_every_level_cut(self, search, fixture, request, cut_levels):
        # every level evaluated, the probes included
        report = search(request.getfixturevalue(fixture))
        assert report.iterations == len(cut_levels)

    @pytest.mark.parametrize("frac", [0.01, 0.05, 0.2, 0.45, 0.7, 0.95, 0.99])
    @pytest.mark.parametrize(
        "dist",
        [
            pytest.param(Uniform(), id="uniform"),
            pytest.param(Beta(2.0, 5.0), id="beta25"),
            pytest.param(Beta(0.5, 0.5), id="beta.5_.5"),
            pytest.param(TruncatedExponential(1.0), id="texp1"),
        ],
    )
    def test_ro_residual_is_the_reported_cuts(self, dist, frac):
        # gap - r at pi_ro_star itself, not at the other end of the bracket
        r = radius_for_target(dist, frac * max_posted_revenue(dist)[0])
        rep = solve_ro(dist, r)
        assert rep.residual == cut(dist, rep.pi_ro_star).gap - r

    @pytest.mark.parametrize(
        "search",
        [
            pytest.param(lambda d: solve(d, 0.1).k_star, id="solve"),
            pytest.param(lambda d: pi_star(d, 0.56), id="pi_star"),
            pytest.param(lambda d: solve_pp(d, 0.1).k_pp, id="solve_pp"),
            pytest.param(lambda d: solve_ro(d, 0.05).pi_ro_star, id="solve_ro"),
            pytest.param(lambda d: tau_equiv(d, 0.05), id="tau_equiv"),
        ],
    )
    def test_ccdf_rounding_above_one_at_floor(self, search):
        # weights summing to 1 + 1e-10 pass validation and put ccdf(pi) above 1
        # at tiny pi, so the floor cut's first crossing is pi itself
        mixture = Mixture((Uniform(), Uniform()), (0.5, 0.5 + 1e-10))
        assert search(mixture) == pytest.approx(search(Uniform()), rel=1e-8)
