import math

import numpy as np
import pytest

from helpers import mask_crossing_cells, trapezoid_gap
from robustmech import (
    Beta,
    DomainError,
    Empirical,
    InfeasibleLevelError,
    Mixture,
    Power,
    TruncatedExponential,
    Uniform,
    ValuationDistribution,
    cut,
    gap_only,
    max_posted_revenue,
    worst_case_ccdf,
)
from robustmech.distributions import _SCAN_XS, _scan_grid
from robustmech.isorevenue import _crossing_cells

# the references of the benchmark's solve-mix workload
SOLVE_MIX_REFERENCES = {
    "uniform": Uniform(),
    "power3": Power(3.0),
    "texp1": TruncatedExponential(1.0),
    "beta2_5": Beta(2.0, 5.0),
    "beta.5_.5": Beta(0.5, 0.5),
    "mixture": Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15)),
    "two_point": Empirical(((0.3, 0.5), (0.7, 0.5))),
}


def uniform_gap_closed_form(pi: float) -> float:
    s = math.sqrt(1.0 - 4.0 * pi)
    return s / 2.0 - pi * math.log((1.0 + s) / (1.0 - s))


class TestUniformCut:
    def test_interval_closed_form(self, uniform):
        c = cut(uniform, 0.16)
        assert c.count == 1
        u, w = c.intervals[0]
        assert u == pytest.approx(0.2, abs=1e-12)
        assert w == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("pi", np.linspace(0.002, 0.248, 50).tolist())
    def test_gap_closed_form_fifty_levels(self, uniform, pi):
        assert gap_only(uniform, pi) == pytest.approx(
            uniform_gap_closed_form(pi), abs=1e-10
        )

    @pytest.mark.parametrize("pi", [math.exp(-700.0), 1e-300, 1e-30, 1e-6])
    def test_first_crossing_at_tiny_levels(self, uniform, pi):
        # the smaller root of x (1 - x) = pi, free of cancellation
        exact = 2.0 * pi / (1.0 + math.sqrt(1.0 - 4.0 * pi))
        u = cut(uniform, pi).intervals[0][0]
        assert abs(u - exact) <= 1e-15 * exact

    def test_level_at_first_grid_point_where_ccdf_is_one(self):
        # Power(4) has ccdf(x) = 1 - x**4 == 1.0 at the first scan point
        x0 = float(_SCAN_XS[0])
        assert cut(Power(4.0), x0).intervals[0][0] == x0

    def test_interval_endpoints_on_iso_revenue_curve(self, uniform, beta25):
        for dist in (uniform, beta25):
            pi0, _ = max_posted_revenue(dist)
            for pi in (0.3 * pi0, 0.7 * pi0):
                (u, w), = cut(dist, pi).intervals
                assert u * dist.ccdf(u) == pytest.approx(pi, abs=1e-9)
                assert w * dist.ccdf(w) == pytest.approx(pi, abs=1e-9)


class RevenuePlateau(ValuationDistribution):
    """ccdf = min(1, 0.3/x): the posted revenue is 0.3 at every price from
    0.3 up, so rounding alone moves its grid, with flat steps between turns."""

    def _ccdf(self, xs):
        return np.minimum(1.0, 0.3 / xs)


GRID_REFERENCES = {**SOLVE_MIX_REFERENCES, "plateau": RevenuePlateau()}


class TestCrossingCells:
    """Binary searches on the monotone runs of the revenue grid find the cells
    that a mask over the whole grid finds."""

    @pytest.mark.parametrize("name", GRID_REFERENCES)
    def test_match_full_mask(self, name):
        dist = GRID_REFERENCES[name]
        xs, g = _scan_grid(dist)
        pi0, _ = max_posted_revenue(dist)
        rng = np.random.default_rng(8)
        # rounding makes g step up and down near its peak and in its tail
        top = int(np.argmax(g))
        at_grid = np.concatenate(
            (g[rng.integers(0, len(g), 300)], g[top - 50 : top + 50], g[-100:])
        )
        levels = np.concatenate(
            (
                rng.uniform(0.0, pi0, 300),
                at_grid,
                np.nextafter(at_grid, 0.0),
                np.nextafter(at_grid, 1.0),
                np.exp(rng.uniform(-700.0, math.log(pi0), 100)),
                [math.exp(-700.0), xs[0], pi0, g[0], g[-1]],
            )
        )
        for pi in levels.tolist():
            assert _crossing_cells(dist, pi) == mask_crossing_cells(g, pi), pi

    def test_power4_at_first_grid_point(self):
        dist = Power(4.0)
        _, g = _scan_grid(dist)
        x0 = float(_SCAN_XS[0])
        assert _crossing_cells(dist, x0) == mask_crossing_cells(g, x0)


class TestCrossings:
    """The cut's interval ends, refined by Newton steps on x ccdf(x) - pi."""

    @pytest.mark.parametrize("name", SOLVE_MIX_REFERENCES)
    def test_sign_change_across_each_end_and_a_float_next_to_it(self, name):
        dist = SOLVE_MIX_REFERENCES[name]
        pi0, _ = max_posted_revenue(dist)
        for pi in np.exp(np.linspace(math.log(0.999 * pi0), -700.0, 200)).tolist():

            def f(x: float) -> float:
                return x * dist.ccdf(x) - pi

            for u, w in cut(dist, pi).intervals:
                for x in (u, w) if w < 1.0 else (u,):
                    fx = f(x)
                    neighbours = (f(math.nextafter(x, 0.0)), f(math.nextafter(x, 1.0)))
                    assert fx == 0.0 or any((fx < 0.0) != (fn < 0.0) for fn in neighbours), (pi, x)

    @pytest.mark.parametrize("frac", [1e-6, 0.05, 0.45, 0.95])
    @pytest.mark.parametrize("name", SOLVE_MIX_REFERENCES)
    def test_dlog_sum_is_the_slope_of_log_sum(self, name, frac):
        dist = SOLVE_MIX_REFERENCES[name]
        pi = frac * max_posted_revenue(dist)[0]
        h = 1e-6 * pi
        central = (cut(dist, pi + h).log_sum - cut(dist, pi - h).log_sum) / (2.0 * h)
        assert cut(dist, pi).dlog_sum == pytest.approx(central, rel=1e-6)

    def test_gap_moves_as_minus_log_sum(self, beta25):
        # the envelope theorem behind the level searches' Newton steps
        pi, h = 0.04, 1e-7
        central = (gap_only(beta25, pi + h) - gap_only(beta25, pi - h)) / (2.0 * h)
        assert central == pytest.approx(-cut(beta25, pi).log_sum, rel=1e-7)


class TestCutsBelowPi0:
    """Levels between the best grid value and pi0 cross only on the hump
    around the argmax, between two grid points."""

    REGULAR = {
        "uniform": Uniform(),
        "beta2_5": Beta(2.0, 5.0),
        "power3": Power(3.0),
        "texp1": TruncatedExponential(1.0),
    }

    @pytest.mark.parametrize("rel", [1e-11, 1e-13])
    @pytest.mark.parametrize("name", REGULAR)
    def test_one_interval_around_the_argmax(self, name, rel):
        dist = self.REGULAR[name]
        pi0, p = max_posted_revenue(dist)
        (u, w), = cut(dist, pi0 * (1.0 - rel)).intervals
        assert u < p < w

    @pytest.mark.parametrize("rel", [1e-11, 1e-13])
    def test_uniform_ends_closed_form(self, uniform, rel):
        pi = 0.25 * (1.0 - rel)
        (u, w), = cut(uniform, pi).intervals
        half = math.sqrt(0.25 - pi)
        assert u == pytest.approx(0.5 - half, abs=1e-9)
        assert w == pytest.approx(0.5 + half, abs=1e-9)


class TestEmpiricalCut:
    def test_branch_low(self, two_point):
        c = cut(two_point, 0.1)
        assert c.intervals == ((0.1, 0.7),)

    def test_branch_middle(self, two_point):
        c = cut(two_point, 0.2)
        assert c.intervals == ((0.2, 0.3), (0.4, 0.7))

    def test_branch_high(self, two_point):
        c = cut(two_point, 0.32)
        assert c.intervals == ((0.64, 0.7),)

    def test_transition_at_lower_breakpoint(self, two_point):
        # the crossing lands exactly on the atom: intervals stay separate
        c = cut(two_point, 0.15)
        assert c.count == 2
        assert c.intervals == ((0.15, 0.3), (0.3, 0.7))
        assert c.tie_points == (0.3,)
        below = cut(two_point, 0.15 - 1e-9)
        assert below.count == 1

    def test_transition_at_upper_breakpoint(self, two_point):
        assert cut(two_point, 0.3 - 1e-9).count == 2
        assert cut(two_point, 0.3).count == 1

    def test_gap_is_exact(self, two_point):
        # at pi in the two-interval branch the gap has simple closed pieces
        pi = 0.2
        c = cut(two_point, pi)
        expected = (
            (0.3 - pi) - pi * math.log(0.3 / pi)
            + 0.5 * (0.7 - 2 * pi) - pi * math.log(0.7 / (2 * pi))
        )
        assert c.gap == pytest.approx(expected, abs=1e-14)


class TestGapProperties:
    def test_gap_at_zero_is_mean(self, uniform, two_point, beta25):
        for d in (uniform, two_point, beta25):
            assert gap_only(d, 0.0) == pytest.approx(d.mean(), abs=1e-10)

    def test_gap_at_max_revenue_is_zero(self, uniform, two_point, beta25):
        for d in (uniform, two_point, beta25):
            pi0, _ = max_posted_revenue(d)
            assert gap_only(d, pi0) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("fixture", ["uniform", "two_point", "beta25"])
    def test_monotone_and_convex(self, fixture, request):
        dist = request.getfixturevalue(fixture)
        pi0, _ = max_posted_revenue(dist)
        grid = np.linspace(0.0, pi0 * 0.999, 100)
        gaps = np.asarray([gap_only(dist, float(pi)) for pi in grid])
        assert np.all(np.diff(gaps) < 0.0)
        second = np.diff(gaps, 2)
        assert np.min(second) >= -1e-8

    def test_beta_gap_against_trapezoid_oracle(self, beta25):
        assert gap_only(beta25, 0.1) == pytest.approx(
            trapezoid_gap(beta25, 0.1), abs=1e-6
        )

    def test_uniform_gap_against_trapezoid_oracle(self, uniform):
        assert gap_only(uniform, 0.16) == pytest.approx(
            trapezoid_gap(uniform, 0.16), abs=1e-6
        )

    def test_infeasible_level(self, uniform, two_point):
        with pytest.raises(InfeasibleLevelError):
            cut(uniform, 0.26)
        with pytest.raises(InfeasibleLevelError):
            gap_only(two_point, 0.36)


class TestLogSum:
    def test_strictly_decreasing(self, uniform, two_point, beta25):
        for dist in (uniform, two_point, beta25):
            pi0, _ = max_posted_revenue(dist)
            grid = np.linspace(pi0 * 0.01, pi0 * 0.98, 60)
            sums = [cut(dist, float(pi)).log_sum for pi in grid]
            assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_infinite_at_zero(self, uniform):
        assert cut(uniform, 0.0).log_sum == math.inf


class TestIntervalNesting:
    @pytest.mark.parametrize("fixture", ["uniform", "beta25"])
    def test_endpoints_nest_in_level(self, fixture, request):
        dist = request.getfixturevalue(fixture)
        pi0, _ = max_posted_revenue(dist)
        grid = np.linspace(pi0 * 0.02, pi0 * 0.98, 40)
        cuts = [cut(dist, float(pi)) for pi in grid]
        assert all(c.count == 1 for c in cuts)
        us = [c.intervals[0][0] for c in cuts]
        ws = [c.intervals[0][1] for c in cuts]
        assert all(a <= b + 1e-12 for a, b in zip(us, us[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(ws, ws[1:]))


class TestWorstCaseCcdf:
    def test_negative_level_is_rejected(self, uniform):
        with pytest.raises(DomainError):
            cut(uniform, -0.1)
        with pytest.raises(DomainError):
            worst_case_ccdf(uniform, -0.1, 0.5)

    def test_pointwise_formula(self, uniform):
        assert worst_case_ccdf(uniform, 0.16, 0.5) == pytest.approx(0.32)
        assert worst_case_ccdf(uniform, 0.16, 0.1) == pytest.approx(0.9)

    def test_at_one(self, uniform, two_point):
        assert worst_case_ccdf(uniform, 0.2, 1.0) == pytest.approx(
            min(uniform.ccdf(1.0), 0.2)
        )
        assert worst_case_ccdf(two_point, 0.25, 1.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("fixture,pi", [("uniform", 0.16), ("beta25", 0.08)])
    def test_distance_to_reference_equals_gap(self, fixture, pi, request):
        # independent route: dense quadrature of |truncated - reference|
        dist = request.getfixturevalue(fixture)
        n = 1_000_000
        xs = np.linspace(1.0 / n, 1.0, n)
        diff = np.abs(worst_case_ccdf(dist, pi, xs) - dist.ccdf(xs))
        assert float(np.trapezoid(diff, xs)) == pytest.approx(
            gap_only(dist, pi), abs=1e-6
        )

    def test_clipped_to_unit(self, uniform):
        vals = worst_case_ccdf(uniform, 0.2, np.linspace(0.01, 1.0, 101))
        assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
