import math
import pickle

import numpy as np
import pytest

from helpers import allocation_integral, skewness_se, stieltjes_payment
from robustmech import (
    DomainError,
    PostedPrice,
    RandomizedLogMechanism,
    cut,
    solve,
)


@pytest.fixture(scope="module")
def uniform_mech(uniform):
    return solve(uniform, 0.2).mechanism


@pytest.fixture(scope="module")
def two_interval_mech(two_point):
    # a two-interval menu from the middle branch of the two-atom reference
    return RandomizedLogMechanism.from_cut(cut(two_point, 0.2))


class TestConstruction:
    def test_slope_normalizes_log_sum(self, uniform_mech, two_interval_mech):
        for mech in (uniform_mech, two_interval_mech):
            total = sum(math.log(w / u) for u, w in mech.intervals)
            assert mech.slope * total == pytest.approx(1.0, abs=1e-12)

    def test_shares_the_cut_intervals(self, uniform):
        report = solve(uniform, 0.2)
        assert report.mechanism.intervals is report.intervals

    def test_copies_other_intervals_as_float_pairs(self):
        mech = RandomizedLogMechanism(intervals=[[0.25, np.float64(0.5)], (0.6, 1)], cut_level=0.1)
        assert mech.intervals == ((0.25, 0.5), (0.6, 1.0))
        assert all(type(x) is float for iv in mech.intervals for x in iv)

    def test_running_sums_equality_and_pickling(self, two_interval_mech):
        mech = two_interval_mech
        (u1, w1), (u2, w2) = mech.intervals
        assert mech._cum_log == (0.0, math.log(w1 / u1), math.log(w1 / u1) + math.log(w2 / u2))
        assert mech._cum_width == (0.0, w1 - u1, (w1 - u1) + (w2 - u2))
        copy = pickle.loads(pickle.dumps(mech))
        assert copy == mech and copy.to_json() == mech.to_json()

    def test_rejects_empty_or_bad_intervals(self):
        with pytest.raises(DomainError):
            RandomizedLogMechanism(intervals=(), cut_level=0.1)
        with pytest.raises(DomainError):
            RandomizedLogMechanism(intervals=((0.0, 0.5),), cut_level=0.1)


class TestAllocation:
    def test_boundary_values(self, uniform_mech):
        assert uniform_mech.allocation(0.0) == 0.0
        assert uniform_mech.allocation(1.0) == 1.0
        u1 = uniform_mech.intervals[0][0]
        assert uniform_mech.allocation(u1 / 2.0) == 0.0

    def test_exactly_one_at_top_endpoint(self, uniform_mech, two_interval_mech):
        for mech in (uniform_mech, two_interval_mech):
            w_top = mech.intervals[-1][1]
            assert mech.allocation(w_top) == pytest.approx(1.0, abs=1e-8)

    def test_nondecreasing_and_continuous(self, two_interval_mech):
        grid = np.linspace(0.0, 1.0, 10_001)
        q = two_interval_mech.allocation(grid)
        assert np.all(np.diff(q) >= -1e-12)
        assert np.max(np.abs(np.diff(q))) < 2e-3  # no jumps at this resolution

    def test_constant_on_gap(self, two_interval_mech):
        (u1, w1), (u2, w2) = two_interval_mech.intervals
        inside_gap = np.linspace(w1, u2, 50)
        q = two_interval_mech.allocation(inside_gap)
        assert np.max(q) - np.min(q) < 1e-14

    def test_log_shape_inside(self, uniform_mech):
        (u, w), = uniform_mech.intervals
        v = 0.5 * (u + w)
        assert uniform_mech.allocation(v) == pytest.approx(
            uniform_mech.slope * math.log(v / u), abs=1e-12
        )


class TestPayment:
    def test_zero_at_zero(self, uniform_mech):
        assert uniform_mech.payment(0.0) == 0.0

    def test_slope_inside_intervals(self, two_interval_mech):
        mech = two_interval_mech
        for u, w in mech.intervals:
            a, b = u + (w - u) * 0.25, u + (w - u) * 0.75
            rate = (mech.payment(b) - mech.payment(a)) / (b - a)
            assert rate == pytest.approx(mech.slope, abs=1e-10)

    def test_top_value(self, two_interval_mech):
        total_width = sum(w - u for u, w in two_interval_mech.intervals)
        assert two_interval_mech.payment(1.0) == pytest.approx(
            two_interval_mech.slope * total_width, abs=1e-12
        )

    @pytest.mark.parametrize("v", [0.3, 0.55, 0.8, 1.0])
    def test_matches_stieltjes_oracle(self, two_interval_mech, v):
        assert two_interval_mech.payment(v) == pytest.approx(
            stieltjes_payment(two_interval_mech, v), abs=1e-8
        )


class TestSurplus:
    def test_zero_at_zero(self, uniform_mech):
        assert uniform_mech.buyer_surplus(0.0) == 0.0

    def test_nonnegative_and_nondecreasing(self, uniform_mech, two_interval_mech):
        grid = np.linspace(0.0, 1.0, 5001)
        for mech in (uniform_mech, two_interval_mech):
            s = mech.buyer_surplus(grid)
            assert np.min(s) >= -1e-12
            assert np.all(np.diff(s) >= -1e-10)

    @pytest.mark.parametrize("v", [0.25, 0.5, 0.9])
    def test_equals_allocation_integral(self, uniform_mech, v):
        assert uniform_mech.buyer_surplus(v) == pytest.approx(
            allocation_integral(uniform_mech, v), abs=1e-8
        )


class TestIncentives:
    @pytest.mark.parametrize("fixture", ["uniform_mech", "two_interval_mech"])
    def test_ic_and_ir_on_grid(self, fixture, request):
        mech = request.getfixturevalue(fixture)
        grid = np.linspace(0.0, 1.0, 200)
        q = mech.allocation(grid)
        m = mech.payment(grid)
        truthful = q * grid - m
        assert np.min(truthful) >= -1e-12
        # reporting omega when the value is v must never beat truth-telling
        deviate = np.outer(grid, q) - m[None, :]
        assert np.max(deviate - truthful[:, None]) <= 1e-9


class TestPriceStatistics:
    def test_uniform_reference_identities(self, uniform):
        for tau in (0.05, 0.1, 0.15, 0.2):
            rep = solve(uniform, tau)
            st = rep.mechanism.price_statistics()
            assert st.mean == pytest.approx(2.0 * tau, abs=1e-8)
            assert st.variance == pytest.approx(tau * (1.0 - 4.0 * tau), abs=1e-8)

    def test_matches_monte_carlo(self, uniform_mech):
        n = 1_000_000
        rng = np.random.default_rng(42)
        prices = uniform_mech.price_quantile(rng.random(n))
        st = uniform_mech.price_statistics()
        se_mean = prices.std() / math.sqrt(n)
        assert st.mean == pytest.approx(float(prices.mean()), abs=3 * se_mean)
        centered = prices - prices.mean()
        var_sample = float(np.mean(centered**2))
        se_var = math.sqrt(
            (float(np.mean(centered**4)) - var_sample**2) / n
        )
        assert st.variance == pytest.approx(var_sample, abs=3 * se_var)
        skew_sample = float(np.mean(centered**3)) / var_sample**1.5
        assert st.skewness == pytest.approx(
            skew_sample, abs=3 * skewness_se(n)
        )

    def test_price_quantile_inverts_allocation(self, two_interval_mech):
        us = np.linspace(0.01, 0.99, 199)
        prices = two_interval_mech.price_quantile(us)
        assert np.max(np.abs(two_interval_mech.allocation(prices) - us)) < 1e-10


class TestPostedPrice:
    def test_step_functions(self):
        pp = PostedPrice(0.4)
        assert pp.allocation(0.39) == 0.0
        assert pp.allocation(0.4) == 1.0
        assert pp.payment(0.8) == pytest.approx(0.4)
        assert pp.buyer_surplus(0.8) == pytest.approx(0.4)
        assert pp.buyer_surplus(0.2) == 0.0

    def test_degenerate_statistics(self):
        st = PostedPrice(0.4).price_statistics()
        assert (st.mean, st.variance, st.skewness) == (0.4, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            PostedPrice(1.2)

    def test_price_quantile(self):
        pp = PostedPrice(0.3)
        assert pp.price_quantile(0.5) == 0.3
        assert isinstance(pp.price_quantile(0.5), float)
        np.testing.assert_array_equal(pp.price_quantile([0.0, 0.4, 1.0]), [0.3, 0.3, 0.3])
        with pytest.raises(DomainError):
            pp.price_quantile(1.5)
        with pytest.raises(DomainError):
            pp.price_quantile([0.5, -0.1])
