import json
import pickle
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    interior_atoms,
    merged_knot_distance,
    mp_cdf,
    mp_ccdf,
    sorted_quantile_transport,
    trapezoid_ccdf_distance,
)
from robustmech import (
    Beta,
    DomainError,
    Empirical,
    Mixture,
    Power,
    TruncatedExponential,
    Uniform,
    ValuationDistribution,
    from_json,
    max_posted_revenue,
    revenue,
    solve,
    wasserstein_distance,
)
from robustmech.numerics import adaptive_simpson

ALL_KINDS = [
    Uniform(),
    Power(2.0),
    TruncatedExponential(1.0),
    Beta(2.0, 5.0),
    Beta(0.5, 0.5),
    Mixture((Beta(10.0, 2.0), Beta(2.0, 10.0)), (0.9, 0.1)),
    Empirical(((0.3, 0.5), (0.7, 0.5))),
]


class TestCcdf:
    def test_uniform_point(self, uniform):
        assert uniform.ccdf(0.3) == pytest.approx(0.7)

    def test_empirical_strictly_above(self, two_point):
        assert two_point.ccdf(0.3) == pytest.approx(0.5)
        assert two_point.ccdf(0.29) == pytest.approx(1.0)
        assert two_point.ccdf(0.7) == pytest.approx(0.0)

    def test_beta_symmetric_midpoint(self):
        assert Beta(2.0, 2.0).ccdf(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_domain_error(self, uniform):
        with pytest.raises(DomainError):
            uniform.ccdf(1.5)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.to_json()["kind"])
    def test_nonincreasing_and_bounded(self, dist):
        xs = np.linspace(0.0, 1.0, 2001)
        vals = dist.ccdf(xs)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
        assert dist.ccdf(1.0) == pytest.approx(0.0, abs=1e-12)


class TestCcdfLeft:
    def test_atom_included(self, two_point):
        assert two_point.ccdf_left(0.7) == pytest.approx(0.5)
        assert two_point.ccdf_left(0.71) == pytest.approx(0.0)

    def test_continuous_equals_ccdf(self, uniform):
        assert uniform.ccdf_left(0.4) == pytest.approx(0.6)

    def test_zero_excluded(self, uniform):
        with pytest.raises(DomainError):
            uniform.ccdf_left(0.0)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.to_json()["kind"])
    def test_left_limit_dominates(self, dist):
        xs = np.linspace(0.01, 1.0, 500)
        assert np.all(dist.ccdf_left(xs) >= dist.ccdf(xs) - 1e-12)


class TestMean:
    def test_uniform(self, uniform):
        assert uniform.mean() == pytest.approx(0.5)

    def test_two_point(self, two_point):
        assert two_point.mean() == pytest.approx(0.5)

    def test_power_one_matches_uniform(self):
        assert Power(1.0).mean() == pytest.approx(0.5)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.to_json()["kind"])
    def test_matches_ccdf_quadrature(self, dist):
        # independent route: adaptive Simpson of the CCDF over [0, 1]
        numeric = adaptive_simpson(
            lambda x: dist.ccdf(x), 0.0, 1.0, split_points=interior_atoms(dist)
        )
        assert dist.mean() == pytest.approx(numeric, abs=1e-8)
        assert 0.0 < dist.mean() <= 1.0


class TestCcdfIntegral:
    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.to_json()["kind"])
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.1, 0.6), (0.35, 0.9)])
    def test_matches_quadrature(self, dist, bounds):
        a, b = bounds
        numeric = adaptive_simpson(
            lambda x: dist.ccdf(x), a, b, split_points=interior_atoms(dist)
        )
        assert dist.ccdf_integral(a, b) == pytest.approx(numeric, abs=1e-9)

    def test_empty_range(self, uniform):
        assert uniform.ccdf_integral(0.5, 0.5) == 0.0
        assert uniform.ccdf_integral(0.6, 0.4) == 0.0


class TestRevenue:
    def test_uniform(self, uniform):
        assert revenue(uniform, 0.5) == pytest.approx(0.25)

    def test_two_point_upper_atom(self, two_point):
        assert revenue(two_point, 0.7) == pytest.approx(0.35)

    def test_zero_price(self, two_point, uniform):
        assert revenue(two_point, 0.0) == 0.0
        assert revenue(uniform, 0.0) == 0.0

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_price_outside_unit_interval(self, uniform, p):
        with pytest.raises(DomainError):
            revenue(uniform, p)


class TestMaxPostedRevenue:
    def test_uniform(self, uniform):
        pi0, p = max_posted_revenue(uniform)
        assert pi0 == pytest.approx(0.25, abs=1e-10)
        assert p == pytest.approx(0.5, abs=1e-6)

    def test_two_point(self, two_point):
        assert max_posted_revenue(two_point) == (pytest.approx(0.35), pytest.approx(0.7))

    @pytest.mark.parametrize("b", [1e-5, 3e-6])
    def test_argmax_next_to_one(self, b):
        # x (1 - x)**b peaks at 1 / (1 + b), in the grid's last cells, where
        # the density diverges at x = 1
        pi0, price = max_posted_revenue(Beta(1.0, b))
        assert price == pytest.approx(1.0 / (1.0 + b), rel=1e-9)
        assert pi0 == pytest.approx((b / (1.0 + b)) ** b / (1.0 + b), rel=1e-12)

    @pytest.mark.parametrize("shape", [(0.5, 0.5), (2.0, 5.0), (10.0, 2.0)])
    def test_price_is_the_root_of_the_revenue_slope(self, shape):
        # the root of ccdf(p) = p pdf(p) in 50 digits (0.63059459529... for
        # Beta(0.5, 0.5), where golden section stopped at 0.63059458756)
        dist = Beta(*shape)
        _, price = max_posted_revenue(dist)
        a, b = (mpmath.mpf(s) for s in shape)
        with mpmath.workdps(50):
            root = mpmath.findroot(
                lambda p: mp_ccdf(dist, p) - p * p ** (a - 1) * (1 - p) ** (b - 1) / mpmath.beta(a, b),
                mpmath.mpf(price),
            )
            assert abs(price - root) <= 1e-13 * root

    @given(
        v1=st.floats(0.05, 0.6),
        dv=st.floats(0.05, 0.39),
        a1=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_two_point_closed_form(self, v1, dv, a1):
        v2 = min(v1 + dv, 1.0)
        dist = Empirical(((v1, a1), (v2, 1.0 - a1)))
        pi0, _ = max_posted_revenue.__wrapped__(dist)
        assert pi0 == pytest.approx(max(v1, (1.0 - a1) * v2), abs=1e-12)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.to_json()["kind"])
    def test_beats_random_prices(self, dist):
        pi0, _ = max_posted_revenue(dist)
        rng = np.random.default_rng(0)
        prices = rng.random(1000)
        assert all(revenue(dist, float(p)) <= pi0 + 1e-9 for p in prices)


#: every closed-form family, with shapes on both sides of 1
DENSITY_FAMILIES = {
    "uniform": Uniform(),
    "power3": Power(3.0),
    "texp0.2": TruncatedExponential(0.2),
    "texp5": TruncatedExponential(5.0),
    "beta2_5": Beta(2.0, 5.0),
    "beta.5_.5": Beta(0.5, 0.5),
    "beta10_2": Beta(10.0, 2.0),
    "beta.7_3": Beta(0.7, 3.0),
    "mixture": Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15)),
}
#: random points, and points near both ends of the support
DENSITY_XS = sorted(
    np.random.default_rng(11).random(12).tolist() + [1e-300, 1e-12, 1e-4, 0.5, 0.9999, 1.0 - 1e-8]
)


class TestDensity:
    @pytest.mark.parametrize("x", DENSITY_XS)
    @pytest.mark.parametrize("dist", DENSITY_FAMILIES.values(), ids=DENSITY_FAMILIES.keys())
    def test_pdf_is_the_mpmath_derivative_of_the_ccdf(self, dist, x):
        # a central difference of the tail nearer x, with a step 1e-15 of the
        # distance to that end: its error is about 1e-30 relative
        with mpmath.workdps(50):
            t = mpmath.mpf(x)
            if x < 0.5:
                h = t * mpmath.mpf("1e-15")
                want = (mp_cdf(dist, t + h) - mp_cdf(dist, t - h)) / (2 * h)
            else:
                h = (1 - t) * mpmath.mpf("1e-15")
                want = (mp_ccdf(dist, t - h) - mp_ccdf(dist, t + h)) / (2 * h)
        if want < 1e-300:
            # below the normal floats the density underflows
            assert dist._pdf(x) <= 1e-300
        else:
            assert abs(dist._pdf(x) - want) <= 1e-12 * want

    @pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 0.9, 0.99])
    def test_central_difference_for_families_with_only_a_ccdf(self, x):
        class Cubic(ValuationDistribution):
            def _ccdf(self, xs):
                return 1.0 - xs**3

        # the step 2**-17 leaves an error of 2**-34 from the third derivative
        assert Cubic()._pdf(x) == pytest.approx(3.0 * x * x, rel=1e-9, abs=1e-10)


class TestBetaUpperTail:
    @pytest.mark.parametrize(
        "x", [0.9999, 1.0 - 1e-8, 0.5, 0.75] + np.random.default_rng(12).random(8).tolist()
    )
    @pytest.mark.parametrize("shape", [(2.0, 5.0), (0.5, 0.5), (10.0, 2.0), (3.0, 0.7)])
    def test_ccdf_matches_mpmath(self, shape, x):
        dist = Beta(*shape)
        with mpmath.workdps(50):
            want = mp_ccdf(dist, x)
        assert abs(dist.ccdf(x) - want) <= 1e-13 * want

    def test_beta25_keeps_its_tail_at_0_9999(self):
        # 1 - betainc(2, 5, 0.9999) is 0.0
        assert Beta(2.0, 5.0).ccdf(0.9999) == pytest.approx(5.9995e-20, rel=1e-12)

    def test_arrays_match_scalars(self):
        dist = Beta(0.5, 3.0)
        xs = np.concatenate((np.linspace(0.0, 1.0, 1001), [0.5 - 1e-17, 0.5, 1.0 - 1e-12]))
        got = dist.ccdf(xs)
        assert got.tolist() == [dist.ccdf(float(x)) for x in xs]


class TestPowerAndExponentialUpperTail:
    @pytest.mark.parametrize(
        "x", [0.0, 0.5, 0.75, 0.9999, 1.0 - 1e-8, 1.0 - 9.1e-13]
        + np.random.default_rng(13).random(4).tolist()
    )
    @pytest.mark.parametrize(
        "dist",
        [Power(3.0), Power(1.5), TruncatedExponential(1.0), TruncatedExponential(0.05),
         TruncatedExponential(20.0)],
        ids=["power3", "power1.5", "texp1", "texp0.05", "texp20"],
    )
    def test_ccdf_matches_mpmath(self, dist, x):
        with mpmath.workdps(50):
            want = mp_ccdf(dist, x)
        assert abs(dist.ccdf(x) - want) <= 1e-13 * want


class TestQuantile:
    @pytest.mark.parametrize(
        "dist",
        [Uniform(), Power(2.0), TruncatedExponential(1.5), Beta(2.0, 5.0),
         Mixture((Beta(10.0, 2.0), Beta(2.0, 10.0)), (0.9, 0.1))],
        ids=["uniform", "power", "exp", "beta", "mixture"],
    )
    def test_inverse_of_cdf(self, dist):
        us = np.linspace(0.001, 0.999, 97)
        xs = dist.quantile(us)
        assert np.max(np.abs(dist.cdf(xs) - us)) < 1e-10

    def test_empirical_steps(self, two_point):
        assert two_point.quantile(0.2) == pytest.approx(0.3)
        assert two_point.quantile(0.6) == pytest.approx(0.7)
        assert two_point.quantile(1.0) == pytest.approx(0.7)

    def test_sampling_is_seeded(self, beta25):
        a = beta25.sample(100, np.random.default_rng(7))
        b = beta25.sample(100, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestMixtureSample:
    MIXTURE = Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15))

    @staticmethod
    def whole_arrays(mixture, n, rng):
        # every component index from one array of n uniforms, then every value
        which = np.searchsorted(np.cumsum(mixture.weights), rng.random(n), side="right")
        which = np.minimum(which, len(mixture.components) - 1)
        us = rng.random(n)
        out = np.empty(n)
        for j, c in enumerate(mixture.components):
            sel = which == j
            out[sel] = c._quantile(us[sel])
        return out

    @pytest.mark.parametrize("n", [0, 1, 2**17 + 1, 300_000])
    def test_blocks_draw_what_whole_arrays_draw(self, n):
        # each component's draws come from its contiguous slice of the sorted
        # uniforms; a draw depends on its own uniform alone
        three = Mixture((Beta(0.5, 0.5), Power(3.0), Beta(4.0, 4.0)), (0.2, 0.5, 0.3))
        for mixture in (self.MIXTURE, three):
            got = mixture.sample(n, np.random.default_rng(9))
            want = self.whole_arrays(mixture, n, np.random.default_rng(9))
            assert np.array_equal(got, want)

    def test_a_million_draws_peak_under_20_mb(self):
        # 8 MB of output and 1 MB of component indices, plus one block's scratch
        self.MIXTURE.sample(1_000, np.random.default_rng(0))  # fill the caches
        tracemalloc.start()
        try:
            self.MIXTURE.sample(1_000_000, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6


class TestEmpiricalConstruction:
    def test_deduplicates_and_sorts(self):
        d = Empirical(((0.7, 0.25), (0.3, 0.5), (0.7, 0.25)))
        assert d.atoms == ((0.3, 0.5), (0.7, 0.5))

    def test_atom_jump_matches_mass(self, two_point):
        for v, m in two_point.atoms:
            assert two_point.ccdf_left(v) - two_point.ccdf(v) == pytest.approx(m)

    def test_pickle_after_a_level_search(self):
        # the level searches' table is kept on the instance but not pickled
        dist = Empirical.from_samples(np.random.default_rng(3).beta(2.0, 5.0, 300))
        tau = 0.45 * max_posted_revenue(dist)[0]
        before = solve(dist, tau)
        assert "_level_table" in vars(dist)
        copy = pickle.loads(pickle.dumps(dist))
        assert "_level_table" not in vars(copy)
        assert copy == dist
        after = solve(copy, tau)
        assert (after.k_star, after.intervals) == (before.k_star, before.intervals)

    def test_rejects_bad_masses(self):
        with pytest.raises(DomainError):
            Empirical(((0.3, 0.5), (0.7, 0.6)))
        with pytest.raises(DomainError):
            Empirical(((0.3, -0.5), (0.7, 1.5)))


def _build_empirical(values, raws):
    raws = raws[: len(values)]
    total = sum(raws)
    return Empirical(tuple((v, r / total) for v, r in zip(values, raws)))


empirical_strategy = st.builds(
    _build_empirical,
    values=st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6, unique=True
    ),
    raws=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
)


class TestWasserstein:
    def test_identity(self, uniform, two_point, beta25):
        for d in (uniform, two_point, beta25):
            assert wasserstein_distance(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_dirac_at_zero_vs_uniform(self, uniform):
        dirac0 = Empirical(((0.0, 1.0),))
        assert wasserstein_distance(dirac0, uniform) == pytest.approx(0.5, abs=1e-12)

    def test_two_diracs_sorted_quantile_oracle(self):
        a = Empirical(((0.3, 1.0),))
        b = Empirical(((0.7, 1.0),))
        assert wasserstein_distance(a, b) == pytest.approx(0.4, abs=1e-14)
        assert sorted_quantile_transport(a, b) == pytest.approx(0.4, abs=1e-14)

    @given(p=empirical_strategy, q=empirical_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_transport_oracle(self, p, q):
        assert wasserstein_distance(p, q) == pytest.approx(
            sorted_quantile_transport(p, q), abs=1e-10
        )

    @given(p=empirical_strategy, q=empirical_strategy, r=empirical_strategy)
    @settings(max_examples=30, deadline=None)
    def test_metric_axioms(self, p, q, r):
        dpq = wasserstein_distance(p, q)
        assert dpq >= 0.0
        assert dpq == pytest.approx(wasserstein_distance(q, p), abs=1e-12)
        assert dpq <= (
            wasserstein_distance(p, r) + wasserstein_distance(r, q) + 1e-10
        )

    def test_sample_pairs_match_merged_knot_sum(self):
        # ties within a sample, atoms at 0 and 1, and shared atoms across the
        # two samples; either side may be taken for the one-pass kernel
        rng = np.random.default_rng(17)
        for _ in range(300):
            p, q = (
                Empirical.from_samples(np.round(rng.random(int(rng.integers(1, 40))), 1))
                for _ in range(2)
            )
            oracle = merged_knot_distance(p, q)
            assert wasserstein_distance(p, q) == pytest.approx(oracle, rel=1e-13, abs=0.0)
            assert wasserstein_distance(q, p) == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_continuous_pair_against_dense_grid(self, uniform, beta25):
        oracle = trapezoid_ccdf_distance(beta25.ccdf, uniform.ccdf)
        assert wasserstein_distance(beta25, uniform) == pytest.approx(
            oracle, abs=1e-6
        )

    def test_discrete_vs_continuous(self, uniform, two_point):
        oracle = trapezoid_ccdf_distance(two_point.ccdf, uniform.ccdf)
        assert wasserstein_distance(two_point, uniform) == pytest.approx(
            oracle, abs=1e-6
        )


class TestJson:
    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.to_json()["kind"])
    def test_round_trip(self, dist):
        clone = from_json(json.dumps(dist.to_json()))
        assert clone == dist

    def test_parse_inline(self):
        d = from_json('{"kind":"empirical","atoms":[[0.3,0.5],[0.7,0.5]]}')
        assert isinstance(d, Empirical)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            from_json('{"kind":"cauchy"}')

    def test_missing_field(self):
        with pytest.raises(DomainError):
            from_json('{"kind":"power"}')

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"power","alpha":[1]}',
            '{"kind":"beta","alpha":"two","beta":5}',
            '{"kind":"mixture","components":5,"weights":[1]}',
            '{"kind":"mixture","components":[{"kind":"uniform"}],"weights":1}',
            '{"kind":"empirical","atoms":[[0.5]]}',
            # a bool or a numeric string is not a number, and a typo is not ignored
            '{"kind":"power","alpha":true}',
            '{"kind":"beta","alpha":"2","beta":"5"}',
            '{"kind":"empirical","atoms":[["0.5",1]]}',
            '{"kind":"empirical","atoms":[[0.5,true]]}',
            '{"kind":"mixture","components":[{"kind":"uniform"}],"weights":[true]}',
            '{"kind":"mixture","components":["{\\"kind\\":\\"uniform\\"}"],"weights":[1]}',
            '{"kind":"uniform","junk":1}',
            '{"kind":"beta","alpha":2,"beta":5,"gamma":1}',
            '{"kind":["uniform"]}',
        ],
    )
    def test_malformed_fields(self, spec):
        with pytest.raises(DomainError):
            from_json(spec)


class TestValidation:
    def test_power_requires_alpha_ge_one(self):
        with pytest.raises(DomainError):
            Power(0.5)

    def test_beta_requires_positive_shapes(self):
        with pytest.raises(DomainError):
            Beta(0.0, 1.0)

    def test_mixture_weights(self):
        with pytest.raises(DomainError):
            Mixture((Uniform(), Uniform()), (0.6, 0.6))

    def test_mixture_needs_one_weight_per_component(self):
        with pytest.raises(DomainError, match="matching"):
            Mixture((Uniform(), Uniform()), (1.0,))
        with pytest.raises(DomainError, match="matching"):
            Mixture((), ())

    def test_mixture_rejects_discrete_components(self):
        with pytest.raises(DomainError):
            Mixture((Empirical(((0.5, 1.0),)),), (1.0,))

    def test_exponential_rate(self):
        with pytest.raises(DomainError):
            TruncatedExponential(0.0)
