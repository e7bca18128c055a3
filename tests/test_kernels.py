"""The array CCDF-integral kernel ``_integrals`` and the posted-price scan
built on it.

Each family's closed form is checked against the scalar ``ccdf_integral``
and against ``scipy.integrate.quad`` of the family's ``_ccdf``; the custom
subclass fallback against a known closed form; the scan price against the
slope of rho_pp in p and a 20,001-point price grid; the posted-price
fragility, on the path each reference takes, against values pinned from the
golden-section scan that the grid scan replaced.
"""

import warnings

import numpy as np
import pytest
from helpers import interior_atoms
from scipy.integrate import IntegrationWarning, quad

from robustmech import (
    Beta,
    Empirical,
    Mixture,
    Power,
    TruncatedExponential,
    Uniform,
    ValuationDistribution,
    max_posted_revenue,
    pp_solver,
    rho_pp,
    solve_pp,
)

IRREGULAR = Mixture((Beta(10.0, 2.0), Beta(2.0, 10.0)), (0.9, 0.1))
#: the two-hump mixture of the benchmark's solve-mix workload
BIMODAL = Mixture((Beta(2.0, 10.0), Beta(10.0, 2.0)), (0.85, 0.15))

FAMILIES = {
    "uniform": Uniform(),
    "power3": Power(3.0),
    "texp0.2": TruncatedExponential(0.2),
    "texp1": TruncatedExponential(1.0),
    "texp5": TruncatedExponential(5.0),
    "beta2_5": Beta(2.0, 5.0),
    "beta.5_.5": Beta(0.5, 0.5),
    "bimodal": BIMODAL,
    "empirical": Empirical(((0.1, 0.2), (0.35, 0.3), (0.6, 0.1), (0.9, 0.4))),
}


def quad_integral(dist, a: float, b: float) -> float:
    """quad of the CCDF over [a, b], split at the distribution's kinks."""
    inner = [x for x in interior_atoms(dist) if a < x < b]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(
            lambda t: float(dist._ccdf(np.asarray(t))),
            a,
            b,
            epsabs=0.0,
            epsrel=1e-13,
            points=inner or None,
            limit=200,
        )
    return value


def intervals(seed: int):
    """Random a <= b, then a = b, then b = 1 with random a."""
    rng = np.random.default_rng(seed)
    a, b = np.sort(rng.random((2, 40)), axis=0)
    same = rng.random(5)
    top = rng.random(15)
    return (
        np.concatenate((a, same, top)),
        np.concatenate((b, same, np.ones_like(top))),
    )


class TestIntegrals:
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_array_matches_scalar_ccdf_integral(self, name):
        dist = FAMILIES[name]
        a, b = intervals(1)
        arr = dist._integrals(a, b)
        scalar = np.array([dist.ccdf_integral(x, y) for x, y in zip(a, b)])
        # numpy's array power may round differently from the scalar one
        np.testing.assert_allclose(arr, scalar, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_matches_quad(self, name):
        # the closed forms subtract partial integrals of order 1, so on short
        # intervals at the top of the support only an absolute 1e-15 holds
        dist = FAMILIES[name]
        a, b = intervals(2)
        arr = dist._integrals(a, b)
        for x, y, v in zip(a, b, arr):
            q = quad_integral(dist, float(x), float(y))
            assert abs(v - q) <= 1e-12 * abs(q) + 1e-15, (x, y, v, q)

    def test_empty_interval_is_zero(self):
        for dist in FAMILIES.values():
            assert dist.ccdf_integral(0.4, 0.4) == 0.0
            assert dist.ccdf_integral(0.6, 0.2) == 0.0
            assert dist._integrals(np.array([0.3]), np.array([0.3]))[0] == 0.0

    @pytest.mark.parametrize("rate", [1.0, 5.0])
    def test_truncated_exponential_relative_near_top(self, rate):
        # exp(-rate a) - exp(-rate b) cancels as b -> a; with expm1 only the
        # subtraction of exp(-rate) (b - a) is left, which costs a factor of
        # about 1 / (rate (1 - a)) in relative error
        dist = TruncatedExponential(rate)
        rng = np.random.default_rng(3)
        a = np.concatenate(([0.99943, 0.999, 0.99], rng.random(10), rng.random(5)))
        b = np.concatenate((np.ones(13), a[-5:] + 1e-6))
        for x, y in zip(a, b):
            q = quad_integral(dist, float(x), float(y))
            assert dist.ccdf_integral(float(x), float(y)) == pytest.approx(q, rel=1e-12, abs=0.0)


class QuadraticCCDF(ValuationDistribution):
    """CCDF 1 - x^2 with no closed-form integral of its own."""

    def _ccdf(self, xs):
        return 1.0 - xs * xs

    def to_json(self):
        return {"kind": "quadratic_ccdf"}


class TestSimpsonFallback:
    def test_custom_subclass_uses_base_kernel(self):
        assert QuadraticCCDF._integrals is ValuationDistribution._integrals

    def test_scalar_matches_closed_form(self):
        dist, exact = QuadraticCCDF(), Power(2.0)
        for a, b in ((0.0, 1.0), (0.1, 0.7), (0.5, 1.0), (0.3, 0.3001)):
            assert dist.ccdf_integral(a, b) == pytest.approx(
                exact.ccdf_integral(a, b), rel=1e-10, abs=1e-12
            )
        assert dist.mean() == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_array_runs_scalar_per_element(self):
        dist = QuadraticCCDF()
        a, b = intervals(4)
        arr = dist._integrals(a, b)
        assert arr.shape == a.shape
        assert arr.tolist() == [dist.ccdf_integral(x, y) for x, y in zip(a, b)]


def slope(dist, p: float, k: float) -> float:
    """d rho_pp / d p = (k+1) ccdf(min((1+1/k) p, 1)) - k ccdf(p)."""
    return (k + 1.0) * float(dist.ccdf(min((1.0 + 1.0 / k) * p, 1.0))) - k * float(
        dist.ccdf(p)
    )


SCAN_REFERENCES = {"beta.5_.5": Beta(0.5, 0.5), "bimodal": BIMODAL, "irregular": IRREGULAR}


class TestScanPrice:
    @pytest.mark.parametrize("name", list(SCAN_REFERENCES))
    @pytest.mark.parametrize("k", [0.05, 0.9, 10.0])
    def test_slope_vanishes(self, name, k):
        dist = SCAN_REFERENCES[name]
        assert abs(slope(dist, pp_solver._optimal_price_scan(dist, k), k)) <= 1e-12

    @pytest.mark.parametrize("name", list(SCAN_REFERENCES))
    @pytest.mark.parametrize("k", [0.05, 0.9, 10.0])
    def test_beats_price_grid(self, name, k):
        dist = SCAN_REFERENCES[name]
        ps = np.linspace(0.0, 1.0, 20_001)
        best = float(np.max(k * dist._integrals(ps, np.minimum((1.0 + 1.0 / k) * ps, 1.0))))
        assert rho_pp(dist, pp_solver._optimal_price_scan(dist, k), k) >= best - 1e-12

    def test_bimodal_picks_global_hump(self):
        # at k = 0.9 rho_pp has local maxima near p = 0.117 and p = 0.396;
        # the lower one is higher by about 1.2e-3
        k = 0.9
        p = pp_solver._optimal_price_scan(BIMODAL, k)
        ps = np.linspace(0.25, 1.0, 7_501)
        other = float(np.max(k * BIMODAL._integrals(ps, np.minimum((1.0 + 1.0 / k) * ps, 1.0))))
        assert p < 0.25
        assert rho_pp(BIMODAL, p, k) > other + 1e-3


#: k_pp at tau = frac * pi0, from the golden-section scan this replaced
PINNED_K_PP = {
    "beta.5_.5": (0.027604508511938994, 0.42185523977223893, 9.527904887735541),
    "bimodal": (0.018708972930778143, 0.43270079720898325, 9.988221619339962),
    "irregular": (0.03824866865463705, 0.5589747534887597, 10.002660221167316),
}


@pytest.mark.parametrize("name", list(PINNED_K_PP))
@pytest.mark.parametrize("i,frac", list(enumerate((0.05, 0.45, 0.95))))
def test_scan_path_k_pp_pinned(name, i, frac):
    dist = SCAN_REFERENCES[name]
    rep = solve_pp(dist, frac * max_posted_revenue(dist)[0])
    assert rep.path == "scan"
    assert rep.k_pp == pytest.approx(PINNED_K_PP[name][i], rel=1e-12, abs=0.0)
