"""Relative accuracy at the edges of the feasible range, and typed errors for
non-finite input.

The accuracy oracles are float closed forms for the uniform reference, solved
with scipy's brentq rather than the library's cuts and searches:

* RS: rho*(k) = (k/2) tanh(1/(2k)) = tau;
* PP: k = 2 tau / (1 - 4 tau), p = 2 tau;
* RO: gap(pi) = s/2 - pi ln((1+s)^2 / (4 pi)) = r with s = sqrt(1 - 4 pi).

The two-atom posted-price fragility at tiny targets is checked against the
smaller root of its quadratic, evaluated in 60-digit decimal arithmetic.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from robustmech import (
    Beta,
    DomainError,
    Empirical,
    Mixture,
    PostedPrice,
    Power,
    TruncatedExponential,
    Uniform,
    cut,
    fragility_adjusted_revenue,
    gap_only,
    pi_ro_star,
    pi_star,
    rho_star,
    solve,
    solve_pp,
    solve_pp_two_point,
    solve_ro,
    worst_case_ccdf,
)

PI0 = 0.25
MEAN = 0.5
TAU_FRACS = [1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.95, 0.9996]
# brentq's default xtol is absolute (2e-12): too loose for roots near 1e-13
TOLS = {"xtol": 1e-300, "rtol": 4.0 * 2.0**-52}


def uniform_k_star(tau: float) -> float:
    return brentq(lambda k: 0.5 * k * math.tanh(0.5 / k) - tau, tau, 1e6, **TOLS)


def uniform_gap(pi: float) -> float:
    s = math.sqrt(1.0 - 4.0 * pi)
    # ln((1+s)/(1-s)) with 1 - s = 4 pi / (1 + s), free of cancellation
    return 0.5 * s - pi * math.log((1.0 + s) ** 2 / (4.0 * pi))


def uniform_pi_ro(r: float) -> float:
    return brentq(lambda pi: uniform_gap(pi) - r, 1e-300, PI0, **TOLS)


def rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


@pytest.mark.parametrize("frac", TAU_FRACS)
def test_rs_fragility_relative_accuracy(frac):
    tau = frac * PI0
    assert rel_err(solve(Uniform(), tau).k_star, uniform_k_star(tau)) <= 1e-9


def test_rs_warns_when_pi_star_underflows():
    assert solve(Uniform(), 1e-12 * PI0).warnings
    assert not solve(Uniform(), 0.05 * PI0).warnings


@pytest.mark.parametrize("frac", TAU_FRACS)
def test_pp_relative_accuracy(frac):
    tau = frac * PI0
    rep = solve_pp(Uniform(), tau)
    assert rel_err(rep.k_pp, 2.0 * tau / (1.0 - 4.0 * tau)) <= 1e-9
    assert rel_err(rep.p_pp, 2.0 * tau) <= 1e-9


TWO_POINT = (0.3, 0.5, 0.7, 0.5)


def two_point_low_k(tau: float) -> float:
    """Smaller root of a1 (v2 - v1) k^2 - (mu0 - tau) k + tau = 0 (the
    low-target branch), in 60-digit decimals."""
    v1, a1, v2, a2 = (Decimal(x) for x in TWO_POINT)
    t = Decimal(tau)
    with localcontext() as ctx:
        ctx.prec = 60
        a = a1 * (v2 - v1)
        b = a1 * v1 + a2 * v2 - t
        return float((b - (b * b - 4 * a * t).sqrt()) / (2 * a))


@pytest.mark.parametrize("tau", [1e-12, 1e-9, 1e-6])
def test_two_point_closed_form_relative_accuracy(tau):
    k = two_point_low_k(tau)
    if tau == 1e-12:
        assert k == pytest.approx(2.0000000000056e-12, rel=1e-13)
    assert rel_err(solve_pp_two_point(*TWO_POINT, tau).k_pp, k) <= 1e-12


@pytest.mark.parametrize("tau", [1e-12, 1e-9, 1e-6])
def test_pp_fallback_relative_accuracy(tau):
    # the two-atom reference takes the generic (non-regular) k bisection
    v1, a1, v2, a2 = TWO_POINT
    rep = solve_pp(Empirical(((v1, a1), (v2, a2))), tau)
    assert rel_err(rep.k_pp, two_point_low_k(tau)) <= 1e-9


@pytest.mark.parametrize("r", [1e-12, 0.2 * MEAN, 0.8 * MEAN, (1.0 - 1e-6) * MEAN])
def test_ro_level_relative_accuracy(r):
    assert rel_err(pi_ro_star(Uniform(), r), uniform_pi_ro(r)) <= 1e-8


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: Power(math.inf), id="power-inf"),
        pytest.param(lambda: Power(math.nan), id="power-nan"),
        pytest.param(lambda: Beta(math.inf, 1.0), id="beta-alpha-inf"),
        pytest.param(lambda: Beta(2.0, math.nan), id="beta-beta-nan"),
        pytest.param(lambda: TruncatedExponential(math.inf), id="texp-inf"),
        pytest.param(lambda: TruncatedExponential(math.nan), id="texp-nan"),
        pytest.param(
            lambda: Mixture((Uniform(), Beta(2.0, 5.0)), (math.nan, 0.5)),
            id="mixture-weight-nan",
        ),
        pytest.param(lambda: Empirical(((0.5, math.nan),)), id="empirical-mass-nan"),
        pytest.param(lambda: pi_ro_star(Uniform(), math.nan), id="radius-nan"),
        pytest.param(lambda: solve_ro(Uniform(), math.inf), id="radius-inf"),
        pytest.param(lambda: solve_ro(Uniform(), -math.inf), id="radius-minus-inf"),
    ],
)
def test_non_finite_input_raises_domain_error(make):
    with pytest.raises(DomainError):
        make()


def _menu():
    return solve(Uniform(), 0.1).mechanism


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: _menu().payment(math.nan), id="menu-payment-nan"),
        pytest.param(lambda: _menu().allocation(math.nan), id="menu-allocation-nan"),
        pytest.param(lambda: _menu().payment([0.5, math.nan]), id="menu-payment-array-nan"),
        pytest.param(lambda: _menu().price_quantile(math.nan), id="menu-price-quantile-nan"),
        pytest.param(lambda: PostedPrice(0.3).payment(math.nan), id="posted-payment-nan"),
        pytest.param(lambda: PostedPrice(0.3).price_quantile(math.nan), id="posted-quantile-nan"),
        pytest.param(lambda: Beta(2.0, 5.0).ccdf(math.nan), id="ccdf-nan"),
        pytest.param(lambda: Beta(2.0, 5.0).ccdf_left(math.nan), id="ccdf-left-nan"),
        pytest.param(lambda: Beta(2.0, 5.0).cdf(math.nan), id="cdf-nan"),
        pytest.param(lambda: Beta(2.0, 5.0).cdf(2.0), id="cdf-above-one"),
        pytest.param(lambda: Beta(2.0, 5.0).cdf([0.5, -0.1]), id="cdf-below-zero"),
        pytest.param(lambda: Beta(2.0, 5.0).quantile(math.nan), id="quantile-nan"),
        pytest.param(lambda: Beta(2.0, 5.0).ccdf_integral(-1.0, 2.0), id="integral-outside"),
        pytest.param(lambda: Beta(2.0, 5.0).ccdf_integral(0.1, math.nan), id="integral-nan"),
        pytest.param(lambda: Beta(2.0, 5.0).ccdf_integral(math.nan, 0.1), id="integral-nan-first"),
        pytest.param(lambda: Uniform().ccdf_integral(0.1, math.inf), id="integral-inf"),
        pytest.param(lambda: Uniform().ccdf_integral(0.5, 1.0 + 1e-9), id="integral-past-slack"),
        pytest.param(lambda: worst_case_ccdf(Uniform(), 0.1, math.nan), id="worst-case-ccdf-nan"),
        pytest.param(lambda: cut(Uniform(), math.nan), id="cut-level-nan"),
        pytest.param(lambda: gap_only(Uniform(), math.nan), id="gap-level-nan"),
        pytest.param(lambda: worst_case_ccdf(Uniform(), math.nan, 0.5), id="worst-case-level-nan"),
        pytest.param(
            lambda: fragility_adjusted_revenue(Uniform(), math.nan, 1.0), id="rho-level-nan"
        ),
        pytest.param(lambda: pi_star(Uniform(), 0.0), id="pi-star-fragility-zero"),
        pytest.param(lambda: pi_star(Uniform(), -1.0), id="pi-star-fragility-negative"),
        pytest.param(lambda: rho_star(Uniform(), math.nan), id="rho-star-fragility-nan"),
    ],
)
def test_nan_or_out_of_range_argument_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_ccdf_integral_clamps_within_slack():
    dist = Beta(2.0, 5.0)
    assert dist.ccdf_integral(-1e-13, 1.0 + 1e-13) == dist.ccdf_integral(0.0, 1.0)


@pytest.mark.parametrize("n", [-1, 2.5, "10", None])
@pytest.mark.parametrize(
    "dist",
    [Beta(2.0, 5.0), Uniform(), Mixture((Uniform(), Beta(2.0, 5.0)), (0.5, 0.5))],
    ids=["beta", "uniform", "mixture"],
)
def test_sample_size_must_be_a_nonnegative_integer(dist, n):
    with pytest.raises(DomainError, match="sample size"):
        dist.sample(n, np.random.default_rng(0))
    assert dist.sample(0, np.random.default_rng(0)).shape == (0,)
