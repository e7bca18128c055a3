import math

import pytest

from robustmech.errors import BracketError
from robustmech.numerics import adaptive_simpson, bisect_root


def test_bisect_linear_root():
    res = bisect_root(lambda x: 2.0 * x - 1.0, 0.0, 1.0)
    assert res.converged
    assert res.root == pytest.approx(0.5, abs=1e-11)


def test_bisect_accepts_infinite_endpoint():
    res = bisect_root(lambda x: 1.0 / x - 4.0, 0.0, 1.0, flo=math.inf)
    assert res.root == pytest.approx(0.25, abs=1e-10)


def test_bisect_requires_sign_change():
    with pytest.raises(BracketError):
        bisect_root(lambda x: x + 1.0, 0.0, 1.0)


def test_bisect_default_full_precision():
    root = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0).root
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_bisect_default_in_a_subnormal_bracket():
    # half an ulp of the bracket's ends rounds to 0 below 2**-1021
    root = bisect_root(lambda x: x - 1e-310, 0.0, 3e-308).root
    assert math.nextafter(root, 0.0) <= 1e-310 <= math.nextafter(root, 1.0)


def test_adaptive_simpson_polynomial_exact():
    val = adaptive_simpson(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 1.0)
    assert val == pytest.approx(0.25, abs=1e-12)


def test_adaptive_simpson_kink_with_split():
    val = adaptive_simpson(lambda x: abs(x - 0.3), 0.0, 1.0, split_points=[0.3])
    exact = 0.3**2 / 2 + 0.7**2 / 2
    assert val == pytest.approx(exact, abs=1e-12)



def _plain_bisection_steps(f, lo, hi):
    """Steps plain bisection needs to collapse [lo, hi] to adjacent floats,
    counted the way ``bisect_root`` counts them (the collapse check is one)."""
    a, b, fa = lo, hi, f(lo)
    for it in range(1, 2000):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            return it
        fm = f(mid)
        if fm == 0.0:
            return it
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = mid, fm
        else:
            b = mid
    raise AssertionError("plain bisection did not collapse the bracket")


@pytest.mark.parametrize("root", [0.3, 1.0 / 3.0, 0.7, 0.999, 1.234e-4])
@pytest.mark.parametrize(
    "shape",
    [
        pytest.param(lambda x, r: -1.0 if x < r else 10.0, id="jump"),
        pytest.param(lambda x, r: (x - r) if x < r else 100.0 * (x - r), id="kink"),
    ],
)
def test_bisect_worst_case_within_one_step_of_bisection(shape, root):
    def f(x):
        return shape(x, root)

    res = bisect_root(f, 0.0, 1.0)
    assert res.converged
    assert abs(res.root - root) <= 2.0 * math.ulp(root)
    assert res.iterations <= _plain_bisection_steps(f, 0.0, 1.0) + 1


def test_bisect_smooth_root_is_superlinear():
    res = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0)
    assert abs(res.root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
    assert res.iterations <= 12


def test_bisect_infinite_end_values_converge():
    res = bisect_root(lambda x: math.log(x) + 1.0, 0.0, 5.0, flo=-math.inf, fhi=math.inf)
    assert res.converged
    assert res.root == pytest.approx(math.exp(-1.0), rel=1e-15)


def _certified(f, root):
    """f changes sign between root and a float next to it (or is 0 there)."""
    fr = f(root)
    return fr == 0.0 or any((fr < 0.0) != (f(math.nextafter(root, t)) < 0.0) for t in (-math.inf, math.inf))


def test_newton_steps_from_the_derivative():
    def f(x):
        return x * x - 2.0

    res = bisect_root(f, 1.0, 2.0, df=lambda x: 2.0 * x)
    assert abs(res.root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
    assert _certified(f, res.root)
    assert res.iterations <= 7 < bisect_root(f, 1.0, 2.0).iterations + 3
    assert res.slope == pytest.approx(2.0 * res.root, rel=1e-15)


@pytest.mark.parametrize("pi", [1e-200, 1e-30, 1e-12, 1e-6])
def test_newton_on_a_power_law_tail_takes_no_more_steps_than_itp(pi):
    # x (1 - x)**5 - pi near x = 1, where Newton alone creeps by (1 - x) / 5
    def f(x):
        return x * (1.0 - x) ** 5 - pi

    def df(x):
        return (1.0 - x) ** 5 - 5.0 * x * (1.0 - x) ** 4

    newton = bisect_root(f, 0.9, 1.0, df=df)
    itp = bisect_root(f, 0.9, 1.0)
    assert newton.root == itp.root
    assert _certified(f, newton.root)
    assert newton.iterations <= itp.iterations


def test_newton_toward_an_infinite_end_value():
    res = bisect_root(
        lambda t: math.log(t) + 1.0, 0.01, 5.0,
        flo=math.log(0.01) + 1.0, fhi=math.inf, df=lambda t: 1.0 / t, dflo=100.0,
    )
    assert res.root == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert res.iterations <= 8
