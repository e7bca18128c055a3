import math

import pytest

from robustmech.errors import BracketError
from robustmech.numerics import (
    adaptive_simpson,
    bisect_root,
    golden_section_max,
    refine_crossing,
)


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


def test_refine_crossing_full_precision():
    root = refine_crossing(lambda x: x * x - 2.0, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_golden_section_max_quadratic():
    x, val = golden_section_max(lambda x: -((x - 0.37) ** 2), 0.0, 1.0)
    assert x == pytest.approx(0.37, abs=1e-9)
    assert val == pytest.approx(0.0, abs=1e-15)


def test_adaptive_simpson_polynomial_exact():
    val = adaptive_simpson(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 1.0)
    assert val == pytest.approx(0.25, abs=1e-12)


def test_adaptive_simpson_kink_with_split():
    val = adaptive_simpson(lambda x: abs(x - 0.3), 0.0, 1.0, split_points=[0.3])
    exact = 0.3**2 / 2 + 0.7**2 / 2
    assert val == pytest.approx(exact, abs=1e-12)

