"""Valuation distributions on [0, 1].

Every distribution exposes the probabilistic primitives the solvers consume:
the complementary CDF (right tail), its left limit, the mean, the partial
integral of the CCDF, and inverse-CDF sampling.  Reference and true valuation
distributions share the same representation.

The primitives are ``_ccdf(xs)`` and ``_integrals(a, b)``, the CCDF integral
over [a, b] elementwise: each family writes its closed form once, and scalars
and arrays go through the same expression.  ``_pdf(x)``, the density at a
scalar, gives the revenue curve's slope ccdf - x pdf.

All distribution objects are immutable after construction and every operation
is a pure function, so instances are safe for concurrent use.

``scipy.special``, slower to import than the rest, is bound on the first
evaluation of a ``Beta`` off the integer shapes, the first Beta quantile
table (any Beta draw), or the first read of ``distributions.betainc``: a
``Beta`` on integer shapes with alpha + beta <= 57 evaluates its CCDF and
CCDF integrals as binomial sums, without scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, any_outside, check_count
from .numerics import adaptive_simpson, bisect_root

__all__ = [
    "ValuationDistribution",
    "ReferenceDistribution",
    "TrueDistribution",
    "Uniform",
    "Power",
    "TruncatedExponential",
    "Beta",
    "Mixture",
    "Empirical",
    "from_json",
    "wasserstein_distance",
    "revenue",
    "max_posted_revenue",
]

_SCAN_POINTS = 100_001
#: the scan grid's abscissae, one read-only array shared by every reference
_SCAN_XS = np.linspace(0.0, 1.0, _SCAN_POINTS + 1)[1:]
_SCAN_XS.setflags(write=False)
#: values per block of an array kernel (a Beta CCDF's binomial sums, the Beta
#: quantile, a mixture's draws, a mechanism's curves): about 1 MB of scratch
_BLOCK = 16_384


def _bind_scipy():
    """Bind scipy's ``betainc``, ``betaincinv`` and ``betaln`` as globals once:
    betaln is bound last, so when it is here all three are (the import lock
    makes two first calls bind the same functions), and a patched name stays."""
    global betainc, betaincinv, betaln
    if "betaln" not in globals():
        from scipy.special import betainc, betaincinv, betaln


def __getattr__(name):  # PEP 562: reading distributions.betainc binds the three
    if name in ("betainc", "betaincinv", "betaln"):
        _bind_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _as_array(x):
    xs = np.asarray(x, dtype=float)
    return xs, xs.ndim == 0


def _maybe_scalar(out, scalar):
    return float(out) if scalar else out


class ValuationDistribution:
    """Base class: a probability distribution supported on [0, 1]."""

    def _ccdf(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _pdf(self, x: float) -> float:
        """Density at x in (0, 1); here a central difference (step 2**-17) of the CCDF."""
        lo, hi = max(x - 2.0**-17, 0.0), min(x + 2.0**-17, 1.0)
        return float(self._ccdf(np.asarray(lo)) - self._ccdf(np.asarray(hi))) / (hi - lo)

    def ccdf(self, x):
        """P(v > x) for x in [0, 1]; right-continuous and nonincreasing."""
        xs, scalar = _as_array(x)
        if any_outside(xs, -1e-12, 1.0 + 1e-12):
            raise DomainError(f"valuation {x!r} outside [0, 1]")
        return _maybe_scalar(self._ccdf(np.clip(xs, 0.0, 1.0)), scalar)

    def ccdf_left(self, x):
        """P(v >= x) for x in (0, 1]: the left limit of the CCDF.

        Coincides with ``ccdf`` except at atoms.  The limit at 0+ equals 1,
        so 0 is excluded from the domain.
        """
        xs, scalar = _as_array(x)
        # the least positive float is the least valuation in (0, 1]
        if any_outside(xs, math.ulp(0.0), 1.0 + 1e-12):
            raise DomainError(f"valuation {x!r} outside (0, 1]")
        return _maybe_scalar(self._ccdf_left(np.minimum(xs, 1.0)), scalar)

    def _ccdf_left(self, xs: np.ndarray) -> np.ndarray:
        return self._ccdf(xs)

    def cdf(self, x):
        """P(v <= x) for x in [0, 1]."""
        return 1.0 - self.ccdf(x)

    def mean(self) -> float:
        """E[v] = integral of the CCDF over [0, 1]."""
        return self.ccdf_integral(0.0, 1.0)

    def ccdf_integral(self, a: float, b: float) -> float:
        """Integral of the CCDF over [a, b] within [0, 1]; zero when b <= a."""
        # scalar comparisons, which NaN and the infinities fail: this runs per
        # menu interval in every solve and evaluation
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            if not (-1e-12 <= a <= 1.0 + 1e-12 and -1e-12 <= b <= 1.0 + 1e-12):
                raise DomainError(f"integration limits ({a!r}, {b!r}) outside [0, 1]")
            a, b = min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)
        return 0.0 if b <= a else float(self._integrals(a, b))

    def _integrals(self, a, b):
        """Integrals of the CCDF over [a, b], elementwise for a <= b: each family's
        closed form, or here adaptive Simpson once per element; from a scalar
        lower end, once per gap between the sorted upper ends, summed (the
        posted-price scan's grids, whose gaps are narrow)."""
        def one(lo, hi):
            return adaptive_simpson(lambda t: float(self._ccdf(np.asarray(t))), lo, hi)

        if np.ndim(a) == np.ndim(b) == 0:
            return one(a, b)
        many = np.vectorize(one, otypes=[float])
        if np.ndim(a) == 0:
            b = np.asarray(b, dtype=float)
            order = np.argsort(b, axis=None)
            ends = np.concatenate(([a], np.maximum(b.ravel()[order], a)))
            out = np.empty(b.size)
            out[order] = np.cumsum(many(ends[:-1], ends[1:]))
            return out.reshape(b.shape)
        return many(a, b)

    def quantile(self, u):
        """Inverse CDF; accepts scalars or arrays of probabilities, which it
        leaves unchanged."""
        us, scalar = _as_array(u)
        if any_outside(us, 0.0, 1.0):
            raise DomainError("quantile argument outside [0, 1]")
        return _maybe_scalar(self._quantile(us), scalar)

    def _quantile(self, us: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Q(us), written into ``out`` when given: a C-contiguous float array
        of the same shape, which may be ``us`` itself."""
        # bracketed bisection on the CDF; 52 halvings reach ~2e-16 < 1e-12
        lo = np.zeros_like(us)
        hi = np.ones_like(us)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            below = 1.0 - self._ccdf(mid) < us
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return np.multiply(lo + hi, 0.5, out=out)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n inverse-CDF draws Q(U), U from ``rng.random``: the quantile
        overwrites the uniforms, so the draws are the one array of n floats."""
        check_count(n, 0, "sample size")
        us = rng.random(n)
        return self._quantile(us, out=us)

    def to_json(self) -> dict:
        raise NotImplementedError


# Type aliases: the reference and the evaluation measure share one representation.
ReferenceDistribution = ValuationDistribution
TrueDistribution = ValuationDistribution


@dataclass(frozen=True)
class Uniform(ValuationDistribution):
    """Uniform distribution on [0, 1]."""

    def _ccdf(self, xs):
        return 1.0 - xs

    def _pdf(self, x):
        return 1.0

    def mean(self):
        return 0.5

    def _integrals(self, a, b):
        return (b - a) - 0.5 * (b * b - a * a)

    def _quantile(self, us, out=None):
        return np.positive(us, out=out)  # the identity, into out

    def to_json(self):
        return {"kind": "uniform"}


@dataclass(frozen=True)
class Power(ValuationDistribution):
    """CDF x**alpha on [0, 1] with alpha >= 1 (alpha = 1 is uniform)."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise DomainError(f"power exponent must be finite, >= 1, got {self.alpha}")

    def _ccdf(self, xs):
        # no cancellation near x = 1; the least positive float keeps log(0)
        # silent, and 0.0 - keeps ccdf(1) at +0.0
        return 0.0 - np.expm1(self.alpha * np.log(np.maximum(xs, 5e-324)))

    def _pdf(self, x):
        return self.alpha * x ** (self.alpha - 1.0)

    def mean(self):
        return self.alpha / (self.alpha + 1.0)

    def _integrals(self, a, b):
        ap1 = self.alpha + 1.0
        return (b - a) - (b**ap1 - a**ap1) / ap1

    def _quantile(self, us, out=None):
        return np.power(us, 1.0 / self.alpha, out=out)

    def to_json(self):
        return {"kind": "power", "alpha": self.alpha}


#: B_2n / (2n)! for n = 1..8, the Bernoulli numbers over factorials
_TEXP_SERIES = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
    -3617 / 10670622842880000,
)


@dataclass(frozen=True)
class TruncatedExponential(ValuationDistribution):
    """Exponential with the given rate, truncated and renormalized to [0, 1]."""

    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise DomainError(f"rate must be finite and positive, got {self.rate}")

    @property
    def _z(self):
        return -math.expm1(-self.rate)

    def _ccdf(self, xs):
        # exp(-rate x) (1 - exp(-rate (1 - x))) / z keeps the tail near x = 1
        return np.exp(-self.rate * xs) * np.expm1(-self.rate * (1.0 - xs)) / -self._z

    def _pdf(self, x):
        return self.rate * math.exp(-self.rate * x) / self._z

    def mean(self):
        lam = self.rate
        if lam < 0.5:
            # the closed form below cancels at small rates (4e-11 relative
            # off at 1e-6, 5e-15 up to 0.5); 1/lam - 1/expm1(lam) is
            # 1/2 - sum_n B_2n lam**(2n-1) / (2n)!, by Horner's rule to n = 8
            l2 = lam * lam
            total = _TEXP_SERIES[-1]
            for c in _TEXP_SERIES[-2::-1]:
                total = total * l2 + c
            return 0.5 - lam * total
        return 1.0 / lam - math.exp(-lam) / self._z

    def _integrals(self, a, b):
        lam = self.rate
        # exp(-lam a) - exp(-lam b) without the cancellation as b -> a
        core = -np.exp(-lam * a) * np.expm1(-lam * (b - a)) / lam
        return (core - math.exp(-lam) * (b - a)) / self._z

    def _quantile(self, us, out=None):
        # -log1p(-u z) / rate, with the signs moved onto the scalars
        x = np.multiply(us, -self._z, out=np.empty(us.shape) if out is None else out)
        np.log1p(x, out=x)
        x /= -self.rate
        return x

    def to_json(self):
        return {"kind": "truncated_exponential", "rate": self.rate}


@dataclass(frozen=True)
class Beta(ValuationDistribution):
    """Beta(alpha, beta) distribution; CCDF via the regularized incomplete beta.

    On integer shapes with alpha + beta <= 57 the CCDF and the partial-mean
    term are binomial tails (Abramowitz and Stegun 26.5.24), finite sums of
    positive terms on all of [0, 1] (see ``_binomial_tail``), chosen once per
    shape.  On other shapes the CCDF is 1 - I(alpha, beta, x) below x = 1/2
    and I(beta, alpha, 1 - x), with 1 - x exact, above it, from scipy's
    ``betainc``.  The density uses ``math``, with log B(alpha, beta) from
    ``math.lgamma`` once per shape.

    The quantile reads draws off a cached table of quintic polynomials, one
    per cell between ``betaincinv`` knots, built once per shape and
    certified cell by cell against the kernel: no ``betainc`` for those.
    The cells are 1/1024 wide from the tail probability w = 1/16 on and
    shrink with w below it, 64 to an octave down to w = 2**-20, so the
    power-law tails are in the table too.  The kernel solves the rest (w
    below 2**-20, about 2 draws per million, and the cells that miss 1e-14),
    with about one ``betainc`` each: it starts from knots at w = k / 1024
    (linear in each cell, the power-law tail in the first), takes one Halley
    step on log I(alpha, beta, x) = log u against log x, and polishes the few
    draws that step moved by more than 1e-5 relative, bracketing any that
    still move.  Above u = 1/2 both solve I(beta, alpha, y) = 1 - u in
    y = 1 - x instead, so that each draw keeps its precision relative to the
    nearer end of [0, 1] (see ``_beta_knots``).  Sampling, and every shape
    off the binomial sums, binds scipy on first use.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not all(math.isfinite(s) and s > 0.0 for s in (self.alpha, self.beta)):
            raise DomainError("beta shape parameters must be finite and positive")
        a, b = self.alpha, self.beta
        object.__setattr__(self, "_log_b", math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        # the binomial tails' exponents and coefficients: b and C(b-1+j, j),
        # j < a, for the CCDF, a + 1 and C(a+j, j), j < b, for I_x(a+1, b);
        # None off the integer shapes
        sums = None
        if float(a).is_integer() and float(b).is_integer() and a + b <= _BINOMIAL_SHAPES:
            n, m = int(a), int(b)
            sums = (
                m,
                tuple(float(math.comb(m - 1 + j, j)) for j in range(n)),
                n + 1,
                tuple(float(math.comb(n + j, j)) for j in range(m)),
            )
        object.__setattr__(self, "_sums", sums)

    def _ccdf(self, xs):
        if self._sums is not None:
            if xs.ndim == 0:
                return self._binomial_ccdf(float(xs))
            # in blocks, so that the sums' scratch arrays stay small beside
            # the output
            out = np.empty(xs.shape)
            flat, flat_out = xs.reshape(-1), out.reshape(-1)
            for start in range(0, flat.size, _BLOCK):
                flat_out[start : start + _BLOCK] = self._binomial_ccdf(flat[start : start + _BLOCK])
            return out
        _bind_scipy()
        a, b = self.alpha, self.beta
        if xs.ndim:
            # each half with scalar shapes: no full-size arrays of shapes and
            # arguments beside the output
            up = xs >= 0.5
            out = np.empty(xs.shape)
            out[~up] = 1.0 - betainc(a, b, xs[~up])
            out[up] = betainc(b, a, 1.0 - xs[up])
            return out
        # a float64 argument costs betainc less than a float or a 0-d array
        x = float(xs)
        return betainc(b, a, np.float64(1.0 - x)) if x >= 0.5 else 1.0 - betainc(a, b, xs)

    def _binomial_ccdf(self, x):
        # (1 - x)**b sum_{j<a} C(b-1+j, j) x**j; (1 - y) - x is exactly the
        # rounding error of y = 1 - x (Fast2Sum)
        y = 1.0 - x
        return _binomial_tail(y, self._sums[0], x, self._sums[1], (1.0 - y) - x)

    def _pdf(self, x):
        a, b = self.alpha, self.beta
        return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - self._log_b)

    def mean(self):
        return self.alpha / (self.alpha + self.beta)

    def _partial_mean_integral(self, x):
        # integral of the CCDF from 0 to x:
        #   x * ccdf(x) + mean * I_x(alpha + 1, beta)
        if self._sums is not None:
            # I_x(a+1, b) = x**(a+1) sum_{j<b} C(a+j, j) (1 - x)**j
            _, _, n, upper = self._sums
            return x * self._binomial_ccdf(x) + self.mean() * _binomial_tail(x, n, 1.0 - x, upper)
        _bind_scipy()
        return x * (1.0 - betainc(self.alpha, self.beta, x)) + self.mean() * betainc(
            self.alpha + 1.0, self.beta, x
        )

    def _integrals(self, a, b):
        return self._partial_mean_integral(b) - self._partial_mean_integral(a)

    def _quantile(self, us, out=None):
        return _beta_quantile(self.alpha, self.beta, us, out)

    def to_json(self):
        return {"kind": "beta", "alpha": self.alpha, "beta": self.beta}


#: integer shapes with alpha + beta up to this take the binomial tails: their
#: coefficients, up to C(56, 28) ~ 7.6e15 < 2**53, are exact floats
_BINOMIAL_SHAPES = 57


def _binomial_tail(p, n: int, q, coef: tuple[float, ...], dp=0.0):
    """(p + dp)**n * sum_j coef[j] q**j, a probability, for p, q in [0, 1], a
    float or an array, and dp the rounding error of p (|dp| <= ulp(p) / 2).

    The power is p**(n-1) (p + n dp), to first order in dp, with p**(n-1) by
    repeated squaring; the sum is by Horner's rule.  All terms are positive,
    and only * and + are used, so a float and an array get the same bits.
    Where the tail is 1 - O(x**2) rounding can carry it an ulp above 1, so it
    is capped there."""
    power, n = p + n * dp, n - 1
    while n:
        if n & 1:
            power = power * p
        n >>= 1
        p = p * p
    total = coef[-1]
    for c in coef[-2::-1]:
        total = total * q + c
    out = power * total
    if isinstance(out, np.ndarray):
        return np.minimum(out, 1.0, out=out)
    return out if out < 1.0 else 1.0


#: cells of width 1 / 1024 in [0, 1]: the kernel's knots are at w = k / 1024,
#: and the table's cells from w = 1/16 on
_QUANTILE_CELLS = 1024
#: the first of them in the table, at w = 1/16; the octave cells cover below
_FIRST_CELL = 64
#: the octave cells' knots: 64 to each octave [2**-(m+1), 2**-m), m = 19..4,
#: from 2**-20 up to (not including) 1/16
_OCTAVE_WS = (np.ldexp(1.0, np.arange(-20, -4))[:, None] * (1.0 + np.arange(64) / 64)).ravel()
#: a positive float's bits above the lowest 46 are its exponent and the 6
#: leading bits of its mantissa, so they count octave cells from 2**-20 on,
#: and the lowest 46 are the position in the cell (exactly)
_OCTAVE_SHIFT = 46
_OCTAVE_BIAS = int(np.float64(2.0**-20).view(np.int64) >> _OCTAVE_SHIFT) - 1
#: a Halley step no longer than this, relative to the nearer end of [0, 1],
#: leaves the draw within rounding of its root: the error left is cubic in it
_HALLEY_RTOL = 1e-5
#: Halley steps a draw may take after its first before it is bracketed
_HALLEY_STEPS = 6
#: a table cell is certified when its interpolant is this close to the kernel,
#: relative to the nearer end of [0, 1], at the quarter points of the cell
_TABLE_RTOL = 1e-14
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@lru_cache(maxsize=64)
def _beta_knots(a: float, b: float):
    """The split, each side's kernel knots and the certified quintic table
    of Beta(a, b), built once per shape (about 170 KB).

    Draws with u <= split solve I(a, b, x) = u, the others I(b, a, y) = 1 - u
    in y = 1 - x, where 1 - u is exact.  The split is u = 1/2, moved up to
    I(a, b, 2**-10) when more than half the mass lies below x = 2**-10: only
    above that x does x = 1 - y keep 1e-13 relative precision (half an ulp of
    y is below 6e-14 x), while below it, where that mass sits, I - u pins x
    down.  Each side's kernel knots are ``betaincinv`` at w = k / 1024, up
    to its split.  The table holds the lower side's columns, then the upper
    side's (see ``_side_table``).
    """
    _bind_scipy()
    split = max(0.5, float(betainc(a, b, 2.0**-10)))
    lower, low_table = _side_table(a, b, math.ceil(split * _QUANTILE_CELLS))
    upper, up_table = _side_table(b, a, max(math.ceil((1.0 - split) * _QUANTILE_CELLS), 1))
    table = np.hstack((low_table, up_table))
    for t in (lower, upper, table):
        t.flags.writeable = False
    return split, lower, upper, table


def _side_table(p: float, q: float, end: int):
    """The kernel knots of I(p, q, z) = w at w = k / 1024, k <= end, and the
    side's table columns, from one ``betaincinv`` call.

    The columns: one per cell k < end of width 1 / 1024 (NaN below k = 64,
    where the octave cells answer), then a NaN column for w < 2**-20, then
    the 1,024 octave cells from 2**-20 up to 1/16 (see
    ``_cell_coefficients``).  No cell is wider than 1/64 of the w at its
    left end.  A side that ends below 1/16 still builds them all, certified
    against knots up to 1/16, so that every side has the same octave columns.
    """
    top = max(end, _FIRST_CELL)
    ws = np.concatenate(([0.0], _OCTAVE_WS, np.arange(_FIRST_CELL, top + 1) / _QUANTILE_CELLS))
    zs = betaincinv(p, q, ws)
    # every w = k / 1024 from 1/1024 on is an octave knot or a uniform one
    knots = zs[np.searchsorted(ws, np.arange(top + 1) / _QUANTILE_CELLS)]
    coef = _cell_coefficients(p, q, ws[1:], zs[1:], knots)
    octave, n = _OCTAVE_WS.size, min(end, _FIRST_CELL)
    nan = np.full((6, 1), np.nan)
    table = np.hstack((nan.repeat(n, axis=1), coef[:, octave : octave + end - n], nan, coef[:, :octave]))
    return knots[: end + 1], table


def _cell_coefficients(
    p: float, q: float, ws: np.ndarray, zs: np.ndarray, knots: np.ndarray
) -> np.ndarray:
    """Per cell between the knots (ws, zs), the coefficients c0..c5 (a column
    each) of the quintic Hermite interpolant of z(w), the root of
    I(p, q, z) = w, in t = (w - w_i) / h_i on the cell's own width h_i.

    The interpolant matches the knots, z' = 1 / pdf(z) and z'' = -(d log
    pdf / dz) z'**2 at both ends of the cell, with the closed-form density of
    ``_halley_step``, as in Derflinger, Hoermann and Leydold's PINV (ACM
    TOMACS 2010).  A cell is certified when its coefficients are finite and
    the interpolant at t = 1/4, 1/2 and 3/4 is within ``_TABLE_RTOL`` of
    ``_lower_quantile`` (from the kernel ``knots``), relative to the nearer
    end of [0, 1].  The column of a cell that is not certified is NaN, so its
    draws come out NaN.
    """
    with np.errstate(all="ignore"):
        h = np.diff(ws)
        # z' and (d log pdf / dz) at each knot; h z' and h**2 z'' at each end
        # of each cell
        dz = np.exp(betaln(p, q) - (p - 1.0) * np.log(zs) - (q - 1.0) * np.log1p(-zs))
        curv = (q - 1.0) / (1.0 - zs) - (p - 1.0) / zs
        v0, v1 = h * dz[:-1], h * dz[1:]
        a0, a1 = curv[:-1] * v0 * v0, curv[1:] * v1 * v1
        z0 = zs[:-1]
        d = zs[1:] - z0
        coef = np.stack(
            (
                z0,
                v0,
                0.5 * a0,
                10.0 * d - 6.0 * v0 - 4.0 * v1 - 1.5 * a0 + 0.5 * a1,
                -15.0 * d + 8.0 * v0 + 7.0 * v1 + 1.5 * a0 - a1,
                6.0 * d - 3.0 * v0 - 3.0 * v1 - 0.5 * a0 + 0.5 * a1,
            )
        )
        ok = np.isfinite(coef).all(axis=0)
        ts, cells = (0.25, 0.5, 0.75), np.flatnonzero(ok)
        k, t = np.repeat(cells, len(ts)), np.tile(ts, cells.size)
        got = _horner(coef, k, t)
        want = _lower_quantile(p, q, ws[k] + t * h[k], knots)
        close = np.abs(got - want) <= _TABLE_RTOL * np.minimum(want, 1.0 - want)
        ok[ok] = close.reshape(-1, len(ts)).all(axis=1)
        coef[:, ~ok] = np.nan
    return coef


def _horner(coef: np.ndarray, k: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials of the table's cells k at t, by Horner's rule."""
    z = coef[5].take(k)
    for c in coef[4::-1]:
        z *= t
        z += c.take(k)
    return z


def _beta_quantile(
    a: float, b: float, us: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Q(u) of Beta(a, b) for u in [0, 1], each side of the split solved from
    its own end (see ``_beta_knots``), written into ``out`` when given: a
    C-contiguous float array of the same shape, which may be ``us`` itself.

    Draws in certified cells take the table's polynomial, in blocks of
    ``_BLOCK`` draws so that the scratch arrays stay small beside
    the output: w = k / 1024 + t / 1024 picks cell k, and a draw below
    w = 1/16 is moved to its octave cell.  (A lower draw at the end of the
    lower side's last cell lands in the NaN column after it.)  The other
    draws, w below 2**-20 and any uncertified cell, are gathered across all
    blocks, their uniforms copied aside before their block is written, and
    solved by the kernel, ``_lower_quantile``, in blocks of the same size:
    a draw's value depends on its own u alone.
    """
    split, lower, upper, table = _beta_knots(a, b)
    up = len(lower) + _OCTAVE_WS.size  # the upper side's first column
    # each side's NaN column, before its octave cells
    octave = np.array((len(lower) - 1, up + len(upper) - 1))
    if out is None:
        out = np.empty(us.shape)
    flat_us, flat_out = us.reshape(-1), out.reshape(-1)
    rest, rest_us = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for start in range(0, flat_us.size, _BLOCK):
        u = flat_us[start : start + _BLOCK]
        high = u > split
        # |high - u| is w, u on the lower side and 1 - u (exact) on the upper,
        # and |high - z| is x from the side's root z in the same way
        pos = np.abs(high - u)
        small = np.flatnonzero(pos < _FIRST_CELL / _QUANTILE_CELLS)
        bits = pos[small].view(np.int64)
        pos *= _QUANTILE_CELLS
        k = pos.astype(np.intp)
        pos -= k
        k += high * up
        cell = np.maximum((bits >> _OCTAVE_SHIFT) - _OCTAVE_BIAS, 0)
        k[small] = cell + octave.take(high[small])
        pos[small] = (bits & ((1 << _OCTAVE_SHIFT) - 1)) * 2.0**-_OCTAVE_SHIFT
        z = _horner(table, k, pos)
        nan = np.flatnonzero(np.isnan(z))
        rest.append(start + nan)
        rest_us.append(u.take(nan))
        # |z - high| = |high - z|, written over the block's uniforms when
        # out is us
        z -= high
        np.abs(z, out=flat_out[start : start + _BLOCK])
    rest, rest_us = np.concatenate(rest), np.concatenate(rest_us)
    for start in range(0, rest.size, _BLOCK):
        u = rest_us[start : start + _BLOCK]
        x = np.empty_like(u)
        low = u <= split
        x[low] = _lower_quantile(a, b, u[low], lower)
        high = ~low
        x[high] = 1.0 - _lower_quantile(b, a, 1.0 - u[high], upper)
        flat_out[rest[start : start + _BLOCK]] = x
    return out


def _lower_quantile(p: float, q: float, w: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Solve I(p, q, z) = w for w up to the knots' end, about one ``betainc``
    per draw.

    Start from the knot table, linear in each cell but for the first, where
    the power-law tail (w p B(p, q))**(1/p) holds; take one Halley step; and
    polish only the draws that step moved by more than ``_HALLEY_RTOL``.
    """
    pos = w * _QUANTILE_CELLS
    k = np.minimum(pos.astype(np.intp), len(knots) - 2)
    z = knots[k]
    z += (pos - k) * (knots[k + 1] - z)
    first = np.flatnonzero(k == 0)
    with np.errstate(divide="ignore"):  # w = 0 starts at 0
        tail = np.exp((np.log(w[first]) + math.log(p) + betaln(p, q)) / p)
    z[first] = np.minimum(tail, knots[1])
    moved = _halley_step(p, q, z, w)
    again = np.flatnonzero(~(moved <= _HALLEY_RTOL))
    if again.size:
        cell = k[again]
        z[again] = _polish(p, q, z[again], w[again], knots[cell], knots[cell + 1])
    return z


def _halley_step(p, q, z, w):
    """Take Halley's step on log I(p, q, z) = log w against log z, in place;
    return its length relative to the nearer end of [0, 1].

    With g = z pdf / I, the slope of log I against log z, the Newton step is
    t = log(I / w) / g and the curvature ratio is p - (q - 1) z / (1 - z) - g,
    so the step is t / (1 - t (p - (q-1) z/(1-z) - g) / 2).  On the power-law
    tails log I is nearly linear in log z, so the step converges from afar,
    and no term overflows as z -> 0.  A point at 0 or 1 stays: it is a start
    there only when the root rounds to it.  Where I or the density underflows
    the step is not finite, and the draw is left to ``_polish``.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        odds = z / (1.0 - z)
        big_i = betainc(p, q, z)
        g = np.exp(p * np.log(z) + (q - 1.0) * np.log1p(-z) - betaln(p, q)) / big_i
        t = np.log1p((big_i - w) / w) / g
        t /= 1.0 - 0.5 * t * (p - (q - 1.0) * odds - g)
        np.copyto(t, 0.0, where=(z <= 0.0) | (z >= 1.0))
        z *= np.exp(-t)
        t = np.abs(t, out=t)
        # relative to 1 - z near 1, but not below the float spacing at z
        return t * np.clip(odds, 1.0, _HALLEY_RTOL / _EPS, out=odds)


def _polish(p, q, z, w, lo, hi):
    """Finish the draws whose first Halley step was long: more Halley steps,
    each from inside the knot cell [lo, hi] that brackets the root (from its
    midpoint when the last step left the cell), then bracketed ITP steps for
    any draw still moving after ``_HALLEY_STEPS``."""
    # a root below the least normal float, where betaincinv's knots stop, has
    # no relative precision left to find: keep the first step in [0, hi]
    sub = hi <= _TINY
    z[sub] = np.fmin(np.fmax(z[sub], 0.0), hi[sub])  # fmax maps NaN to 0
    todo = np.flatnonzero(~sub)
    for _ in range(_HALLEY_STEPS):
        zt, a, b = z[todo], lo[todo], hi[todo]
        zt = np.where((zt > a) & (zt < b), zt, 0.5 * (a + b))
        moved = _halley_step(p, q, zt, w[todo])
        z[todo] = zt
        todo = todo[~(moved <= _HALLEY_RTOL)]
        if not todo.size:
            return z
    for i in todo.tolist():
        wi = float(w[i])

        def f(x, wi=wi):
            return float(betainc(p, q, x)) - wi

        # step past a knot that misses the root (betaincinv is not exact)
        a, b = float(lo[i]), float(hi[i])
        fa, fb = f(a), f(b)
        if not fa <= 0.0:
            a, b, fa, fb = 0.0, a, -wi, fa
        elif not fb >= 0.0:
            a, b, fa, fb = b, 1.0, fb, 1.0 - wi
        z[i] = b if math.nextafter(a, 1.0) >= b else bisect_root(f, a, b, flo=fa, fhi=fb).root
    return z



@dataclass(frozen=True)
class Mixture(ValuationDistribution):
    """Finite mixture of continuous component distributions."""

    components: tuple[ValuationDistribution, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.components) != len(self.weights) or not self.components:
            raise DomainError("mixture needs matching, nonempty components and weights")
        total = sum(self.weights)
        if not (all(w >= 0.0 for w in self.weights) and abs(total - 1.0) <= 1e-9):
            raise DomainError("mixture weights must be nonnegative and sum to 1")
        if any(isinstance(c, Empirical) for c in self.components):
            raise DomainError("mixture components must be continuous")

    def _ccdf(self, xs):
        out = self.weights[0] * self.components[0]._ccdf(xs)
        for w, c in zip(self.weights[1:], self.components[1:]):
            out += w * c._ccdf(xs)
        return out

    def _pdf(self, x):
        return sum(w * c._pdf(x) for w, c in zip(self.weights, self.components))

    def mean(self):
        return sum(w * c.mean() for w, c in zip(self.weights, self.components))

    def _integrals(self, a, b):
        return sum(w * c._integrals(a, b) for w, c in zip(self.weights, self.components))

    def sample(self, n, rng):
        """n draws: each draw's component from n uniforms, then that
        component's quantile at n more.

        Both sets of uniforms are drawn into the output, so only it and the
        component indices (a byte each, for up to 255 components) span n.  A
        draw's component is the count of cumulative weights before the last
        at or below its first uniform.  Then, block by block, each component
        gathers the second uniforms of its draws, takes its quantile of them
        in place and scatters the draws back: a draw depends on its own
        uniform alone.
        """
        check_count(n, 0, "sample size")
        cum = np.cumsum(self.weights)[:-1]
        which = np.zeros(n, dtype=np.uint8 if cum.size < 255 else np.intp)
        out = rng.random(n)
        for s in range(0, n, _BLOCK):
            u, block = out[s : s + _BLOCK], which[s : s + _BLOCK]
            for c in cum:
                block += u >= c
        rng.random(out=out)
        for s in range(0, n, _BLOCK):
            u, block = out[s : s + _BLOCK], which[s : s + _BLOCK]
            for i, c in enumerate(self.components):
                idx = np.flatnonzero(block == i)
                if idx.size:
                    draws = u.take(idx)
                    u[idx] = c._quantile(draws, out=draws)
        return out

    def to_json(self):
        return {
            "kind": "mixture",
            "components": [c.to_json() for c in self.components],
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class Empirical(ValuationDistribution):
    """Discrete distribution given by atoms (value, mass) with values in [0, 1].

    Atoms are deduplicated (masses merged for equal values) and sorted
    ascending at construction, so the left-limit logic can assume strictly
    increasing values.  The CCDF steps and the prefix integrals of the CCDF
    are built once there too, so a CCDF value or a partial integral costs one
    binary search.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = np.array(self.atoms, dtype=float).reshape(-1, 2)
        self._build(pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_samples(cls, values) -> "Empirical":
        """Empirical distribution of the samples, each sample with mass 1/n."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise DomainError("need at least one sample")
        dist = cls.__new__(cls)
        dist._build(values, np.full(values.size, 1.0 / values.size))
        return dist

    def _build(self, values, masses):
        ok_value = (values >= -1e-12) & (values <= 1.0 + 1e-12)
        ok_mass = masses > 0.0
        bad = np.flatnonzero(~(ok_value & ok_mass))
        if bad.size:
            i = bad[0]
            if not ok_value[i]:
                raise DomainError(f"atom value {float(values[i])} outside [0, 1]")
            raise DomainError(f"atom mass must be positive, got {float(masses[i])}")
        # masses of equal values add in input order and the total in order of
        # first appearance, as a running dict of sums would give them
        values, first, inverse = np.unique(
            np.clip(values, 0.0, 1.0), return_index=True, return_inverse=True
        )
        masses = np.bincount(inverse, weights=masses, minlength=values.size)
        total = sum(masses[np.argsort(first)].tolist())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"atom masses sum to {total}, expected 1")
        masses = masses / total
        atoms = tuple(zip(values.tolist(), masses.tolist()))
        # step i covers [knots[i], knots[i+1]) at CCDF height tail[i]; the last
        # step runs on from the largest atom, and ``steps`` keeps the nonempty
        # steps up to it as (left, right, height) for the iso-revenue cut
        knots = np.concatenate(([0.0], values))
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        # no mass past the largest atom, whatever the rounding of the sum
        cum[-1] = 1.0
        tail = 1.0 - cum
        prefix = np.concatenate(([0.0], np.cumsum(np.diff(knots) * tail[:-1])))
        nonempty = knots[1:] > knots[:-1]
        steps = (knots[:-1][nonempty], knots[1:][nonempty], tail[:-1][nonempty])
        for arr in (values, masses, cum, knots, tail, prefix, *steps):
            arr.flags.writeable = False
        for name, value in (
            ("atoms", atoms),
            ("_values", values),
            ("_masses", masses),
            ("_cum", cum),
            ("_knots", knots),
            ("_tail", tail),
            ("_prefix", prefix),
            ("_steps", steps),
            ("_mean", float(np.dot(values, masses))),
            # the caches keyed on distributions would rehash the atoms each call
            ("_hash", hash((atoms,))),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        # the level searches' table, built on their first use of the instance
        # (``isorevenue._level_table``), is not pickled
        return {k: v for k, v in self.__dict__.items() if k != "_level_table"}

    def _ccdf(self, xs):
        return self._tail[np.searchsorted(self._values, xs, side="right")]

    def _ccdf_left(self, xs):
        return self._tail[np.searchsorted(self._values, xs, side="left")]

    def mean(self):
        return self._mean

    def _integrals(self, a, b):
        knots, tail, prefix = self._knots, self._tail, self._prefix
        last = len(knots) - 1
        i = np.maximum(np.searchsorted(knots, a, side="right") - 1, 0)
        j = np.maximum(np.searchsorted(knots, b, side="right") - 1, 0)
        nxt = np.minimum(i + 1, last)
        # partial steps at both ends plus the whole steps between them
        spread = (knots[nxt] - a) * tail[i] + (prefix[j] - prefix[nxt]) + (b - knots[j]) * tail[j]
        return np.where(i == j, (b - a) * tail[i], spread)

    def _quantile(self, us, out=None):
        return np.take(self._values, np.searchsorted(self._cum[1:], us, side="left"), out=out)

    def to_json(self):
        return {"kind": "empirical", "atoms": [[v, m] for v, m in self.atoms]}


#: each distribution kind's class and its fields besides "kind"
_SPECS = {
    "uniform": (Uniform, ()),
    "power": (Power, ("alpha",)),
    "beta": (Beta, ("alpha", "beta")),
    "truncated_exponential": (TruncatedExponential, ("rate",)),
    "empirical": (Empirical, ("atoms",)),
    "mixture": (Mixture, ("components", "weights")),
}


def _number(x) -> float:
    """A JSON number (an int or a float, not a bool) as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {x!r}")
    return float(x)


def from_json(spec) -> ValuationDistribution:
    """Parse a distribution from a JSON object or JSON string.

    Accepted forms (numeric fields must be JSON numbers, and no other field
    is allowed)::

        {"kind": "uniform"}
        {"kind": "power", "alpha": 2.0}
        {"kind": "beta", "alpha": 2.0, "beta": 5.0}
        {"kind": "truncated_exponential", "rate": 1.0}
        {"kind": "empirical", "atoms": [[0.3, 0.5], [0.7, 0.5]]}
        {"kind": "mixture", "components": [...], "weights": [...]}
    """
    return _from_spec(json.loads(spec) if isinstance(spec, str) else spec)


def _from_spec(spec) -> ValuationDistribution:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("distribution spec must be an object with a 'kind' field")
    try:
        if spec["kind"] not in _SPECS:
            raise DomainError(f"unknown distribution kind {spec['kind']!r}")
        cls, fields = _SPECS[spec["kind"]]
        unknown = spec.keys() - {"kind", *fields}
        if unknown:
            raise KeyError(f"unknown fields {sorted(unknown)}")
        args = [spec[f] for f in fields]
        if cls is Empirical:
            return Empirical(tuple((_number(v), _number(m)) for v, m in args[0]))
        if cls is Mixture:
            return Mixture(tuple(map(_from_spec, args[0])), tuple(map(_number, args[1])))
        return cls(*map(_number, args))
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed distribution spec {spec!r}: {exc!r}") from exc


def revenue(dist: ValuationDistribution, p: float) -> float:
    """Posted-price revenue p * P(v >= p); zero at p = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"price {p!r} outside [0, 1]")
    if p == 0.0:
        return 0.0
    return p * dist.ccdf_left(p)


def _revenue_slope(dist: ValuationDistribution, x: float) -> float:
    """Slope ccdf(x) - x pdf(x) of the revenue curve x ccdf(x), at x in (0, 1)."""
    return float(dist._ccdf(np.asarray(x))) - x * dist._pdf(x)


@lru_cache(maxsize=64)
def _scan_grid(dist: ValuationDistribution):
    """Cached grid of the revenue curve g(x) = x * ccdf(x) on (0, 1]."""
    return _SCAN_XS, _SCAN_XS * dist._ccdf(_SCAN_XS)


@lru_cache(maxsize=256)
def max_posted_revenue(dist: ValuationDistribution) -> tuple[float, float]:
    """Global maximum of the posted-price revenue; returns (revenue, argmax price).

    Exact atom arithmetic for empirical distributions; otherwise the root of
    the revenue slope ccdf(p) - p pdf(p) next to the best point of a dense
    scan (a multi-start guard for curves that are not quasi-concave).
    """
    if isinstance(dist, Empirical):
        values = dist._values
        revs = values * dist._tail[:-1]
        i = int(np.argmax(revs))
        return float(revs[i]), float(values[i])
    xs, g = _scan_grid(dist)
    i = int(np.argmax(g))
    lo = float(xs[max(i - 1, 0)])
    # short of 1, where a density can diverge
    hi = min(float(xs[min(i + 1, len(xs) - 1)]), math.nextafter(1.0, 0.0))
    slope = partial(_revenue_slope, dist)
    flo, fhi = slope(lo), slope(hi)
    p = bisect_root(slope, lo, hi, flo=flo, fhi=fhi).root if flo > 0.0 > fhi else float(xs[i])
    val = p * float(dist._ccdf(np.asarray(p)))
    if val < float(g[i]):
        p, val = float(xs[i]), float(g[i])
    return float(val), float(p)


def _run_distance(p: ValuationDistribution, q: ValuationDistribution, bounds, up: bool) -> float:
    """Sum of |int (ccdf_p - ccdf_q)| over the runs between consecutive
    ``bounds``, on which the difference alternates in sign, starting at or
    above 0 when ``up``: each run adds the CCDF integrals' difference."""
    diffs = p._integrals(bounds[:-1], bounds[1:]) - q._integrals(bounds[:-1], bounds[1:])
    diffs[int(up) :: 2] *= -1.0
    return max(math.fsum(diffs.tolist()), 0.0)


def _sample_to_law(emp: Empirical, law: ValuationDistribution) -> float:
    """W1 between an empirical reference and any law, in one pass over the steps.

    On the step [k_i, k_i+1) at CCDF level L_i the difference D = S - L_i of
    the law's CCDF S and the empirical one falls, and at each atom it jumps
    up.  So D changes sign only inside a step with S(k_i) >= L_i > S(k_i+1),
    where it falls through 0 at the law's quantile at 1 - L_i (clipped to the
    step; an error d there moves W1 by about pdf d^2 / 2, and on an empirical
    law it is the atom where S drops through L_i), or at an atom where it
    jumps from below 0 to at or above it.  Between those points the sign of
    D alternates.
    """
    edges = np.append(emp._knots, 1.0)
    tail = emp._tail
    s = law._ccdf(edges)
    # D at each step's two ends, in order: start_0, end_0, start_1, ...
    ends = np.empty(2 * len(tail))
    ends[0::2] = s[:-1] - tail
    ends[1::2] = s[1:] - tail
    above = ends >= 0.0
    flips = np.flatnonzero(above[1:] != above[:-1])
    step = flips // 2
    inside = flips % 2 == 0
    # a crossing inside a step is at its start when D is exactly 0 there (as
    # at 0, where both CCDFs are 1)
    at = np.where(inside, edges[step], edges[step + 1])
    solve = inside & (ends[flips] != 0.0)
    if solve.any():
        i = step[solve]
        at[solve] = np.clip(law._quantile(1.0 - tail[i]), edges[i], edges[i + 1])
    # the runs where D < 0 count negated: from the second when D starts at or above 0
    return _run_distance(law, emp, np.concatenate(([0.0], at, [1.0])), bool(above[0]))


def _law_to_law(p: ValuationDistribution, q: ValuationDistribution) -> float:
    """W1 between two continuous laws: the sign changes of ccdf_p - ccdf_q on a
    4,097-point scan of [0, 1], each refined to float resolution."""
    def diff(x: float) -> float:
        return float(p._ccdf(np.asarray(x)) - q._ccdf(np.asarray(x)))

    xs = np.linspace(0.0, 1.0, 4097)
    # binary sign so exact zeros at a crossing still register a flip
    above = p._ccdf(xs) - q._ccdf(xs) >= 0.0
    crossings = [
        bisect_root(diff, float(xs[j]), float(xs[j + 1])).root
        for j in np.flatnonzero(above[1:] != above[:-1])
    ]
    return _run_distance(p, q, np.array([0.0, *crossings, 1.0]), bool(above[0]))


def wasserstein_distance(
    p: ValuationDistribution, p0: ValuationDistribution
) -> float:
    """Type-1 Wasserstein distance: the integral of |ccdf_p - ccdf_p0| on [0, 1].

    Piecewise exact: each run of constant sign between crossings is
    integrated via the CCDF partial integrals.  When either side is a sample
    the runs come from one pass over its steps (``_sample_to_law``); between
    two continuous laws the crossings are located by a dense scan refined to
    float resolution.
    """
    if isinstance(p, Empirical):
        return _sample_to_law(p, p0)
    if isinstance(p0, Empirical):
        return _sample_to_law(p0, p)
    return _law_to_law(p, p0)
