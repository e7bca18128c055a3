"""Valuation distributions on [0, 1].

Every distribution exposes the probabilistic primitives the solvers consume:
the complementary CDF (right tail), its left limit, the mean, the partial
integral of the CCDF, and inverse-CDF sampling.  Reference and true valuation
distributions share the same representation.

All distribution objects are immutable after construction and every operation
is a pure function, so instances are safe for concurrent use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc

from .errors import DomainError
from .numerics import adaptive_simpson, golden_section_max, refine_crossing

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


def _as_array(x):
    xs = np.asarray(x, dtype=float)
    return xs, xs.ndim == 0


def _maybe_scalar(out, scalar):
    return float(out) if scalar else out


class ValuationDistribution:
    """Base class: a probability distribution supported on [0, 1]."""

    #: True when the revenue curve x * ccdf(x) is known to be quasi-concave
    #: (increasing virtual valuation), enabling the two-price iso-revenue
    #: characterization in the posted-price solver.
    is_regular = False

    def _ccdf(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def ccdf(self, x):
        """P(v > x) for x in [0, 1]; right-continuous and nonincreasing."""
        xs, scalar = _as_array(x)
        if np.any(xs < -1e-12) or np.any(xs > 1.0 + 1e-12):
            raise DomainError(f"valuation {x!r} outside [0, 1]")
        return _maybe_scalar(self._ccdf(np.clip(xs, 0.0, 1.0)), scalar)

    def ccdf_left(self, x):
        """P(v >= x) for x in (0, 1]: the left limit of the CCDF.

        Coincides with ``ccdf`` except at atoms.  The limit at 0+ equals 1,
        so 0 is excluded from the domain.
        """
        xs, scalar = _as_array(x)
        if np.any(xs <= 0.0) or np.any(xs > 1.0 + 1e-12):
            raise DomainError(f"valuation {x!r} outside (0, 1]")
        return _maybe_scalar(self._ccdf_left(np.minimum(xs, 1.0)), scalar)

    def _ccdf_left(self, xs: np.ndarray) -> np.ndarray:
        return self._ccdf(xs)

    def cdf(self, x):
        xs, scalar = _as_array(x)
        return _maybe_scalar(1.0 - self._ccdf(np.clip(xs, 0.0, 1.0)), scalar)

    def mean(self) -> float:
        """E[v] = integral of the CCDF over [0, 1]."""
        return self.ccdf_integral(0.0, 1.0)

    def ccdf_integral(self, a: float, b: float) -> float:
        """Integral of the CCDF over [a, b] (analytic where available)."""
        if b <= a:
            return 0.0
        return adaptive_simpson(
            lambda t: float(self._ccdf(np.asarray(t))),
            a,
            b,
            split_points=self.kink_points(),
        )

    def kink_points(self) -> tuple[float, ...]:
        """Interior points where the CCDF is non-smooth (atoms, mixture seams)."""
        return ()

    def quantile(self, u):
        """Inverse CDF; accepts scalars or arrays of probabilities."""
        us, scalar = _as_array(u)
        if np.any(us < 0.0) or np.any(us > 1.0):
            raise DomainError("quantile argument outside [0, 1]")
        return _maybe_scalar(self._quantile(us), scalar)

    def _quantile(self, us: np.ndarray) -> np.ndarray:
        # bracketed bisection on the CDF; 52 halvings reach ~2e-16 < 1e-12
        lo = np.zeros_like(us)
        hi = np.ones_like(us)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            below = 1.0 - self._ccdf(mid) < us
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._quantile(rng.random(n))

    def to_json(self) -> dict:
        raise NotImplementedError


# Type aliases: the reference and the evaluation measure share one representation.
ReferenceDistribution = ValuationDistribution
TrueDistribution = ValuationDistribution


@dataclass(frozen=True)
class Uniform(ValuationDistribution):
    """Uniform distribution on [0, 1]."""

    is_regular = True

    def _ccdf(self, xs):
        return 1.0 - xs

    def mean(self):
        return 0.5

    def ccdf_integral(self, a, b):
        if b <= a:
            return 0.0
        return (b - a) - 0.5 * (b * b - a * a)

    def _quantile(self, us):
        return us.copy()

    def to_json(self):
        return {"kind": "uniform"}


@dataclass(frozen=True)
class Power(ValuationDistribution):
    """CDF x**alpha on [0, 1] with alpha >= 1 (alpha = 1 is uniform)."""

    alpha: float

    is_regular = True

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise DomainError(f"power exponent must be finite, >= 1, got {self.alpha}")

    def _ccdf(self, xs):
        return 1.0 - xs**self.alpha

    def mean(self):
        return self.alpha / (self.alpha + 1.0)

    def ccdf_integral(self, a, b):
        if b <= a:
            return 0.0
        ap1 = self.alpha + 1.0
        return (b - a) - (b**ap1 - a**ap1) / ap1

    def _quantile(self, us):
        return us ** (1.0 / self.alpha)

    def to_json(self):
        return {"kind": "power", "alpha": self.alpha}


@dataclass(frozen=True)
class TruncatedExponential(ValuationDistribution):
    """Exponential with the given rate, truncated and renormalized to [0, 1]."""

    rate: float

    is_regular = True

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise DomainError(f"rate must be finite and positive, got {self.rate}")

    @property
    def _z(self):
        return 1.0 - math.exp(-self.rate)

    def _ccdf(self, xs):
        return (np.exp(-self.rate * xs) - math.exp(-self.rate)) / self._z

    def mean(self):
        lam = self.rate
        return 1.0 / lam - math.exp(-lam) / self._z

    def ccdf_integral(self, a, b):
        if b <= a:
            return 0.0
        lam = self.rate
        core = (math.exp(-lam * a) - math.exp(-lam * b)) / lam
        return (core - math.exp(-lam) * (b - a)) / self._z

    def _quantile(self, us):
        return -np.log1p(-us * self._z) / self.rate

    def to_json(self):
        return {"kind": "truncated_exponential", "rate": self.rate}


@dataclass(frozen=True)
class Beta(ValuationDistribution):
    """Beta(alpha, beta) distribution; CCDF via the regularized incomplete beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not all(math.isfinite(s) and s > 0.0 for s in (self.alpha, self.beta)):
            raise DomainError("beta shape parameters must be finite and positive")

    @property
    def is_regular(self):
        # log-concave density, hence increasing hazard rate
        return self.alpha >= 1.0 and self.beta >= 1.0

    def _ccdf(self, xs):
        return 1.0 - betainc(self.alpha, self.beta, xs)

    def mean(self):
        return self.alpha / (self.alpha + self.beta)

    def _partial_mean_integral(self, x: float) -> float:
        # integral of the CCDF from 0 to x:
        #   x * ccdf(x) + mean * I_x(alpha + 1, beta)
        return x * float(1.0 - betainc(self.alpha, self.beta, x)) + self.mean() * float(
            betainc(self.alpha + 1.0, self.beta, x)
        )

    def ccdf_integral(self, a, b):
        if b <= a:
            return 0.0
        return self._partial_mean_integral(b) - self._partial_mean_integral(a)

    def to_json(self):
        return {"kind": "beta", "alpha": self.alpha, "beta": self.beta}


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
        out = np.zeros_like(xs, dtype=float)
        for w, c in zip(self.weights, self.components):
            out += w * c._ccdf(xs)
        return out

    def mean(self):
        return sum(w * c.mean() for w, c in zip(self.weights, self.components))

    def ccdf_integral(self, a, b):
        if b <= a:
            return 0.0
        return sum(
            w * c.ccdf_integral(a, b) for w, c in zip(self.weights, self.components)
        )

    def kink_points(self):
        pts: list[float] = []
        for c in self.components:
            pts.extend(c.kink_points())
        return tuple(sorted(set(pts)))

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
    increasing values.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        merged: dict[float, float] = {}
        for v, m in self.atoms:
            v = float(v)
            m = float(m)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise DomainError(f"atom value {v} outside [0, 1]")
            if not m > 0.0:
                raise DomainError(f"atom mass must be positive, got {m}")
            v = min(max(v, 0.0), 1.0)
            merged[v] = merged.get(v, 0.0) + m
        total = sum(merged.values())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"atom masses sum to {total}, expected 1")
        object.__setattr__(
            self,
            "atoms",
            tuple((v, merged[v] / total) for v in sorted(merged)),
        )

    @property
    def _values(self) -> np.ndarray:
        return np.asarray([v for v, _ in self.atoms])

    @property
    def _masses(self) -> np.ndarray:
        return np.asarray([m for _, m in self.atoms])

    def _ccdf(self, xs):
        values = self._values
        cum = np.concatenate(([0.0], np.cumsum(self._masses)))
        idx = np.searchsorted(values, xs, side="right")
        return 1.0 - cum[idx]

    def _ccdf_left(self, xs):
        values = self._values
        cum = np.concatenate(([0.0], np.cumsum(self._masses)))
        idx = np.searchsorted(values, xs, side="left")
        return 1.0 - cum[idx]

    def mean(self):
        return float(np.dot(self._values, self._masses))

    def ccdf_integral(self, a, b):
        if b <= a:
            return 0.0
        values = self._values
        inner = values[(values > a) & (values < b)]
        pts = np.concatenate(([a], inner, [b]))
        mids = 0.5 * (pts[:-1] + pts[1:])
        return float(np.dot(self._ccdf(mids), np.diff(pts)))

    def kink_points(self):
        return tuple(float(v) for v in self._values if 0.0 < v < 1.0)

    def _quantile(self, us):
        cum = np.cumsum(self._masses)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, us, side="left")
        return self._values[np.minimum(idx, len(self.atoms) - 1)]

    def to_json(self):
        return {"kind": "empirical", "atoms": [[v, m] for v, m in self.atoms]}


def from_json(spec) -> ValuationDistribution:
    """Parse a distribution from a JSON object or JSON string.

    Accepted forms::

        {"kind": "uniform"}
        {"kind": "power", "alpha": 2.0}
        {"kind": "beta", "alpha": 2.0, "beta": 5.0}
        {"kind": "truncated_exponential", "rate": 1.0}
        {"kind": "empirical", "atoms": [[0.3, 0.5], [0.7, 0.5]]}
        {"kind": "mixture", "components": [...], "weights": [...]}
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("distribution spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "uniform":
            return Uniform()
        if kind == "power":
            return Power(float(spec["alpha"]))
        if kind == "beta":
            return Beta(float(spec["alpha"]), float(spec["beta"]))
        if kind == "truncated_exponential":
            return TruncatedExponential(float(spec["rate"]))
        if kind == "empirical":
            return Empirical(tuple((float(v), float(m)) for v, m in spec["atoms"]))
        if kind == "mixture":
            comps = tuple(from_json(c) for c in spec["components"])
            return Mixture(comps, tuple(float(w) for w in spec["weights"]))
    except KeyError as exc:
        raise DomainError(f"distribution spec {spec!r} missing field {exc}") from exc
    raise DomainError(f"unknown distribution kind {kind!r}")


def revenue(dist: ValuationDistribution, p: float) -> float:
    """Posted-price revenue p * P(v >= p); zero at p = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"price {p!r} outside [0, 1]")
    if p == 0.0:
        return 0.0
    return p * dist.ccdf_left(p)


@lru_cache(maxsize=64)
def _scan_grid(dist: ValuationDistribution):
    """Cached grid of the revenue curve g(x) = x * ccdf(x) on (0, 1]."""
    xs = np.linspace(0.0, 1.0, _SCAN_POINTS + 1)[1:]
    return xs, xs * dist._ccdf(xs)


@lru_cache(maxsize=256)
def max_posted_revenue(dist: ValuationDistribution) -> tuple[float, float]:
    """Global maximum of the posted-price revenue; returns (revenue, argmax price).

    Exact atom arithmetic for empirical distributions; a dense scan with local
    golden-section refinement otherwise (the scan acts as a multi-start guard
    for non-quasi-concave revenue curves).
    """
    if isinstance(dist, Empirical):
        values = dist._values
        tail_from = 1.0 - np.concatenate(([0.0], np.cumsum(dist._masses)))[:-1]
        revs = values * tail_from
        i = int(np.argmax(revs))
        return float(revs[i]), float(values[i])
    xs, g = _scan_grid(dist)
    i = int(np.argmax(g))
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, len(xs) - 1)])
    p, val = golden_section_max(lambda x: x * float(dist._ccdf(np.asarray(x))), lo, hi)
    if val < float(g[i]):
        p, val = float(xs[i]), float(g[i])
    return float(val), float(p)


def _union_breakpoints(p: ValuationDistribution, q: ValuationDistribution):
    pts = {0.0, 1.0}
    pts.update(p.kink_points())
    pts.update(q.kink_points())
    if isinstance(p, Empirical):
        pts.update(float(v) for v in p._values)
    if isinstance(q, Empirical):
        pts.update(float(v) for v in q._values)
    return sorted(x for x in pts if 0.0 <= x <= 1.0)


def wasserstein_distance(
    p: ValuationDistribution, p0: ValuationDistribution
) -> float:
    """Type-1 Wasserstein distance: the integral of |ccdf_p - ccdf_p0| on [0, 1].

    Piecewise exact: segments of constant sign are integrated via the CCDF
    partial integrals; sign changes between the known breakpoints are located
    by a dense scan refined with bisection.
    """
    def diff(x: float) -> float:
        return float(p._ccdf(np.asarray(x)) - p0._ccdf(np.asarray(x)))

    breaks = _union_breakpoints(p, p0)
    crossings: list[float] = []
    both_discrete = isinstance(p, Empirical) and isinstance(p0, Empirical)
    if not both_discrete:
        for a, b in zip(breaks[:-1], breaks[1:]):
            if b - a <= 1e-15:
                continue
            xs = np.linspace(a, b, 4097)
            d = p._ccdf(xs) - p0._ccdf(xs)
            # binary sign so exact zeros at a crossing still register a flip
            sign = np.where(d >= 0.0, 1, -1)
            flips = np.flatnonzero((sign[1:] * sign[:-1]) < 0)
            for j in flips:
                crossings.append(refine_crossing(diff, float(xs[j]), float(xs[j + 1])))
    pts = sorted(set(breaks) | set(crossings))
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a <= 0.0:
            continue
        s = 1.0 if diff(0.5 * (a + b)) >= 0.0 else -1.0
        total += s * (p.ccdf_integral(a, b) - p0.ccdf_integral(a, b))
    return max(total, 0.0)
