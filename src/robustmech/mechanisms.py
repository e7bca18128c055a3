"""Direct selling mechanisms: randomized log-allocation menus and posted prices.

A mechanism is an incentive-compatible, individually-rational pair
(allocation q, payment m) on [0, 1].  The robust solvers all produce the same
family: q grows logarithmically on a union of intervals (so the payment is
piecewise linear with a single slope), which is exactly a randomized-price
menu whose price CDF is q.

Both state their payment as ``_pieces()``: jumps (x, size) and ramps (u, w,
slope), m constant elsewhere.  Between breakpoints m is linear and q is a +
b ln v; the surplus's slope is q (the envelope theorem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .distributions import _BLOCK
from .errors import DomainError, any_outside
from .isorevenue import IsoRevenueCut
from .records import Record

__all__ = ["RandomizedLogMechanism", "PostedPrice", "PriceStatistics", "Mechanism"]


@dataclass(frozen=True)
class PriceStatistics(Record):
    mean: float
    variance: float
    skewness: float


def _blockwise(curve, v, out=None):
    """``curve`` of the valuations ``v`` clipped to [0, 1], evaluated in
    blocks of ``_BLOCK`` into one output array; a float for a scalar.

    The output is ``out`` when given: a C-contiguous float array of v's
    shape, which may be ``v`` itself, since each block is clipped into a new
    array before its values are written.
    """
    vs = np.asarray(v, dtype=float)
    if any_outside(vs, -1e-12, 1.0 + 1e-12):
        raise DomainError("valuation outside [0, 1]")
    if out is None:
        out = np.empty(vs.shape)
    elif not (out.shape == vs.shape and out.dtype == float and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float array of the valuations' shape")
    flat, flat_out = vs.reshape(-1), out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        flat_out[start : start + _BLOCK] = curve(np.clip(flat[start : start + _BLOCK], 0.0, 1.0))
    return float(out) if vs.ndim == 0 else out


@dataclass(frozen=True, slots=True)
class RandomizedLogMechanism:
    """Log-allocation mechanism on a union of intervals [(u_j, w_j)].

    The payment slope equals 1 / sum(ln(w_j/u_j)) by construction, which makes
    the allocation continuous, nondecreasing, and exactly 1 from the last
    interval's right endpoint onward.  Read as a randomized-price menu, the
    allocation is the CDF of the random price, whose density is slope/v on the
    intervals.

    ``cut_level`` records the revenue level of the iso-revenue cut the
    intervals came from (the solver's worst-case revenue).
    """

    intervals: tuple[tuple[float, float], ...]
    cut_level: float
    slope: float = field(default=0.0)

    def __post_init__(self):
        if not self.intervals:
            raise DomainError("mechanism needs at least one interval")
        ivs = self.intervals
        # a cut's tuple of float pairs is kept, so a report and its menu share it
        if type(ivs) is not tuple or any(list(map(type, iv)) != [float, float] for iv in ivs):
            ivs = tuple((float(u), float(w)) for u, w in ivs)
        for u, w in ivs:
            if not 0.0 < u < w <= 1.0:
                raise DomainError(f"bad interval ({u}, {w})")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "slope", 1.0 / math.fsum(math.log(w / u) for u, w in ivs))

    @property
    def _cum_log(self) -> tuple[float, ...]:
        """Running sums of ln(w/u) over the intervals, from 0."""
        return tuple(accumulate((math.log(w / u) for u, w in self.intervals), initial=0.0))

    @property
    def _cum_width(self) -> tuple[float, ...]:
        """Running sums of w - u over the intervals, from 0."""
        return tuple(accumulate((w - u for u, w in self.intervals), initial=0.0))

    @classmethod
    def from_cut(cls, cut: IsoRevenueCut) -> "RandomizedLogMechanism":
        return cls(intervals=cut.intervals, cut_level=cut.pi)

    def _pieces(self):
        return (), tuple((u, w, self.slope) for u, w in self.intervals)

    def allocation(self, v):
        """Winning probability q(v): 0 below the menu, 1 at and above its top."""
        return _blockwise(self._curves()[0], v)

    def payment(self, v, out=None):
        """Payment m(v): slope inside intervals, constant elsewhere, m(0) = 0;
        a clip per valuation, and one search of the interval starts per
        valuation when the menu has more than one interval.  ``out``, when
        given, receives the payments; it may be v itself."""
        return _blockwise(self._curves()[1], v, out)

    def buyer_surplus(self, v):
        """q(v) v - m(v); nonnegative and nondecreasing in v."""
        q, m = self._curves()
        return _blockwise(lambda vs: q(vs) * vs - m(vs), v)

    def _curves(self):
        """q and m on arrays of valuations in [0, 1], with the menu's arrays built once.

        Each valuation reads one interval j, the last starting at or below v
        (0 below the menu), by one search of the later starts (none for a
        one-interval menu), and one clip, c = clip(v, u_j, w_j).  Then m(v) =
        slope (cum_width[j] + c - u_j), and q(v) = slope (cum_log[j] +
        ln(c/u_j)) inside interval j and slope cum_log[j + 1] from its end on,
        capped at 1 and exactly 1 from the menu's top on.  Past interval j
        each sum is the addition that made the next running sum, so each
        value is the float of the formula by cases (inside an interval,
        between two, above the menu).  q reads cum_log[j + 1] there rather
        than adding numpy's log of w_j/u_j, which can differ from the
        ``math.log`` in the running sums by an ulp.
        """
        us = np.asarray([u for u, _ in self.intervals])
        ws = np.asarray([w for _, w in self.intervals])
        later = us[1:]
        cum_log = np.asarray(self._cum_log)
        cum_width = np.asarray(self._cum_width[:-1])
        # the last end's sum is inf: slope * inf caps to exactly 1 at the top
        end_log = np.append(cum_log[1:-1], math.inf)
        slope = self.slope

        def locate(vs):
            j = np.searchsorted(later, vs, side="right") if later.size else 0
            u, w = us.take(j), ws.take(j)
            return j, u, w, np.clip(vs, u, w)

        def allocation(vs):
            j, u, w, c = locate(vs)
            out = np.where(c < w, np.log(c / u) + cum_log.take(j), end_log.take(j))
            out *= slope
            return np.minimum(out, 1.0, out=out)

        def payment(vs):
            j, u, _, c = locate(vs)
            c -= u
            c += cum_width.take(j)
            c *= slope
            return c

        return allocation, payment

    def price_statistics(self) -> PriceStatistics:
        """Moments of the random price whose CDF is the allocation.

        The price density is slope/v on each interval, slope = 1/sum ln(w/u).
        Each interval's mass, mean and central moments come without
        cancellation from ``_interval_moments``; the menu's central moments
        add them about the mean by the parallel-axis sums.  Each interval's
        offset from the mean is taken from its offset to the first
        interval's mean, so that a one-interval menu adds no offset at all.
        """
        parts = [_interval_moments(u, w) for u, w in self.intervals]
        total = math.fsum(mass for mass, _, _, _ in parts)
        anchor = parts[0][1]
        shift = math.fsum(mass * (mu - anchor) for mass, mu, _, _ in parts) / total
        offsets = [(mu - anchor) - shift for _, mu, _, _ in parts]
        mean = math.fsum(w - u for u, w in self.intervals) / total
        var = math.fsum(c2 + mass * e * e for (mass, _, c2, _), e in zip(parts, offsets)) / total
        central3 = math.fsum(
            c3 + e * (3.0 * c2 + mass * e * e) for (mass, _, c2, c3), e in zip(parts, offsets)
        ) / total
        skew = central3 / var**1.5 if var > 0.0 else 0.0
        return PriceStatistics(mean, var, skew)

    def price_quantile(self, u):
        """Inverse CDF of the random price (for inverse-CDF sampling)."""
        us_prob, scalar = _as_prob(u)
        cum_log = np.asarray(self._cum_log)
        q_breaks = self.slope * cum_log  # allocation value at each interval start
        j = np.clip(np.searchsorted(q_breaks, us_prob, side="right") - 1, 0, len(self.intervals) - 1)
        lows = np.asarray([iv[0] for iv in self.intervals])
        out = lows[j] * np.exp(us_prob / self.slope - cum_log[j])
        out = np.minimum(out, self.intervals[-1][1])
        return float(out) if scalar else out

    def to_json(self) -> dict:
        return {
            "type": "randomized_log",
            "slope": self.slope,
            "cut_level": self.cut_level,
            "intervals": [[u, w] for u, w in self.intervals],
        }

    def describe(self) -> str:
        return f"randomized_log(J={len(self.intervals)}, slope={self.slope:.6g})"


#: below this ratio (w - u)/(w + u) ``_interval_moments`` expands about the
#: interval's centre, and above it about 0, where that cancels less
_CENTRE_RATIO = 0.9


def _interval_moments(u: float, w: float) -> tuple[float, float, float, float]:
    """Mass, mean and second and third central moments of the measure dv/v on
    [u, w], 0 < u < w, the central moments unnormalized (as integrals).

    Take the centre c = (u + w)/2 and r = (w - u)/(w + u).  The moments of
    (v - c)**j dv/v are c**j G_j, with G_0 = ln(w/u), G_2 = 2 r**3/3 + E,
    G_1 = -G_2 and G_3 = -E, where E = 2 sum_{l>=0} r**(2l+5)/(2l+5), all
    positive terms.  With D = G_2/G_0, the central moments are
    c**2 G_2 2r/G_0 (as G_0 - G_2 = 2r) and c**3 (G_2 D (3 - 2D) - E).
    Below ``_CENTRE_RATIO`` these sum the series by Horner's rule; above
    it, where the series converges slowly, the raw moments about 0 of a
    wide interval cancel by at most a factor of about 20.
    """
    width = w - u
    mass = math.log1p(width / u)
    mean = width / mass
    r = width / (w + u)
    if r >= _CENTRE_RATIO:
        m2 = 0.5 * width * (w + u)
        m3 = width * (w * w + w * u + u * u) / 3.0
        return mass, mean, m2 - mean * width, m3 - mean * (3.0 * m2 - 2.0 * mean * width)
    r2 = r * r
    # enough terms that the first one left out is below 1e-17 of the first
    terms = 1 if r2 < 1e-17 else math.ceil(math.log(1e-17) / math.log(r2))
    e = 0.0
    for j in range(2 * terms + 3, 4, -2):
        e = 1.0 / j + r2 * e
    e *= 2.0 * r2 * r2 * r
    g2 = 2.0 * r2 * r / 3.0 + e
    d = g2 / mass
    c = 0.5 * (u + w)
    return mass, mean, c * c * g2 * 2.0 * r / mass, c**3 * (g2 * d * (3.0 - 2.0 * d) - e)


def _as_prob(u):
    us = np.asarray(u, dtype=float)
    if any_outside(us, 0.0, 1.0):
        raise DomainError("probability outside [0, 1]")
    return us, us.ndim == 0


@dataclass(frozen=True, slots=True)
class PostedPrice:
    """Take-it-or-leave-it price: q(v) = 1(v >= p), m(v) = p 1(v >= p)."""

    price: float

    def __post_init__(self):
        if not 0.0 <= self.price <= 1.0:
            raise DomainError(f"price {self.price} outside [0, 1]")

    def _pieces(self):
        return ((self.price, self.price),), ()

    def allocation(self, v):
        return _blockwise(lambda vs: vs >= self.price, v)

    def payment(self, v, out=None):
        """Payment p 1(v >= p), into ``out`` when given; it may be v itself."""
        return _blockwise(lambda vs: self.price * (vs >= self.price), v, out)

    def buyer_surplus(self, v):
        return _blockwise(lambda vs: np.maximum(vs - self.price, 0.0) * (vs >= self.price), v)

    def price_statistics(self) -> PriceStatistics:
        return PriceStatistics(self.price, 0.0, 0.0)

    def price_quantile(self, u):
        us, scalar = _as_prob(u)
        out = np.full_like(us, self.price)
        return float(out) if scalar else out

    def to_json(self) -> dict:
        return {"type": "posted_price", "price": self.price}

    def describe(self) -> str:
        return f"posted_price(p={self.price:.6g})"


Mechanism = RandomizedLogMechanism | PostedPrice
