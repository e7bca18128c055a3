"""Direct selling mechanisms: randomized log-allocation menus and posted prices.

A mechanism is an incentive-compatible, individually-rational pair
(allocation q, payment m) on [0, 1].  The robust solvers all produce the same
family: q grows logarithmically on a union of intervals (so the payment is
piecewise linear with a single slope), which is exactly a randomized-price
menu whose price CDF is q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DomainError, any_outside
from .isorevenue import IsoRevenueCut
from .records import Record

__all__ = ["RandomizedLogMechanism", "PostedPrice", "PriceStatistics", "Mechanism"]


@dataclass(frozen=True)
class PriceStatistics(Record):
    mean: float
    variance: float
    skewness: float


#: valuations per block, so that a curve's scratch stays small beside its output
_BLOCK = 16_384


def _blockwise(curve, v):
    """``curve`` of the valuations ``v`` clipped to [0, 1], evaluated in
    blocks of ``_BLOCK`` into one output array; a float for a scalar."""
    vs = np.asarray(v, dtype=float)
    if any_outside(vs, -1e-12, 1.0 + 1e-12):
        raise DomainError("valuation outside [0, 1]")
    out = np.empty(vs.shape)
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

    def _locate(self, vs: np.ndarray):
        """Per valuation: the intervals it has passed, whether it lies inside
        the next one, that interval's start, and whether it tops the menu."""
        us = np.asarray([u for u, _ in self.intervals])
        ws = np.asarray([w for _, w in self.intervals])
        j_w = np.searchsorted(ws, vs, side="right")
        u = us[np.minimum(j_w, len(us) - 1)]
        # the intervals are sorted and disjoint, so v has passed j_w or j_w + 1
        # starts, and j_w + 1 exactly when it is at or above the next one
        inside = (j_w < len(us)) & (vs >= u)
        return j_w, inside, u, vs >= ws[-1]

    def allocation(self, v):
        """Winning probability q(v): 0 below the menu, 1 at and above its top."""
        return _blockwise(self._allocation, v)

    def _allocation(self, vs):
        j_w, inside, u, top = self._locate(vs)
        with np.errstate(divide="ignore", invalid="ignore"):
            extra = np.where(inside, np.log(np.maximum(vs, 1e-300) / u), 0.0)
        out = np.minimum(self.slope * (np.asarray(self._cum_log)[j_w] + extra), 1.0)
        return np.where(top, 1.0, out)

    def payment(self, v):
        """Payment m(v): slope inside intervals, constant elsewhere, m(0) = 0;
        one search of the interval starts and a clip per valuation."""
        return _blockwise(self._payment_curve(), v)

    def _payment_curve(self):
        """m on an array of valuations in [0, 1], with the menu's arrays built once.

        With j the last interval starting at or below v (0 below the menu),
        m(v) = slope (cum_width[j] + clip(v - u_j, 0, w_j - u_j)): past
        interval j the sum is cum_width[j] + (w_j - u_j), the addition that
        made cum_width[j + 1], so each value is the float of the formula by
        cases (inside an interval, between two, above the menu).  j is the
        count of later starts at or below v: one search, in the starts after
        the first.
        """
        us = np.asarray([u for u, _ in self.intervals])
        widths = np.asarray([w - u for u, w in self.intervals])
        later = us[1:]
        cum_width = np.asarray(self._cum_width[:-1])
        slope = self.slope

        def curve(vs):
            j = np.searchsorted(later, vs, side="right")
            out = vs - us.take(j)
            np.maximum(out, 0.0, out=out)
            np.minimum(out, widths.take(j), out=out)
            out += cum_width.take(j)
            out *= slope
            return out

        return curve

    def buyer_surplus(self, v):
        """q(v) v - m(v); nonnegative and nondecreasing in v."""
        pay = self._payment_curve()
        return _blockwise(lambda vs: self._allocation(vs) * vs - pay(vs), v)

    def price_statistics(self) -> PriceStatistics:
        """Moments of the random price whose CDF is the allocation.

        The price density is slope/v on each interval, so the raw moments have
        closed antiderivatives: E[p^n] = slope * sum (w^n - u^n) / n.
        """
        k = self.slope
        m1 = k * math.fsum(w - u for u, w in self.intervals)
        m2 = k * math.fsum((w * w - u * u) / 2.0 for u, w in self.intervals)
        m3 = k * math.fsum((w**3 - u**3) / 3.0 for u, w in self.intervals)
        var = m2 - m1 * m1
        central3 = m3 - 3.0 * m1 * var - m1**3
        skew = central3 / var**1.5 if var > 0.0 else 0.0
        return PriceStatistics(m1, var, skew)

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

    def allocation(self, v):
        return _blockwise(lambda vs: vs >= self.price, v)

    def payment(self, v):
        return _blockwise(lambda vs: self.price * (vs >= self.price), v)

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
