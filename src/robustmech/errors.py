"""Exception types shared across the solvers, and the input checks behind
``DomainError``."""

import numbers

import numpy as np


class RobustMechError(Exception):
    """Base class for all library errors."""


class DomainError(RobustMechError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleLevelError(RobustMechError, ValueError):
    """A revenue level exceeds the maximum posted-price revenue of the reference."""

    def __init__(self, pi, pi0):
        self.pi = pi
        self.pi0 = pi0
        super().__init__(
            f"revenue level {pi!r} exceeds the maximum posted-price revenue {pi0!r}"
        )


class InfeasibleTargetError(RobustMechError, ValueError):
    """A revenue target is not attainable under the reference distribution."""

    def __init__(self, tau, pi0):
        self.tau = tau
        self.pi0 = pi0
        super().__init__(
            f"target {tau!r} is infeasible: it must lie strictly below the maximum "
            f"posted-price revenue {pi0!r} of the reference distribution"
        )


class RadiusTooLargeError(RobustMechError, ValueError):
    """An ambiguity radius is at least the reference mean, emptying all revenue."""

    def __init__(self, r, mean):
        self.r = r
        self.mean = mean
        super().__init__(
            f"ambiguity radius {r!r} must be smaller than the reference mean {mean!r}"
        )


class UnsupportedReferenceError(RobustMechError, ValueError):
    """The operation has a closed form only for specific reference distributions."""


class BracketError(RobustMechError, ValueError):
    """A root bracket does not enclose a sign change."""


def any_outside(xs: np.ndarray, lo: float, hi: float) -> bool:
    """True when an element of ``xs`` is not in [lo, hi]; the comparisons are
    negated, so NaN is outside."""
    return bool((~(xs >= lo) | ~(xs <= hi)).any())


def check_target(tau: float, pi0: float) -> None:
    """Raise ``InfeasibleTargetError`` unless 0 < tau < pi0 - 1e-9: the
    fragility diverges as tau approaches the maximum posted revenue pi0."""
    if not tau > 0.0 or tau >= pi0 - 1e-9:
        raise InfeasibleTargetError(tau, pi0)


def check_count(n, least: int, what: str) -> None:
    """Raise ``DomainError`` unless ``n`` is an integer >= ``least``; a bool
    is an ``Integral`` but not a count."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {n!r}")
