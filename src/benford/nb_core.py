"""The scale-invariant significand law for a fixed base.

Density 1/(x ln b) on [1, b) with cdf log_b(x).  Includes the quantile,
per-digit probabilities, the log-ratio measure of significand intervals,
and the three-case image of an interval under multiplication by a factor
mod b, whose measure the law leaves invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .significand import Base

__all__ = [
    "NBDistribution",
    "SignificandInterval",
    "IntervalSet",
    "nb_pdf",
    "nb_cdf",
    "nb_quantile",
    "first_digit_prob",
    "interval_measure",
    "scale_interval",
    "measure_of_set",
]


@dataclass(frozen=True)
class NBDistribution:
    """The first-significand law for one base."""

    base: Base


@dataclass(frozen=True)
class SignificandInterval:
    """An interval [lo, hi] inside the significand range.

    Closed on the left.  hi == b is permitted and encodes the right-open
    seam [lo, b); measures are endpoint-insensitive so only validation code
    cares about the convention.  lo == hi is a degenerate, measure-zero
    interval.
    """

    lo: float
    hi: float
    base: Base

    def __post_init__(self) -> None:
        if not (1.0 <= self.lo <= self.hi <= self.base.b):
            raise DomainError(
                f"interval [{self.lo!r}, {self.hi!r}] outside [1, {self.base.b}]"
            )


@dataclass(frozen=True)
class IntervalSet:
    """Up to two pairwise-disjoint significand intervals, sorted by lo."""

    intervals: tuple[SignificandInterval, ...]

    def __post_init__(self) -> None:
        ivs = self.intervals
        if len(ivs) > 2:
            raise DomainError("an interval set holds at most two intervals")
        if len(ivs) == 2:
            a, b_ = ivs
            if a.lo > b_.lo:
                raise DomainError("intervals must be sorted by lo")
            # half-open overlap test; touching endpoints are fine
            if a.lo < b_.hi and b_.lo < a.hi:
                raise DomainError("intervals must be pairwise disjoint")
        if ivs:
            width = sum(iv.hi - iv.lo for iv in ivs)
            if width > ivs[0].base.b - 1 + 1e-9:
                raise DomainError("total interval length exceeds b - 1")


def _significand_array(x, base: Base) -> np.ndarray:
    """x as a float64 array (0-d for a scalar); any element outside [1, b)
    raises DomainError."""
    xs = np.asarray(x, dtype=np.float64)
    inside = (xs >= 1.0) & (xs < base.b)
    if not inside.all():
        bad = float(xs[~inside].flat[0])
        raise DomainError(f"x={bad!r} outside [1, {base.b})")
    return xs


def _like_input(values: np.ndarray, xs: np.ndarray) -> float | np.ndarray:
    """Values computed on xs flattened, shaped like xs; a float for 0-d xs."""
    return float(values[0]) if xs.ndim == 0 else values.reshape(xs.shape)


def nb_pdf(x: float | np.ndarray, dist: NBDistribution) -> float | np.ndarray:
    """Density 1/(x ln b) at significands x in [1, b): a float or a float64
    array, and a float for a float."""
    xs = _significand_array(x, dist.base)
    return _like_input(1.0 / (xs.reshape(-1) * dist.base.ln), xs)


def nb_cdf(x: float, dist: NBDistribution) -> float:
    """Cumulative mass ln(x)/ln(b) for x in [1, b]; equals 1 at x = b."""
    b = dist.base.b
    if not 1.0 <= x <= b:
        raise DomainError(f"x={x!r} outside [1, {b}]")
    return math.log(x) / dist.base.ln


def nb_quantile(u: float, dist: NBDistribution) -> float:
    """Inverse cdf: b**u for u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u={u!r} outside [0, 1]")
    return float(dist.base.b) ** u


def first_digit_prob(d: int, dist: NBDistribution) -> float:
    """Probability log_b(1 + 1/d) that the leading digit equals d."""
    b = dist.base.b
    if not 1 <= d <= b - 1:
        raise DomainError(f"digit {d!r} outside [1, {b - 1}]")
    return math.log1p(1.0 / d) / dist.base.ln


def interval_measure(iv: SignificandInterval, dist: NBDistribution) -> float:
    """Measure ln(hi/lo)/ln(b); zero for degenerate intervals."""
    return math.log(iv.hi / iv.lo) / dist.base.ln


def scale_interval(lam: float, iv: SignificandInterval) -> IntervalSet:
    """Image of [lo, hi] under multiplication by lam modulo b.

    Three cases: the scaled interval stays inside [1, b); it straddles b and
    splits into [lam*lo, b) and [1, lam*hi/b); or it lies entirely past b and
    comes back as [lam*lo/b, lam*hi/b].
    """
    base = iv.base
    b = float(base.b)
    if not 1.0 <= lam < b:
        raise DomainError(f"scale factor {lam!r} outside [1, {base.b})")
    lo, hi = lam * iv.lo, lam * iv.hi
    if hi < b:
        return IntervalSet((SignificandInterval(lo, hi, base),))
    if lo >= b:
        return IntervalSet((SignificandInterval(lo / b, hi / b, base),))
    return IntervalSet(
        (
            SignificandInterval(1.0, hi / b, base),
            SignificandInterval(lo, b, base),
        )
    )


def measure_of_set(iset: IntervalSet, dist: NBDistribution) -> float:
    """Total measure of a disjoint interval set; additive by construction."""
    return sum(interval_measure(iv, dist) for iv in iset.intervals)
