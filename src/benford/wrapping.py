"""Condensing densities on the positive reals onto the significand interval.

A density rho on R+ is folded decade-by-decade onto [1, b):

    rho_b(x) = sum_k b**k * rho(x * b**k),    F_b(x) = sum_k (F(x b**k) - F(b**k))

with k over the integers.  The series is truncated at an order K certified
by a tail-mass bound supplied by the source, targeting tail < tol/10.  The
log-normal case also has a direct closed-form sum of Gaussians in log space,
which collapses onto the scale-invariant density 1/(x ln b) when the sum is
replaced by its leading integral approximation.  The closed-form densities
take a float or a float64 array of x and compute the truncation order once
per call and component.

Source contracts (pdf/cdf/tail_mass) must be pure; everything here is then
thread-safe, and wrapped densities can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._quadrature import integrate
from .errors import DomainError, TruncationError
from .nb_core import NBDistribution, _like_input, _significand_array, nb_pdf
from .significand import Base

__all__ = [
    "S_MIN",
    "K_MAX",
    "SourceDensity",
    "LogNormalParams",
    "MixtureParams",
    "WrappedDensity",
    "source_from_cdf",
    "lognormal_source",
    "uniform_source",
    "wrap_density",
    "wrap_pdf",
    "wrap_cdf",
    "wrapped_lognormal_pdf",
    "euler_maclaurin_leading",
    "distance_to_nb",
    "wrap_mixture_pdf",
    "normalization",
]

S_MIN = 1e-6  # below this the wrapped density is numerically a Dirac comb
K_MAX = 10_000
_SQRT2PI = math.sqrt(2.0 * math.pi)
_DISTANCE_GRID = 2048
_BLOCK = 1 << 15  # elements per temporary of the series evaluator, for any K


@dataclass(frozen=True)
class SourceDensity:
    """A density on R+ feeding the wrapping engine.

    ``tail_mass(K, base)`` must return a certified upper bound on the
    probability outside [b**-K, b**K], nonincreasing in K with limit 0.
    """

    pdf: Callable[[float], float]
    cdf: Callable[[float], float]
    tail_mass: Callable[[int, Base], float]


@dataclass(frozen=True)
class LogNormalParams:
    """Location M and scale s of ln(x); s below S_MIN is rejected."""

    M: float
    s: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.M):
            raise DomainError(f"location must be finite, got {self.M!r}")
        if not math.isfinite(self.s) or self.s <= S_MIN:
            raise DomainError(f"scale must exceed {S_MIN:g}, got {self.s!r}")


@dataclass(frozen=True)
class MixtureParams:
    """Convex combination of log-normal components."""

    components: tuple[tuple[float, LogNormalParams], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise DomainError("a mixture needs at least one component")
        total = 0.0
        for w, _ in self.components:
            if not math.isfinite(w) or w < 0.0:
                raise DomainError(f"mixture weight {w!r} must be nonnegative")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"mixture weights sum to {total!r}, expected 1")


@dataclass(frozen=True)
class WrappedDensity:
    """A source condensed onto [1, b), truncated at a certified order.

    ``truncation_error`` is the tail-mass bound at the chosen order; it is
    strictly below tol/10 by construction.
    """

    source: SourceDensity
    base: Base
    truncation: int
    tol: float
    truncation_error: float


def source_from_cdf(
    pdf: Callable[[float], float], cdf: Callable[[float], float]
) -> SourceDensity:
    """Wrap pdf/cdf callables, deriving the tail bound from the cdf itself."""

    def tail(K: int, base: Base) -> float:
        b = float(base.b)
        return cdf(b**-K) + (1.0 - cdf(b**K))

    return SourceDensity(pdf=pdf, cdf=cdf, tail_mass=tail)


def lognormal_source(p: LogNormalParams) -> SourceDensity:
    """The log-normal density on R+ with a Gaussian-tail truncation bound."""
    M, s = p.M, p.s
    root2 = math.sqrt(2.0)

    def pdf(y: float) -> float:
        if y <= 0.0:
            return 0.0
        z = (math.log(y) - M) / s
        return math.exp(-0.5 * z * z) / (y * s * _SQRT2PI)

    def cdf(y: float) -> float:
        if y <= 0.0:
            return 0.0
        return 0.5 * math.erfc(-(math.log(y) - M) / (s * root2))

    def tail(K: int, base: Base) -> float:
        kl = K * base.ln
        below = 0.5 * math.erfc((kl + M) / (s * root2))
        above = 0.5 * math.erfc((kl - M) / (s * root2))
        return below + above

    return SourceDensity(pdf=pdf, cdf=cdf, tail_mass=tail)


def uniform_source(lo: float, hi: float) -> SourceDensity:
    """Uniform density on [lo, hi) with 0 < lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise DomainError(f"uniform support [{lo!r}, {hi!r}] must satisfy 0 < lo < hi")
    width = hi - lo

    def pdf(y: float) -> float:
        return 1.0 / width if lo <= y < hi else 0.0

    def cdf(y: float) -> float:
        if y <= lo:
            return 0.0
        if y >= hi:
            return 1.0
        return (y - lo) / width

    return source_from_cdf(pdf, cdf)


def _kahan(terms: Iterable[float]) -> float:
    """Compensated sum in a fixed order, for reproducible series values."""
    total = 0.0
    c = 0.0
    for t in terms:
        y = t - c
        nxt = total + y
        c = (nxt - total) - y
        total = nxt
    return total


def wrap_density(source: SourceDensity, base: Base, tol: float = 1e-9) -> WrappedDensity:
    """Choose the smallest truncation order whose tail bound is under tol/10."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be a positive real, got {tol!r}")
    for K in range(K_MAX + 1):
        t = source.tail_mass(K, base)
        if t < tol / 10.0:
            return WrappedDensity(source, base, K, tol, t)
    raise TruncationError(
        f"no truncation order up to {K_MAX} meets tail bound {tol / 10.0:g}"
    )


def wrap_pdf(w: WrappedDensity, x: float) -> float:
    """Condensed density sum_{k=-K}^{K} b**k pdf(x b**k) at x in [1, b).

    Summation runs in fixed order k = -K..K with compensated accumulation.
    Terms whose argument x*b**k over- or underflows the float range are
    skipped; such decades carry no representable mass.
    """
    b = float(w.base.b)
    if not 1.0 <= x < b:
        raise DomainError(f"x={x!r} outside [1, {w.base.b})")

    def terms():
        for k in range(-w.truncation, w.truncation + 1):
            bk = b**k
            y = x * bk
            if y <= 0.0 or not math.isfinite(y):
                continue
            yield bk * w.source.pdf(y)

    return _kahan(terms())


def wrap_cdf(w: WrappedDensity, x: float) -> float:
    """Condensed cdf sum_{k=-K}^{K} (F(x b**k) - F(b**k)) for x in [1, b].

    Equals 0 at x = 1 term by term and 1 at x = b up to the certified tail.
    """
    b = float(w.base.b)
    if not 1.0 <= x <= b:
        raise DomainError(f"x={x!r} outside [1, {w.base.b}]")

    def terms():
        for k in range(-w.truncation, w.truncation + 1):
            bk = b**k
            if bk <= 0.0 or not math.isfinite(bk):
                continue
            yield w.source.cdf(x * bk) - w.source.cdf(bk)

    return min(1.0, max(0.0, _kahan(terms())))


def _lognormal_trunc(s: float, L: float, tol: float) -> int:
    """Truncation order for the Gaussian sum in log space.

    For K >= 2 and center reduced into [0, L), the neglected two-sided tail
    of the term series is bounded by

        2 * (exp(-((K-1)L)^2 / 2s^2) + (s/L) sqrt(pi/2) erfc((K-1)L / (s sqrt2)))
          / (s sqrt(2 pi))

    (largest neglected term plus an integral comparison, both tails, x >= 1).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be a positive real, got {tol!r}")
    scale = 2.0 / (s * _SQRT2PI)
    root2 = math.sqrt(2.0)

    def bound(K: int) -> float:
        edge = (K - 1) * L
        e1 = math.exp(-(edge * edge) / (2.0 * s * s))
        e2 = (s / L) * math.sqrt(math.pi / 2.0) * math.erfc(edge / (s * root2))
        return scale * (e1 + e2)

    z = math.sqrt(2.0 * math.log(max(10.0, 1.0 / tol)))
    K = max(2, math.ceil((L + s * z) / L) + 1)
    while K <= K_MAX:
        if bound(K) < tol:
            return K
        K += 1
    raise TruncationError(
        f"no truncation order up to {K_MAX} brings the Gaussian tail under {tol:g}"
    )


def _wl_pdf_at(x: np.ndarray, m: float, s: float, L: float, K: int) -> np.ndarray:
    """(1/(x s sqrt(2 pi))) sum_{k=-K}^{K} exp(-(ln x + k L - m)^2 / 2 s^2).

    The terms are added one by one in increasing k, for _BLOCK elements of
    (x, k) at a time.  Every element sees the same sequence of operations
    whatever the length of x, so an array result equals the elementwise
    scalar results bit for bit.  The terms are positive, so the sum's
    relative rounding error stays below (2K + 1) machine epsilons.
    """
    u = np.log(x)[:, None]
    cols = max(1, _BLOCK // max(1, x.size))
    total = np.zeros(x.size)
    for k0 in range(-K, K + 1, cols):
        z = u + np.arange(k0, min(k0 + cols, K + 1)) * L
        np.subtract(z, m, out=z)
        np.multiply(z, z, out=z)
        np.divide(z, -2.0 * s * s, out=z)
        np.exp(z, out=z)
        z[:, 0] += total
        total = np.add.accumulate(z, axis=1, out=z)[:, -1]
    return total / (x * s * _SQRT2PI)


def _mixture_at(
    x: np.ndarray, components: Iterable[tuple[float, LogNormalParams]], base: Base, tol: float
) -> np.ndarray:
    """Weighted sum of wrapped log-normals on a checked grid; K once per component."""
    L = base.ln
    return sum(
        w * _wl_pdf_at(x, p.M % L, p.s, L, _lognormal_trunc(p.s, L, tol))
        for w, p in components
    )


def wrapped_lognormal_pdf(
    x: float | np.ndarray, p: LogNormalParams, base: Base, tol: float = 1e-9
) -> float | np.ndarray:
    """Closed-form wrapped log-normal density at x in [1, b).

    Evaluates (1/(x s sqrt(2 pi))) * sum_k exp(-(ln x + k ln b - M)^2 / 2 s^2)
    truncated so the neglected terms sum below tol.  The location is reduced
    mod ln b first; the full sum is invariant under that shift, so the
    density is exactly periodic in M with period ln b.

    x is a float or a float64 array; a float gives a float.  Any element
    outside [1, b) raises DomainError.
    """
    xs = _significand_array(x, base)
    return _like_input(_mixture_at(xs.reshape(-1), ((1.0, p),), base, tol), xs)


def euler_maclaurin_leading(x: float, p: LogNormalParams, base: Base) -> float:
    """Leading integral approximation of the wrapped log-normal sum.

    Replacing the sum over k by an integral makes the Gaussian integrate out
    entirely, leaving 1/(x ln b) independent of the location and scale.  It
    is the k = 0 term of the Poisson-summation dual of the same sum,

        rho_b(x) = (1/(x L)) [1 + 2 sum_{k>=1} exp(-2 pi^2 k^2 s^2 / L^2)
                                              cos(2 pi k (ln x - M) / L)],

    in which M and s appear only in the k >= 1 terms; those terms are what
    distance_to_nb measures.
    """
    b = float(base.b)
    if not 1.0 <= x < b:
        raise DomainError(f"x={x!r} outside [1, {base.b})")
    return 1.0 / (x * base.ln)


def distance_to_nb(
    params: LogNormalParams | MixtureParams, base: Base, tol: float = 1e-9
) -> tuple[float, float]:
    """Sup and total-variation distance from a wrapped log-normal or mixture
    to 1/(x ln b).

    Both are taken on a 2048-point grid spaced uniformly in the log-map
    coordinate, where the densities are smoothest; the TV integral uses the
    midpoint rule in that coordinate.
    """
    components = params.components if isinstance(params, MixtureParams) else ((1.0, params),)
    b = float(base.b)
    n = _DISTANCE_GRID
    x = np.array([b ** ((i + 0.5) / n) for i in range(n)])
    diff = np.abs(_mixture_at(x, components, base, tol) - nb_pdf(x, NBDistribution(base)))
    return float(diff.max()), float(np.sum(diff * x)) * 0.5 * base.ln / n


def wrap_mixture_pdf(
    x: float | np.ndarray, mix: MixtureParams, base: Base, tol: float = 1e-9
) -> float | np.ndarray:
    """Wrapped mixture density; wrapping is linear over the components.

    Same input contract as wrapped_lognormal_pdf.
    """
    xs = _significand_array(x, base)
    return _like_input(_mixture_at(xs.reshape(-1), mix.components, base, tol), xs)


def normalization(w: WrappedDensity) -> tuple[float, float]:
    """Integral of the condensed density over [1, b), with error estimate.

    Self-check: the value should equal 1 to within tol plus the returned
    quadrature error.
    """
    return integrate(
        lambda xs: [wrap_pdf(w, x) for x in xs.tolist()], 1.0, float(w.base.b), abs_tol=1e-9
    )
