"""Condensing densities on the positive reals onto the significand interval.

A density rho on R+ is folded decade-by-decade onto [1, b):

    rho_b(x) = sum_k b**k * rho(x * b**k),    F_b(x) = sum_k (F(x b**k) - F(b**k))

with k over the integers.  The series is truncated at an order K certified
by a tail-mass bound supplied by the source, targeting tail < tol/10.  The
log-normal case also has two closed-form series in u = ln x: a direct sum
of Gaussians, and its Poisson dual, a cosine series whose leading term is
the scale-invariant density 1/(x ln b).  Narrow components need few
Gaussians, wide ones few cosines; each component is summed by whichever
series needs fewer terms.  The closed-form densities take a float or a
float64 array of x and plan the series and its order once per call and
component, in one _WrappedLogNormal that the entropy engine shares.

Source contracts (pdf/cdf/tail_mass) must be pure; everything here is then
thread-safe, and wrapped densities can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._quadrature import integrate
from .errors import DomainError, TruncationError
from .nb_core import NBDistribution, _like_input, _significand_array, nb_pdf
from .significand import Base, _table

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
# the dual series is summed to a tail near the rounding level of x rho(x),
# about 1/ln b, whatever tol: its order grows only like sqrt(ln(1/tail)),
# so the margin costs little
_DUAL_TAIL = 1e-16


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
            raise DomainError(f"scale must be finite and exceed {S_MIN:g}, got {self.s!r}")


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
                raise DomainError(f"mixture weight {w!r} must be finite and nonnegative")
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

    The terms are summed by math.fsum, correctly rounded.  Terms whose
    argument x*b**k over- or underflows the float range are skipped; such
    decades carry no representable mass.
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

    return math.fsum(terms())


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

    return min(1.0, max(0.0, math.fsum(terms())))


def _direct_tail(K: int, s: float, L: float) -> float:
    """Bound on the terms |k| > K of the Gaussian sum in log space.

    For K >= 2 and center reduced into [0, L), the neglected two-sided tail
    of the term series is bounded by

        2 * (exp(-((K-1)L)^2 / 2s^2) + (s/L) sqrt(pi/2) erfc((K-1)L / (s sqrt2)))
          / (s sqrt(2 pi))

    (largest neglected term plus an integral comparison, both tails), a
    bound on x rho(x) and so, for x >= 1, on rho(x).
    """
    edge = (K - 1) * L
    e1 = math.exp(-(edge * edge) / (2.0 * s * s))
    e2 = (s / L) * math.sqrt(math.pi / 2.0) * math.erfc(edge / (s * math.sqrt(2.0)))
    return 2.0 * (e1 + e2) / (s * _SQRT2PI)


def _lognormal_trunc(s: float, L: float, tol: float, limit: int) -> int | None:
    """Least truncation order 2 <= K <= limit from the usual start whose
    _direct_tail is under the positive tol, or None if there is none."""
    z = math.sqrt(2.0 * max(math.log(10.0), -math.log(tol)))  # 1/tol overflows
    start = (L + s * z) / L  # inf for absurd scales, which the limit caps
    K = max(2, math.ceil(min(start, limit)) + 1)
    while K <= limit:
        if _direct_tail(K, s, L) < tol:
            return K
        K += 1
    return None


def _block_sum(n: int, ks: np.ndarray, terms: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """sum_k terms(k) at n points, adding the terms one by one in the order
    of ks, for _BLOCK elements of (k, point) at a time; terms maps a run of
    orders to a new (run length, n) array, one row per order.  The running
    total is added to a block's first row, and np.add.reduce adds the rows
    down axis 0 into the total, row after row, for n >= 2; a single point's
    column is reduced pairwise, so it is added row by row here.  Every point
    sees the same sequence of operations whatever n, so an array result
    equals the elementwise scalar results bit for bit."""
    rows = max(1, _BLOCK // max(1, n))
    total = np.zeros(n)
    for i in range(0, ks.size, rows):
        block = terms(ks[i : i + rows])
        if n == 1:
            for row in block:
                total += row
            continue
        block[0] += total
        np.add.reduce(block, axis=0, out=total)
        del block  # so that no two blocks are held at once
    return total


def _wl_pdf_at(
    x: np.ndarray, m: float, s: float, L: float, K: int, u: np.ndarray
) -> np.ndarray:
    """(1/(x s sqrt(2 pi))) sum_{k=-K}^{K} exp(-(u + k L - m)^2 / 2 s^2),
    for u = np.log(x).

    The terms are added in increasing k by _block_sum.  They are positive,
    so the sum's relative rounding error stays below (2K + 1) machine
    epsilons.
    """

    def terms(k: np.ndarray) -> np.ndarray:
        z = u + (k * L)[:, None]
        z -= m
        z *= z
        z /= -2.0 * s * s
        return np.exp(z, out=z)

    total = _block_sum(x.size, np.arange(-K, K + 1), terms)
    scale = x * s
    scale *= _SQRT2PI
    total /= scale
    return total


def _dual_rate(s: float, L: float) -> float:
    """a = 2 pi^2 s^2 / L^2, so that the dual coefficients are c_k = exp(-a k^2)."""
    t = math.pi * s / L
    return 2.0 * t * t  # inf, not OverflowError, for absurd scales


def _dual_order(s: float, L: float, target: float) -> int:
    """An order J whose dual tail (2/L) sum_{k>J} c_k is certified below target.

    With n = J + 1, k^2 >= n^2 + 2n(k - n) for k >= n bounds the tail by
    the geometric series (2/L) c_n / (1 - exp(-2 a n)).  The search starts
    where c_n alone meets the target, so J ends at or a little above the
    smallest order meeting that bound: within one term of it for s/L above
    1e-2, the scales at which the dual can be the cheaper series.
    """
    a = _dual_rate(s, L)
    goal = math.log(2.0 / L) - math.log(target)

    def log_gap(n: int) -> float:  # ln(1 - exp(-2 a n)) <= 0
        return math.log(-math.expm1(-2.0 * a * n))

    n = 1
    if a * n * n + log_gap(n) >= goal:
        return 0
    n = max(2, math.ceil(math.sqrt(goal / a)))  # where c_n alone meets the target
    while a * n * n + log_gap(n) < goal:
        n = max(n + 1, math.ceil(math.sqrt((goal - log_gap(n)) / a)))
    return n - 1


def _dual_at(x: np.ndarray, m: float, s: float, L: float, J: int, u: np.ndarray) -> np.ndarray:
    """(1/(x L)) [1 + 2 sum_{k=1}^{J} c_k cos(2 pi k (u - m) / L)], for u = np.log(x).

    The Poisson dual of _wl_pdf_at's sum, with c_k = exp(-2 pi^2 k^2 s^2 / L^2).
    The terms are added from k = J down to 1, smallest first, by _block_sum.
    """
    theta = (u - m) * (2.0 * math.pi / L)
    a = _dual_rate(s, L)

    def terms(k: np.ndarray) -> np.ndarray:
        z = theta * k[:, None]
        np.cos(z, out=z)
        z *= np.exp(-a * (k * k))[:, None]
        return z

    total = _block_sum(x.size, np.arange(J, 0, -1), terms)
    total *= 2.0
    total += 1.0
    total /= x * L
    return total


class _Series(NamedTuple):
    """How one mixture component is summed.

    K is the order of the direct Gaussian sum, or None where the dual
    series is cheaper; J is the dual order either way (the closed-form mean
    log uses it).  tail bounds the truncation error of x rho(x), the
    density of ln x, at every point.
    """

    w: float
    m: float  # location reduced into [0, L)
    s: float
    K: int | None
    J: int
    tail: float


class _WrappedLogNormal(NamedTuple):
    """A wrapped log-normal or mixture planned once: L = ln b and, per
    component, the series that sums it, with its order and tail bound."""

    L: float
    series: tuple[_Series, ...]

    @classmethod
    def of(cls, params: LogNormalParams | MixtureParams, base: Base, tol: float):
        """Per component, the series that needs fewer terms: the direct sum
        (2K + 1 terms, tail below tol) or the dual (J + 1 terms, tail below
        _DUAL_TAIL, or below tol if that is smaller).  The direct sum is
        searched only up to (J - 1) // 2, the largest K with 2K + 1 < J + 1,
        so a tie goes to the dual, whose tail is the smaller."""
        if not (math.isfinite(tol) and tol > 0.0):
            raise DomainError(f"tolerance must be a positive real, got {tol!r}")
        L = base.ln
        target = min(tol, _DUAL_TAIL)
        comps = params.components if isinstance(params, MixtureParams) else ((1.0, params),)
        series = []
        for w, p in comps:
            J = _dual_order(p.s, L, target)
            K = _lognormal_trunc(p.s, L, tol, (J - 1) // 2)
            tail = target if K is None else _direct_tail(K, p.s, L)
            series.append(_Series(w, p.M % L, p.s, K, J, tail))
        return cls(L, tuple(series))

    def pdf(self, x: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """The density at a 1-d array of points x in [1, b), given
        u = np.log(x) or taking it once for all components."""
        L = self.L
        if u is None:
            u = np.log(x)
        return sum(
            c.w
            * (
                _dual_at(x, c.m, c.s, L, c.J, u)
                if c.K is None
                else _wl_pdf_at(x, c.m, c.s, L, c.K, u)
            )
            for c in self.series
        )

    def mean_log(self) -> tuple[float, float]:
        """E[ln x] in closed form, and a bound on its neglected terms.

        E[u] = L/2 - (L/pi) sum_i w_i sum_{k>=1} c_k sin(2 pi k m_i / L) / k,
        summed to each component's dual order J.  With n = J + 1, the
        neglected terms are at most (L/pi) / n times the geometric bound of
        _dual_order, c_n / (1 - exp(-2 a n)).
        """
        L = self.L
        acc = 0.0
        err = 0.0
        for c in self.series:
            a, n = _dual_rate(c.s, L), c.J + 1
            if c.J:
                k = np.arange(c.J, 0, -1)
                terms = np.exp(-a * (k * k)) * np.sin((2.0 * math.pi * c.m / L) * k)
                acc += c.w * float((terms / k).sum())
            err += c.w * math.exp(-a * n * n) / (n * -math.expm1(-2.0 * a * n))
        return 0.5 * L - (L / math.pi) * acc, (L / math.pi) * err

    def alias_rate(self) -> float:
        """The least dual rate a among components of positive weight: the
        trapezoidal rule's aliasing error with N nodes in ln x decays like
        exp(-a N^2)."""
        return min(_dual_rate(c.s, self.L) for c in self.series if c.w > 0.0)


def wrapped_lognormal_pdf(
    x: float | np.ndarray, p: LogNormalParams | MixtureParams, base: Base, tol: float = 1e-9
) -> float | np.ndarray:
    """Closed-form wrapped log-normal or mixture density at x in [1, b).

    Evaluates (1/(x s sqrt(2 pi))) * sum_k exp(-(ln x + k ln b - M)^2 / 2 s^2)
    per component, truncated so the neglected terms sum below tol, and
    weights the components; wrapping is linear over them.  The location is
    reduced mod ln b first; the full sum is invariant under that shift, so
    the density is exactly periodic in M with period ln b.

    x is a float or a float64 array; a float gives a float.  Any element
    outside [1, b) raises DomainError.
    """
    xs = _significand_array(x, base)
    return _like_input(_WrappedLogNormal.of(p, base, tol).pdf(xs.reshape(-1)), xs)


def euler_maclaurin_leading(x: float, p: LogNormalParams, base: Base) -> float:
    """Leading integral approximation of the wrapped log-normal sum.

    Replacing the sum over k by an integral makes the Gaussian integrate out
    entirely, leaving 1/(x ln b) independent of the location and scale.  It
    is the k = 0 term of the Poisson-summation dual of the same sum,

        rho_b(x) = (1/(x L)) [1 + 2 sum_{k>=1} exp(-2 pi^2 k^2 s^2 / L^2)
                                              cos(2 pi k (ln x - M) / L)],

    in which M and s appear only in the k >= 1 terms; those terms are what
    distance_to_nb measures.  The wrapped log-normal evaluator sums this dual
    for wide components; from s of about 1.4 ln b on, its k >= 1 terms are
    below 1e-16 and it returns this leading term itself.
    """
    return nb_pdf(x, NBDistribution(base))


class _Grid(NamedTuple):
    """The log-map grids of one wrap call on [1, b): the _DISTANCE_GRID
    points that the distances are taken on, then the n points of its
    table.  Its points x and u = np.log(x); read-only arrays."""

    x: np.ndarray
    u: np.ndarray


@_table
def _grid(b: int, n: int) -> _Grid:
    """The points b**((i + 0.5) / m), i = 0..m-1, for m = _DISTANCE_GRID
    and then m = n: the midpoints of m equal cells of the log-map
    coordinate on [1, b), so that one evaluation serves the distances and
    the table.

    Kept per (b, n) in the per-process table cache up to 16380 points in
    all, n = 14332, so repeat calls return the same record; larger ones are
    built per call.
    """
    fb = float(b)
    # Python's pow, not numpy's, which differs from it in the last ulp
    points = (fb ** ((i + 0.5) / m) for m in (_DISTANCE_GRID, n) for i in range(m))
    x = np.fromiter(points, np.float64, _DISTANCE_GRID + n)
    return _Grid(x, np.log(x))


def _law(x: np.ndarray, base: Base) -> np.ndarray:
    """The law 1/(x ln b) at points x of a _grid, by nb_pdf's expression.

    It is not kept in the grid record: with it, records half again as
    large made the CI cache memory test read about 0.4 MiB more growth.
    """
    return 1.0 / (x * base.ln)


def _distances(
    wl: _WrappedLogNormal, base: Base, grid: _Grid
) -> tuple[float, float, np.ndarray]:
    """distance_to_nb of the planned density wl, and wl on the table points
    of grid, a _grid of base, from one evaluation over the whole grid."""
    pdf = wl.pdf(*grid)
    n = _DISTANCE_GRID
    x = grid.x[:n]
    diff = np.abs(pdf[:n] - _law(x, base))
    return float(diff.max()), float(np.sum(diff * x)) * 0.5 * base.ln / n, pdf[n:]


def distance_to_nb(
    params: LogNormalParams | MixtureParams, base: Base, tol: float = 1e-9
) -> tuple[float, float]:
    """Sup and total-variation distance from a wrapped log-normal or mixture
    to 1/(x ln b).

    Both are taken on a 2048-point grid spaced uniformly in the log-map
    coordinate, where the densities are smoothest; the TV integral uses the
    midpoint rule in that coordinate.
    """
    return _distances(_WrappedLogNormal.of(params, base, tol), base, _grid(base.b, 0))[:2]


def wrap_mixture_pdf(
    x: float | np.ndarray, mix: MixtureParams, base: Base, tol: float = 1e-9
) -> float | np.ndarray:
    """Wrapped mixture density: wrapped_lognormal_pdf of the mixture."""
    return wrapped_lognormal_pdf(x, mix, base, tol)


def normalization(w: WrappedDensity) -> tuple[float, float]:
    """Integral of the condensed density over [1, b), with error estimate.

    Self-check: the value should equal 1 to within tol plus the returned
    quadrature error.
    """
    return integrate(
        lambda xs: [wrap_pdf(w, x) for x in xs.tolist()], 1.0, float(w.base.b), abs_tol=1e-9
    )
