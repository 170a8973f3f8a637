"""Regularized incomplete gamma ratios and the chi-square survival function.

The lower ratio P(a, x) is evaluated by its power series for x < a + 1 and
the upper ratio Q(a, x) by a modified Lentz continued fraction otherwise,
the classic pairing.  Each raises TruncationError after _MAX_ITER terms,
which a chi-square statistic near its mean reaches from 10,766 degrees of freedom.
"""

from __future__ import annotations

import math

from .errors import DomainError, TruncationError

__all__ = ["reg_gamma_upper", "chi2_sf"]

_MAX_ITER = 600
_EPS = 1e-16
_FPMIN = 1e-300


def _lower_series(a: float, x: float) -> float:
    """P(a, x) via the power series; valid for x < a + 1."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise TruncationError(f"incomplete gamma series not converged in {_MAX_ITER} terms")


def _upper_cf(a: float, x: float) -> float:
    """Q(a, x) via Lentz's continued fraction; valid for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise TruncationError(f"incomplete gamma fraction not converged in {_MAX_ITER} terms")


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma ratio Q(a, x)."""
    if a <= 0.0:
        raise DomainError(f"shape must be positive, got {a!r}")
    if x < 0.0:
        raise DomainError(f"argument must be nonnegative, got {x!r}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _lower_series(a, x)))
    return min(1.0, max(0.0, _upper_cf(a, x)))


def chi2_sf(stat: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    dof = 0 degenerates to a point mass at zero (all cell probabilities
    fixed, one cell): the survival probability is 1 at zero, 0 above.
    """
    if dof < 0:
        raise DomainError(f"degrees of freedom must be >= 0, got {dof!r}")
    if stat < 0.0:
        raise DomainError(f"statistic must be nonnegative, got {stat!r}")
    if dof == 0:
        return 1.0 if stat <= 1e-12 else 0.0
    return reg_gamma_upper(0.5 * dof, 0.5 * stat)
