"""Regularized upper incomplete gamma ratio and the chi-square survival function.

Chi-square needs Q(a, x) only at a = dof/2.  For such a half-integer or
integer shape it is a finite Poisson tail (Abramowitz & Stegun 26.4):

    Q(a, x) = [a half-integer] erfc(sqrt(x)) + sum_c x^c e^-x / Gamma(c + 1)

over c = a - 1, a - 2, ... down to 0 or 1/2.  The sum starts at its
largest term, whose log for c >= 20 is taken in Stirling form so that no
O(c) quantities cancel; the other terms follow by the ratios c/x going
down and x/(c + 1) going up.  Every term is positive, nothing cancels and
nothing iterates to convergence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["reg_gamma_upper", "chi2_sf"]


def _log_term(c: float, x: float) -> float:
    """ln(x^c e^-x / Gamma(c + 1)); x >= c when c >= 20."""
    if c < 20.0:
        return c * math.log(x) - x - math.lgamma(c + 1.0)
    t = (x - c) / c  # lambda - 1, lambda = x / c
    stirling = 1 / (12 * c) - 1 / (360 * c**3) + 1 / (1260 * c**5) - 1 / (1680 * c**7)
    return -c * (t - math.log1p(t)) - 0.5 * math.log(2 * math.pi * c) - stirling


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma ratio Q(a, x), for 2a a positive integer."""
    if not (a > 0.0 and (2.0 * a).is_integer()):
        raise DomainError(f"shape must be a positive multiple of 1/2, got {a!r}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"argument must be nonnegative and finite, got {x!r}")
    if x == 0.0:
        return 1.0
    frac = a % 1.0  # the sum runs over c = frac + j, j = 0 .. n - 1
    n = int(a)
    head = math.erfc(math.sqrt(x)) if frac else 0.0
    if n == 0:
        return head
    k = min(max(math.floor(x - frac), 0), n - 1)  # the largest term
    c = frac + k
    down = (np.arange(c, frac, -1.0) / x).cumprod()  # terms c - 1, c - 2, ... over term c
    up = (x / np.arange(c + 1.0, a)).cumprod()  # terms c + 1, c + 2, ... over term c
    tail = math.exp(_log_term(c, x)) * (1.0 + down.sum() + up.sum())
    return min(1.0, head + float(tail))


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
