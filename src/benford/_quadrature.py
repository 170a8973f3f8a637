"""Adaptive composite Gauss-Kronrod (G7/K15) quadrature on a finite interval.

The integrand maps a float64 array of the 15 nodes of one panel to values
on them, one call per panel: an array of shape (15,) for one integral, or
(m, 15) for m integrals of the same panel tree, one row each; a scalar or
a size-1 last axis is taken as constant over the panel.  Panels are
bisected worst-first, ranked by the sum of their row error estimates,
until every row's summed error is below the absolute tolerance.
Evaluation order is deterministic, so results are bit-reproducible run to
run.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["integrate"]

# (node, Gauss-7 weight, Kronrod-15 weight); Gauss weight 0 marks
# Kronrod-only nodes
_GK15 = (
    (0.0000000000000000, 0.4179591836734694, 0.2094821410847278),
    (+0.4058451513773972, 0.3818300505051189, 0.1903505780647854),
    (-0.4058451513773972, 0.3818300505051189, 0.1903505780647854),
    (+0.7415311855993944, 0.2797053914892767, 0.1406532597155259),
    (-0.7415311855993944, 0.2797053914892767, 0.1406532597155259),
    (+0.9491079123427585, 0.1294849661688697, 0.0630920926299785),
    (-0.9491079123427585, 0.1294849661688697, 0.0630920926299785),
    (+0.2077849550078985, 0.0, 0.2044329400752989),
    (-0.2077849550078985, 0.0, 0.2044329400752989),
    (+0.5860872354676911, 0.0, 0.1690047266392679),
    (-0.5860872354676911, 0.0, 0.1690047266392679),
    (+0.8648644233597691, 0.0, 0.1047900103222502),
    (-0.8648644233597691, 0.0, 0.1047900103222502),
    (+0.9914553711208126, 0.0, 0.0229353220105292),
    (-0.9914553711208126, 0.0, 0.0229353220105292),
)
_NODES, _G7, _K15 = np.array(_GK15).T.copy()

Integrand = Callable[[np.ndarray], "np.ndarray | float"]


def _panel(f: Integrand, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Integral and error estimate of each row on one panel."""
    h = 0.5 * (b - a)
    fx = np.asarray(f(0.5 * (a + b) + h * _NODES), dtype=np.float64)
    # weighted sums along the node axis, not matmul: BLAS may round a row
    # differently depending on how many rows it is given
    k15 = (fx * _K15).sum(axis=-1)
    # |K15 - G7| badly overestimates the K15 error on smooth integrands,
    # which only costs a few extra bisections
    return k15 * h, np.abs(k15 - (fx * _G7).sum(axis=-1)) * h


def integrate(
    f: Integrand,
    a: float,
    b: float,
    abs_tol: float = 1e-9,
    max_panels: int = 4096,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Integrate each row of f over [a, b] to the given absolute tolerance.

    Returns (values, error_estimates): floats for a scalar or 1-D integrand,
    arrays of shape (m,) for m rows.  Raises QuadratureError if the panel
    budget, shared by all rows, is exhausted before every row meets the
    tolerance.
    """
    if b <= a:
        raise QuadratureError(f"empty integration interval [{a!r}, {b!r}]")
    n = 8  # initial panels; live panel i keeps its sums in vals[i], errs[i]
    heap = []  # entries (-summed row error, slot, lo, hi)
    for i in range(n):
        lo = a + (b - a) * i / n
        hi = a + (b - a) * (i + 1) / n
        val, err = _panel(f, lo, hi)
        if i == 0:
            vals = np.empty((max(max_panels, n), *val.shape))
            errs = np.empty_like(vals)
        vals[i], errs[i] = val, err
        heap.append((-err.sum(), i, lo, hi))
    heapq.heapify(heap)
    while True:
        total_err = errs[:n].sum(axis=0)
        if (total_err <= abs_tol).all():
            total = vals[:n].sum(axis=0)
            if total.ndim:
                return total, total_err
            return float(total), float(total_err)
        if n >= max_panels:
            raise QuadratureError(
                f"tolerance {abs_tol:g} not reached with {max_panels} panels "
                f"(error estimate {total_err.max():g})"
            )
        # the halves take the popped panel's slot and the next free one
        _, slot, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for i, seg in ((slot, (lo, mid)), (n, (mid, hi))):
            vals[i], errs[i] = _panel(f, *seg)
            heapq.heappush(heap, (-errs[i].sum(), i, *seg))
        n += 1
