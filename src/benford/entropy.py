"""Differential entropy on [1, b) and the reference-density bound.

For any density rho on the significand interval, H[rho] <= ln(ln b) +
<ln x>_rho, with equality exactly at the scale-invariant density; that
density therefore has maximum entropy among all densities whose mean log
does not exceed (ln b)/2.  Entropies are in nats throughout.

A density is a callable from a float64 array of points in [1, b) to an
array of values (a scalar result means a constant density); it is
evaluated on the quadrature nodes of one panel per call.  The
normalization, the entropy and the mean log are the rows of one
vector-valued integral, so each panel is evaluated once for all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quadrature import integrate
from .errors import NotNormalized
from .significand import Base

__all__ = ["EntropyReport", "entropy", "nb_entropy_closed", "mean_log", "analyze_entropy"]

_NORM_TOL = 1e-6
_CONSTRAINT_SLACK = 1e-9  # keeps quadrature noise from flipping the boolean
_QUAD_TOL = 1e-9
_NOISE_FLOOR = 1e-12

Pdf = Callable[[np.ndarray], "np.ndarray | float"]


@dataclass(frozen=True)
class EntropyReport:
    """Entropy, mean log, and the reference-density bound for one density.

    gibbs_bound is ln(ln b) + mean_log by construction; entropy never
    exceeds it by more than quadrature_error_estimate.  constraint_met
    records whether mean_log <= (ln b)/2 within a small slack.
    """

    entropy: float
    mean_log: float
    gibbs_bound: float
    constraint_met: bool
    quadrature_error_estimate: float


def _integrals(pdf: Pdf, base: Base) -> tuple[float, float, float, float]:
    """(H, <ln x>, error of H, error of <ln x>) from one panel tree.

    Its rows are p, -p ln p (0 ln 0 := 0) and p ln x, for p = pdf(x) on
    the nodes of each panel, so pdf is called once per panel.
    """

    def rows(x: np.ndarray) -> np.ndarray:
        p = np.broadcast_to(np.asarray(pdf(x), dtype=np.float64), x.shape)
        positive = p > 0.0
        h = np.where(positive, -p * np.log(np.where(positive, p, 1.0)), 0.0)
        return np.stack((p, h, p * np.log(x)))

    values, errors = integrate(rows, 1.0, float(base.b), abs_tol=_QUAD_TOL)
    norm, h, ml = values.tolist()
    if abs(norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"density integrates to {norm!r}, expected 1")
    _, err_h, err_ml = errors.tolist()
    return h, ml, err_h, err_ml


def entropy(pdf: Pdf, base: Base) -> float:
    """Differential entropy -integral of rho ln rho over [1, b), in nats."""
    return _integrals(pdf, base)[0]


def nb_entropy_closed(base: Base) -> float:
    """Closed-form entropy ln(ln b) + (ln b)/2 of the scale-invariant density."""
    return math.log(base.ln) + 0.5 * base.ln


def mean_log(pdf: Pdf, base: Base) -> float:
    """Expected value of ln x under the density; lies in [0, ln b)."""
    return _integrals(pdf, base)[1]


def analyze_entropy(pdf: Pdf, base: Base) -> EntropyReport:
    """Entropy report with the reference bound and the mean-log constraint."""
    h, ml, err_h, err_ml = _integrals(pdf, base)
    return EntropyReport(
        entropy=h,
        mean_log=ml,
        gibbs_bound=math.log(base.ln) + ml,
        constraint_met=ml <= 0.5 * base.ln + _CONSTRAINT_SLACK,
        quadrature_error_estimate=err_h + err_ml + _NOISE_FLOOR,
    )
