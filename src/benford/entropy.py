"""Differential entropy on [1, b) and the reference-density bound.

For any density rho on the significand interval, H[rho] <= ln(ln b) +
<ln x>_rho, with equality exactly at the scale-invariant density; that
density therefore has maximum entropy among all densities whose mean log
does not exceed (ln b)/2.  Entropies are in nats throughout.

A density is the name "nb" (1/(x ln b)) or "uniform" (1/(b - 1)), reported
in closed form; a wrapped log-normal or mixture, given by its parameters;
or a callable from a float64 array of points in [1, b) to an array of
values (a scalar result means a constant density).

Parameters are integrated in the log coordinate u = ln x on [0, ln b),
where the density g(u) = x rho(x) is smooth and periodic: H[rho] =
H_u[g] + E[u], H_u by the trapezoidal rule on nested equispaced nodes,
which converges geometrically on such integrands, and E[u] in closed form.

A callable is evaluated on the quadrature nodes of one panel per call.
The normalization, the entropy and the mean log are the rows of one
vector-valued integral, so each panel is evaluated once for all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Union

import numpy as np

from ._quadrature import integrate
from .errors import DomainError, NotNormalized, QuadratureError
from .significand import Base, _table
from .wrapping import LogNormalParams, MixtureParams, _WrappedLogNormal

__all__ = ["EntropyReport", "entropy", "nb_entropy_closed", "mean_log", "analyze_entropy"]

_NORM_TOL = 1e-6
_CONSTRAINT_SLACK = 1e-9  # keeps quadrature noise from flipping the boolean
_QUAD_TOL = 1e-9
_NOISE_FLOOR = 1e-12
_FIRST_NODES = 8
_MAX_NODES = 1 << 16  # about the 4096 15-node panels of the adaptive rule

Pdf = Callable[[np.ndarray], "np.ndarray | float"]
Density = Union[Literal["nb", "uniform"], Pdf, LogNormalParams, MixtureParams]


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


def _neg_g_log_g(g: np.ndarray) -> np.ndarray:
    """-g ln g elementwise, with 0 ln 0 := 0."""
    positive = g > 0.0
    return np.where(positive, -g * np.log(np.where(positive, g, 1.0)), 0.0)


def _adaptive_integrals(pdf: Pdf, base: Base) -> tuple[float, float, float, float]:
    """(H, <ln x>, error of H, error of <ln x>) from one panel tree.

    Its rows are p, -p ln p and p ln x, for p = pdf(x) on the nodes of
    each panel, so pdf is called once per panel.
    """

    def rows(x: np.ndarray) -> np.ndarray:
        p = np.broadcast_to(np.asarray(pdf(x), dtype=np.float64), x.shape)
        return np.stack((p, _neg_g_log_g(p), p * np.log(x)))

    values, errors = integrate(rows, 1.0, float(base.b), abs_tol=_QUAD_TOL)
    norm, h, ml = values.tolist()
    if abs(norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"density integrates to {norm!r}, expected 1")
    _, err_h, err_ml = errors.tolist()
    return h, ml, err_h, err_ml


def _truncation_effect(wl: _WrappedLogNormal) -> float:
    """Bound on the change of H_u from truncating the series.

    Truncation lowers g by at most eps = sum_i w_i tail_i at every point,
    and |f(g) - f(g - d)| <= d (ln(1/d) + 1 + ln+ g_max) for f(t) = -t ln t
    and 0 <= d <= eps <= 1/e; g_max <= sum_i w_i (1/(s_i sqrt(2 pi)) + 1/L).
    """
    L = wl.L
    eps = sum(c.w * c.tail for c in wl.series)
    if eps == 0.0:
        return 0.0
    g_max = sum(c.w * (1.0 / (c.s * math.sqrt(2.0 * math.pi)) + 1.0 / L) for c in wl.series)
    return L * eps * (max(0.0, -math.log(eps)) + 1.0 + max(0.0, math.log(g_max)))


def _midpoints(L: float, n: int) -> np.ndarray:
    """The n midpoints of the trapezoidal rule's stage n on [0, L)."""
    return (np.arange(n) + 0.5) * (L / n)


def _exp_log(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = e**u and ln x, by numpy's exp and log."""
    x = np.exp(u)
    return x, np.log(x)


@_table
def _nodes(b: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """_exp_log of the size nodes in u of every stage of the trapezoidal
    rule on [0, ln b) below size, laid out stage after stage: the
    _FIRST_NODES nodes jL/N of the first, then the N midpoints of stage N
    as entries N to 2N; read-only arrays, kept per (b, size) in the table
    cache under the size rule of significand._Memo."""
    L = math.log(b)
    n, stages = _FIRST_NODES, [np.arange(_FIRST_NODES) * (L / _FIRST_NODES)]
    while n < size:
        stages.append(_midpoints(L, n))
        n *= 2
    return _exp_log(np.concatenate(stages))


def _trapezoid_integrals(
    params: LogNormalParams | MixtureParams, base: Base, tol: float
) -> tuple[float, float, float, float]:
    """(H, <ln x>, error of H, error of <ln x>) of a wrapped log-normal or
    mixture, by the trapezoidal rule in u = ln x.

    The nodes jL/N are nested: each doubling of N adds the N midpoints.
    The rule stops once the aliasing bound of the normalization,
    2 sum_{j>=1} c_{jN} for the narrowest component, and the change of H_u
    from N/2 to N are both below the quadrature tolerance; their sum, the
    truncation effect and the mean-log tail make H's error.

    The aliasing bound alone gives, before any evaluation, the least N_a
    at which the rule can stop.  So g is evaluated in one batch on the
    nodes of every stage up to min(2 N_a, _MAX_NODES), laid out by
    _nodes; past the batch, each doubling evaluates its midpoints alone.
    Either way each stage adds the sums of its own nodes, in order.
    """
    L = base.ln
    wl = _WrappedLogNormal.of(params, base, tol)
    rate = wl.alias_rate()

    def alias_bound(n: int) -> float:
        q = math.exp(-rate * n * n)
        # sum_{j>=1} q^(j^2) <= q / (1 - q)
        return 2.0 * q / -math.expm1(-rate * n * n)

    def g_and_h(x: np.ndarray, ln_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = x * wl.pdf(x, ln_x)
        return g, _neg_g_log_g(g)

    n_a = _FIRST_NODES
    while alias_bound(n_a) >= _QUAD_TOL and n_a < _MAX_NODES:
        n_a *= 2
    batch_g, batch_h = g_and_h(*_nodes(base.b, min(2 * n_a, _MAX_NODES)))

    n = _FIRST_NODES
    sum_g, sum_h = float(batch_g[:n].sum()), float(batch_h[:n].sum())
    h_prev = math.nan  # no change to compare before the first doubling
    while True:
        h_u = sum_h * (L / n)
        alias = alias_bound(n)
        change = abs(h_u - h_prev)
        if alias < _QUAD_TOL and change < _QUAD_TOL:
            break
        if n >= _MAX_NODES:
            raise QuadratureError(
                f"trapezoidal rule not converged with {n} nodes "
                f"(aliasing bound {alias:g}, last change {change:g})"
            )
        if 2 * n <= batch_g.size:
            g, h = batch_g[n : 2 * n], batch_h[n : 2 * n]
        else:
            g, h = g_and_h(*_exp_log(_midpoints(L, n)))
        sum_g += float(g.sum())
        sum_h += float(h.sum())
        n *= 2
        h_prev = h_u
    norm = sum_g * (L / n)
    if abs(norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"density integrates to {norm!r}, expected 1")
    ml, err_ml = wl.mean_log()
    err_h = alias + change + _truncation_effect(wl) + err_ml
    return h_u + ml, ml, err_h, err_ml


def _integrals(
    density: Density, base: Base, tol: float = 1e-9
) -> tuple[float, float, float, float]:
    b, L = base.b, base.ln
    if density == "nb":
        return nb_entropy_closed(base), 0.5 * L, 0.0, 0.0
    if density == "uniform":
        return math.log(b - 1), (b * L - b + 1) / (b - 1), 0.0, 0.0
    if isinstance(density, str):
        raise DomainError(f"unknown density {density!r}; expected 'nb' or 'uniform'")
    if isinstance(density, (LogNormalParams, MixtureParams)):
        return _trapezoid_integrals(density, base, tol)
    return _adaptive_integrals(density, base)


def entropy(density: Density, base: Base) -> float:
    """Differential entropy -integral of rho ln rho over [1, b), in nats."""
    return _integrals(density, base)[0]


def nb_entropy_closed(base: Base) -> float:
    """Closed-form entropy ln(ln b) + (ln b)/2 of the scale-invariant density."""
    return math.log(base.ln) + 0.5 * base.ln


def mean_log(density: Density, base: Base) -> float:
    """Expected value of ln x under the density; lies in [0, ln b)."""
    return _integrals(density, base)[1]


def analyze_entropy(density: Density, base: Base, tol: float = 1e-9) -> EntropyReport:
    """Entropy report with the reference bound and the mean-log constraint.

    tol is the series truncation tolerance of a density given by its
    parameters, as in wrapped_lognormal_pdf; names and callables ignore it.
    """
    h, ml, err_h, err_ml = _integrals(density, base, tol)
    return EntropyReport(
        entropy=h,
        mean_log=ml,
        gibbs_bound=math.log(base.ln) + ml,
        constraint_met=ml <= 0.5 * base.ln + _CONSTRAINT_SLACK,
        quadrature_error_estimate=err_h + err_ml + _NOISE_FLOOR,
    )
