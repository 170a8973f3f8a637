"""Empirical conformance to the first-digit law.

Digit histograms with explicit skip accounting, Pearson chi-square against
the law's cell probabilities, a Kolmogorov-Smirnov uniformity statistic on
log-mapped significands, seeded samplers, and deterministic sequence
generators that make significands only, so factorials and large powers
never overflow; gen_sequence_terms rounds log_b(term) - log_b(s) for k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._special import chi2_sf
from .errors import DomainError, EmptyData, InsufficientData, NonPositiveInput, UnsupportedRatio
from .nb_core import first_digit_probs
from .significand import (
    Base,
    SignificandDecomposition,
    _exact_ratio,
    _in_cell,
    _power_table,
    _table,
    _two_product,
    decompose_array,
)
from .wrapping import LogNormalParams

__all__ = [
    "SEQUENCE_KINDS",
    "DigitHistogram",
    "ConformanceReport",
    "digit_histogram",
    "chi_square",
    "ks_uniform",
    "tv_to_nb",
    "analyze",
    "sample_nb",
    "sample_lognormal",
    "gen_sequence",
    "gen_sequence_terms",
]

SEQUENCE_KINDS = ("pow2", "factorial", "fibonacci", "geometric")

_FACTORIAL_CAP = 10_000
# The factorial multiplies its factors in blocks of K, with b**(K + 1) at
# most 10**_FACTORIAL_SPAN, below DBL_MAX; see _factorial.
_FACTORIAL_SPAN = 300

# The log-linear kernel (pow2, geometric, fibonacci) takes terms, and its
# phase table holds them, in blocks of 2**14; see _kernel.
_BLOCK = 1 << 14
# bound on |u - frac(log_b term)| of a kernel term: the phase errs by
# under 3 * 2**-53 + 2**-80 (see _log_linear), the offset by 2**-54 and
# their sum, below 2, by 2**-53: under 5 * 2**-53 in all
_U_ERR = 2.0**-50
# relative error allowed for np.exp, 8 * 2**-53: the worst seen against
# mpmath on 20 000 points u ln b in each of six bases from 2 to 2**53 - 1
# is 1.15 * 2**-53 (numpy 2.4, AVX-512), and a test checks a seeded sample
_EXP_ERR = 2.0**-50
# a kernel term that _near_integer flags has its u within 5.1 * 2**-50 of
# an edge log_b d as _digit_edges computes it, or of 1 (see _kernel);
# _sequence_logs applies the rule only to the u this close to an edge
_EDGE_WIN = 2.0**-44
_DEC_PREC = 60
_DEC_TIE = Decimal("1e-40")  # see _settle
_FIB_EXACT = 78  # F_78 < 2**53: the first Fibonacci terms are exact doubles
# The library's data and the factorial's and rational logs' significands
# are counted and log-mapped, and KS walks u, in slices of this many
# elements, so that their temporaries stay in cache; see _slices and _ks.
_STAT_BLOCK = 2**13


@dataclass(frozen=True, eq=False)
class DigitHistogram:
    """First-digit counts for one base; counts[d-1] is the count of digit d.

    counts is a read-only int64 array, made from a copy of whatever
    sequence of integers is passed, so the caller's array is neither
    shared nor frozen.  Histograms compare equal when their base, total
    and counts are.
    """

    base: Base
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        counts = np.array(self.counts)
        if counts.shape != (self.base.b - 1,):
            raise DomainError(f"expected {self.base.b - 1} digit cells, got {counts.size}")
        if counts.dtype.kind not in "iu" or (counts < 0).any() or int(counts.sum()) != self.total:
            raise DomainError("histogram counts must be nonnegative integers and sum to total")
        counts = counts.astype(np.int64, copy=False)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigitHistogram):
            return NotImplemented
        return (self.base, self.total) == (other.base, other.total) and np.array_equal(
            self.counts, other.counts
        )

    def __hash__(self) -> int:
        return hash((self.base, self.total))


@dataclass(frozen=True)
class ConformanceReport:
    """Digit histogram plus conformance statistics and skip accounting."""

    histogram: DigitHistogram
    chi_square: float
    chi_square_pvalue: float
    ks_stat: float
    tv_distance: float
    n_skipped_nonpositive: int
    n_skipped_nonfinite: int


def _split_usable(x: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Partition a float64 block into usable positives and skip counters."""
    finite = np.isfinite(x)
    keep = finite & (x > 0.0)
    usable = x if keep.all() else x[keep]  # no copy when nothing is skipped
    n_finite = int(np.count_nonzero(finite))
    return usable, n_finite - usable.size, x.size - n_finite


def _slices(data: np.ndarray | Iterable[float]) -> Iterator[np.ndarray]:
    """The data as float64, in slices of _STAT_BLOCK elements."""
    if isinstance(data, (np.ndarray, list, tuple)):
        x = np.asarray(data, dtype=np.float64).ravel()
    else:
        x = np.fromiter(data, dtype=np.float64)
    return (x[start : start + _STAT_BLOCK] for start in range(0, x.size, _STAT_BLOCK))


def _fold(s: np.ndarray, counts: np.ndarray, lnb: float) -> np.ndarray:
    """Add one to counts[d] per significand s in [1, b) with integer part d
    (the cast truncates), then map s in place to u = ln s / ln b, which it
    returns."""
    np.add.at(counts, s.astype(np.intp), 1)
    np.log(s, out=s)
    s /= lnb
    return s


@_table
def _digit_edges(b: int) -> np.ndarray:
    """e_d = log_b d for d = 1, ..., b - 1, with e_1 = 0: first digit d is
    the arc [e_d, e_d+1) of the circle u = log_b s, e_b = 1.

    e_d = np.log(d) / np.log(b), each log within one ulp (a test checks a
    sample against mpmath) and the quotient rounded once, so e_d errs by
    under 5 * 2**-53.
    """
    return np.log(np.arange(1.0, b)) / np.log(float(b))


def _arc_histogram(
    base: Base, edges: np.ndarray, cuts: np.ndarray, n: int, exact: list[tuple[float, int]]
) -> DigitHistogram:
    """The digit histogram of n terms from the cuts u.searchsorted(edges)
    of their u, sorted ascending, at the edges of _digit_edges: digit d
    counts the u in the arc [e_d, e_d+1), so b - 1 binary searches in the
    sort the KS needs anyway count every term, where _fold adds one per
    term.  Each (u, d) of exact, a term whose u may lie on or beside an
    edge, is then moved from the arc its u falls in to its exact digit d.
    """
    counts = np.diff(cuts, append=n)
    if exact:
        eu, ed = zip(*exact)
        np.subtract.at(counts, edges.searchsorted(eu, side="right") - 1, 1)
        np.add.at(counts, np.array(ed) - 1, 1)
    return DigitHistogram(base, counts, n)


def _near_edges(u: np.ndarray, edges: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The distinct values of u, sorted ascending, that lie within
    _EDGE_WIN of an edge of _digit_edges or of 1, from the cuts
    u.searchsorted(edges).  An edge has such a value only if the first u
    at or above it or the last below it is one, so two gathers of b - 1
    values, _STAT_BLOCK edges at a time, find the edges, and one binary
    search on either side of each takes its values."""
    near = []
    for start in range(0, edges.size, _STAT_BLOCK):
        e, c = edges[start : start + _STAT_BLOCK], cuts[start : start + _STAT_BLOCK]
        above = np.abs(u.take(c, mode="clip") - e)
        below = np.abs(u.take(c - 1, mode="clip") - e)
        near.append(e[np.minimum(above, below, out=above) <= _EDGE_WIN])
    if u[-1] >= 1.0 - _EDGE_WIN:
        near.append(np.ones(1))
    e = np.concatenate(near)
    lo = u.searchsorted(e - _EDGE_WIN).tolist()
    hi = u.searchsorted(e + _EDGE_WIN, side="right").tolist()
    v = np.concatenate([u[a:z] for a, z in zip(lo, hi)] + [u[:0]])
    v.sort()  # windows of close edges may overlap
    return v[np.diff(v, prepend=-math.inf) > 0.0]  # not np.unique, which imports numpy.ma


def _replace(u: np.ndarray, v: float, w: float) -> None:
    """Replace one element v of u, sorted ascending, by w, shifting the
    elements between them by one place, so u stays sorted."""
    i = int(u.searchsorted(v))
    if w > v:
        j = int(u.searchsorted(w)) - 1
        u[i:j] = u[i + 1 : j + 1]
    else:
        j = int(u.searchsorted(w))
        u[j + 1 : i + 1] = u[j:i]
    u[j] = w


def _usable_logs(
    blocks: Iterable[np.ndarray], base: Base, logs: bool = True
) -> tuple[np.ndarray | None, DigitHistogram, int, int]:
    """(u, histogram, n_nonpos, n_nonfinite) of the usable values of
    float64 blocks: u = log_b s of their significands s, sorted ascending,
    and the digit histogram of s.  With logs false, u is None: the
    significands are counted and not mapped, and no part is kept.

    Each block is filtered and decomposed on its own, and its significands
    go through _fold, into one count array of b cells, while they are in
    cache; only their u is kept.  The parts are joined once, after the last
    block, into a new float64 array that the caller owns and that shares no
    memory with any block, and sorted in place, as _report and _ks read it.
    So the only full-length arrays are the parts and their join.  No usable
    value in any block is EmptyData, raised only once the blocks are
    exhausted, so an error of whatever yields them comes first.
    """
    counts = np.zeros(base.b, dtype=np.int64)
    parts: list[np.ndarray] = []
    n_nonpos = n_nonfinite = 0
    for block in blocks:
        usable, nonpos, nonfinite = _split_usable(block)
        n_nonpos += nonpos
        n_nonfinite += nonfinite
        if not usable.size:
            continue
        s = decompose_array(usable, base).significand
        if logs:
            parts.append(_fold(s, counts, base.ln))
        else:
            np.add.at(counts, s.astype(np.intp), 1)
    total = int(counts.sum())
    if not total:
        raise EmptyData("no usable entries after skipping nonpositive/nonfinite")
    hist = DigitHistogram(base, counts[1:], total)
    if not logs:
        return None, hist, n_nonpos, n_nonfinite
    u = parts[0] if len(parts) == 1 else np.concatenate(parts)
    u.sort()
    return u, hist, n_nonpos, n_nonfinite


def _ks(u: np.ndarray) -> float:
    """Sorted-sample KS distance from uniform of u, sorted ascending.

    The maxima of i/n - u_i and u_i - (i-1)/n, u_i the i-th smallest, are
    taken slice by slice in two reused buffers: the slice's grid
    g = i/n, one division per point, and the differences g[1:] - u and
    u - g[:-1].
    """
    n = u.size
    m = min(n, _STAT_BLOCK)
    i = np.arange(m + 1, dtype=np.float64)  # i[j] = start + j, exact
    grid, diff = np.empty(m + 1), np.empty(m)
    d_plus = d_minus = -math.inf
    for start in range(0, n, m):
        block = u[start : start + m]
        g, d = grid[: block.size + 1], diff[: block.size]
        np.divide(i[: block.size + 1], n, out=g)
        np.subtract(g[1:], block, out=d)
        d_plus = max(d_plus, d.max())
        np.subtract(block, g[:-1], out=d)
        d_minus = max(d_minus, d.max())
        i += m
    return float(max(d_plus, d_minus))


def digit_histogram(
    data: np.ndarray | Iterable[float], base: Base
) -> tuple[DigitHistogram, int, int]:
    """Bin data by exact first digit; junk entries are counted, never dropped.

    Returns (histogram, n_skipped_nonpositive, n_skipped_nonfinite).
    """
    return _usable_logs(_slices(data), base, logs=False)[1:]


def _sum(terms: np.ndarray) -> float:
    """The sum of terms from left to right, one rounding per addition, as
    a Python loop adds them; overwrites terms with the partial sums."""
    return float(np.add.accumulate(terms, out=terms)[-1])


def chi_square(hist: DigitHistogram) -> tuple[float, float]:
    """Pearson statistic against the first-digit law and its p-value.

    Degrees of freedom are b - 2: b - 1 cells with fully specified
    probabilities.  Requires at least 5 expected observations per cell on
    average (total >= 5 (b - 1)).
    """
    b = hist.base.b
    if hist.total < 5 * (b - 1):
        raise InsufficientData(
            f"chi-square needs total >= {5 * (b - 1)}, got {hist.total}"
        )
    expected = first_digit_probs(hist.base) * hist.total
    terms = hist.counts - expected
    terms *= terms
    terms /= expected
    stat = _sum(terms)
    return stat, chi2_sf(stat, b - 2)


def ks_uniform(data: np.ndarray | Iterable[float], base: Base) -> float:
    """Kolmogorov-Smirnov distance of log-mapped significands from uniform.

    Exact sorted-sample form: max over i of max(i/n - u_(i), u_(i) - (i-1)/n).
    Nonpositive and nonfinite entries are skipped as in digit_histogram.
    """
    return _ks(_usable_logs(_slices(data), base)[0])


def tv_to_nb(hist: DigitHistogram) -> float:
    """Total-variation distance between digit frequencies and the law."""
    if hist.total == 0:
        raise InsufficientData("total variation needs at least one count")
    terms = hist.counts / hist.total
    terms -= first_digit_probs(hist.base)
    np.abs(terms, out=terms)
    return 0.5 * _sum(terms)


def analyze(data: np.ndarray | Iterable[float], base: Base) -> ConformanceReport:
    """Full conformance pipeline: histogram, chi-square, KS, TV, skips.

    The data are filtered, decomposed, counted and log-mapped slice by
    slice in _usable_logs, and _report reads the one sorted array of
    u = log_b s that makes.  The data themselves are left as they are: u
    is a new array.  The CLI's ``fit`` verb feeds _usable_logs the blocks
    its readers yield.
    """
    return _report(base, *_usable_logs(_slices(data), base))


def _report(
    base: Base, u: np.ndarray, hist: DigitHistogram, n_nonpos: int, n_nonfinite: int
) -> ConformanceReport:
    """Conformance statistics of u = log_b s, sorted ascending, and the
    digit histogram of the same significands s, with their skip counts.

    The caller hands over the float64 buffer u, which KS reads as it is,
    so no other full-length array is made.  Every caller owns that buffer,
    sorted by whatever made it: ``analyze`` and the CLI's ``fit`` verb
    pass that of _usable_logs, and the ``sequence`` verb that of
    _sequence_logs, whose sort also serves the kernel's digit counts.
    """
    stat, pvalue = chi_square(hist)
    return ConformanceReport(
        histogram=hist,
        chi_square=stat,
        chi_square_pvalue=pvalue,
        ks_stat=_ks(u),
        tv_distance=tv_to_nb(hist),
        n_skipped_nonpositive=n_nonpos,
        n_skipped_nonfinite=n_nonfinite,
    )


def sample_nb(n: int, base: Base, seed: int) -> np.ndarray:
    """n exact draws from the first-digit law via the inverse cdf b**U.

    Deterministic for a fixed seed; single stream, no parallel splitting.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    return float(base.b) ** rng.random(n)


def sample_lognormal(n: int, p: LogNormalParams, seed: int) -> np.ndarray:
    """n draws of exp(M + s Z) with Z standard normal; seeded and reproducible."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    return np.exp(p.M + p.s * rng.standard_normal(n))


def _check_ratio(ratio: float, base: Base) -> None:
    """Reject a ratio whose significand is 1 to float precision.

    The rule reads the exact significand ratio / b**k, with k the exact
    exponent of the ratio, correctly rounded to a double: the ratio is
    rejected when that is 1.0 or b.  Every exact power of b is, and so is
    1e-6 in base 10, whose double lies just below 10**-6.  A ratio that is
    no power of b is accepted, such as 5e-324 in base 16, whose terms have
    significands 4 and 1 in turn.
    """
    if not math.isfinite(ratio) or ratio <= 0.0:
        raise NonPositiveInput(f"geometric ratio must be positive, got {ratio!r}")
    k = math.floor(math.log(ratio) / base.ln)  # an estimate _exact_ratio walks
    s = _exact_ratio(*ratio.as_integer_ratio(), base.b, k)[2]
    if s == 1.0 or s == base.b:
        raise UnsupportedRatio(
            f"ratio {ratio!r} is an integer power of {base.b} to float "
            "precision; its sequence has a constant significand"
        )


def _rational_log(ratio: float, b: int) -> tuple[int, int, int] | None:
    """(c, k, y) with b = c**y and ratio = c**k exactly, c the least integer
    of which b is a power; None when log_b ratio is irrational.

    log_b r = k/y means r**y = b**k, and for a rational r that forces
    r = c**k and b = c**y for one integer c.
    """
    for y in range(b.bit_length() - 1, 0, -1):
        guess = round(b ** (1.0 / y))
        c = next((g for g in (guess - 1, guess, guess + 1) if g >= 2 and g**y == b), None)
        if c is not None:
            break
    k = round(math.log(ratio) / math.log(c))
    power = (c**k, 1) if k >= 0 else (1, c**-k)
    return (c, k, y) if ratio.as_integer_ratio() == power else None


def _fibonacci(t: int) -> int:
    """F_t by fast doubling: F_2m = F_m (2 F_m+1 - F_m), F_2m+1 = F_m**2 + F_m+1**2."""
    f0, f1 = 0, 1
    for bit in bin(t)[2:]:
        f0, f1 = f0 * (2 * f1 - f0), f0 * f0 + f1 * f1
        if bit == "1":
            f0, f1 = f1, f0 + f1
    return f0


class _LogLinear(NamedTuple):
    """A sequence with log_b(term t) = t L - c: r**t (c = 0), or Fibonacci's
    F_t = phi**t / sqrt5 up to Binet's factor 1 - (-phi**-2)**t, which is
    within 2**-53 of 1 from t = 39 on.  L and c are held to 60 digits, with
    the kernel's phase; see _log_linear."""

    base: Base
    ratio: float | None  # r; None for fibonacci
    L: Decimal
    c: Decimal
    lnb: Decimal
    phase: np.ndarray  # frac(j L) for j < _BLOCK, read-only
    order: np.ndarray  # int16 argsort of phase, read-only

    def log(self, t: int) -> Decimal:
        """log_b of term t, to about 50 digits; call inside a 60-digit context."""
        x = t * self.L - self.c
        if self.ratio is None and t < 200:  # (phi**-2)**200 < 1e-83
            q = (3 - Decimal(5).sqrt()) / 2
            x += (1 - (-q) ** t).ln() / self.lnb
        return x

    def term(self, t: int) -> tuple[int, int]:
        """Term t exactly, as (numerator, denominator)."""
        if self.ratio is None:
            return _fibonacci(t), 1
        num, den = self.ratio.as_integer_ratio()
        return num**t, den**t


@_table
def _log_linear(b: int, ratio: float | None) -> _LogLinear:
    """The sequence r**t in base b, or Fibonacci's for ratio None, with
    the phase frac(j L), j < _BLOCK, that _kernel adds to each block's
    offset, and the phase's argsort, by which _settle_near_edges finds the
    j of a term from its u.  The phase takes 128 KiB and its int16 argsort
    32 KiB, so the entry stays under _table's cap on what it keeps.

    With L = hi + lo in doubles and j hi = p + err exactly (_two_product),
    the phase is frac(p) + err + j lo, folded into [0, 1).  |L| <= 1074,
    so |p| < 2**25 and |err|, |j lo| < 2**-29: frac(p) rounds, by up to
    2**-54, only for p in (-1, 0), each sum by up to 2**-53 and the fold
    by up to 2**-54, under 3 * 2**-53 + 2**-80 in all.
    """
    with localcontext() as ctx:
        ctx.prec = _DEC_PREC
        lnb = Decimal(b).ln()
        if ratio is None:
            root5 = Decimal(5).sqrt()
            L, c = ((1 + root5) / 2).ln() / lnb, root5.ln() / lnb
        else:
            L, c = Decimal(ratio).ln() / lnb, Decimal(0)
        hi = float(L)
        lo = float(L - Decimal(hi))
    j = np.arange(_BLOCK, dtype=np.float64)
    p, err = _two_product(j, hi)
    phase = p - np.floor(p)
    phase += err
    j *= lo
    phase += j
    phase -= np.floor(phase)
    order = np.argsort(phase).astype(np.int16)
    return _LogLinear(Base(b), ratio, L, c, lnb, phase, order)


def _settle(seq: _LogLinear, t: int) -> float:
    """Significand of term t, with the exact leading digit d.

    The significand comes from the 60-digit log.  One within 1e-40
    (relative) of an integer, which in practice only a term equal to
    d * b**k comes near, is redone in exact integers.  Either way
    _in_cell clamps it into its cell [d, d + 1), as decompose_array does.
    """
    with localcontext() as ctx:
        ctx.prec = _DEC_PREC
        x = seq.log(t)
        k = int(x.to_integral_value(rounding=ROUND_FLOOR))
        s = ((x - k) * seq.lnb).exp()
        d = int(s)
        tie = min(s - d, d + 1 - s) <= _DEC_TIE * s
    if tie:
        _, d, q = _exact_ratio(*seq.term(t), seq.base.b, k)
    else:
        q = float(s)
    return _in_cell(q, d)


def _near_integer(s: np.ndarray, lnb: float) -> np.ndarray:
    """Indices of the kernel's s = exp(fl(u ln b)), lnb = base.ln, that lie
    within tol * s of an integer, tol = ln b (_U_ERR + 2**-53) + _EXP_ERR:
    the terms whose digit their u may not give, which _settle redoes (see
    _kernel)."""
    tol = lnb * (_U_ERR + 2.0**-53) + _EXP_ERR
    gap = np.rint(s)
    gap -= s
    np.abs(gap, out=gap)
    return np.flatnonzero(gap <= tol * s)


def _kernel(seq: _LogLinear, t0: int, out: np.ndarray) -> np.ndarray:
    """u = frac(log_b term) of terms t0, t0 + 1, ... of a log-linear
    sequence, one to an element of out; returns the offset of each block.

    Term t = t0 + start + j, for a block start and j < _BLOCK, has
    log_b = x0 + j L with x0 = (t0 + start) L - c.  The block's
    offset frac(x0) is rounded once from 60 digits and added to seq's
    phase frac(j L), the same for every block (see _log_linear).  The sum
    u = frac(offset + phase) errs by under 5 * 2**-53 <= _U_ERR.

    The kernel only writes u.  Which terms need exact arithmetic is the
    flag rule of _near_integer on s = exp(fl(u ln b)).  ln b is base.ln,
    within 2**-52 of the exact value (relative), and the product rounds
    once, so with u < 1 the exponent errs by under (5 + 2 + 1) 2**-53
    ln b = _U_ERR ln b; the further 2**-53 ln b in tol covers the
    second-order terms, and _EXP_ERR the error of np.exp.  So s lies
    within tol * s of the exact significand, and a term whose s lies that
    close to an integer may have the wrong leading digit, or lie outside
    [1, b): _settle redoes it, and its u becomes ln s / ln b of the settled
    s.  gen_sequence applies the rule to every term, as it needs every s.

    Every other term's digit is the arc its u falls in.  Such a term has
    |s - d| > tol * s for every integer d, and s = b**u (1 + eta) with
    |eta| <= 3 * 2**-53 ln b + _EXP_ERR (base.ln, the product and np.exp,
    against this u).  So its u lies more than about 6 * 2**-53 from every
    log_b d, and the edges of _digit_edges err by under 5 * 2**-53, so
    #{d : e_d <= u} equals int(s).

    The window.  A term the rule flags has |s - D| <= tol * s for the
    integer D = rint(s), 1 <= D <= b, so |ln s - ln D| <= tol / (1 - tol),
    and |ln s - u ln b| <= |eta| as above.  Divided by ln b >= ln 2, u lies
    within (4 * 2**-53 + _U_ERR + 2 _EXP_ERR / ln 2)(1 + 2**-40), under
    4.4 * 2**-50, of log_b D: the edge 0 for D = 1, 1 for D = b, and
    within 5 * 2**-53 of e_D otherwise.  So every u the rule can flag lies
    within 5.1 * 2**-50 of an edge of _digit_edges or of 1, and
    _EDGE_WIN = 2**-44 is more than 12 times that: _sequence_logs applies
    the rule only to the u its sort finds within _EDGE_WIN of an edge.
    """
    n = len(out)
    offsets = np.empty(-(-n // _BLOCK))
    whole = np.empty(min(n, _BLOCK))  # block temporary
    for q, start in enumerate(range(0, n, _BLOCK)):
        stop = min(start + _BLOCK, n)
        with localcontext() as ctx:
            ctx.prec = _DEC_PREC
            x0 = (t0 + start) * seq.L - seq.c
            offsets[q] = float(x0 - x0.to_integral_value(rounding=ROUND_FLOOR))
        u, g = out[start:stop], whole[: stop - start]
        np.add(seq.phase[: stop - start], offsets[q], out=u)
        np.floor(u, out=g)
        u -= g
    return offsets


def _settle_near_edges(
    seq: _LogLinear, t0: int, n: int, offsets: np.ndarray, values: np.ndarray
) -> list[tuple[float, float, int]]:
    """(v, w, d) for each of the n kernel terms t0, t0 + 1, ... whose u,
    as _kernel wrote it with these block offsets, is v, one of values that
    _near_integer flags: w = ln s / ln b of its settled s, and d its
    digit.  A flagged value no kernel term has, such as one of Fibonacci's
    exact first terms, is skipped.

    Term t0 + q _BLOCK + j has u = fl(phase_j + offset_q) - floor, the
    sum rounded by up to 2**-53 and the floor taken exactly, so the key
    frac(v - offset_q), two more roundings of up to 2**-54, lies within
    2**-52 of phase_j modulo 1.  One binary search of the phase's argsort,
    for every value and block at once, takes the phases within 2**-50 of
    the key and of the key one turn down and up, since a phase near 0 may
    have its key near 1 and the other way round.  Each phase found is
    added to its offset as _kernel adds it, and kept where that gives v.
    """
    lnb = seq.base.ln
    values = values[_near_integer(np.exp(values * lnb), lnb)]
    win = 2.0**-50
    keys = values[:, None] - offsets
    keys -= np.floor(keys)
    keys = keys[..., None] + np.array([-1.0, 0.0, 1.0])
    lo = seq.phase.searchsorted(keys - win, sorter=seq.order)
    hi = seq.phase.searchsorted(keys + win, side="right", sorter=seq.order)
    i, q, _ = np.nonzero(hi > lo)
    lo, size = lo[hi > lo], (hi - lo)[hi > lo]
    # the places lo, lo + 1, ..., hi - 1 of the argsort, hit after hit
    place = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)
    j, q, i = seq.order[place], np.repeat(q, size), np.repeat(i, size)
    u = seq.phase[j] + offsets[q]
    u -= np.floor(u)
    t = q * _BLOCK + j
    keep = (t < n) & (u == values[i])
    settled = [_settle(seq, t0 + k) for k in t[keep].tolist()]
    w = np.log(settled) / lnb
    return list(zip(u[keep].tolist(), w.tolist(), map(int, settled)))


def _factorial(n: int, base: Base) -> np.ndarray:
    """Significands of 1!, ..., n!, each in its term's exact digit cell.

    The factors' significands f_i come from decompose_array, correctly
    rounded: b**k <= i < 2**53 is an exact double.  They go in R blocks of
    K, with K + 1 the largest count for which b**(K + 1) <= 10**300 (299
    in base 10, 17 in base 2**53), so no product below overflows, and
    np.cumprod takes each block's prefixes C_rj.  A scalar loop of R - 1
    steps carries the block totals: S_0 = 1, and S_r+1 is S_r times the
    total of block r, divided by P[m] = float(b)**m of _power_table, m
    its estimated exponent.  Each prefix is scaled by its block's start
    and divided by its own P[m] likewise.

    Error bound.  Term t = rK + j + 1 (block r, place j) is
    fl(fl(S_r C_rj) / P[m]).  It carries its t rounded factors, the j
    rounded products of its prefix, the K - 1 of each earlier block's
    total, and four roundings in each of its r + 1 renormalisations: the
    product, the quotient, and two for P[m], which errs by under one ulp.
    That is N_t = 2t + 3r + 3 <= N = 2n + 3R, so s_t = (t! / b**k)(1 + theta)
    with |theta| <= gamma_N = N u / (1 - N u), u = 2**-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, Lemma 3.1).  The exact
    significand lies within eps * s_t of s_t, with eps = (N + 1) u, which
    covers gamma_N / (1 - gamma_N) and the rounding of eps * s_t for
    N < 6e7: eps = 2.2e-12 at n = 10**4 in base 10, 9.7e-13 in log_10 s.

    A term whose s lies within eps * s of an integer, or outside [1, b),
    may be in the wrong digit cell.  It is settled exactly from t!
    against b**k, with k from _exponents, and _in_cell clamps it into its
    cell, as in _settle.  Every t! < b is an
    integer, and every t! = d * b**k an integer's edge, so these settle,
    1! first of all.
    """
    if n > _FACTORIAL_CAP:
        raise DomainError(f"factorial sequences are capped at n = {_FACTORIAL_CAP}")
    b, lnb = base.b, base.ln
    kmin, P, _ = _power_table(b)
    K = min(n, int(_FACTORIAL_SPAN / math.log10(b)) - 1)
    R = -(-n // K)
    prefix = np.ones((R, K))
    prefix.reshape(-1)[:n] = decompose_array(np.arange(1.0, n + 1.0), base).significand
    np.cumprod(prefix, axis=1, out=prefix)
    starts, start = [1.0], 1.0
    for total in prefix[:-1, -1].tolist():
        start *= total
        start /= float(P[int(math.log(start) / lnb) - kmin])
        starts.append(start)
    prefix *= np.array(starts)[:, None]
    s = prefix.reshape(-1)[:n]
    s /= P[np.floor(np.log(s) / lnb).astype(np.int64) - kmin]
    eps = (2 * n + 3 * R + 1) * 2.0**-53
    flagged = np.flatnonzero((np.abs(s - np.rint(s)) <= eps * s) | ~((s >= 1.0) & (s < b)))
    exps = _exponents("factorial", s[: flagged[-1] + 1], base, None)
    # t! and b**k are carried from one flagged term to the next, k never
    # decreasing as t! does not, so settling costs one pass over each
    # term's digits, not a factorial and a power from scratch per term
    fact, power, t_prev, k_prev = 1, 1, 0, 0
    for i, k in zip(flagged.tolist(), exps[flagged].tolist()):
        fact *= math.perm(i + 1, i + 1 - t_prev)  # (i + 1)! / t_prev!
        power *= b ** (k - k_prev)
        t_prev, k_prev = i + 1, k
        _, d, q = _exact_ratio(fact, power, b, 0)
        s[i] = _in_cell(q, d)
    return s


def _source(
    kind: str, n: int, base: Base, ratio: float | None
) -> tuple[np.ndarray, int, _LogLinear | None]:
    """(s, head, seq) for the first n terms of a deterministic sequence:
    s is a new float64 array of n that the caller owns, whose first head
    elements hold their terms' significands, and seq is the log-linear
    sequence whose kernel makes the rest, None when head = n.

    Every significand here lies in its term's exact digit cell, so the
    digit is its integer part: the factorial's, the rational logs' and
    Fibonacci's exact first terms.
    """
    if n < 1:
        raise DomainError(f"sequence length must be >= 1, got {n!r}")
    if kind not in SEQUENCE_KINDS:
        raise DomainError(f"unknown sequence kind {kind!r}; expected one of {SEQUENCE_KINDS}")
    if ratio is not None and kind != "geometric":
        raise DomainError(f"{kind} sequences take no ratio, got {ratio!r}")
    if kind == "factorial":
        return _factorial(n, base), n, None
    if kind == "fibonacci":
        head = min(n, _FIB_EXACT)
        s = np.empty(n)
        fib = np.array([_fibonacci(t) for t in range(1, head + 1)], dtype=np.float64)
        s[:head] = decompose_array(fib, base).significand
        return s, head, _log_linear(base.b, None) if n > head else None
    r = 2.0 if kind == "pow2" else ratio
    if r is None:
        raise DomainError("geometric sequences need a ratio")
    _check_ratio(r, base)
    rational = _rational_log(r, base.b)
    if rational is not None:
        # r**y = b**k: term t has significand c**((t k) mod y), period y;
        # np.tile, as np.resize builds a tuple of n / y references first
        c, k, y = rational
        period = [float(c ** (t * k % y)) for t in range(1, y + 1)]
        return np.tile(period, -(-n // y))[:n], n, None
    return np.empty(n), 0, _log_linear(base.b, r)


def gen_sequence(kind: str, n: int, base: Base, ratio: float | None = None) -> np.ndarray:
    """The significands in [1, b) of the first n terms of a deterministic
    sequence, in a new float64 array the caller owns; see
    gen_sequence_terms.

    Every path leaves a significand in its term's exact digit cell, so
    the digit is its integer part.
    """
    s, head, seq = _source(kind, n, base, ratio)
    if seq is None:
        return s
    _kernel(seq, head + 1, s[head:])
    lnb = base.ln
    for start in range(head, n, _BLOCK):
        block = s[start : start + _BLOCK]
        block *= lnb
        np.exp(block, out=block)
        for i in _near_integer(block, lnb).tolist():
            block[i] = _settle(seq, start + i + 1)
    return s


def _sequence_logs(
    kind: str, n: int, base: Base, ratio: float | None = None
) -> tuple[np.ndarray, DigitHistogram]:
    """(u, histogram) of the first n terms of a deterministic sequence, for
    _report: u = log_b s of their significands s, sorted ascending, in a
    new float64 array the caller owns, and the digit histogram of s.

    Where the log-linear kernel makes the terms, it writes only their u,
    and the one sort serves the KS, the digit counts and the search for
    the terms to settle.  The one binary search of the sorted u at the
    edges gives _arc_histogram its counts and _near_edges the few u near
    an edge.  _settle_near_edges settles the kernel terms among those that
    the flag rule picks, and each settled u replaces the kernel's in place.
    _arc_histogram then moves them and Fibonacci's exact first terms into
    their exact digits.  The factorial's and the rational logs'
    significands may lie within an ulp of a digit edge, so _fold counts
    their integer parts before it maps them to u, through views _slices of
    s in place, so no temporary grows past _STAT_BLOCK values.
    """
    s, head, seq = _source(kind, n, base, ratio)
    if seq is None:
        counts = np.zeros(base.b, dtype=np.int64)
        for part in _slices(s):
            _fold(part, counts, base.ln)
        s.sort()
        return s, DigitHistogram(base, counts[1:], n)
    u = s  # mapped in place: the head here, the rest by the kernel
    digits = u[:head].astype(np.int64).tolist()
    np.log(u[:head], out=u[:head])
    u[:head] /= base.ln
    exact = list(zip(u[:head].tolist(), digits))
    offsets = _kernel(seq, head + 1, u[head:])
    u.sort()
    edges = _digit_edges(base.b)
    cuts = u.searchsorted(edges)
    near = _near_edges(u, edges, cuts)
    for v, w, d in _settle_near_edges(seq, head + 1, n - head, offsets, near):
        _replace(u, v, w)
        exact.append((v, d))
    return u, _arc_histogram(base, edges, cuts, n, exact)


def _exponents(kind: str, sig: np.ndarray, base: Base, ratio: float | None) -> np.ndarray:
    """Exponents, int64, of terms 1, 2, ... with significands sig:
    rint((ln term_t - ln s_t) / ln b), with ln term_t = t ln r (pow2,
    geometric), Binet's t ln phi - ln(5) / 2 + log1p(-(-phi**-2)**t)
    (fibonacci) or the running sum of ln i (factorial).

    Before rint the quotient errs by at most about 1.45 t |ln r| 4.4e-16,
    four roundings divided by ln b >= ln 2: under 3e-3 for |ln r| <= 745
    (DBL_MAX, 5e-324) and t <= 2**32, against the 0.5 rounding allows.
    The significand's own error, at most 2**-50 in log_b s in the kernel
    and 2.2e-12 relative in the factorial (see _factorial), moves it by
    under 1e-11.  So every term gets the exponent that matches its
    significand, a settled factorial term included.
    """
    t = np.arange(1, sig.size + 1)
    if kind == "factorial":
        ln_term = np.cumsum(np.log(t))
    elif kind == "fibonacci":
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        ln_term = t * math.log(phi) - math.log(5.0) / 2.0 + np.log1p(-((-(phi**-2)) ** t))
    else:
        ln_term = t * math.log(2.0 if kind == "pow2" else ratio)
    return np.rint((ln_term - np.log(sig)) / base.ln).astype(np.int64)


def gen_sequence_terms(
    kind: str, n: int, base: Base, ratio: float | None = None
) -> list[SignificandDecomposition]:
    """First n terms of a deterministic sequence in (significand, exponent) form.

    The generator never materializes the raw magnitudes, so factorials and
    large powers cannot overflow; only the significand matters for digit
    statistics anyway; _exponents reads each exponent off the logarithms.
    """
    sig = gen_sequence(kind, n, base, ratio)
    exps = _exponents(kind, sig, base, ratio)
    return [SignificandDecomposition(s, e, base) for s, e in zip(sig.tolist(), exps.tolist())]

