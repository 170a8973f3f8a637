"""Empirical conformance to the first-digit law.

Digit histograms with explicit skip accounting, Pearson chi-square against
the law's cell probabilities, a Kolmogorov-Smirnov uniformity statistic on
log-mapped significands, seeded samplers, and deterministic sequence
generators that carry (significand, exponent) pairs so factorials and large
powers never overflow.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._special import chi2_sf
from .errors import DomainError, EmptyData, InsufficientData, NonPositiveInput, UnsupportedRatio
from .nb_core import NBDistribution, first_digit_prob
from .significand import (
    Base,
    SignificandArray,
    SignificandDecomposition,
    _power_table,
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


@dataclass(frozen=True)
class DigitHistogram:
    """First-digit counts for one base; counts[d-1] is the count of digit d."""

    base: Base
    counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if len(self.counts) != self.base.b - 1:
            raise DomainError(
                f"expected {self.base.b - 1} digit cells, got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts) or sum(self.counts) != self.total:
            raise DomainError("histogram counts must be nonnegative and sum to total")


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


def _split_usable(data: np.ndarray | Iterable[float]) -> tuple[np.ndarray, int, int]:
    """Partition raw data into usable positives and skip counters."""
    if isinstance(data, (np.ndarray, list, tuple)):
        x = np.asarray(data, dtype=np.float64)
    else:
        x = np.fromiter(data, dtype=np.float64)
    finite = np.isfinite(x)
    usable = x[finite & (x > 0.0)]
    n_finite = int(np.count_nonzero(finite))
    return usable, n_finite - usable.size, x.size - n_finite


def _usable_significands(
    data: np.ndarray | Iterable[float], base: Base
) -> tuple[SignificandArray, int, int]:
    usable, n_nonpos, n_nonfinite = _split_usable(data)
    if not usable.size:
        raise EmptyData("no usable entries after skipping nonpositive/nonfinite")
    return decompose_array(usable, base), n_nonpos, n_nonfinite


def _histogram(sig: SignificandArray) -> DigitHistogram:
    counts = np.bincount(sig.digit, minlength=sig.base.b)[1:]
    return DigitHistogram(sig.base, tuple(counts.tolist()), sig.digit.size)


def _ks(u: np.ndarray) -> float:
    u = np.sort(u)
    n = len(u)
    i = np.arange(1, n + 1)
    return float(max((i / n - u).max(), (u - (i - 1) / n).max()))


def digit_histogram(
    data: np.ndarray | Iterable[float], base: Base
) -> tuple[DigitHistogram, int, int]:
    """Bin data by exact first digit; junk entries are counted, never dropped.

    Returns (histogram, n_skipped_nonpositive, n_skipped_nonfinite).
    """
    sig, n_nonpos, n_nonfinite = _usable_significands(data, base)
    return _histogram(sig), n_nonpos, n_nonfinite


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
    dist = NBDistribution(hist.base)
    stat = 0.0
    for d, obs in enumerate(hist.counts, start=1):
        expected = hist.total * first_digit_prob(d, dist)
        diff = obs - expected
        stat += diff * diff / expected
    return stat, chi2_sf(stat, b - 2)


def ks_uniform(data: np.ndarray | Iterable[float], base: Base) -> float:
    """Kolmogorov-Smirnov distance of log-mapped significands from uniform.

    Exact sorted-sample form: max over i of max(i/n - u_(i), u_(i) - (i-1)/n).
    Nonpositive and nonfinite entries are skipped as in digit_histogram.
    """
    sig, _, _ = _usable_significands(data, base)
    return _ks(sig.log_map())


def tv_to_nb(hist: DigitHistogram) -> float:
    """Total-variation distance between digit frequencies and the law."""
    dist = NBDistribution(hist.base)
    return 0.5 * sum(
        abs(obs / hist.total - first_digit_prob(d, dist))
        for d, obs in enumerate(hist.counts, start=1)
    )


def analyze(data: np.ndarray | Iterable[float], base: Base) -> ConformanceReport:
    """Full conformance pipeline: histogram, chi-square, KS, TV, skips.

    The data are filtered and decomposed once; the histogram and the KS
    statistic both read that one decomposition.
    """
    sig, n_nonpos, n_nonfinite = _usable_significands(data, base)
    hist = _histogram(sig)
    stat, pvalue = chi_square(hist)
    return ConformanceReport(
        histogram=hist,
        chi_square=stat,
        chi_square_pvalue=pvalue,
        ks_stat=_ks(sig.log_map()),
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


def _ratio_factor(ratio: float, base: Base) -> tuple[float, int]:
    """The ratio as the generators multiply by it: (s, k), ratio ~ s * b**k.

    k starts from the log estimate and is corrected at most twice, each
    time recomputing s = ratio / float(b)**k.  This is the most accurate
    quotient float division gives; it is not clamped to the exact leading
    digit as decompose's significand is, since a clamped factor would bias
    every step of a carried product by up to an ulp.  A ratio whose s ends
    at 1.0 or outside [1, b) cannot be told from a power of b and is
    rejected: 1e-6 is, although its double lies just below 10**-6.
    """
    if not math.isfinite(ratio) or ratio <= 0.0:
        raise NonPositiveInput(f"geometric ratio must be positive, got {ratio!r}")
    b = base.b
    kmin, powers, _ = _power_table(b)
    k = math.floor(math.log(ratio) / base.ln)
    with np.errstate(divide="ignore"):
        s = float(ratio / powers[k - kmin])
        for _ in range(2):
            if 1.0 <= s < b:
                break
            k += 1 if s >= b else -1
            s = float(ratio / powers[k - kmin])
    if s == 1.0 or not 1.0 <= s < b:
        raise UnsupportedRatio(
            f"ratio {ratio!r} is an integer power of {base.b} to float "
            "precision; its sequence has a constant significand"
        )
    return s, k


def _carry(
    kind: str, n: int, base: Base, ratio: float | None
) -> tuple[np.ndarray, np.ndarray, bytearray]:
    """Significands of the first n terms, plus what their exponents need.

    One loop carries the significand of the running product (pow2,
    geometric, factorial) or sum (fibonacci) and stores nothing per term
    but the significand and, where it wrapped past b, how often.  Term i
    has exponent ``(steps + wraps)[:i+1].sum()``: ``steps`` holds the
    exponents of the factors, or zeros for fibonacci.
    """
    if n < 1:
        raise DomainError(f"sequence length must be >= 1, got {n!r}")
    if kind not in SEQUENCE_KINDS:
        raise DomainError(f"unknown sequence kind {kind!r}; expected one of {SEQUENCE_KINDS}")
    if ratio is not None and kind != "geometric":
        raise DomainError(f"{kind} sequences take no ratio, got {ratio!r}")
    b = float(base.b)
    sig = array("d", bytes(8 * n))
    wraps = bytearray(n)

    if kind != "fibonacci":
        if kind == "factorial":
            if n > _FACTORIAL_CAP:
                raise DomainError(f"factorial sequences are capped at n = {_FACTORIAL_CAP}")
            factors = decompose_array(np.arange(1, n + 1, dtype=np.float64), base)
            fsig, steps = factors.significand.tolist(), factors.exponent
        else:
            r = 2.0 if kind == "pow2" else ratio
            if r is None:
                raise DomainError("geometric sequences need a ratio")
            fs, fe = _ratio_factor(r, base)
            fsig, steps = [fs] * n, np.full(n, fe, dtype=np.int64)
        s = 1.0
        for i, fs in enumerate(fsig):
            s *= fs
            while s >= b:
                s /= b
                wraps[i] += 1
            sig[i] = s
        return np.frombuffer(sig), steps, wraps

    # consecutive terms differ by a factor below 2 <= b, so the older
    # significand is divided by b exactly when the newer one wrapped
    s_prev = s_cur = 1.0
    sig[0] = 1.0
    if n > 1:
        sig[1] = 1.0
    w = 0
    for i in range(2, n):
        s_new = s_cur + (s_prev / b if w else s_prev)
        w = 0
        while s_new >= b:
            s_new /= b
            w += 1
        wraps[i] = w
        sig[i] = s_new
        s_prev, s_cur = s_cur, s_new
    return np.frombuffer(sig), np.zeros(n, dtype=np.int64), wraps


def gen_sequence_terms(
    kind: str, n: int, base: Base, ratio: float | None = None
) -> list[SignificandDecomposition]:
    """First n terms of a deterministic sequence in (significand, exponent) form.

    The generator never materializes the raw magnitudes, so factorials and
    large powers cannot overflow; only the significand matters for digit
    statistics anyway.
    """
    sig, steps, wraps = _carry(kind, n, base, ratio)
    exps = np.cumsum(steps + np.frombuffer(wraps, dtype=np.uint8))
    return [
        SignificandDecomposition(s, e, base)
        for s, e in zip(sig.tolist(), exps.tolist())
    ]


def gen_sequence(
    kind: str, n: int, base: Base, ratio: float | None = None
) -> np.ndarray:
    """Significands of the first n sequence terms; see gen_sequence_terms."""
    return _carry(kind, n, base, ratio)[0]
