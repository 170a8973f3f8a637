"""Base-b significand/exponent arithmetic on the half-open interval [1, b).

Every positive real factors as s * b**k with s in [1, b) and integer k.
The significands form an abelian group under multiplication modulo b, and
u = ln(s)/ln(b) maps that group isomorphically onto [0, 1) with addition
mod 1.  All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonPositiveInput

__all__ = [
    "Base",
    "SignificandArray",
    "SignificandDecomposition",
    "decompose",
    "decompose_array",
    "first_digit",
    "log_map",
    "mul_mod_b",
]


# every integer up to 2**53 is an exact double; above it float(b) is
# rounded, and for odd digits d no double lies in [d, d + 1)
_MAX_BASE = 2**53


@dataclass(frozen=True)
class Base:
    """A radix 2 <= b <= 2**53, carried explicitly so multi-base code can coexist."""

    b: int

    def __post_init__(self) -> None:
        if not isinstance(self.b, int) or isinstance(self.b, bool) or self.b < 2:
            raise DomainError(f"base must be an integer >= 2, got {self.b!r}")
        if self.b > _MAX_BASE:
            raise DomainError(
                f"base must be at most 2**53, the largest radix whose digits are all "
                f"exact doubles; got a {self.b.bit_length()}-bit integer"
            )

    @property
    def ln(self) -> float:
        """Natural log of the radix."""
        return math.log(self.b)


@dataclass(frozen=True)
class SignificandDecomposition:
    """A positive real split as significand in [1, b) plus integer exponent.

    ``significand * b**exponent`` reconstructs the original value to within
    a few ulps (relative error at most 4 machine epsilons).
    """

    significand: float
    exponent: int
    base: Base


# Significands this close (relative) to an integer may sit on the wrong
# side of it after rounding; they, and every value whose scale b**k is not
# a normal float, are flagged and settled exactly.  The fast path's quotient
# errs by at most about 2 ulps: one from rounding b**k, one from dividing.
_NEAR_INTEGER = 8 * sys.float_info.epsilon
_DBL_MIN = sys.float_info.min


# the bytes that _table keeps, for the tables of every module
_TABLE_BYTES = 4 << 20
# the bytes an entry takes beside its key's and its result's: its slot in
# the memo and its arrays' headers (under 500 bytes for a grid, by tracemalloc)
_ENTRY_BYTES = 768


def _nbytes(v: object) -> int:
    """An array's data bytes, a tuple's own and its items', or an object's."""
    if isinstance(v, np.ndarray):
        return v.nbytes
    return sys.getsizeof(v) + (sum(map(_nbytes, v)) if isinstance(v, tuple) else 0)


class _Memo:
    """A per-process memo of the tables of every module, each built by a
    function from a key of ints, strings, floats and None, under one byte
    budget.

    Each array of a built result is made read-only.  A result of at most
    _TABLE_BYTES // 16 bytes is kept; a larger one is built on each call.
    ``held`` counts the bytes of every kept entry: its key, its result and
    _ENTRY_BYTES.  Once it passes _TABLE_BYTES, the least recently used
    entries are dropped.  The lock guards ``entries`` and ``held``; builds
    run outside it, so one build may look up another table.
    """

    def __init__(self) -> None:
        self.entries: collections.OrderedDict = collections.OrderedDict()
        self.held = 0
        self.lock = threading.Lock()

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.held = 0

    def __call__(self, build: Callable) -> Callable:
        @functools.wraps(build)
        def table(*key):
            slot = (build, *key)
            with self.lock:
                if (entry := self.entries.get(slot)) is not None:
                    self.entries.move_to_end(slot)
                    return entry[0]
            value = build(*key)
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            if (size := _nbytes(value)) > _TABLE_BYTES // 16:
                return value
            with self.lock:
                entry = self.entries.setdefault(slot, (value, size + _nbytes(key) + _ENTRY_BYTES))
                if entry[0] is value:
                    self.held += entry[1]
                    while self.held > _TABLE_BYTES:
                        self.held -= self.entries.popitem(last=False)[1][1]
            return entry[0]

        return table


_table = _Memo()


@_table
def _power_table(b: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(kmin, P, normal): P[j] = float(b)**(kmin + j) for every exponent a
    positive double can need, with a margin of 3 that keeps every logarithm
    estimate of an exponent inside the table; ``normal`` marks entries
    that are normal floats (not 0, subnormal or overflowed to inf).

    Python's ``float ** int`` is used, not numpy's pow, which can differ in
    the last ulp; these are the scales significands have always used.
    """
    lnb = math.log(b)
    kmin = math.floor(math.log(5e-324) / lnb) - 3
    kmax = math.floor(math.log(sys.float_info.max) / lnb) + 3
    powers = []
    for k in range(kmin, kmax + 1):
        try:
            powers.append(float(b) ** k)
        except OverflowError:
            powers.append(math.inf)
    P = np.array(powers)
    normal = (P >= _DBL_MIN) & (P < math.inf)
    return kmin, P, normal


@_table
def _power_lo(b: int) -> np.ndarray:
    """lo[j], the exact remainder b**(kmin + j) - P[j] of _power_table(b),
    correctly rounded after scaling by 2**-e, where P[j] = m * 2**e with m
    in [1/2, 1): m + lo[j] is b**k * 2**-e to about 2**-106 relative, and
    nothing in it underflows.  NaN where P[j] is not normal or the scaled
    remainder is nonzero but below 2**-900, too small for the error bound
    of _settle_flagged to stay normal; values that would use those go to
    _exact.  Built from Python ints the first time a base settles
    flagged values in numpy.
    """
    kmin, P, normal = _power_table(b)
    lo = np.full(P.size, math.nan)
    for j in np.flatnonzero(normal).tolist():
        k, p = kmin + j, float(P[j])
        pn, pd = p.as_integer_ratio()
        bn, bd = (b**k, 1) if k >= 0 else (1, b**-k)
        num, den = bn * pd - pn * bd, bd * pd  # b**k - p
        e = math.frexp(p)[1]
        if e >= 0:
            den <<= e
        else:
            num <<= -e
        r = num / den  # int true division rounds correctly
        if num == 0 or abs(r) >= 2.0**-900:
            lo[j] = r
    return lo


def _exact(v: float, b: int, k: int) -> tuple[int, int, float]:
    """(exponent, digit, significand) of one double by integer arithmetic.

    The digit is the leading digit of the double's exact binary value; see
    :func:`_exact_ratio`.
    """
    return _exact_ratio(*v.as_integer_ratio(), b, k)


def _exact_ratio(num: int, den: int, b: int, k: int) -> tuple[int, int, float]:
    """(exponent, digit, significand) of the positive rational num/den.

    ``k`` is an estimate within a few steps of the exponent.  The digit is
    exact; the significand is the correctly rounded exact quotient
    num / (den * b**k).
    """
    while True:
        n = num * b**-k if k < 0 else num
        d = den * b**k if k > 0 else den
        if n < d:
            k -= 1
        elif n >= b * d:
            k += 1
        else:
            return k, n // d, n / d


def _in_cell(q: float, d: int) -> float:
    """q clamped into the digit cell [d, d + 1): the significand of a
    value whose exact leading digit is d, from a quotient q that may have
    rounded across a cell edge."""
    return min(max(q, float(d)), math.nextafter(d + 1.0, 0.0))


@dataclass(frozen=True)
class SignificandArray:
    """Elementwise decomposition of an array: ``significand * b**exponent``.

    Every significand lies in its value's exact digit cell [d, d + 1), so
    the exact leading digit is its integer part, ``digit``.  Only
    :func:`decompose_array` builds one; code that needs the significands
    alone passes the bare float64 array.
    """

    exponent: np.ndarray  # int64
    significand: np.ndarray  # float64
    base: Base

    @property
    def digit(self) -> np.ndarray:
        """The exact leading digits, int64, derived anew on each access."""
        return self.significand.astype(np.int64)


def decompose_array(values: np.ndarray, base: Base) -> SignificandArray:
    """Decompose every element of a 1-d float64 array of positive finite reals.

    In a base that is a power of two, exponent and significand come
    exactly from the binary exponent.  In any other base, the exponent is
    a base-b logarithm estimate k and the significand s = v / float(b)**k.
    A value is flagged when s lands outside [1, b), as it does where the
    estimate is off by one, or within 8 eps s of an integer, or when v is
    subnormal or its scale is not a normal float.  Round numbers d * b**k
    and their float neighbours are flagged.  Flagged values are settled
    exactly, so every digit is the exact leading digit:

    - in numpy (:func:`_settle_flagged`), where the sign of v - d * b**k,
      evaluated against a double-double b**k, clears its rounding error
      bound of 4 eps (|t1| + |t2|): almost every flagged normal value in
      a base b < 2**48, the guard 8 eps b < 1/2 under which the
      near-integer window holds at most one integer;
    - one by one in integer arithmetic (:func:`_exact`) otherwise: a sign
      within the bound (v exactly d * b**k on a scale that is no double,
      such as 0.5 in base 314), a subnormal v, a scale that is not normal,
      every flagged value of a base of 2**48 or more, and every flagged
      value of an array with fewer than 32, where numpy's fixed cost
      exceeds the loop's.

    An array with no flagged value runs neither.  The significands are a
    new array, never a view of ``values``.  An input that is not 1-d is a
    DomainError.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DomainError(f"expected a 1-d array, got {v.ndim} dimensions")
    ok = (v > 0.0) & (v < math.inf)
    if not ok.all():
        bad = float(v[~ok][0])
        raise NonPositiveInput(f"expected a positive finite real, got {bad!r}")
    b = base.b
    if b & (b - 1) == 0:
        # b = 2**p: v = f * 2**e with f in [1/2, 1), so k = floor((e-1)/p),
        # and scaling by 2**(-p*k) is exact, subnormals and DBL_MAX included
        p = b.bit_length() - 1
        k = np.frexp(v)[1].astype(np.int64)
        k -= 1  # in place: few large temporaries per call
        k //= p
        return SignificandArray(k, np.ldexp(v, k * -p), base)
    kmin, P, normal = _power_table(b)
    j = np.floor(np.log(v) / base.ln).astype(np.int64) - kmin
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = v / P[j]
        flagged = np.flatnonzero(
            (np.abs(s - np.rint(s)) <= _NEAR_INTEGER * s)
            | ~((s >= 1.0) & (s < b))
            | (v < _DBL_MIN)
            | ~normal[j]
        )
    # the numpy step needs 8 eps b < 1/2, so that the near-integer window
    # holds at most one integer: b < 2**48
    if flagged.size >= _SETTLE_MIN and _NEAR_INTEGER * b < 0.5:
        flagged = np.concatenate([
            _settle_flagged(v, s, j, flagged[i : i + _SETTLE_SLICE], b)
            for i in range(0, flagged.size, _SETTLE_SLICE)
        ])
    for i, x in zip(flagged.tolist(), v[flagged].tolist()):
        k, d, exact_s = _exact(x, b, int(j[i]) + kmin)
        jj = k - kmin
        # the usual quotient where it is accurate, clamped to the exact digit
        si = x / float(P[jj]) if normal[jj] and x >= _DBL_MIN else exact_s
        s[i] = _in_cell(si, d)
        j[i] = jj
    j += kmin
    return SignificandArray(j, s, base)


# Veltkamp's splitter: a double times it splits into two halves of at most
# 26 bits, whose products are exact
_SPLIT = 2.0**27 + 1.0
# the rounding error of r in _settle_flagged is below 1.51 eps (|t1| + |t2|)
_SIGN_BOUND = 4 * sys.float_info.epsilon
# flagged values settle in slices: about 15 temporaries of a slice are live
# at once, under 0.5 MiB, so a block of round numbers does not raise the
# peak memory of a call over that of a block of other data
_SETTLE_SLICE = 1 << 12
# fewer flagged values than this settle one by one: the numpy step costs
# about 45 us a call, _exact 1-4 us a value (2-core host), so a scalar
# call such as decompose stays on _exact
_SETTLE_MIN = 32


def _two_product(a: np.ndarray, c: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """(p, err) with p = a * c rounded and a * c = p + err exactly (Dekker,
    Numer. Math. 18, 1971), for products that neither overflow nor underflow."""
    p = a * c
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * c
    ch = t - (t - c)
    cl = c - ch
    return p, ((ah * ch - p) + ah * cl + al * ch) + al * cl


def _settle_flagged(
    v: np.ndarray, s: np.ndarray, j: np.ndarray, flagged: np.ndarray, b: int
) -> np.ndarray:
    """Settle flagged values whose digit cell is certain, in numpy.

    An estimate off by one is re-aimed first, so that s = v / P[j] is
    within a few ulps of [1, b].  With d = rint(s), v lies in
    [d - 1, d + 1) * b**k, and the sign of v - d * b**k picks the cell.
    That sign comes from v - d * (P[j] + lo[j]) (see _power_lo), evaluated
    after scaling by 2**-e, where P[j] = m * 2**e with m in [1/2, 1).
    There, with d * m = p + err (Dekker), v * 2**-e - p is exact
    (Sterbenz), and only three operations round:
    t1 = (v * 2**-e - p) - err, t2 = d * lo and r = t1 - t2.  Where |r| is at least
    _SIGN_BOUND * (|t1| + |t2|), the sign is certain, and (k, digit)
    follows; the significand is the quotient v / P[k] clamped into
    [digit, digit + 1), as the per-value path takes it.
    Writes those values' s and j in place and returns the indices left for
    _exact: a sign within the bound, a subnormal v, a scale P[k] or
    remainder that is not normal, and an s still outside [1, b] by more
    than its near-integer window.  Needs 8 eps b < 1/2.
    """
    _, P, normal = _power_table(b)
    lo = _power_lo(b)
    x, jf, sf = v[flagged], j[flagged], s[flagged]
    jf -= sf < 1.0
    jf += sf >= b
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sf = x / P[jf]
        d = np.rint(sf)
        m, e = np.frexp(P[jf])
        p, err = _two_product(d, m)
        t1 = np.ldexp(x, -e)
        t1 -= p
        t1 -= err
        t2 = d * lo[jf]
        r = t1 - t2
        sure = np.abs(r) >= _SIGN_BOUND * (np.abs(t1) + np.abs(t2))
        sure &= (sf >= 1.0 - _NEAR_INTEGER) & (sf <= b * (1.0 + _NEAR_INTEGER))
        sure &= x >= _DBL_MIN
        digit = d - (r < 0.0)
        up, down = digit == b, digit == 0.0
        jf += up
        jf -= down
        digit[up] = 1.0
        digit[down] = b - 1.0
        sure &= normal[jf]
        sig = np.minimum(np.maximum(x / P[jf], digit), np.nextafter(digit + 1.0, 0.0))
    done = flagged[sure]
    s[done] = sig[sure]
    j[done] = jf[sure]
    return flagged[~sure]


def decompose(value: float, base: Base) -> SignificandDecomposition:
    """Split ``value`` as significand in [1, b) times an integer power of b.

    Scalar form of :func:`decompose_array`.  The digit ``int(significand)``
    is the exact leading digit of the double, so a float just below b**k
    (``1e-6`` is) decomposes to digit b-1 and exponent k-1.
    """
    d = decompose_array(np.array([value], dtype=np.float64), base)
    return SignificandDecomposition(float(d.significand[0]), int(d.exponent[0]), base)


def first_digit(value: float, base: Base) -> int:
    """Exact leading digit of ``value`` in base b; always in [1, b-1]."""
    return int(decompose(value, base).significand)


def log_map(s: float, base: Base) -> float:
    """Map a significand in [1, b) to [0, 1) via ln(s)/ln(b).

    This is the isomorphism onto the additive circle: products mod b turn
    into sums mod 1.
    """
    if not 1.0 <= s < base.b:
        raise DomainError(f"significand {s!r} outside [1, {base.b})")
    return math.log(s) / base.ln


def mul_mod_b(s1: float, s2: float, base: Base) -> float:
    """Group product of two significands: s1*s2, reduced by b if needed."""
    if not 1.0 <= s1 < base.b:
        raise DomainError(f"significand {s1!r} outside [1, {base.b})")
    if not 1.0 <= s2 < base.b:
        raise DomainError(f"significand {s2!r} outside [1, {base.b})")
    p = s1 * s2
    while p >= base.b:  # at most twice, when rounding pins p at b**2
        p /= base.b
    return p
