"""Independent oracles for the benchmark's output checks.

Nothing here imports ``benford``: digits come from exact integer and
``decimal`` arithmetic on each float, KS references from numpy, p-values
from scipy (imported lazily, only by the input generator), and wrapped
densities from a direct numpy Gaussian sum.  The generator computes the
expected values before timing; ``check_records`` compares a records stream
against them after each call.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

# 12 significant digits in the records stream: a printed float is within
# 5e-13 relative of the value the program computed
PRINT_REL = 1e-11


# --------------------------------------------------------------------------
# exact first digits
# --------------------------------------------------------------------------


def exact_digit(x: float, b: int) -> int:
    """Leading base-b digit of the positive finite float ``x``, exactly.

    Powers of two (bases 2, 16) shift the integer ratio of ``x``; powers of
    ten (bases 10, 1000) read the exact decimal expansion of ``x``; any
    other base compares ``Fraction(x)`` against powers of b.
    """
    if b in (2, 16):
        bits = 1 if b == 2 else 4
        num, den = x.as_integer_ratio()  # den is a power of two
        tz = den.bit_length() - 1
        k = (num.bit_length() - 1 - tz) // bits
        sh = tz + bits * k
        return num >> sh if sh >= 0 else num << -sh
    if b == 10:
        return Decimal(x).as_tuple().digits[0]
    if b == 1000:
        tup = Decimal(x).as_tuple()
        width = (len(tup.digits) + tup.exponent - 1) % 3 + 1
        lead = tup.digits[:width]
        d = 0
        for c in lead:
            d = d * 10 + c
        return d * 10 ** (width - len(lead))
    s, _ = exact_significand(x, b)
    return math.floor(s)


def exact_significand(x: float | Fraction, b: int) -> tuple[Fraction, int]:
    """(s, k) with x = s * b**k exactly and 1 <= s < b."""
    fx = Fraction(x)
    k = math.floor((math.log(fx.numerator) - math.log(fx.denominator)) / math.log(b))
    while Fraction(b) ** k > fx:
        k -= 1
    while Fraction(b) ** (k + 1) <= fx:
        k += 1
    return fx / Fraction(b) ** k, k


def exact_u(x: float | Fraction, b: int) -> float:
    """log_b of the exact significand of ``x``, correctly rounded to 40 digits."""
    s, _ = exact_significand(x, b)
    with localcontext() as ctx:
        ctx.prec = 40
        u = (Decimal(s.numerator) / Decimal(s.denominator)).ln() / Decimal(b).ln()
    return float(u)


def digit_thresholds(b: int) -> np.ndarray:
    """log_b(d) for d = 1..b as float64; u in [t[d-1], t[d]) has digit d."""
    d = np.arange(1, b + 1, dtype=np.float64)
    return np.log(d) / math.log(b)


def clip_to_digits(u: np.ndarray, digits: np.ndarray, b: int) -> np.ndarray:
    """Move float log-significands into the interval their exact digit allows.

    A rounded ``u`` within an ulp of a digit boundary can land on the wrong
    side of it, or wrap from just below 1 to 0; the exact digit pins it.
    """
    t = digit_thresholds(b)
    if b > 2:
        u = np.where((digits == 1) & (u > 0.5), 0.0, u)
        u = np.where((digits == b - 1) & (u < 0.5), 1.0, u)
    lo = t[digits - 1]
    hi = np.nextafter(t[digits], 0.0)
    return np.minimum(np.maximum(u, lo), hi)


# --------------------------------------------------------------------------
# conformance statistics (numpy / scipy references)
# --------------------------------------------------------------------------


def nb_probs(b: int) -> np.ndarray:
    d = np.arange(1, b, dtype=np.float64)
    return np.log1p(1.0 / d) / math.log(b)


def ks_reference(u: np.ndarray) -> float:
    """Sorted-sample KS distance of ``u`` from uniform on [0, 1)."""
    u = np.sort(u)
    n = len(u)
    i = np.arange(1, n + 1)
    return float(max((i / n - u).max(), (u - (i - 1) / n).max()))


def conformance_expect(counts: np.ndarray, u: np.ndarray, b: int,
                       skipped_nonpositive: int, skipped_nonfinite: int) -> dict:
    """Expected fit/sequence records from exact digit counts and reference u."""
    from scipy.stats import chi2  # generator-only dependency

    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    p = nb_probs(b)
    expected = total * p
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return {
        "total": total,
        "skipped_nonpositive": int(skipped_nonpositive),
        "skipped_nonfinite": int(skipped_nonfinite),
        "counts": [int(c) for c in counts],
        "nb_prob": [float(v) for v in p],
        "chi_square": stat,
        # base 2 has one cell and no degrees of freedom: a point mass at 0
        "chi_square_pvalue": float(chi2.sf(stat, b - 2)) if b > 2 else float(stat == 0.0),
        "ks_stat": ks_reference(u),
        "tv_distance": float(0.5 * np.sum(np.abs(counts / total - p))),
    }


# --------------------------------------------------------------------------
# deterministic sequences: log-significands of the exact terms
# --------------------------------------------------------------------------

_DEC_PREC = 60
EXACT_TERMS = 2000  # terms up to here are computed as exact rationals


def _dec_frac(v: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DEC_PREC
        return v - v.to_integral_value(rounding="ROUND_FLOOR")


def _split_hi(v: float) -> tuple[float, float]:
    """v = a + c with a carrying 32 significant bits, so n*a is exact for n < 2**20."""
    e = math.frexp(v)[1]
    a = math.ldexp(math.floor(math.ldexp(v, 32 - e)), e - 32)
    return a, v - a


def _frac_times(n: np.ndarray, L: Decimal) -> np.ndarray:
    """frac(n * L) for integer n < 2**20, accurate to a few 1e-16."""
    L_hi = float(L)
    L_lo = float(L - Decimal(L_hi))
    a, c = _split_hi(L_hi)
    whole = n * a  # exact
    f = whole - np.floor(whole)
    f = f + n * c + n * L_lo
    return f - np.floor(f)


class SequenceOracle:
    """log_b of the exact terms 1..n of one sequence, in float and in Decimal."""

    def __init__(self, kind: str, n: int, b: int, ratio: float | None):
        self.kind, self.n, self.b = kind, n, b
        self.ratio = 2.0 if kind == "pow2" else ratio
        with localcontext() as ctx:
            ctx.prec = _DEC_PREC
            self.lnb = Decimal(b).ln()
            self.thresholds = [Decimal(d).ln() / self.lnb for d in range(1, b + 1)]
            if kind in ("pow2", "geometric"):
                self.step = Decimal(self.ratio).ln() / self.lnb
            elif kind == "fibonacci":
                self.root5 = Decimal(5).sqrt()
                self.phi = (1 + self.root5) / 2
            elif kind == "factorial":
                acc = Decimal(0)
                self.log_fact = []
                for j in range(1, n + 1):
                    acc += Decimal(j).ln()
                    self.log_fact.append(acc)
            else:
                raise ValueError(kind)

    def u_float(self) -> np.ndarray:
        """frac(log_b term_j) for j = 1..n, within about 1e-15."""
        j = np.arange(1, self.n + 1, dtype=np.float64)
        if self.kind in ("pow2", "geometric"):
            return _frac_times(j, self.step)
        if self.kind == "fibonacci":
            # F_j = phi**j / sqrt5 * (1 - (-1)**j phi**(-2j))
            u = _frac_times(j, self.phi.ln() / self.lnb) - float(self.root5.ln() / self.lnb)
            lnphi = float(self.phi.ln())
            u = u + np.log1p(-((-1.0) ** j) * np.exp(-2.0 * j * lnphi)) / float(self.lnb)
            return u - np.floor(u)
        return np.array([float(_dec_frac(v / self.lnb)) for v in self.log_fact])

    def u_decimal(self, j: int) -> Decimal:
        """frac(log_b term_j) to about 50 digits."""
        with localcontext() as ctx:
            ctx.prec = _DEC_PREC
            if self.kind in ("pow2", "geometric"):
                return _dec_frac(j * self.step)
            if self.kind == "fibonacci":
                return _dec_frac((j * self.phi.ln() - self.root5.ln()) / self.lnb)
            return _dec_frac(self.log_fact[j - 1] / self.lnb)

    def term(self, j: int) -> Fraction:
        """Term j exactly, for small j."""
        if self.kind in ("pow2", "geometric"):
            return Fraction(self.ratio) ** j
        if self.kind == "fibonacci":
            f0, f1 = 0, 1
            for _ in range(j - 1):
                f0, f1 = f1, f0 + f1
            return Fraction(f1)
        return Fraction(math.factorial(j))

    def digit_and_u(self, j: int) -> tuple[int, float]:
        """Digit and log-significand of term j: exact for small j, where a
        term can equal d * b**k exactly; Decimal beyond, where none does."""
        if j <= EXACT_TERMS:
            t = self.term(j)
            return math.floor(exact_significand(t, self.b)[0]), exact_u(t, self.b)
        du = self.u_decimal(j)
        return self.digit_decimal(du), min(float(du), np.nextafter(1.0, 0.0))

    def digit_decimal(self, u: Decimal) -> int:
        lo, hi = 1, self.b  # invariant: thresholds[lo-1] <= u < thresholds[hi-1]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.thresholds[mid - 1] <= u:
                lo = mid
            else:
                hi = mid
        return lo

    def digits(self, sample: np.ndarray, margin: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """Exact digits and reference u for terms 1..n.

        Float u decides every term farther than ``margin`` from a digit
        boundary; the rest, plus the seeded ``sample`` of term indices, are
        recomputed in Decimal.  A sampled term whose float value disagrees
        with Decimal raises, since the float path would then be unreliable.
        """
        b = self.b
        if self.kind == "pow2" and b & (b - 1) == 0:
            # 2**j in base 2**bits: significand 2**(j mod bits), exactly
            bits = b.bit_length() - 1
            e = np.arange(1, self.n + 1) % bits
            return 2 ** e, e / bits
        u = self.u_float()
        t = digit_thresholds(b)
        d = np.clip(np.searchsorted(t, u, side="right"), 1, b - 1)
        near = (np.abs(u - t[d - 1]) < margin) | (np.abs(t[d] - u) < margin) | (1.0 - u < margin)
        for j0 in np.flatnonzero(near):
            d[j0], u[j0] = self.digit_and_u(int(j0) + 1)
        for j0 in sample:
            dj, uj = self.digit_and_u(int(j0) + 1)
            if dj != d[j0] or abs(uj - u[j0]) > margin:
                raise AssertionError(
                    f"{self.kind} term {j0 + 1}: float oracle disagrees with Decimal"
                )
        return d, u


# --------------------------------------------------------------------------
# wrapped log-normal densities: direct numpy Gaussian sum
# --------------------------------------------------------------------------


def wrapped_lognormal(x: np.ndarray, M: float, s: float, b: int) -> np.ndarray:
    """(1/(x s sqrt(2 pi))) sum_k exp(-(ln x + k ln b - M)^2 / 2 s^2), all k that matter."""
    L = math.log(b)
    lx = np.log(x)
    reach = 40.0 * s + L  # terms beyond 40 s are below 1e-340
    k = np.arange(math.floor((M - reach) / L) - 1, math.ceil((M + reach) / L) + 2)
    z = (lx[:, None] + k[None, :] * L - M) / s
    return np.exp(-0.5 * z * z).sum(axis=1) / (x * s * math.sqrt(2.0 * math.pi))


def mixture_density(x: np.ndarray, comps, b: int) -> np.ndarray:
    return sum(w * wrapped_lognormal(x, M, s, b) for w, M, s in comps)


def grid(b: int, n: int) -> np.ndarray:
    """The CLI's log-spaced grid b**((i + 0.5)/n), evaluated as Python floats."""
    fb = float(b)
    return np.array([fb ** ((i + 0.5) / n) for i in range(n)])


def wrap_expect(comps, b: int, grid_points: int, distance_grid: int) -> dict:
    x = grid(b, grid_points)
    w = mixture_density(x, comps, b)
    law = 1.0 / (x * math.log(b))
    xd = grid(b, distance_grid)
    diff = np.abs(mixture_density(xd, comps, b) - 1.0 / (xd * math.log(b)))
    return {
        "x": x.tolist(),
        "pdf": w.tolist(),
        "law": law.tolist(),
        "sup_distance": float(diff.max()),
        "tv_distance": float(np.sum(diff * xd) * 0.5 * math.log(b) / distance_grid),
    }


def entropy_expect(kind: str, comps, b: int) -> dict:
    """Entropy and mean log: closed forms for nb/uniform, else a dense
    composite Gauss-Legendre rule in t = ln x on [0, ln b)."""
    L = math.log(b)
    if kind == "nb":
        return {"entropy": math.log(L) + 0.5 * L, "mean_log": 0.5 * L, "closed_form": True}
    if kind == "uniform":
        return {
            "entropy": math.log(b - 1),
            "mean_log": (b * L - b + 1) / (b - 1),
            "closed_form": True,
        }
    nodes, weights = np.polynomial.legendre.leggauss(24)
    smin = min(s for _, _, s in comps)
    panels = max(64, math.ceil(8 * L / smin))
    edges = np.linspace(0.0, L, panels + 1)
    half = 0.5 * np.diff(edges)
    t = ((edges[:-1] + half)[:, None] + half[:, None] * nodes[None, :]).ravel()
    wt = (half[:, None] * weights[None, :]).ravel()
    g = sum(w * wrapped_lognormal(np.exp(t), M, s, b) for w, M, s in comps) * np.exp(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        glng = np.where(g > 0.0, g * np.log(g), 0.0)
    mean_log = float(np.sum(wt * g * t))
    return {
        "entropy": float(-np.sum(wt * glng)) + mean_log,
        "mean_log": mean_log,
        "closed_form": False,
    }


# --------------------------------------------------------------------------
# stream checks
# --------------------------------------------------------------------------


class Mismatch(Exception):
    """A records stream disagrees with its oracle."""


class Inaccurate(Mismatch):
    """A value misses an approximate reference by more than the program's own
    error estimate allows: a numeric failure, like exit code 4, not a wrong
    answer to an exact or closed-form oracle."""


def _close(name: str, got: float, want: float, abs_tol: float = 0.0,
           rel_tol: float = PRINT_REL) -> None:
    if not abs(got - want) <= abs_tol + rel_tol * abs(want):
        raise Mismatch(f"{name}: got {got!r}, expected {want!r}")


def _fields(records: list[tuple]) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for rec in records:
        out.setdefault(rec[0], []).append(rec[1:])
    return out


def _one(f: dict, name: str):
    vals = f.get(name)
    if vals is None or len(vals) != 1:
        raise Mismatch(f"expected exactly one {name!r} record")
    return vals[0][0] if len(vals[0]) == 1 else vals[0]


def _check_header(f: dict, exp: dict) -> None:
    if _one(f, "schema") != "nb-report/1" or _one(f, "command") != exp["command"]:
        raise Mismatch("schema/command header")
    params = {k: v for k, v in f.get("param", [])}
    for k, v in exp["params"].items():
        if params.get(k) != v:
            raise Mismatch(f"param {k}: got {params.get(k)!r}, expected {v!r}")


def _check_conformance(f: dict, e: dict) -> None:
    for name in ("total", "skipped_nonpositive", "skipped_nonfinite"):
        if _one(f, name) != e[name]:
            raise Mismatch(f"{name}: got {_one(f, name)}, expected {e[name]}")
    bins = f.get("bin", [])
    if [r[0] for r in bins] != list(range(1, len(e["counts"]) + 1)):
        raise Mismatch("bin digits")
    total = e["total"]
    for (d, count, freq, prob), want, p in zip(bins, e["counts"], e["nb_prob"]):
        if count != want:
            raise Mismatch(f"bin {d}: count {count}, expected {want}")
        _close(f"bin {d} freq", freq, want / total)
        _close(f"bin {d} nb_prob", prob, p)
    _close("chi_square", _one(f, "chi_square"), e["chi_square"], rel_tol=1e-9)
    _close("chi_square_pvalue", _one(f, "chi_square_pvalue"), e["chi_square_pvalue"], abs_tol=1e-10)
    _close("ks_stat", _one(f, "ks_stat"), e["ks_stat"], abs_tol=1e-12)
    _close("tv_distance", _one(f, "tv_distance"), e["tv_distance"], abs_tol=1e-12)


# wrapped-density values: the program truncates its series below --tol
# (1e-9 by default); the reference sum is complete
_WRAP_ABS = 2e-9


def _check_wrap(f: dict, e: dict) -> None:
    rows = f.get("row", [])
    if len(rows) != len(e["x"]):
        raise Mismatch(f"{len(rows)} rows, expected {len(e['x'])}")
    for i, ((x, w, r, diff), xe, we, re) in enumerate(zip(rows, e["x"], e["pdf"], e["law"])):
        _close(f"row {i} x", x, xe)
        _close(f"row {i} pdf", w, we, abs_tol=_WRAP_ABS)
        _close(f"row {i} law", r, re)
        _close(f"row {i} diff", diff, we - re, abs_tol=_WRAP_ABS + 1e-11 * abs(re))
    _close("sup_distance", _one(f, "sup_distance"), e["sup_distance"], abs_tol=_WRAP_ABS)
    _close("tv_distance", _one(f, "tv_distance"), e["tv_distance"], abs_tol=_WRAP_ABS)


# entropy of a log-normal or mixture, against the dense reference rule
_ENTROPY_ABS = 1e-7


def _check_entropy(f: dict, e: dict, b: int) -> None:
    err = _one(f, "quadrature_error_estimate")
    h = _one(f, "entropy")
    ml = _one(f, "mean_log")
    if e["closed_form"]:
        _close("entropy", h, e["entropy"], abs_tol=err)
        _close("mean_log", ml, e["mean_log"], abs_tol=err)
    else:
        tol = max(err, _ENTROPY_ABS)
        try:
            _close("entropy", h, e["entropy"], abs_tol=tol)
            _close("mean_log", ml, e["mean_log"], abs_tol=tol)
        except Mismatch as exc:
            raise Inaccurate(f"{exc} (reported error {err!r})") from None
    L = math.log(b)
    _close("gibbs_bound", _one(f, "gibbs_bound"), math.log(L) + ml, abs_tol=1e-11)
    if _one(f, "constraint_met") != (ml <= 0.5 * L + 1e-9):
        raise Mismatch("constraint_met disagrees with mean_log")


def _check_digits(f: dict, b: int) -> None:
    digits = f.get("digit", [])
    if [r[0] for r in digits] != list(range(1, b)):
        raise Mismatch("digit rows")
    with localcontext() as ctx:
        ctx.prec = 30
        lnb = Decimal(b).ln()
        for d, p in digits:
            want = float((1 + Decimal(1) / d).ln() / lnb)
            _close(f"digit {d}", p, want)
    _close("digit_sum", _one(f, "digit_sum"), 1.0, abs_tol=1e-12)


def check_records(records: list[tuple], exp: dict) -> None:
    """Raise Mismatch unless ``records`` agree with the expectation ``exp``."""
    f = _fields(records)
    _check_header(f, exp)
    verb = exp["command"]
    if verb in ("fit", "sequence"):
        _check_conformance(f, exp["conformance"])
    elif verb == "wrap":
        _check_wrap(f, exp["wrap"])
    elif verb == "entropy":
        _check_entropy(f, exp["entropy"], exp["base"])
    elif verb == "digits":
        _check_digits(f, exp["base"])
    else:
        raise Mismatch(f"no oracle for {verb!r}")
