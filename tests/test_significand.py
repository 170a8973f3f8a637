import concurrent.futures
import gc
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford import (
    Base,
    DomainError,
    NonPositiveInput,
    cli,
    decompose,
    decompose_array,
    first_digit,
    log_map,
    mul_mod_b,
    significand,
)

EPS = float(np.finfo(float).eps)


class TestBase:
    def test_rejects_small_bases(self):
        for bad in (1, 0, -3):
            with pytest.raises(DomainError):
                Base(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            Base(2.5)
        with pytest.raises(DomainError):
            Base(True)

    def test_ln(self):
        assert Base(10).ln == math.log(10)


class TestDecompose:
    def test_decimal_examples(self):
        d = decompose(123.45, Base(10))
        assert (d.significand, d.exponent) == (1.2345, 2)
        d = decompose(0.002, Base(10))
        assert (d.significand, d.exponent) == (2.0, -3)
        d = decompose(8.0, Base(2))
        assert (d.significand, d.exponent) == (1.0, 3)
        d = decompose(1.0, Base(10))
        assert (d.significand, d.exponent) == (1.0, 0)

    def test_rejects_nonpositive_and_nonfinite(self):
        base = Base(10)
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(NonPositiveInput):
                decompose(bad, base)

    @pytest.mark.parametrize("b", [10, 16])
    @pytest.mark.parametrize(
        "x", [np.array([[1.0, 2.5], [3.5, 4.5]]), np.array(3.5)], ids=["2-d", "0-d"]
    )
    def test_array_form_rejects_shapes_other_than_1d(self, x, b):
        with pytest.raises(DomainError, match="1-d"):
            decompose_array(x, Base(b))

    def test_exact_powers_decompose_exactly(self):
        # float(b)**k is b**k rounded: at or above b**k it decomposes to
        # significand 1.0 and exponent k; below it, to digit b-1 at k-1
        below = []
        for b in (2, 3, 10, 16):
            base = Base(b)
            for k in range(-20, 21):
                x = float(b) ** k
                d = decompose(x, base)
                if Fraction(x) >= Fraction(b) ** k:
                    assert (d.significand, d.exponent) == (1.0, k), (b, k, d)
                else:
                    below.append((b, k))
                    assert int(d.significand) == b - 1 and d.exponent == k - 1, (b, k, d)
        below_3 = (-19, -18, -16, -15, -14, -11, -10, -9, -7, -6, -4, -3, -2, -1)
        below_10 = (-20, -19, -16, -14, -12, -11, -7, -6)
        assert below == [(3, k) for k in below_3] + [(10, k) for k in below_10]

    def test_reconstruction_bulk(self):
        # 1e5 random reals across exponents -30..30, four bases, one array
        # call per base; every 100th value is also decomposed on its own
        rng = np.random.default_rng(42)
        for b in (2, 3, 10, 16):
            base = Base(b)
            mantissas = rng.uniform(0.1, 1.0, 25_000)
            exps = rng.integers(-30, 31, 25_000)
            v = mantissas * 10.0**exps
            d = decompose_array(v, base)
            scale = np.array([float(b) ** k for k in d.exponent.tolist()])
            recon = d.significand * scale
            assert (np.abs(recon - v) <= 4 * EPS * v).all()
            assert ((1.0 <= d.significand) & (d.significand < b)).all()
            for i in range(0, v.size, 100):
                one = decompose(float(v[i]), base)
                assert np.float64(one.significand).tobytes() == d.significand[i].tobytes()
                assert one.exponent == d.exponent[i]


class TestFirstDigit:
    def test_examples(self):
        assert first_digit(123.45, Base(10)) == 1
        assert first_digit(0.002, Base(10)) == 2
        assert first_digit(7.0, Base(2)) == 1

    def test_base2_always_one(self):
        rng = np.random.default_rng(3)
        base = Base(2)
        for v in rng.uniform(1e-12, 1e12, 1000):
            assert first_digit(float(v), base) == 1

    def test_range(self):
        rng = np.random.default_rng(4)
        for b in (3, 10, 16):
            base = Base(b)
            for v in rng.uniform(0.001, 1e6, 500):
                assert 1 <= first_digit(float(v), base) <= b - 1


class TestLogMap:
    def test_identity_maps_to_zero(self):
        assert log_map(1.0, Base(10)) == 0.0

    def test_value_of_two(self):
        # leading digit 1 in base 10 has probability log10(2) ~ 0.301
        assert log_map(2.0, Base(10)) == pytest.approx(0.30102999566, abs=1e-11)

    def test_half_period(self):
        assert log_map(math.sqrt(10.0), Base(10)) == pytest.approx(0.5, abs=1e-15)

    def test_domain(self):
        base = Base(10)
        for bad in (0.5, 10.0, 11.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                log_map(bad, base)


class TestMulModB:
    def test_examples(self):
        base = Base(10)
        assert mul_mod_b(2.0, 3.0, base) == 6.0
        assert mul_mod_b(4.0, 5.0, base) == 2.0

    def test_identity_element(self):
        base = Base(10)
        rng = np.random.default_rng(5)
        for s in rng.uniform(1.0, 10.0, 200):
            s = float(s)
            if s >= 10.0:
                continue
            assert mul_mod_b(s, 1.0, base) == s

    def test_domain(self):
        base = Base(10)
        with pytest.raises(DomainError):
            mul_mod_b(0.5, 2.0, base)
        with pytest.raises(DomainError):
            mul_mod_b(2.0, 10.0, base)

    def test_commutative(self):
        base = Base(10)
        rng = np.random.default_rng(6)
        for s1, s2 in rng.uniform(1.0, 10.0, (300, 2)):
            assert mul_mod_b(float(s1), float(s2), base) == mul_mod_b(
                float(s2), float(s1), base
            )

    def test_result_in_range(self):
        rng = np.random.default_rng(7)
        for b in (2, 10, 16):
            base = Base(b)
            for s1, s2 in rng.uniform(1.0, b, (500, 2)):
                p = mul_mod_b(float(s1), float(s2), base)
                assert 1.0 <= p < b


def test_log_map_is_group_homomorphism():
    # products mod b map to sums mod 1, checked over 1e4 random pairs
    rng = np.random.default_rng(8)
    for b in (2, 10, 16):
        base = Base(b)
        pairs = rng.uniform(1.0, b, (3334, 2))
        for s1, s2 in pairs:
            s1, s2 = float(s1), float(s2)
            lhs = log_map(mul_mod_b(s1, s2, base), base)
            rhs = (log_map(s1, base) + log_map(s2, base)) % 1.0
            diff = abs(lhs - rhs)
            assert min(diff, 1.0 - diff) < 1e-12


# --------------------------------------------------------------------------
# the whole float range, against exact rational arithmetic
# --------------------------------------------------------------------------

DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min
FULL_RANGE_VALUES = (
    5e-324,
    1e-323,
    DBL_MIN,
    math.nextafter(DBL_MIN, 0.0),
    math.nextafter(DBL_MIN, 1.0),
    DBL_MAX,
    math.nextafter(DBL_MAX, 0.0),
)
FULL_RANGE_BASES = (2, 3, 10, 16, 1000)


def exact_decomposition(x: float, b: int) -> tuple[int, int]:
    """(exponent, digit) of x in base b, exactly: b**k <= x < b**(k+1)."""
    fx, fb = Fraction(x), Fraction(b)
    k = math.floor(math.log(x) / math.log(b))
    while fb**k > fx:
        k -= 1
    while fb ** (k + 1) <= fx:
        k += 1
    return k, math.floor(fx / fb**k)


def assert_exact(x: float, b: int, s: float, k: int) -> None:
    assert (k, int(s)) == exact_decomposition(x, b), (x, b, s, k)
    assert 1.0 <= s < b
    err = abs(Fraction(s) * Fraction(b) ** k - Fraction(x))
    assert err <= 4 * Fraction(EPS) * Fraction(x), (x, b, s, k)


@pytest.mark.parametrize("b", FULL_RANGE_BASES)
@pytest.mark.parametrize("x", FULL_RANGE_VALUES)
def test_full_range_decomposes_exactly(x, b):
    d = decompose(x, Base(b))
    assert_exact(x, b, d.significand, d.exponent)
    assert first_digit(x, Base(b)) == exact_decomposition(x, b)[1]


@pytest.mark.parametrize("b", [2**53 + 1, 2**64, 10**400])
def test_radix_without_an_exact_double_is_rejected(b):
    # 10**400 used to raise a bare OverflowError from float(b) inside decompose
    with pytest.raises(DomainError, match=r"at most 2\*\*53"):
        Base(b)


@pytest.mark.parametrize("b", [2**53, 2**53 - 1, 10**15 + 37])
@pytest.mark.parametrize("x", FULL_RANGE_VALUES)
def test_largest_radices_decompose_exactly(x, b):
    d = decompose(x, Base(b))
    assert_exact(x, b, d.significand, d.exponent)


class TestExactPowers:
    @pytest.mark.parametrize("b", [2, 3, 10, 1000, 2**53])
    def test_every_double_takes_cached_powers(self, b):
        # _exact walks an estimate off by up to 3 to the exact (k, d)
        for x in (5e-324, DBL_MAX):
            k, d = exact_decomposition(x, b)
            for estimate in range(k - 3, k + 4):
                assert significand._exact(x, b, estimate)[:2] == (k, d)

    @pytest.mark.parametrize("d", [1, 9, 999, 2**52 + 1, 2**53 - 1])
    def test_in_cell_clamps_into_the_digit_cell(self, d):
        # above 2**52 a double's ulp is 1, and the cell [d, d + 1) holds d alone
        top = math.nextafter(d + 1.0, 0.0)
        assert d <= top < d + 1
        for q, want in [
            (math.nextafter(float(d), 0.0), d),
            (float(d), d),
            (math.nextafter(float(d), math.inf), min(math.nextafter(float(d), math.inf), top)),
            (top, top),
            (d + 1.0, top),
            (math.nextafter(d + 1.0, math.inf), top),
        ]:
            assert significand._in_cell(q, d) == want, (q, d)


@pytest.fixture
def memo():
    """The table cache, emptied before and after the test."""
    significand._table.clear()
    yield significand._table
    significand._table.clear()


def entry_bytes(memo) -> int:
    return sum(size for _, size in memo.entries.values())


class TestTable:
    """significand._table, the one per-process cache of every module's
    tables, under a budget of _TABLE_BYTES."""

    def test_many_tiny_entries_stay_within_the_budget(self, memo, monkeypatch):
        # 10**4 digit sums, a float each keyed by one int, from short tables
        monkeypatch.setattr(cli, "first_digit_probs", lambda base: np.ones(base.b % 7 + 1))
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for b in range(2, 10**4 + 2):
                assert cli._digit_sum(b) == b % 7 + 1
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert 0 < len(memo.entries) < 10**4
        assert memo.held == entry_bytes(memo) <= significand._TABLE_BYTES
        # the count covers the memory the entries take, keys and links too
        assert grown <= memo.held

    def test_least_recently_used_entries_go_first(self, memo, monkeypatch):
        monkeypatch.setattr(significand, "_TABLE_BYTES", 1 << 16)
        built = []

        @significand._table
        def column(k):
            built.append(k)
            return np.full(256, float(k))

        for k in range(64):
            assert column(k)[0] == k
        n = len(memo.entries)
        assert 1 < n < 64 and [s[1:] for s in memo.entries] == [(k,) for k in range(64 - n, 64)]
        column(64 - n)  # a hit: its key becomes the most recently used
        column(64)  # evicts 64 - n + 1, not 64 - n
        assert [s[1] for s in memo.entries] == [*range(66 - n, 64), 64 - n, 64]
        assert built == list(range(65))
        column(64 - n)
        column(65 - n)
        assert built == [*range(65), 65 - n]
        assert memo.held == entry_bytes(memo) <= significand._TABLE_BYTES

    def test_a_result_over_the_cap_is_built_per_call_and_not_held(self, memo):
        cap, built = significand._TABLE_BYTES // 16, []

        @significand._table
        def zeros(nbytes):
            built.append(nbytes)
            return np.zeros(nbytes // 8)

        assert zeros(cap) is zeros(cap)
        held = list(memo.entries), memo.held
        big, again = zeros(cap + 8), zeros(cap + 8)
        assert big is not again and built == [cap, cap + 8, cap + 8]
        assert not big.flags.writeable and not again.flags.writeable
        assert (list(memo.entries), memo.held) == held

    def test_threads_get_the_values_of_direct_builds(self, memo, monkeypatch):
        monkeypatch.setattr(significand, "_TABLE_BYTES", 1 << 16)

        def build(b, n):
            time.sleep(1e-4)  # lets other threads run, and build the same key
            return np.arange(n) * float(b), str(b * n)

        table = significand._table(build)
        # about 96 KiB of entries, so lookups evict
        keys = [(b, n) for b in range(2, 12) for n in (64, 256, 512)]

        def lookups(seed):
            rng = random.Random(seed)
            for _ in range(2000):
                key = rng.choice(keys)
                x, text = table(*key)
                want = build(*key)
                assert x.tobytes() == want[0].tobytes() and text == want[1]
                assert not x.flags.writeable
            return len(memo.entries)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, inside lookups too
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                held = list(pool.map(lookups, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(n < len(keys) for n in held)
        # a lost update of the count would break this
        assert memo.held == entry_bytes(memo) <= significand._TABLE_BYTES


def test_first_digit_is_the_digit_of_the_double():
    # the double 1e-6 is 9.99999999999999954748e-7; 1e-5 lies above 10**-5
    assert first_digit(1e-6, Base(10)) == 9
    assert first_digit(1e-28, Base(10)) == 9
    assert first_digit(9.999999999999999e151, Base(10)) == 9
    assert first_digit(1e-5, Base(10)) == 1


POSITIVE_DOUBLES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
PROPERTY_BASES = st.sampled_from(list(range(2, 37)) + [1000, 10**6])


@settings(deadline=None)
@given(POSITIVE_DOUBLES, PROPERTY_BASES)
def test_property_scalar_matches_exact_oracle(x, b):
    d = decompose(x, Base(b))
    assert_exact(x, b, d.significand, d.exponent)


@settings(deadline=None)
@given(st.lists(POSITIVE_DOUBLES, min_size=1, max_size=40), PROPERTY_BASES)
def test_property_array_matches_scalar_bitwise(xs, b):
    base = Base(b)
    arr = decompose_array(np.array(xs), base)
    for i, x in enumerate(xs):
        d = decompose(x, base)
        assert arr.significand[i].tobytes() == np.float64(d.significand).tobytes()
        assert arr.exponent[i] == d.exponent
        assert arr.digit[i] == int(d.significand)
        assert_exact(x, b, float(arr.significand[i]), int(arr.exponent[i]))


# --------------------------------------------------------------------------
# power-of-two bases: exact from the binary exponent
# --------------------------------------------------------------------------

POW2_BASES = (2, 4, 8, 16, 32)


def pow2_corpus(b: int) -> np.ndarray:
    """d * b**k and both float neighbours over the whole double range,
    plus subnormals and DBL_MAX."""
    with np.errstate(over="ignore"):
        exact = np.ldexp(np.arange(1.0, b)[:, None], np.arange(-1074, 1024)[None, :])
        x = np.concatenate([exact.ravel(), [DBL_MAX, 3 * 5e-324, 1000 * 5e-324]])
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.unique(x[(x > 0.0) & (x < np.inf)])


def assert_pow2_exact(x: np.ndarray, b: int, oracle_every: int = 1) -> None:
    """s * b**k == x exactly, 1 <= s < b and digit == floor(s); every
    ``oracle_every``-th value is also checked against exact_decomposition."""
    d = decompose_array(x, Base(b))
    assert ((1.0 <= d.significand) & (d.significand < b)).all()
    assert (d.digit == np.floor(d.significand)).all()
    # scaling a double by a power of two into the normal range is exact
    p = b.bit_length() - 1
    assert (np.ldexp(d.significand, p * d.exponent) == x).all()
    assert (np.ldexp(x, -p * d.exponent) == d.significand).all()
    sample = zip(
        x[::oracle_every].tolist(),
        d.significand[::oracle_every].tolist(),
        d.exponent[::oracle_every].tolist(),
    )
    for xi, s, k in sample:
        assert (k, int(s)) == exact_decomposition(xi, b), (xi, b, s, k)
        assert Fraction(s) * Fraction(b) ** k == Fraction(xi), (xi, b, s, k)


@pytest.mark.parametrize("b", POW2_BASES)
def test_power_of_two_base_corpus_is_exact(b, monkeypatch):
    def no_exact(*args):
        raise AssertionError("a power-of-two base took the per-value path")

    monkeypatch.setattr(significand, "_exact", no_exact)
    assert_pow2_exact(pow2_corpus(b), b, oracle_every=97)


@settings(deadline=None)
@given(st.lists(POSITIVE_DOUBLES, min_size=1, max_size=40), st.sampled_from(POW2_BASES))
def test_property_power_of_two_bases_are_exact(xs, b):
    assert_pow2_exact(np.array(xs), b)


# --------------------------------------------------------------------------
# flagged values settled in numpy, against the per-value settle loop
# --------------------------------------------------------------------------


def reference_decompose(values: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, significands) of decompose_array in a base that is not a
    power of two, with every flagged value settled one by one by _exact:
    the kernel as it was before flagged values were settled in numpy."""
    kmin, P, normal = significand._power_table(b)
    v = np.asarray(values, dtype=np.float64)
    j = np.floor(np.log(v) / math.log(b)).astype(np.int64) - kmin
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = v / P[j]
        flagged = np.flatnonzero(
            (np.abs(s - np.rint(s)) <= significand._NEAR_INTEGER * s)
            | ~((s >= 1.0) & (s < b))
            | (v < DBL_MIN)
            | ~normal[j]
        )
    for i, x in zip(flagged.tolist(), v[flagged].tolist()):
        k, d, exact_s = significand._exact(x, b, int(j[i]) + kmin)
        jj = k - kmin
        si = x / float(P[jj]) if normal[jj] and x >= DBL_MIN else exact_s
        s[i] = min(max(si, float(d)), math.nextafter(d + 1.0, 0.0))
        j[i] = jj
    return j + kmin, s


def _nudged(x: float, ulps: int) -> list[float]:
    """x and its float neighbours up to ``ulps`` away, positive and finite."""
    out = []
    for direction in (0.0, math.inf):
        y = x
        for _ in range(ulps + 1):
            if 0.0 < y < math.inf:
                out.append(y)
            y = math.nextafter(y, direction)
    return out


def _exponent_range(b: int) -> tuple[int, int]:
    return (math.floor(math.log(5e-324) / math.log(b)) - 1,
            math.ceil(math.log(DBL_MAX) / math.log(b)) + 1)


def _digits(b: int) -> list[int]:
    if b <= 40:
        return list(range(1, b))
    return [1, 2, 3, 5, 9, 10, 99, 100, 101, 500, b // 2, b - 2, b - 1]


def boundary_corpus(b: int, target: int = 4000, ulps: int = 3) -> np.ndarray:
    """d * b**k correctly rounded and up to ``ulps`` ulps either side, for
    exponents k strided over the whole double range (both ends and k in
    {-1, 0, 1} always included), plus subnormals and the neighbours of
    DBL_MIN and DBL_MAX; as the bench's boundary files are built."""
    kmin, kmax = _exponent_range(b)
    ks = list(range(kmin, kmax + 1))
    stride = max(1, round(len(ks) * len(_digits(b)) * (2 * ulps + 1) / target))
    ks = set(ks[::stride]) | set(ks[:3]) | set(ks[-3:]) | {-1, 0, 1}
    return _round_numbers(b, ks, ulps)


def dbl_min_corpus(b: int, ulps: int = 3) -> np.ndarray:
    """d * b**k and neighbours for the nine k nearest log_b DBL_MIN, where
    the scales b**k stop being normal."""
    k = math.floor(math.log(DBL_MIN) / math.log(b))
    return _round_numbers(b, range(k - 4, k + 5), ulps)


def _round_numbers(b: int, ks, ulps: int) -> np.ndarray:
    out: set[float] = set()
    for k in ks:
        for d in _digits(b):
            try:
                x = float(d * Fraction(b) ** k)
            except OverflowError:
                continue
            out.update(_nudged(x, ulps))
    for x in (5e-324, 1000 * 5e-324, DBL_MIN, DBL_MAX, DBL_MAX / b):
        out.update(_nudged(x, ulps))
    return np.array(sorted(out))


# every non-power-of-two base from 3 to 40, large ones, and the bases
# either side of the guard 8 eps b < 1/2 (b < 2**48)
SETTLE_BASES = [b for b in range(3, 41) if b & (b - 1)] + [
    1000, 65535, 999983, 10**6, 2**48 - 1, 2**48 + 1, 2**53 - 1,
]


def assert_matches_reference(x: np.ndarray, b: int) -> None:
    want_k, want_s = reference_decompose(x, b)
    got = decompose_array(x, Base(b))
    assert got.significand.tobytes() == want_s.tobytes(), b
    assert (got.exponent == want_k).all(), b


def count_exact(monkeypatch) -> list[float]:
    """Patch _exact to record every value it is given; returns the record."""
    taken: list[float] = []
    exact = significand._exact

    def record(x, b, k):
        taken.append(x)
        return exact(x, b, k)

    monkeypatch.setattr(significand, "_exact", record)
    return taken


@pytest.mark.parametrize("b", SETTLE_BASES)
def test_settled_values_match_the_per_value_loop(b):
    assert_matches_reference(boundary_corpus(b), b)
    assert_matches_reference(dbl_min_corpus(b), b)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("b", [3, 10, 1000])
def test_settled_values_do_not_depend_on_the_slice(b, rows, monkeypatch):
    monkeypatch.setattr(significand, "_SETTLE_SLICE", rows)
    assert_matches_reference(boundary_corpus(b, target=1000), b)


@pytest.mark.parametrize("b", [10, 1000])
def test_few_boundary_values_take_the_exact_path(b, monkeypatch):
    # the corpus of the bench's boundary files: one ulp either side, about
    # 6000 values; what is left for _exact is mostly subnormal
    x = boundary_corpus(b, target=6000, ulps=1)
    taken = count_exact(monkeypatch)
    decompose_array(x, Base(b))
    assert len(taken) <= 0.05 * x.size, (len(taken), x.size)


@pytest.mark.parametrize("b", [2**48 + 1, 2**53 - 1])
def test_bases_past_the_guard_settle_every_flagged_value_exactly(b, monkeypatch):
    # above 2**48 the near-integer window of a significand near b can hold
    # more than one integer; the window still flags, and _exact settles
    x = boundary_corpus(b)
    taken = count_exact(monkeypatch)
    decompose_array(x, Base(b))
    assert len(taken) >= 0.9 * x.size


def test_base_7_settles_in_numpy_down_to_dbl_min(monkeypatch):
    # 7**-364 is about 2.4e-308: its remainder to the double, unscaled,
    # would underflow; scaled, every value above it settles in numpy
    x = np.array(sorted({
        y for k in range(-368, -355) for d in range(1, 7)
        for y in _nudged(float(d * Fraction(7) ** k), 3)
    }))
    assert_matches_reference(x, 7)
    taken = count_exact(monkeypatch)
    decompose_array(x, Base(7))
    assert 0 < max(taken) <= float(Fraction(7) ** -364) < 2.5e-308


def test_unflagged_values_enter_no_settle_code(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an unflagged value reached the settle code")

    monkeypatch.setattr(significand, "_settle_flagged", forbidden)
    monkeypatch.setattr(significand, "_exact", forbidden)
    rng = np.random.default_rng(20)
    x = np.exp(rng.uniform(-600.0, 600.0, 10_000))
    for b in (3, 10, 1000):
        decompose_array(x, Base(b))
    decompose(123.456, Base(10))


def test_few_flagged_values_settle_one_by_one(monkeypatch):
    def forbidden(*args):
        raise AssertionError("fewer than _SETTLE_MIN flagged values reached numpy")

    monkeypatch.setattr(significand, "_settle_flagged", forbidden)
    taken = count_exact(monkeypatch)
    decompose(2.0, Base(10))  # sequence pow2's ratio check
    x = np.concatenate([[300.0, 0.5, 1e-6] * 10, np.linspace(1.5, 2.5, 1000) + 1e-3])
    decompose_array(x, Base(10))
    assert len(taken) == 31 == significand._SETTLE_MIN - 1


@st.composite
def round_numbers(draw):
    """(b, xs): a drawn base and values d * b**k of drawn digits and
    exponents, correctly rounded, then moved up to 3 ulps."""
    b = draw(st.sampled_from(SETTLE_BASES))
    kmin, kmax = _exponent_range(b)
    triples = st.tuples(st.integers(1, b - 1), st.integers(kmin, kmax), st.integers(-3, 3))
    drawn = draw(st.lists(triples, min_size=1, max_size=20))
    return b, np.array([_moved(d * Fraction(b) ** k, offset) for d, k, offset in drawn])


def _moved(q: Fraction, offset: int) -> float:
    """q correctly rounded, then moved offset ulps; out of range round
    numbers and steps past the ends stay at the ends."""
    try:
        x = float(q)
    except OverflowError:
        x = DBL_MAX
    for _ in range(abs(offset)):
        x = math.nextafter(x, math.inf if offset > 0 else 0.0)
    return min(max(x, 5e-324), DBL_MAX)


@settings(deadline=None)
@given(round_numbers())
def test_property_round_numbers_match_the_per_value_loop(bxs):
    b, xs = bxs
    with pytest.MonkeyPatch.context() as mp:
        # any number of flagged values settles in numpy
        mp.setattr(significand, "_SETTLE_MIN", 1)
        assert_matches_reference(xs, b)
        d = decompose_array(xs, Base(b))
    for x, s, k in zip(xs.tolist(), d.significand.tolist(), d.exponent.tolist()):
        assert_exact(x, b, s, k)


# --------------------------------------------------------------------------
# one decomposition against another: B_{b**J}+ is a subgroup of B_b+, so the
# first digit in base b is the leading base-b digit of the base-b**J digit
# --------------------------------------------------------------------------

# every (b, J) with b**J at most the CLI's largest base, 10**6
POWER_BASE_PAIRS = [(b, J) for b in range(2, 1001) for J in range(2, 20) if b**J <= 10**6]


def assert_digit_is_leading_digit_of_power_base_digit(xs: np.ndarray, b: int, J: int) -> None:
    """int(s) of decompose_array in base b is the leading base-b digit of
    the digit D of decompose_array in base b**J, and the base-b exponent is
    J K plus D's further base-b digits.  Every edge of base b is an integer
    in [1, b**J), and each base settles its flagged values at its own
    edges, so each decomposition checks the other."""
    fine = decompose_array(xs, Base(b))
    coarse = decompose_array(xs, Base(b**J))
    lead, more = coarse.significand.astype(np.int64), np.zeros(xs.size, dtype=np.int64)
    while (big := lead >= b).any():
        lead[big] //= b
        more[big] += 1
    assert np.array_equal(fine.significand.astype(np.int64), lead), (b, J)
    assert np.array_equal(fine.exponent, J * coarse.exponent + more), (b, J)


@st.composite
def power_base_edges(draw):
    """(b, J, xs): a pair of POWER_BASE_PAIRS and values m * b**k, correctly
    rounded, then moved up to 3 ulps, for integers m below b (edges of base
    b) or below b**J (edges of base b**J, each some m * b**k)."""
    pairs = st.sampled_from([(10, 3), (10, 6), (3, 2), (16, 2)])
    b, J = draw(pairs | st.sampled_from(POWER_BASE_PAIRS))
    kmin, kmax = _exponent_range(b)
    ms = st.integers(1, b - 1) | st.integers(1, b**J - 1)
    triples = st.tuples(ms, st.integers(kmin, kmax), st.integers(-3, 3))
    drawn = draw(st.lists(triples, min_size=1, max_size=20))
    return b, J, np.array([_moved(m * Fraction(b) ** k, offset) for m, k, offset in drawn])


@settings(deadline=None)
@given(power_base_edges())
def test_property_digit_is_leading_digit_of_power_base_digit(bjxs):
    b, J, xs = bjxs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(significand, "_SETTLE_MIN", 1)  # any number settles in numpy
        assert_digit_is_leading_digit_of_power_base_digit(xs, b, J)


@pytest.mark.parametrize("b, J", [(10, 3), (10, 6), (2, 4), (2, 16), (3, 2), (16, 2), (1000, 2)])
def test_boundary_corpora_digit_is_leading_digit_of_power_base_digit(b, J):
    path = Path(__file__).parent / "data" / "golden" / "boundary.csv"
    golden = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
    corpora = [golden] + [c(base) for base in (b, b**J) for c in (boundary_corpus, dbl_min_corpus)]
    assert_digit_is_leading_digit_of_power_base_digit(np.concatenate(corpora), b, J)


@pytest.mark.parametrize("b", [6, 10, 208, 314, 416, 628, 1000])
def test_round_numbers_on_an_inexact_scale_keep_their_digit(b, monkeypatch):
    # 0.5 is exactly 157 * 314**-1, and 314**-1 is no double: v - d * b**k
    # is zero, its rounded evaluation can land on either side of zero, and
    # only the error bound sends such values to _exact
    xs = []
    for k in (-1, -2, -3):
        for d in range(1, b):
            q = d * Fraction(b) ** k
            if q.denominator & (q.denominator - 1) == 0:
                xs.append(float(q))
    monkeypatch.setattr(significand, "_SETTLE_MIN", 1)
    assert_matches_reference(np.array(xs), b)
