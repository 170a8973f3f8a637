import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford import (
    Base,
    DomainError,
    NonPositiveInput,
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
    def test_every_double_takes_cached_powers(self, b, monkeypatch):
        taken = []

        def record(b, e):
            taken.append(e * b.bit_length())
            return b**e

        monkeypatch.setattr(significand, "_int_power", record)
        for x in (5e-324, DBL_MAX):
            k, d = exact_decomposition(x, b)
            for estimate in range(k - 3, k + 4):
                assert significand._exact(x, b, estimate)[:2] == (k, d)
        assert max(taken) <= significand._CACHED_POWER_BITS

    def test_larger_powers_are_exact_and_not_retained(self):
        before = significand._cached_power.cache_info().currsize
        e = significand._CACHED_POWER_BITS
        assert significand._int_power(2, e) == 2**e
        assert significand._int_power(10, 10**4) == 10 ** (10**4)
        assert significand._cached_power.cache_info().currsize == before


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
