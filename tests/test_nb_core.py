import math

import numpy as np
import pytest

from benford import (
    Base,
    DomainError,
    IntervalSet,
    NBDistribution,
    SignificandInterval,
    first_digit_prob,
    interval_measure,
    measure_of_set,
    mul_mod_b,
    nb_cdf,
    nb_pdf,
    nb_quantile,
    scale_interval,
)
from benford._quadrature import integrate
from benford import significand
from benford.nb_core import first_digit_probs

B10 = Base(10)
D10 = NBDistribution(B10)


class TestPdf:
    def test_values_at_one(self):
        # 1/ln(b), evaluated independently
        assert nb_pdf(1.0, D10) == pytest.approx(0.43429448190325176, abs=1e-15)
        assert nb_pdf(1.0, NBDistribution(Base(2))) == pytest.approx(
            1.4426950408889634, abs=1e-15
        )

    def test_monotone_decreasing(self):
        assert nb_pdf(10.0 - 1e-9, D10) < nb_pdf(1.0, D10)

    def test_domain(self):
        for bad in (0.5, 10.0, -1.0):
            with pytest.raises(DomainError):
                nb_pdf(bad, D10)

    def test_normalization_by_quadrature(self):
        for b in (2, 3, 10, 16, 60):
            dist = NBDistribution(Base(b))
            val, _ = integrate(lambda x: nb_pdf(x, dist), 1.0, float(b))
            assert abs(val - 1.0) < 1e-10


class TestCdf:
    def test_known_values(self):
        assert nb_cdf(2.0, D10) == pytest.approx(0.301029995664, abs=1e-12)
        assert nb_cdf(1.0, D10) == 0.0
        assert nb_cdf(2.0, NBDistribution(Base(2))) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            nb_cdf(0.99, D10)
        with pytest.raises(DomainError):
            nb_cdf(10.01, D10)


class TestQuantile:
    def test_endpoints(self):
        assert nb_quantile(0.0, D10) == 1.0
        assert nb_quantile(1.0, D10) == 10.0

    def test_midpoint(self):
        assert nb_quantile(0.5, D10) == pytest.approx(3.16227766017, abs=1e-11)

    def test_round_trip_grid(self):
        for u in np.linspace(0.0, 1.0, 1000):
            u = float(u)
            assert abs(nb_cdf(nb_quantile(u, D10), D10) - u) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            nb_quantile(-0.1, D10)
        with pytest.raises(DomainError):
            nb_quantile(1.1, D10)


class TestFirstDigitProb:
    def test_base10_values(self):
        assert first_digit_prob(1, D10) == pytest.approx(0.301029995664, abs=1e-12)
        assert first_digit_prob(2, D10) == pytest.approx(0.176091259056, abs=1e-12)

    def test_base2_trivial(self):
        assert first_digit_prob(1, NBDistribution(Base(2))) == 1.0

    def test_sums_to_one(self):
        for b in (2, 3, 10, 16, 60):
            dist = NBDistribution(Base(b))
            total = math.fsum(first_digit_prob(d, dist) for d in range(1, b))
            assert abs(total - 1.0) < 1e-12

    def test_matches_cdf_difference(self):
        for d in range(1, 10):
            assert first_digit_prob(d, D10) == pytest.approx(
                nb_cdf(d + 1.0, D10) - nb_cdf(float(d), D10), abs=1e-14
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            first_digit_prob(0, D10)
        with pytest.raises(DomainError):
            first_digit_prob(10, D10)

    @pytest.mark.parametrize("b", [2, 3, 10, 16, 1000, 20000])
    def test_table_holds_the_same_floats(self, b):
        table = first_digit_probs(Base(b))
        dist = NBDistribution(Base(b))
        assert table.dtype == np.float64
        assert not table.flags.writeable
        assert table.tolist() == [first_digit_prob(d, dist) for d in range(1, b)]
        assert first_digit_probs(Base(b)) is table  # built once per base

    def test_tables_past_the_row_bound_are_built_per_call(self):
        # the table cache keeps a result of at most _TABLE_BYTES // 16
        # bytes: 32768 float64 cells, base 32769
        top = significand._TABLE_BYTES // 16 // 8 + 1
        assert first_digit_probs(Base(top)) is first_digit_probs(Base(top))
        held = list(significand._table.entries), significand._table.held
        table = first_digit_probs(Base(top + 1))
        again = first_digit_probs(Base(top + 1))
        assert again is not table and again.tobytes() == table.tobytes()
        assert not table.flags.writeable and table.size == top
        assert table[-1] == first_digit_prob(top, NBDistribution(Base(top + 1)))
        assert (list(significand._table.entries), significand._table.held) == held


class TestIntervalMeasure:
    def test_full_space(self):
        assert interval_measure(SignificandInterval(1.0, 10.0, B10), D10) == 1.0

    def test_digit_two_interval(self):
        iv = SignificandInterval(2.0, 3.0, B10)
        assert interval_measure(iv, D10) == pytest.approx(0.176091259056, abs=1e-12)

    def test_degenerate(self):
        assert interval_measure(SignificandInterval(4.0, 4.0, B10), D10) == 0.0

    def test_additive_over_disjoint_pieces(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lo, mid, hi = np.sort(rng.uniform(1.0, 10.0, 3))
            whole = interval_measure(SignificandInterval(lo, hi, B10), D10)
            parts = interval_measure(
                SignificandInterval(lo, mid, B10), D10
            ) + interval_measure(SignificandInterval(mid, hi, B10), D10)
            assert abs(whole - parts) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            SignificandInterval(0.5, 2.0, B10)
        with pytest.raises(DomainError):
            SignificandInterval(3.0, 2.0, B10)
        with pytest.raises(DomainError):
            SignificandInterval(3.0, 10.5, B10)


class TestIntervalSet:
    def test_at_most_two(self):
        iv = SignificandInterval(2.0, 3.0, B10)
        with pytest.raises(DomainError):
            IntervalSet((iv, SignificandInterval(4.0, 5.0, B10), SignificandInterval(6.0, 7.0, B10)))

    def test_sorted_and_disjoint(self):
        a = SignificandInterval(2.0, 3.0, B10)
        b = SignificandInterval(4.0, 5.0, B10)
        with pytest.raises(DomainError):
            IntervalSet((b, a))
        with pytest.raises(DomainError):
            IntervalSet((a, SignificandInterval(2.5, 4.0, B10)))

    def test_touching_endpoints_allowed(self):
        IntervalSet(
            (SignificandInterval(1.0, 3.0, B10), SignificandInterval(3.0, 5.0, B10))
        )


def _image_oracle_check(lam, iv, result, n=10_000):
    """Map a grid of the interval through mul_mod_b and check set membership."""
    base = iv.base
    for p in np.linspace(iv.lo, iv.hi, n):
        y = mul_mod_b(lam, float(p), base)
        assert any(
            piece.lo - 1e-9 <= y <= piece.hi + 1e-9 for piece in result.intervals
        ), (lam, p, y, result)


class TestScaleInterval:
    def test_identity(self):
        iv = SignificandInterval(2.0, 3.0, B10)
        out = scale_interval(1.0, iv)
        assert out.intervals == (iv,)

    def test_case1_no_wrap(self):
        out = scale_interval(2.0, SignificandInterval(2.0, 3.0, B10))
        assert len(out.intervals) == 1
        piece = out.intervals[0]
        assert (piece.lo, piece.hi) == (4.0, 6.0)

    def test_case2_straddles(self):
        iv = SignificandInterval(2.0, 3.0, B10)
        out = scale_interval(4.0, iv)
        assert len(out.intervals) == 2
        (low, high) = out.intervals
        assert (low.lo, low.hi) == (1.0, 1.2)
        assert (high.lo, high.hi) == (8.0, 10.0)
        _image_oracle_check(4.0, iv, out)

    def test_case3_fully_wrapped(self):
        iv = SignificandInterval(4.0, 6.0, B10)
        out = scale_interval(5.0, iv)
        assert len(out.intervals) == 1
        piece = out.intervals[0]
        assert (piece.lo, piece.hi) == (2.0, 3.0)
        _image_oracle_check(5.0, iv, out)

    def test_domain(self):
        iv = SignificandInterval(2.0, 3.0, B10)
        with pytest.raises(DomainError):
            scale_interval(0.5, iv)
        with pytest.raises(DomainError):
            scale_interval(10.0, iv)


def test_scale_invariance_of_measure():
    # measure of the image equals the measure of the interval, all three
    # wrap cases exercised, 1000 seeded pairs per base
    for b in (2, 10, 16):
        base = Base(b)
        dist = NBDistribution(base)
        rng = np.random.default_rng(100 + b)
        cases = [0, 0, 0]
        for _ in range(1000):
            lo, hi = np.sort(rng.uniform(1.0, b, 2))
            lam = float(rng.uniform(1.0, b))
            iv = SignificandInterval(float(lo), float(hi), base)
            out = scale_interval(lam, iv)
            if lam * hi < b:
                cases[0] += 1
            elif lam * lo >= b:
                cases[2] += 1
            else:
                cases[1] += 1
            assert abs(measure_of_set(out, dist) - interval_measure(iv, dist)) < 1e-12
        assert all(c > 0 for c in cases), (b, cases)


class TestMeasureOfSet:
    def test_degenerate_set(self):
        iset = IntervalSet((SignificandInterval(3.0, 3.0, B10),))
        assert measure_of_set(iset, D10) == 0.0

    def test_full_space(self):
        iset = IntervalSet((SignificandInterval(1.0, 10.0, B10),))
        assert measure_of_set(iset, D10) == 1.0

    def test_case2_value(self):
        out = scale_interval(4.0, SignificandInterval(2.0, 3.0, B10))
        assert measure_of_set(out, D10) == pytest.approx(0.176091259056, abs=1e-12)
