import math

import numpy as np
import pytest

from benford import (
    Base,
    DigitHistogram,
    DomainError,
    EmptyData,
    InsufficientData,
    LogNormalParams,
    NBDistribution,
    NonPositiveInput,
    UnsupportedRatio,
    analyze,
    chi_square,
    digit_histogram,
    first_digit_prob,
    gen_sequence,
    gen_sequence_terms,
    ks_uniform,
    sample_lognormal,
    sample_nb,
    tv_to_nb,
)

B10 = Base(10)
D10 = NBDistribution(B10)


class TestDigitHistogram:
    def test_simple(self):
        hist, np_, nf = digit_histogram([1.0, 2.0, 3.0], B10)
        assert hist.counts == (1, 1, 1, 0, 0, 0, 0, 0, 0)
        assert hist.total == 3
        assert (np_, nf) == (0, 0)

    def test_junk_is_counted_not_dropped(self):
        hist, np_, nf = digit_histogram([-5.0, 0.0, math.nan, 10.0], B10)
        assert hist.counts[0] == 1
        assert hist.total == 1
        assert np_ == 2
        assert nf == 1

    def test_skip_accounting_balances(self):
        rng = np.random.default_rng(17)
        data = list(rng.uniform(-5, 100, 500)) + [math.nan, math.inf, -math.inf, 0.0]
        hist, np_, nf = digit_histogram(data, B10)
        assert hist.total + np_ + nf == len(data)

    def test_empty_raises(self):
        with pytest.raises(EmptyData):
            digit_histogram([0.0, -1.0, math.nan], B10)
        with pytest.raises(EmptyData):
            digit_histogram([], B10)

    def test_validation(self):
        with pytest.raises(DomainError):
            DigitHistogram(B10, (1, 2), 3)
        with pytest.raises(DomainError):
            DigitHistogram(B10, tuple([1] * 9), 10)


class TestChiSquare:
    def test_exactly_proportional_base2(self):
        # single cell with probability one: the only case where integer
        # counts can match the expected counts exactly
        hist = DigitHistogram(Base(2), (500,), 500)
        stat, pvalue = chi_square(hist)
        assert stat == 0.0
        assert pvalue == 1.0

    def test_uniform_digits_fail_badly(self):
        hist = DigitHistogram(B10, tuple([1000] * 9), 9000)
        stat, pvalue = chi_square(hist)
        assert stat > 500.0
        assert pvalue < 1e-12

    def test_near_proportional_is_small(self):
        counts = tuple(
            round(100000 * first_digit_prob(d, D10)) for d in range(1, 10)
        )
        hist = DigitHistogram(B10, counts, sum(counts))
        stat, pvalue = chi_square(hist)
        assert stat < 0.01
        assert pvalue > 0.999

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            chi_square(DigitHistogram(B10, (44, 0, 0, 0, 0, 0, 0, 0, 0), 44))


class TestKsUniform:
    def test_stratified_sample_exact_value(self):
        # points b**((i - 0.5)/n) give statistic exactly 0.5/n
        n = 200
        data = [10.0 ** ((i - 0.5) / n) for i in range(1, n + 1)]
        assert ks_uniform(data, B10) == pytest.approx(0.5 / n, abs=1e-12)

    def test_identical_entries(self):
        u = math.log10(3.0)
        assert ks_uniform([3.0] * 25, B10) >= max(u, 1.0 - u) - 1e-12

    def test_empty(self):
        with pytest.raises(EmptyData):
            ks_uniform([0.0], B10)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(23)
        stat = ks_uniform(rng.uniform(0.5, 80.0, 1000), B10)
        assert 0.0 <= stat <= 1.0


class TestSamplers:
    def test_nb_sampler_deterministic(self):
        a = sample_nb(100, B10, seed=9)
        b = sample_nb(100, B10, seed=9)
        assert np.array_equal(a, b)
        assert sample_nb(1, B10, seed=9)[0] == a[0]

    def test_nb_sampler_range(self):
        x = sample_nb(10000, B10, seed=1)
        assert x.min() >= 1.0 and x.max() < 10.0

    def test_nb_sampler_digit_frequencies(self):
        x = sample_nb(20000, B10, seed=7)
        hist, _, _ = digit_histogram(x, B10)
        for d in range(1, 10):
            freq = hist.counts[d - 1] / hist.total
            assert abs(freq - first_digit_prob(d, D10)) < 0.02

    def test_lognormal_sampler_moments(self):
        p = LogNormalParams(1.5, 0.7)
        x = sample_lognormal(50000, p, seed=11)
        logs = np.log(x)
        assert abs(logs.mean() - 1.5) < 3 * 0.7 / math.sqrt(50000)
        assert abs(logs.std() - 0.7) < 0.02

    def test_lognormal_sampler_deterministic(self):
        assert np.array_equal(
            sample_lognormal(50, LogNormalParams(0, 1), seed=2),
            sample_lognormal(50, LogNormalParams(0, 1), seed=2),
        )

    def test_sample_size_validated(self):
        with pytest.raises(DomainError):
            sample_nb(0, B10, seed=1)


class TestSequences:
    def test_pow2_first_terms(self):
        assert gen_sequence("pow2", 5, B10) == pytest.approx(
            [2.0, 4.0, 8.0, 1.6, 3.2], rel=1e-14
        )

    def test_factorial_first_terms(self):
        # 1, 2, 6, 24, 120, 720 as significands
        assert gen_sequence("factorial", 6, B10) == pytest.approx(
            [1.0, 2.0, 6.0, 2.4, 1.2, 7.2], rel=1e-12
        )

    def test_fibonacci_first_terms(self):
        assert gen_sequence("fibonacci", 10, B10) == pytest.approx(
            [1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 1.3, 2.1, 3.4, 5.5], rel=1e-12
        )

    def test_pow2_recurrence_tracks_log_magnitude(self):
        # carried (significand, exponent) reconstructs n log 2 in log space
        terms = gen_sequence_terms("pow2", 10000, B10)
        ln2 = math.log(2.0)
        for n in (10, 100, 1000, 10000):
            t = terms[n - 1]
            recon = t.exponent * math.log(10.0) + math.log(t.significand)
            assert abs(recon - n * ln2) <= 1e-9 * n

    def test_factorial_exponent_matches_lgamma(self):
        terms = gen_sequence_terms("factorial", 2000, B10)
        t = terms[-1]
        recon = t.exponent * math.log(10.0) + math.log(t.significand)
        assert recon == pytest.approx(math.lgamma(2001.0), abs=1e-8)

    def test_geometric_rejects_powers_of_base(self):
        # the doubles 1e-6 and 1e-7 lie just below their powers of 10
        for r in (10.0, 100.0, 0.01, 1.0, 1e-6, 1e-7):
            with pytest.raises(UnsupportedRatio):
                gen_sequence("geometric", 5, B10, ratio=r)

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            gen_sequence("geometric", 5, B10, ratio=-2.0)

    def test_geometric_runs(self):
        sig = gen_sequence("geometric", 1000, B10, ratio=3.7)
        assert all(1.0 <= s < 10.0 for s in sig)

    def test_factorial_cap(self):
        with pytest.raises(DomainError):
            gen_sequence("factorial", 10001, B10)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            gen_sequence("primes", 5, B10)

    def test_geometric_requires_ratio(self):
        with pytest.raises(DomainError):
            gen_sequence("geometric", 5, B10)

    @pytest.mark.parametrize("kind", ["pow2", "factorial", "fibonacci"])
    def test_ratio_only_for_geometric(self, kind):
        with pytest.raises(DomainError, match="ratio"):
            gen_sequence(kind, 5, B10, ratio=3.0)
        with pytest.raises(DomainError, match="ratio"):
            gen_sequence_terms(kind, 5, B10, ratio=3.0)


class TestAnalyze:
    def test_report_fields_consistent(self):
        x = sample_nb(5000, B10, seed=3)
        data = list(x) + [-1.0, 0.0, math.nan]
        rep = analyze(data, B10)
        assert rep.histogram.total == 5000
        assert rep.n_skipped_nonpositive == 2
        assert rep.n_skipped_nonfinite == 1
        assert 0.0 <= rep.tv_distance <= 1.0
        assert 0.0 <= rep.ks_stat <= 1.0
        assert rep.tv_distance == tv_to_nb(rep.histogram)

    def test_exact_proportional_tv_is_zero(self):
        hist = DigitHistogram(Base(2), (123,), 123)
        assert tv_to_nb(hist) == 0.0
