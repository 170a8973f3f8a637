import math
import struct
import sys
import time
import tracemalloc
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from benford import (
    Base,
    DigitHistogram,
    DomainError,
    EmptyData,
    InsufficientData,
    LogNormalParams,
    NBDistribution,
    NonPositiveInput,
    SignificandDecomposition,
    UnsupportedRatio,
    analyze,
    decompose,
    decompose_array,
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
from benford import conformance
from test_significand import exact_decomposition

B10 = Base(10)
D10 = NBDistribution(B10)


class TestDigitHistogram:
    def test_simple(self):
        hist, np_, nf = digit_histogram([1.0, 2.0, 3.0], B10)
        assert hist.counts.tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 0]
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
        with pytest.raises(DomainError):
            DigitHistogram(B10, (-1, 2, 0, 0, 0, 0, 0, 0, 0), 1)
        with pytest.raises(DomainError):
            DigitHistogram(B10, (1.5, 1.5, 0, 0, 0, 0, 0, 0, 0), 3)
        with pytest.raises(DomainError):
            DigitHistogram(B10, np.ones((3, 3), dtype=np.int64), 9)

    def test_counts_are_a_frozen_copy(self):
        mine = np.arange(9)
        hist = DigitHistogram(B10, mine, 36)
        assert mine.flags.writeable
        assert not np.shares_memory(hist.counts, mine)
        mine[0] = 99
        assert hist.counts.tolist() == list(range(9))
        assert hist.counts.dtype == np.int64 and not hist.counts.flags.writeable
        with pytest.raises(ValueError):
            hist.counts[0] = 1
        assert DigitHistogram(B10, tuple(range(9)), 36) == hist

    def test_equality_and_hash_follow_the_counts(self):
        one = DigitHistogram(B10, (1, 1, 1, 0, 0, 0, 0, 0, 0), 3)
        same, _, _ = digit_histogram([1.0, 2.0, 3.0], B10)
        other, _, _ = digit_histogram([1.0, 2.0, 4.0], B10)
        assert one == same and hash(one) == hash(same)
        assert one != other
        assert one != DigitHistogram(Base(11), (1, 1, 1, 0, 0, 0, 0, 0, 0, 0), 3)
        assert one != one.counts.tolist()
        assert len({one, same, other}) == 2
        x = sample_nb(1000, B10, seed=4)
        assert analyze(x, B10) == analyze(x, B10)


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


def _chi_square_loop(hist: DigitHistogram) -> float:
    """The Pearson statistic as a loop over the cells, with the scalar
    cell probabilities: the form the statistic had before it was taken
    on arrays."""
    dist = NBDistribution(hist.base)
    stat = 0.0
    for d, obs in enumerate(hist.counts.tolist(), 1):
        expected = hist.total * first_digit_prob(d, dist)
        diff = obs - expected
        stat += diff * diff / expected
    return stat


def _tv_loop(hist: DigitHistogram) -> float:
    """Total variation as a loop over the cells, added from left to right."""
    dist = NBDistribution(hist.base)
    total = 0.0
    for d, obs in enumerate(hist.counts.tolist(), 1):
        total += abs(obs / hist.total - first_digit_prob(d, dist))
    return 0.5 * total


def _random_histogram(b: int, seed: int, kind: str) -> DigitHistogram:
    """Counts near the law, near uniform, or a few heavy cells among
    mostly empty ones; the total is at least 5 (b - 1)."""
    rng = np.random.default_rng(seed)
    n = 5 * (b - 1) + int(rng.integers(0, 20 * b))
    if kind == "law":
        p = np.log1p(1.0 / np.arange(1, b)) / math.log(b)
        counts = rng.multinomial(n, p / p.sum())
    elif kind == "uniform":
        counts = rng.multinomial(n, np.full(b - 1, 1.0 / (b - 1)))
    else:
        counts = rng.integers(0, 2, b - 1) * rng.integers(0, 3, b - 1)
        np.add.at(counts, rng.integers(0, b - 1, 3), n)
    return DigitHistogram(Base(b), counts, int(counts.sum()))


class TestStatisticsOnArrays:
    @settings(max_examples=40, deadline=None)
    @given(
        b=st.integers(2, 10**4),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["law", "uniform", "spiky"]),
    )
    @example(b=10**6, seed=1, kind="law")
    @example(b=2, seed=2, kind="spiky")
    def test_match_the_cell_loops_bit_for_bit(self, b, seed, kind):
        hist = _random_histogram(b, seed, kind)
        assert struct.pack("<d", chi_square(hist)[0]) == struct.pack("<d", _chi_square_loop(hist))
        assert struct.pack("<d", tv_to_nb(hist)) == struct.pack("<d", _tv_loop(hist))

    def test_tv_of_an_empty_histogram_is_insufficient_data(self):
        with pytest.raises(InsufficientData):
            tv_to_nb(DigitHistogram(B10, (0,) * 9, 0))


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


BLOCK = conformance._STAT_BLOCK


def _whole_array_ks(u: np.ndarray) -> float:
    """The KS formula on whole arrays, as it stood before the statistics
    went block by block."""
    u = np.sort(u)
    n = len(u)
    grid = np.arange(n + 1, dtype=np.float64)
    grid /= n
    return float(max((grid[1:] - u).max(), (u - grid[:-1]).max()))


class TestStatisticBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(
            st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 1]),
            st.integers(1, 3 * BLOCK + 1),
        ),
        seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([0, 1, 7, 1000]),
    )
    @example(n=BLOCK - 1, seed=0, levels=0)
    @example(n=BLOCK, seed=1, levels=0)
    @example(n=BLOCK + 1, seed=2, levels=7)
    def test_blocked_ks_matches_whole_array_formula(self, n, seed, levels):
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        if levels:  # ties, and values on the grid i/n itself
            u = np.floor(u * levels) / levels
        expected = _whole_array_ks(u)
        u.sort()  # _ks reads u sorted, as its callers hand it over
        want = u.tobytes()
        got = conformance._ks(u)
        assert struct.pack("<d", got) == struct.pack("<d", expected)
        assert u.tobytes() == want

    @pytest.mark.parametrize("b", [2, 10, 1000, 100003, 10**6])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1, 250_000])
    def test_blocked_histogram_matches_bincount(self, b, n, monkeypatch):
        sig = decompose_array(sample_nb(n, Base(b), seed=n + b), Base(b))
        expected = np.bincount(sig.significand.astype(np.int64), minlength=b)[1:]

        def refuse(*args):  # digit_histogram maps no significand to u
            raise AssertionError("digit_histogram took the log map")

        monkeypatch.setattr(conformance, "_fold", refuse)
        hist, _, _ = digit_histogram(sample_nb(n, Base(b), seed=n + b), Base(b))
        assert np.array_equal(hist.counts, expected)
        assert hist.total == n

    @pytest.mark.parametrize("logs", [False, True])
    def test_large_base_counts_need_no_buffer_but_the_counts(self, logs):
        # one int64 count per cell, 8 MB at b = 10**6, and the histogram's
        # copy of it: no buffer of digits waits for a count of b cells
        b, n = 10**6, 10**5
        x = sample_nb(n, Base(b), seed=7)
        conformance._usable_logs(conformance._slices(x[:100]), Base(b), logs)
        tracemalloc.start()
        try:
            conformance._usable_logs(conformance._slices(x), Base(b), logs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 8 * b + (16 * n if logs else 0)

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.sampled_from([2, 10, 1000, 2**15 + 1]),
        cuts=st.lists(st.integers(0, 3 * 2**14 + 5), max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(b=10, cuts=[2**14, 2**15], seed=0)
    @example(b=2**15 + 1, cuts=[1, 2**15 + 1, 2**15 + 2], seed=1)
    def test_fold_of_any_blocking_matches_one_whole_array_pass(self, b, cuts, seed):
        n = 3 * 2**14 + 5
        s = decompose_array(sample_nb(n, Base(b), seed=seed), Base(b)).significand
        whole = np.zeros(b, dtype=np.int64)
        u_whole = conformance._fold(s.copy(), whole, Base(b).ln)
        counts = np.zeros(b, dtype=np.int64)
        edges = [0, *sorted(cuts), n]
        u = np.concatenate(
            [
                conformance._fold(s[lo:hi].copy(), counts, Base(b).ln)
                for lo, hi in zip(edges, edges[1:])
            ]
        )
        hist = DigitHistogram(Base(b), counts[1:], n)
        assert np.array_equal(hist.counts, np.bincount(s.astype(np.int64), minlength=b)[1:])
        assert hist == DigitHistogram(Base(b), whole[1:], n) and counts[0] == whole[0] == 0
        assert u.tobytes() == u_whole.tobytes()
        assert u_whole.tobytes() == (np.log(s) / math.log(b)).tobytes()


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


def _ratio_rejected(x: float, b: int) -> bool:
    """Exact oracle: the significand x / b**k of x, as a Fraction and then
    correctly rounded, is 1.0 or b."""
    k, _ = exact_decomposition(x, b)
    return float(Fraction(x) / Fraction(b) ** k) in (1.0, float(b))


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


@st.composite
def _ratio_cases(draw):
    """(ratio, base): any positive finite double, or one within 4 ulps of
    b**k correctly rounded or of float(b)**k, where the verdicts change."""
    b = draw(st.integers(2, 10**6), label="base")
    if draw(st.booleans()):
        return _double(draw(st.integers(1, _bits(math.inf) - 1), label="bits")), b
    k = draw(st.integers(-40, 40), label="k")
    x = float(Fraction(b) ** k) if draw(st.booleans()) else float(b) ** k
    return _double(_bits(x) + draw(st.integers(-4, 4), label="ulps")), b


class TestRatioRule:
    @settings(max_examples=300, deadline=None)
    @given(case=_ratio_cases())
    def test_verdict_matches_exact_significand(self, case):
        x, b = case
        try:
            conformance._check_ratio(x, Base(b))
            rejected = False
        except UnsupportedRatio:
            rejected = True
        assert rejected == _ratio_rejected(x, b), (x.hex(), b)

    @pytest.mark.parametrize("b", [2, 3, 10, 16, 1000, 2**53 - 1])
    def test_estimate_decides_as_the_decomposed_exponent(self, b):
        # _check_ratio walks floor(ln r / ln b) to the exponent; the verdict
        # is the one that decompose's exact exponent gives
        lg = math.log2(b)
        ks = {k for k in range(math.ceil(-1074 / lg), math.ceil(1024 / lg))
              if abs(k) <= 3 or k % max(1, round(30 / lg)) == 0}
        powers = {x for k in ks for x in (float(Fraction(b) ** k), float(b) ** k)}
        extremes = [5e-324, 1e-323, sys.float_info.min, sys.float_info.max]
        ratios = extremes + [_double(_bits(x) + i) for x in powers for i in (-2, -1, 0, 1, 2)]
        for x in ratios:
            if not 0.0 < x < math.inf:
                continue
            k = decompose(x, Base(b)).exponent
            s = conformance._exact_ratio(*x.as_integer_ratio(), b, k)[2]
            try:
                conformance._check_ratio(x, Base(b))
                rejected = False
            except UnsupportedRatio:
                rejected = True
            assert rejected == (s in (1.0, float(b))), (x.hex(), b)

    def test_smallest_subnormal_in_base_16_runs(self):
        # 2**-1074 t = 2**(-1074 t mod 4) * 16**floor(-1074 t / 4)
        terms = gen_sequence_terms("geometric", 8, Base(16), ratio=5e-324)
        assert [(t.significand, t.exponent) for t in terms] == [
            (2.0 ** (-1074 * t % 4), -1074 * t // 4) for t in range(1, 9)
        ]
        digits = gen_sequence("geometric", 8, Base(16), 5e-324).astype(np.int64)
        assert digits.tolist() == [4, 1] * 4

    @pytest.mark.parametrize("b", [7, 786432])
    def test_largest_double_below_one_runs(self, b):
        # (1 - 2**-53)**t = b**-1 * b (1 - 2**-53)**t: digit b - 1 for t << 2**53
        ratio = math.nextafter(1.0, 0.0)
        terms = gen_sequence("geometric", 1000, Base(b), ratio)
        exps = conformance._exponents("geometric", terms, Base(b), ratio)
        assert (terms.astype(np.int64) == b - 1).all() and (exps == -1).all()
        assert (terms < b).all()


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

    def test_input_array_is_left_as_given(self):
        # all-usable data goes to decompose without a copy; the KS statistic
        # takes the log in place in the decomposition's own significands
        for b in (10, 16):
            x = sample_nb(1000, Base(b), seed=5)[::-1].copy()
            before = x.copy()
            analyze(x, Base(b))
            ks_uniform(x, Base(b))
            assert x.tobytes() == before.tobytes(), b

    def test_analyze_keeps_one_full_length_buffer(self):
        # the significands, 8 bytes a value, and their join, 8 more; each
        # slice's mask, exponents and temporaries stay in cache
        n = 10**6
        x = sample_nb(n, B10, seed=4)
        analyze(x[:1000], B10)
        tracemalloc.start()
        try:
            analyze(x, B10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * n

    def test_exact_proportional_tv_is_zero(self):
        hist = DigitHistogram(Base(2), (123,), 123)
        assert tv_to_nb(hist) == 0.0


# --------------------------------------------------------------------------
# sequence oracles: exact integers for the first terms, 60-digit Decimal on
# to t = 10**6
# --------------------------------------------------------------------------

EXACT_T = 2000
NEXT_UP = math.nextafter(1.0, 2.0)
NEXT_DOWN = math.nextafter(1.0, 0.0)
# (kind, base, ratio); the cases where log_b r is rational have terms that
# equal d * b**k at every t
SEQUENCE_CASES = [
    ("pow2", 10, None),
    ("pow2", 12, None),  # 2**3 = 8 exactly
    ("pow2", 4, None),
    ("pow2", 16, None),
    ("pow2", 1024, None),
    ("pow2", 1000, None),
    ("fibonacci", 10, None),
    ("fibonacci", 16, None),  # F_12 = 144 = 9 * 16
    ("fibonacci", 1000, None),
    ("geometric", 8, 4.0),
    ("geometric", 8, 0.25),
    ("geometric", 10, 1.1),
    ("geometric", 1000, 1.1),
    ("geometric", 10, 3.0 ** (1.0 / 7.0)),
    ("geometric", 16, 3.0 ** (1.0 / 7.0)),
    ("geometric", 10, NEXT_UP),
    ("geometric", 10, NEXT_DOWN),
    ("geometric", 1000, NEXT_DOWN),
]
RATIONAL_CASES = [
    ("pow2", 4, None),
    ("pow2", 16, None),
    ("pow2", 1024, None),
    ("geometric", 8, 4.0),
    ("geometric", 8, 0.25),
]
# |u - u_exact| with u = log_b of the returned significand: the kernel's
# bound on u plus the error of exp(u ln b), with margin
KERNEL_DRIFT = 6e-16
# 2.5e-15 measured at n = 10**4 in bases 10, 16 and 1000, on the terms the
# drift test samples
FACTORIAL_DRIFT = 3e-15


def _factorial_eps(n, b):
    """The bound on |s - t! / b**k| / s that _factorial's docstring proves:
    (2n + 3R + 1) u, with R blocks of K factors, b**(K + 1) <= 10**300."""
    K = min(n, int(300 / math.log10(b)) - 1)
    return (2 * n + 3 * -(-n // K) + 1) * 2.0**-53


def _nudged_down(values, base):
    """decompose_array with every significand one ulp lower."""
    d = decompose_array(values, base)
    return type(d)(d.exponent, np.nextafter(d.significand, 0.0), base)


def _exact_terms(kind, n, ratio):
    """(numerator, denominator) of terms 1..n, exactly."""
    if kind == "fibonacci":
        f0, f1 = 0, 1
        for _ in range(n):
            f0, f1 = f1, f0 + f1
            yield f0, 1
        return
    rn, rd = (2.0 if kind == "pow2" else ratio).as_integer_ratio()
    num, den = 1, 1
    for _ in range(n):
        num, den = num * rn, den * rd
        yield num, den


def _exact_digit_exponent(num, den, b):
    k = math.floor((num.bit_length() - den.bit_length()) * math.log(2) / math.log(b))
    while True:
        top = num * b**-k if k < 0 else num
        bottom = den * b**k if k > 0 else den
        if top < bottom:
            k -= 1
        elif top >= b * bottom:
            k += 1
        else:
            return top // bottom, k


class _DecimalSequence:
    """log_b of term t to about 55 digits."""

    def __init__(self, kind, b, ratio):
        self.fib = kind == "fibonacci"
        with localcontext() as ctx:
            ctx.prec = 60
            self.lnb = Decimal(b).ln()
            root5 = Decimal(5).sqrt()
            if self.fib:
                self.L = ((1 + root5) / 2).ln() / self.lnb
                self.c = root5.ln() / self.lnb
                self.q = (3 - root5) / 2
            else:
                self.L = Decimal(2.0 if kind == "pow2" else ratio).ln() / self.lnb
                self.c = Decimal(0)

    def log(self, t):
        with localcontext() as ctx:
            ctx.prec = 60
            x = t * self.L - self.c
            if self.fib and t < 200:
                x += (1 - (-self.q) ** t).ln() / self.lnb
            return x

    def digit_exponent(self, t):
        """Leading digit and exponent of term t; None for the digit when the
        term lies within 1e-40 of a digit boundary."""
        with localcontext() as ctx:
            ctx.prec = 60
            x = self.log(t)
            k = int(x.to_integral_value(rounding=ROUND_FLOOR))
            s = ((x - k) * self.lnb).exp()
            d = int(s)
            tie = min(s - d, d + 1 - s) <= Decimal("1e-40") * s
            return (None if tie else d), k

    def drift(self, t, s):
        with localcontext() as ctx:
            ctx.prec = 60
            x = self.log(t)
            u = x - x.to_integral_value(rounding=ROUND_FLOOR)
            got = Decimal(s).ln() / self.lnb
            return float(min(abs(got - u), 1 - abs(got - u)))


def _case_id(case):
    kind, b, ratio = case
    return f"{kind}-b{b}" + ("" if ratio is None else f"-r{ratio!r}")


class TestSequenceExactness:
    @pytest.mark.parametrize("case", SEQUENCE_CASES, ids=_case_id)
    def test_first_terms_match_exact_integers(self, case):
        kind, b, ratio = case
        terms = gen_sequence_terms(kind, EXACT_T, Base(b), ratio=ratio)
        assert np.array_equal(
            gen_sequence(kind, EXACT_T, Base(b), ratio=ratio),
            [t.significand for t in terms],
        )
        dec = _DecimalSequence(kind, b, ratio)
        worst = 0.0
        for t, ((num, den), term) in enumerate(zip(_exact_terms(kind, EXACT_T, ratio), terms), 1):
            d, k = _exact_digit_exponent(num, den, b)
            assert (int(term.significand), term.exponent) == (d, k), (t, term)
            if t % 7 == 0 or t < 100:
                worst = max(worst, dec.drift(t, term.significand))
        assert worst <= KERNEL_DRIFT

    @pytest.mark.parametrize("case", SEQUENCE_CASES, ids=_case_id)
    def test_terms_to_a_million_match_decimal(self, case):
        kind, b, ratio = case
        n = 10**6
        # the arrays behind gen_sequence_terms, without 10**6 objects
        terms = gen_sequence(kind, n, Base(b), ratio)
        sig, digits = terms, terms.astype(np.int64)
        exps = conformance._exponents(kind, sig, Base(b), ratio)
        rng = np.random.default_rng(b)
        picks = sorted(set(rng.integers(EXACT_T, n, 300).tolist()) | {n})
        dec = _DecimalSequence(kind, b, ratio)
        worst = 0.0
        for t in picks:
            d, k = dec.digit_exponent(t)
            if case in RATIONAL_CASES:
                # every term is 2**(a t) = 2**j * b**k: a tie, settled here
                # in integers
                assert d is None
                a, p = round(math.log2(2.0 if kind == "pow2" else ratio)), b.bit_length() - 1
                d, k = 2 ** (a * t % p), a * t // p
            assert (int(sig[t - 1]), int(digits[t - 1]), int(exps[t - 1])) == (d, d, k), t
            worst = max(worst, dec.drift(t, float(sig[t - 1])))
        assert worst <= KERNEL_DRIFT

    @pytest.mark.parametrize("ratio,cycle", [(4.0, (4, 2, 1)), (0.25, (2, 4, 1))])
    def test_rational_log_ratios_cycle_exactly(self, ratio, cycle):
        n = 10**4
        terms = gen_sequence_terms("geometric", n, Base(8), ratio=ratio)
        assert [t.significand for t in terms] == [float(cycle[t % 3]) for t in range(n)]
        for t, term in enumerate(terms, 1):
            # 2**(2t) or 2**(-2t) = 2**j * 8**exponent with 2**j the significand
            j = int(term.significand).bit_length() - 1
            assert 3 * term.exponent + j == (2 * t if ratio == 4.0 else -2 * t)
        hist, _, _ = digit_histogram(gen_sequence("geometric", 3000, Base(8), ratio=ratio), Base(8))
        assert hist.counts.tolist() == [1000, 1000, 0, 1000, 0, 0, 0]

    def test_integer_significands_are_exact(self):
        assert gen_sequence_terms("pow2", 3, Base(12))[-1] == SignificandDecomposition(8.0, 0, Base(12))
        # 60 digits give log_24 16 just below the boundary: 15.99...9
        assert gen_sequence_terms("pow2", 4, Base(24))[-1] == SignificandDecomposition(16.0, 0, Base(24))
        assert gen_sequence_terms("fibonacci", 12, Base(16))[-1] == SignificandDecomposition(9.0, 1, Base(16))
        for b in (4, 16, 1024):
            p = b.bit_length() - 1
            terms = gen_sequence_terms("pow2", 5000, Base(b))
            assert [(t.significand, t.exponent) for t in terms] == [
                (2.0 ** (i % p), i // p) for i in range(1, 5001)
            ]

    def test_exact_hits_past_the_first_terms(self):
        # F_81 = 17 * b for this base, and (3 * 2**1000)**2 = 9 * 16**500:
        # 60-digit logs put both within 1e-40 of a digit boundary (F_81 only
        # with Binet's correction, without which its log lies 1e-34 low), so
        # both are settled in exact integers
        b = 37889062373143906 // 17
        assert gen_sequence_terms("fibonacci", 81, Base(b))[-1] == SignificandDecomposition(
            17.0, 1, Base(b)
        )
        terms = gen_sequence_terms("geometric", 3, Base(16), ratio=3.0 * 2.0**1000)
        assert [(t.significand, t.exponent) for t in terms[:2]] == [(3.0, 250), (9.0, 500)]
        assert terms[2].exponent == 751  # 27 * 16**750
        assert terms[2].significand == pytest.approx(1.6875, rel=1e-15)

    @pytest.mark.parametrize("kind,b", [("pow2", 10), ("fibonacci", 10), ("pow2", 7)])
    def test_exponents_count_digits(self, kind, b):
        n = 3000
        terms = gen_sequence_terms(kind, n, Base(b))
        for t, ((num, _), term) in enumerate(zip(_exact_terms(kind, n, None), terms), 1):
            if b == 10:
                assert term.exponent == len(str(num)) - 1, t
            else:
                assert b**term.exponent <= num < b ** (term.exponent + 1), t

    def test_factorial_drift_is_bounded(self):
        # |u - u_exact| on every 97th term and the last at n = 10**4, within
        # FACTORIAL_DRIFT and, in u = log_b s, the proven bound on s
        n = 10**4
        sigs = {b: gen_sequence("factorial", n, Base(b)) for b in (10, 16, 1000)}
        worst = dict.fromkeys(sigs, 0.0)
        with localcontext() as ctx:
            ctx.prec = 60
            acc = Decimal(0)
            lnb = {b: Decimal(b).ln() for b in sigs}
            for t in range(1, n + 1):
                acc += Decimal(t).ln()
                if t % 97 == 0 or t == n:
                    for b, sig in sigs.items():
                        x = acc / lnb[b]
                        u = x - x.to_integral_value(rounding=ROUND_FLOOR)
                        got = Decimal(float(sig[t - 1])).ln() / lnb[b]
                        worst[b] = max(worst[b], float(abs(got - u)))
        for b, w in worst.items():
            assert w <= FACTORIAL_DRIFT, b
            assert w <= _factorial_eps(n, b) / math.log(b), b

    @pytest.mark.parametrize("b", [2, 3, 10, 16, 1000, 10**6, 2**53])
    def test_factorial_terms_are_exact(self, b):
        # every term against the exact integer t!: the digit and exponent
        # are its own, and s lies within the proven bound of t! / b**k
        n = 2000
        eps = Fraction(_factorial_eps(n, b))
        terms = gen_sequence_terms("factorial", n, Base(b))
        exact, k, power = 1, 0, 1  # t!, its exponent, b**k
        for t, term in enumerate(terms, 1):
            exact *= t
            while exact >= power * b:
                k += 1
                power *= b
            s = Fraction(term.significand)
            assert (int(s), term.exponent) == (exact // power, k), t
            # |s - t! / b**k| <= eps * t! / b**k, in integers
            gap = abs(s.numerator * power - exact * s.denominator)
            assert gap * eps.denominator <= eps.numerator * exact * s.denominator, t

    @pytest.mark.parametrize(
        "b, n", [(10, 3), (1000, 6)] + [(math.factorial(t), t) for t in range(3, 10)]
    )
    @pytest.mark.parametrize("nudge", [False, True], ids=["factors", "factors_one_ulp_low"])
    def test_factorial_settles_terms_on_a_cell_edge(self, b, n, nudge, monkeypatch):
        # every term here is d * b**k exactly, so its significand is the
        # integer d.  With each factor one ulp low, the products land just
        # below d, inside the flag window, and only the exact settlement of
        # flagged terms puts them back in d's cell
        if nudge:
            monkeypatch.setattr(conformance, "decompose_array", _nudged_down)
        want, exact = [], 1
        for t in range(1, n + 1):
            exact *= t
            k = next(k for k in range(n) if exact < b ** (k + 1))
            assert exact % b**k == 0
            want.append((float(exact // b**k), k))
        terms = gen_sequence_terms("factorial", n, Base(b))
        assert [(term.significand, term.exponent) for term in terms] == want

    def test_exponents_round_exactly_at_the_extreme_ratios(self):
        # the rounded quotient errs most where t |ln r| / ln b is largest;
        # DBL_MAX**t = 2**(1024 t) (1 - 2**-53)**t lies just below 2**(1024 t)
        n = 10**6
        t = np.arange(1, n + 1, dtype=np.int64)
        dbl_max = math.ldexp(2.0 - 2.0**-52, 1023)
        sig2 = gen_sequence("geometric", n, Base(2), dbl_max)
        # in base 2**53 the terms' significands are sig2 * 2**((1024 t - 1) mod 53),
        # scaled exactly here: the generator would settle a fifth of them one by
        # one, as every s above 3e13 lies within its flag window of an integer
        sig53 = sig2 * 2.0 ** ((1024 * t - 1) % 53)
        tiny = gen_sequence("geometric", n, Base(2**53), 5e-324)
        for b, ratio, sig, want in [
            (2, dbl_max, sig2, 1024 * t - 1),
            (2**53, dbl_max, sig53, (1024 * t - 1) // 53),
            (2**53, 5e-324, tiny, (-1074 * t) // 53),
        ]:
            exps = conformance._exponents("geometric", sig, Base(b), ratio)
            assert np.array_equal(exps, want), (b, ratio)
        sig = gen_sequence("geometric", n, Base(3), dbl_max)
        exps = conformance._exponents("geometric", sig, Base(3), dbl_max)
        picks = sorted(set(np.random.default_rng(3).integers(1, n, 200).tolist()) | {1, n})
        with localcontext() as ctx:
            ctx.prec = 80
            log3_r = Decimal(dbl_max).ln() / Decimal(3).ln()
            for i in picks:
                assert exps[i - 1] == int((i * log3_r).to_integral_value(ROUND_FLOOR)), i


KERNEL_BASES = [2, 10, 16, 1000, 10**6, 2**53 - 1]


class TestKernelBounds:
    @pytest.mark.parametrize("b", KERNEL_BASES)
    def test_exp_error_within_its_bound(self, b):
        # the kernel's s = np.exp(fl(u ln b)), against mpmath's exp of that
        # same double (the error of np.exp alone, _EXP_ERR), and of the
        # exact u ln b: base.ln within 2**-52 and one rounding of the product
        # add 3 * 2**-53 ln b at most, as _kernel's docstring counts
        lnb = Base(b).ln
        u = np.random.default_rng(b % 2**32).random(2000)
        u[:2] = 0.0, math.nextafter(1.0, 0.0)
        x = u * lnb
        s = np.exp(x)
        worst_exp = worst = 0.0
        with mpmath.workdps(40):
            exact_lnb = mpmath.log(b)
            for ui, xi, si in zip(u.tolist(), x.tolist(), s.tolist()):
                worst_exp = max(worst_exp, abs(mpmath.mpf(si) / mpmath.exp(xi) - 1))
                worst = max(worst, abs(mpmath.mpf(si) / mpmath.exp(ui * exact_lnb) - 1))
        assert worst_exp <= conformance._EXP_ERR
        assert worst <= 3 * 2.0**-53 * lnb + conformance._EXP_ERR

    @pytest.mark.parametrize(
        "kind, ratio, b",
        [(kind, ratio, b) for kind, ratio in [("geometric", 3.0), ("fibonacci", None)]
         for b in KERNEL_BASES]
        # L < 0, |L| near 1, and |L| near 1074, the largest any double makes
        + [("geometric", 0.3, 10), ("geometric", 0.999, 1000),
           ("geometric", sys.float_info.max, 3), ("geometric", 5e-324, 3)],
    )
    def test_kernel_u_within_its_bound(self, kind, ratio, b):
        # the kernel's u against the 60-digit frac(X_t), up to t = 10**5;
        # in base 2**53 - 1 every term settles, at about 60 us, so only 200
        # terms at either end run there
        seq = conformance._log_linear(b, ratio)
        dec = _DecimalSequence(kind, b, ratio)
        t0 = conformance._FIB_EXACT + 1  # where the kernel takes over Fibonacci
        spans = [(t0, 200), (10**5 - 199, 200)] if b > 10**6 else [(t0, 10**5 - t0 + 1)]
        rng = np.random.default_rng(b % 2**32)
        for start, n in spans:
            u = np.empty(n)
            conformance._kernel(seq, start, u)
            assert ((0.0 <= u) & (u < 1.0)).all()
            picks = sorted(set(rng.integers(0, n, 150).tolist()) | {0, n - 1})
            with localcontext() as ctx:
                ctx.prec = 60
                for i in picks:
                    x = dec.log(start + i)
                    gap = abs(Decimal(u[i]) - (x - x.to_integral_value(rounding=ROUND_FLOOR)))
                    assert min(gap, 1 - gap) <= Decimal(conformance._U_ERR), (start + i, u[i])

    @pytest.mark.parametrize("b", [3, 10, 1000, 40_000, 10**6])
    def test_digit_edges_within_their_bound(self, b):
        # e_d = log_b d from np.log, each log within one ulp; the kernel's
        # digits rest on e_d lying within 5 * 2**-53 of the exact value
        edges = conformance._digit_edges(b)
        assert edges.size == b - 1 and edges[0] == 0.0 and edges[-1] < 1.0
        assert (np.diff(edges) > 0.0).all()
        picks = np.random.default_rng(b).integers(2, b, 300).tolist() + [2, b - 1]
        with mpmath.workdps(40):
            exact_lnb = mpmath.log(b)
            for d in picks:
                ln_d = float(np.log(float(d)))
                assert abs(mpmath.mpf(ln_d) - mpmath.log(d)) <= math.ulp(ln_d), d
                assert abs(mpmath.mpf(edges[d - 1]) - mpmath.log(d) / exact_lnb) <= 5 * 2.0**-53, d

    def test_sequence_table_is_built_once_and_read_only(self):
        seq = conformance._log_linear(10, 1.1)
        assert conformance._log_linear(10, 1.1) is seq
        assert conformance._log_linear(16, None) is conformance._log_linear(16, None)
        assert seq.phase.size == conformance._BLOCK and not seq.phase.flags.writeable
        with pytest.raises(ValueError):
            seq.phase[0] = 0.5
        # the phase's argsort, by which the terms near an edge are found
        assert seq.order.dtype == np.int16 and not seq.order.flags.writeable
        assert np.array_equal(np.sort(seq.order), np.arange(conformance._BLOCK))
        assert (np.diff(seq.phase[seq.order]) >= 0.0).all()
        with pytest.raises(ValueError):
            seq.order[0] = 0

    @pytest.mark.parametrize("b", [2, 3, 10, 16, 1000, 40_000, 10**6])
    def test_flagged_u_lies_within_the_edge_window(self, b):
        # u drawn at 2**-54 to 2**-40 either side of the computed edges,
        # 0 and 1: every u the flag rule picks must lie within _EDGE_WIN of
        # an edge, as the window proof in _kernel's docstring claims, since
        # _sequence_logs applies the rule to no other u
        lnb = Base(b).ln
        edges = np.append(conformance._digit_edges(b), 1.0)
        if b > 1000:
            picks = np.random.default_rng(b).integers(0, b, 3000)
            edges = edges[np.union1d(picks, [0, 1, b - 2, b - 1])]
        steps = 2.0 ** -np.arange(40.0, 54.5, 0.5)
        u = (edges[:, None] + np.concatenate([-steps, [0.0], steps])).ravel()
        u = u[(u >= 0.0) & (u < 1.0)]
        flagged = u[conformance._near_integer(np.exp(u * lnb), lnb)]
        assert flagged.size
        cut = edges.searchsorted(flagged)
        above = np.abs(flagged - edges.take(cut, mode="clip"))
        below = np.abs(flagged - edges.take(cut - 1, mode="clip"))
        gap = np.minimum(above, below)
        assert gap.max() <= conformance._EDGE_WIN, flagged[gap.argmax()]

    @pytest.mark.parametrize(
        "kind, b, ratio",
        [("pow2", 12, None), ("geometric", 10, NEXT_UP)],
    )
    def test_settled_u_is_the_log_of_the_settled_significand(self, monkeypatch, kind, b, ratio):
        # 2**3 = 8 in base 12 and 1 + t * 2**-52 near 1 settle; their u must
        # be that of their settled s, as _fold makes it, and _settle_near_edges
        # returns each with its kernel u and its exact digit
        settled = []
        settle = conformance._settle

        def counting(seq, t):
            settled.append(t)
            return settle(seq, t)

        monkeypatch.setattr(conformance, "_settle", counting)
        n = 3000
        seq = conformance._log_linear(b, 2.0 if kind == "pow2" else ratio)
        u = np.empty(n)
        offsets = conformance._kernel(seq, 1, u)
        found = conformance._settle_near_edges(seq, 1, n, offsets, np.unique(u))
        idx = np.array(sorted(set(settled)), dtype=np.int64) - 1
        assert found and len(found) == len(settled) == idx.size
        s = gen_sequence(kind, n, Base(b), ratio)
        want = zip(u[idx].tolist(), (np.log(s[idx]) / Base(b).ln).tolist(),
                   s[idx].astype(np.int64).tolist())
        assert sorted(found) == sorted(want)


class TestArcCounts:
    # the log-linear kernel's digits are counted from its sorted u and the
    # edges log_b d; gen_sequence keeps the settled significands, so the
    # integer parts of its output are the exact digits
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["pow2", "fibonacci", "geometric"]),
        b=st.sampled_from([2, 3, 10, 16, 1000, 40_000]),
        n=st.integers(1, 100) | st.integers(10**4, 2 * 10**5),
        ratio=st.sampled_from(
            [NEXT_UP, math.nextafter(2.0, 0.0), 0.999, 0.3, sys.float_info.max, 5e-324]
        )
        | st.floats(min_value=5e-324, max_value=sys.float_info.max),
    )
    @example(kind="pow2", b=10, n=3000, ratio=None)  # 2, 4 and 8 settle, each u on its edge
    @example(kind="fibonacci", b=10, n=3000, ratio=None)  # exact first terms on edges
    # 8 (1 - 2**-53)**3 settles in digit 7, and its u rounds onto log_10 8
    @example(kind="geometric", b=10, n=3000, ratio=math.nextafter(2.0, 0.0))
    @example(kind="geometric", b=1000, n=3000, ratio=math.nextafter(2.0, 0.0))
    # ln 9170 and its np.log differ by an ulp: the exact terms' u lie below their edges
    @example(kind="pow2", b=9170, n=50_000, ratio=None)
    @example(kind="fibonacci", b=9170, n=50_000, ratio=None)
    @example(kind="geometric", b=10, n=10**5, ratio=NEXT_UP)
    @example(kind="geometric", b=40_000, n=2 * 10**5, ratio=0.999)
    @example(kind="geometric", b=16, n=1, ratio=sys.float_info.max)  # settled u = 1.0
    def test_histogram_of_sorted_u_matches_the_significands(self, kind, b, n, ratio):
        if kind != "geometric":
            ratio = None
        try:
            s = gen_sequence(kind, n, Base(b), ratio)
        except UnsupportedRatio:
            assume(False)
        u, hist = conformance._sequence_logs(kind, n, Base(b), ratio)
        assert np.array_equal(hist.counts, np.bincount(s.astype(np.int64), minlength=b)[1:])
        assert hist.total == n
        assert (u[1:] >= u[:-1]).all()


def _settle_every_flagged(kind, n, b, ratio):
    """(u, settled terms) of a reference that applies the flag rule to
    every kernel term, settles the flagged ones, and then sorts."""
    s, head, seq = conformance._source(kind, n, Base(b), ratio)
    lnb = Base(b).ln
    u = np.empty(n)
    u[:head] = np.log(s[:head]) / lnb
    conformance._kernel(seq, head + 1, u[head:])
    flagged = conformance._near_integer(np.exp(u[head:] * lnb), lnb) + head
    terms = (flagged + 1).tolist()
    u[flagged] = np.log([conformance._settle(seq, t) for t in terms]) / lnb
    u.sort()
    return u, terms


REFERENCE_RATIOS = [1.1, 0.3, 0.999, NEXT_UP, sys.float_info.max, 5e-324]
REFERENCE_CASES = [
    (kind, b, ratio, 3000)
    for kind, ratio in [("pow2", None), ("fibonacci", None)]
    + [("geometric", r) for r in REFERENCE_RATIOS]
    for b in [2, 3, 10, 16, 1000, 40_000]
    # a ratio with a rational log_b, a power of b among them, has no kernel
    if kind == "fibonacci"
    or conformance._rational_log(2.0 if kind == "pow2" else ratio, b) is None
] + [("geometric", 16, sys.float_info.max, 10**5), ("geometric", 16, NEXT_UP, 10**5)]


class TestNearEdgePath:
    @pytest.mark.parametrize(
        "kind, b, ratio, n",
        REFERENCE_CASES,
        ids=[f"{_case_id(c[:3])}-n{c[3]}" for c in REFERENCE_CASES],
    )
    def test_settles_what_the_rule_flags_over_every_term(self, monkeypatch, kind, b, ratio, n):
        # _sequence_logs applies the flag rule only to the u its sort finds
        # near an edge; it must settle the same terms as the rule applied to
        # every kernel term, and leave the same sorted u, byte for byte
        want, want_terms = _settle_every_flagged(kind, n, b, ratio)
        settled = []
        settle = conformance._settle

        def counting(seq, t):
            settled.append(t)
            return settle(seq, t)

        monkeypatch.setattr(conformance, "_settle", counting)
        u, _ = conformance._sequence_logs(kind, n, Base(b), ratio)
        assert sorted(settled) == want_terms
        assert u.tobytes() == want.tobytes()


class TestSequenceCost:
    def test_near_one_ratio_settles_few_terms(self, monkeypatch):
        settled = []
        settle = conformance._settle

        def counting(seq, t):
            settled.append(t)
            return settle(seq, t)

        monkeypatch.setattr(conformance, "_settle", counting)
        start = time.perf_counter()
        gen_sequence("geometric", 10**5, B10, ratio=NEXT_UP)
        assert time.perf_counter() - start < 2.0
        # s_t = 1 + t * 2.2e-16 lies within the flag window
        # ln 10 (2**-50 + 2**-53) + 2**-50 = 3.2e-15 of the integer 1 only up
        # to t = 14
        assert settled == list(range(1, 15))

    def test_pow2_memory_per_term(self):
        n = 10**6
        gen_sequence("pow2", 1000, B10)
        tracemalloc.start()
        try:
            gen_sequence("pow2", n, B10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n

    def test_report_keeps_one_full_length_buffer(self):
        # the generator's u, 8 bytes per term; the significands, digits and
        # KS differences live in cache-sized blocks
        n = 10**6
        conformance._report(B10, *conformance._sequence_logs("pow2", 1000, B10), 0, 0)
        tracemalloc.start()
        try:
            conformance._report(B10, *conformance._sequence_logs("pow2", n, B10), 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * n


class TestBufferOwnership:
    # _fold takes the log of significands in place, _usable_logs and
    # _sequence_logs sort their u in place, and _report reads the u it is
    # handed as it is, so every producer must hand over a buffer of its own

    @pytest.mark.parametrize(
        "kind, n, b, ratio",
        [
            ("pow2", 1000, 10, None),  # the kernel
            ("geometric", 1000, 8, 4.0),  # log_8 4 = 2/3: the closed form
            ("fibonacci", conformance._FIB_EXACT, 10, None),  # exact terms only
            ("fibonacci", 1000, 10, None),  # exact terms, then the kernel
            ("factorial", 1000, 10, None),
        ],
    )
    def test_every_sequence_call_returns_a_new_writeable_buffer(self, kind, n, b, ratio):
        first = gen_sequence(kind, n, Base(b), ratio)
        second = gen_sequence(kind, n, Base(b), ratio)
        for sig in (first, second):
            assert sig.dtype == np.float64 and sig.shape == (n,) and sig.flags.writeable
        assert not np.shares_memory(first, second)
        want = second.tobytes()
        u, hist = conformance._sequence_logs(kind, n, Base(b), ratio)
        assert u.dtype == np.float64 and u.shape == (n,) and u.flags.writeable
        assert not np.shares_memory(u, second)
        conformance._report(Base(b), u, hist, 0, 0)
        assert second.tobytes() == want
        assert gen_sequence(kind, n, Base(b), ratio).tobytes() == want

    @pytest.mark.parametrize("b", [10, 16])
    def test_usable_significands_of_one_clean_block_are_a_new_array(self, b):
        # nothing is skipped, so the block itself goes to decompose_array,
        # and _fold maps its significands to u in place
        block = sample_nb(1000, Base(b), seed=b)
        want = block.tobytes()
        u, _, n_nonpos, n_nonfinite = conformance._usable_logs([block], Base(b))
        assert (n_nonpos, n_nonfinite) == (0, 0)
        assert u.dtype == np.float64 and not np.shares_memory(u, block)
        assert block.tobytes() == want
