import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sint

from benford import (
    K_MAX,
    Base,
    DomainError,
    LogNormalParams,
    MixtureParams,
    NBDistribution,
    SourceDensity,
    TruncationError,
    distance_to_nb,
    euler_maclaurin_leading,
    lognormal_source,
    nb_pdf,
    normalization,
    significand,
    source_from_cdf,
    uniform_source,
    wrap_cdf,
    wrap_density,
    wrap_mixture_pdf,
    wrap_pdf,
    wrapped_lognormal_pdf,
)
from benford.wrapping import (
    _BLOCK,
    _DISTANCE_GRID,
    _WrappedLogNormal,
    _block_sum,
    _dual_at,
    _dual_order,
    _dual_rate,
    _grid,
    _law,
    _lognormal_trunc,
    _wl_pdf_at,
)

wrapping = importlib.import_module("benford.wrapping")

B10 = Base(10)
B2 = Base(2)
L10 = math.log(10.0)
EPS = float(np.finfo(float).eps)


def brute_wrapped_lognormal(x, M, s, b=10.0, kmax=400):
    """Direct wide summation, independent of the engine's truncation logic."""
    u = math.log(x)
    lb = math.log(b)
    total = 0.0
    for k in range(-kmax, kmax + 1):
        total += math.exp(-((u + k * lb - M) ** 2) / (2.0 * s * s))
    return total / (x * s * math.sqrt(2.0 * math.pi))


def brute_wrap(source_pdf, x, b, kmax=60):
    return sum(b**k * source_pdf(x * b**k) for k in range(-kmax, kmax + 1))


BASES = (2, 10, 16, 1000)
SCALES = np.geomspace(0.05, 6.0, 16)
GRID = 2048  # distance_to_nb's grid


def log_grid(b, n=GRID):
    return np.array([float(b) ** ((i + 0.5) / n) for i in range(n)])


def dual_weights(s, L):
    """exp(-2 pi^2 k^2 s^2 / L^2) for k = 1.. until the terms fall below 1e-40."""
    kmax = math.ceil(math.sqrt(92.0) * L / (math.pi * s * math.sqrt(2.0))) + 1
    k = np.arange(1, kmax + 1)
    return k, np.exp(-2.0 * math.pi**2 * k**2 * s**2 / L**2)


def dual_wrapped_lognormal(x, M, s, L):
    """Poisson-summation dual of the wrapped log-normal sum:
    (1/(x L)) [1 + 2 sum_{k>=1} exp(-2 pi^2 k^2 s^2 / L^2) cos(2 pi k (ln x - M) / L)].
    """
    k, q = dual_weights(s, L)
    phase = np.mod(np.log(x) - M, L) / L
    series = np.cos(2.0 * math.pi * np.outer(phase, k)) @ q
    return (1.0 + 2.0 * series) / (x * L)


class TestParams:
    def test_scale_floor(self):
        with pytest.raises(DomainError):
            LogNormalParams(0.0, 1e-6)
        with pytest.raises(DomainError):
            LogNormalParams(0.0, -1.0)
        LogNormalParams(0.0, 2e-6)  # just above the floor is fine

    def test_location_must_be_finite(self):
        with pytest.raises(DomainError):
            LogNormalParams(math.inf, 1.0)

    def test_mixture_validation(self):
        p = LogNormalParams(0.0, 1.0)
        with pytest.raises(DomainError):
            MixtureParams(((0.5, p), (0.6, p)))
        with pytest.raises(DomainError):
            MixtureParams(((-0.1, p), (1.1, p)))
        with pytest.raises(DomainError):
            MixtureParams(())
        MixtureParams(((0.25, p), (0.75, p)))


class TestWrapEngine:
    def test_identity_for_source_inside_interval(self):
        src = uniform_source(2.0, 3.0)
        w = wrap_density(src, B10)
        for x in (1.0, 1.5, 2.0, 2.5, 2.999, 5.0, 9.9):
            assert wrap_pdf(w, x) == src.pdf(x)  # single-term case, exact

    def test_truncation_certificate(self):
        src = lognormal_source(LogNormalParams(0.0, 1.0))
        w = wrap_density(src, B10, tol=1e-9)
        assert w.truncation_error < 1e-10
        assert src.tail_mass(w.truncation, B10) == w.truncation_error
        if w.truncation > 0:
            assert src.tail_mass(w.truncation - 1, B10) >= 1e-10

    def test_truncation_error_raised_for_stubborn_tail(self):
        src = SourceDensity(
            pdf=lambda y: 0.0, cdf=lambda y: 0.5, tail_mass=lambda K, base: 0.5
        )
        with pytest.raises(TruncationError):
            wrap_density(src, B10)

    @pytest.mark.parametrize("s", [1e5, 1e300])
    def test_absurd_scales_equal_the_law(self, s):
        # the direct sum would need an order past the cap; the dual series
        # needs only its k = 0 term
        for b in BASES:
            base = Base(b)
            x = np.append(log_grid(b, 64), 1.0)
            for M in (0.0, 0.7):
                rho = wrapped_lognormal_pdf(x, LogNormalParams(M, s), base)
                law = 1.0 / (x * base.ln)
                assert np.all(np.abs(rho - law) <= 1e-15 * law), (b, s, M)

    def test_truncation_error_for_wide_generic_source(self):
        # the generic decade series keeps its cap on the truncation order
        with pytest.raises(TruncationError):
            wrap_density(lognormal_source(LogNormalParams(0.0, 1e5)), B10)

    def test_halving_tol_changes_pdf_at_most_by_certificate(self):
        src = lognormal_source(LogNormalParams(0.3, 0.8))
        coarse = wrap_density(src, B10, tol=1e-6)
        fine = wrap_density(src, B10, tol=5e-7)
        for x in np.geomspace(1.0, 9.99, 33):
            x = float(x)
            assert abs(wrap_pdf(coarse, x) - wrap_pdf(fine, x)) <= (
                coarse.truncation_error + 1e-15
            )

    def test_matches_closed_form_at_one(self):
        # value frozen from the independent wide-summation oracle
        src = lognormal_source(LogNormalParams(0.0, 1.0))
        w = wrap_density(src, B10)
        assert wrap_pdf(w, 1.0) == pytest.approx(0.4552801230124836, abs=1e-10)
        assert wrapped_lognormal_pdf(1.0, LogNormalParams(0.0, 1.0), B10) == (
            pytest.approx(0.4552801230124836, abs=1e-10)
        )

    @pytest.mark.parametrize("b", BASES)
    def test_generic_agrees_with_closed_form_on_grid(self, b):
        # the scalar decade series is the oracle for the closed-form evaluator
        base = Base(b)
        tol = 1e-9
        for M, s in ((0.0, 1.0), (1.7, 0.5), (-3.0, 2.0)):
            p = LogNormalParams(M, s)
            w = wrap_density(lognormal_source(p), base, tol=tol)
            for x in log_grid(b, 256).tolist():
                assert abs(
                    wrap_pdf(w, x) - wrapped_lognormal_pdf(x, p, base, tol)
                ) <= 2 * tol, (b, M, s, x)

    def test_respread_significand_law_condenses_back(self):
        # NB shape re-spread over three decades with weights 1/4, 1/2, 1/4
        # wraps back onto 1/(x ln b); checked against a direct-summation oracle
        weights = {-1: 0.25, 0: 0.5, 1: 0.25}

        def pdf(y):
            if y <= 0.0:
                return 0.0
            j = math.floor(math.log10(y))
            w = weights.get(j)
            return w / (y * L10) if w is not None else 0.0

        def cdf(y):
            if y <= 0.1:
                return 0.0
            if y >= 100.0:
                return 1.0
            acc = 0.0
            for j in (-1, 0, 1):
                lo, hi = 10.0**j, 10.0 ** (j + 1)
                if y >= hi:
                    acc += weights[j]
                elif y > lo:
                    acc += weights[j] * math.log10(y / lo)
            return acc

        src = source_from_cdf(pdf, cdf)
        w = wrap_density(src, B10)
        dist = NBDistribution(B10)
        for x in (1.0, 1.7, 3.14, 6.66, 9.9):
            assert wrap_pdf(w, x) == pytest.approx(nb_pdf(x, dist), abs=1e-10)
            assert wrap_pdf(w, x) == pytest.approx(brute_wrap(pdf, x, 10.0), abs=1e-12)

    def test_domain_checks(self):
        w = wrap_density(uniform_source(2.0, 3.0), B10)
        with pytest.raises(DomainError):
            wrap_pdf(w, 0.5)
        with pytest.raises(DomainError):
            wrap_pdf(w, 10.0)
        with pytest.raises(DomainError):
            wrap_cdf(w, 10.5)


class TestWrapCdf:
    def test_endpoints(self):
        for p in (LogNormalParams(0.0, 1.0), LogNormalParams(2.0, 0.5)):
            w = wrap_density(lognormal_source(p), B10)
            assert wrap_cdf(w, 1.0) == 0.0
            assert wrap_cdf(w, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_nondecreasing(self):
        w = wrap_density(lognormal_source(LogNormalParams(0.5, 0.7)), B10)
        xs = np.linspace(1.0, 10.0, 200)
        vals = [wrap_cdf(w, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_pdf(self):
        # centered finite differences on a 256-point interior grid
        w = wrap_density(lognormal_source(LogNormalParams(0.0, 1.0)), B10)
        h = 1e-5
        for i in range(256):
            x = 1.001 + (9.99 - 1.001) * i / 255
            fd = (wrap_cdf(w, x + h) - wrap_cdf(w, x - h)) / (2.0 * h)
            assert abs(fd - wrap_pdf(w, x)) < 1e-6


class TestNormalization:
    @pytest.mark.parametrize("base", [B2, B10])
    def test_all_sources_normalize(self, base):
        tol = 1e-9
        sources = [uniform_source(1.25, 1.75)]
        for M in (0.0, 1.0):
            for s in (0.5, 1.0, 2.0, 4.0):
                sources.append(lognormal_source(LogNormalParams(M, s)))
        for src in sources:
            w = wrap_density(src, base, tol=tol)
            val, err = normalization(w)
            assert abs(val - 1.0) <= tol + 1e-8 + err


class TestClosedForm:
    def test_periodic_in_location(self):
        p1 = LogNormalParams(0.3, 1.2)
        p2 = LogNormalParams(0.3 + L10, 1.2)
        p3 = LogNormalParams(0.3 - 3 * L10, 1.2)
        for x in np.geomspace(1.0, 9.99, 64):
            x = float(x)
            a = wrapped_lognormal_pdf(x, p1, B10)
            assert abs(a - wrapped_lognormal_pdf(x, p2, B10)) < 1e-12
            assert abs(a - wrapped_lognormal_pdf(x, p3, B10)) < 1e-12

    def test_matches_brute_summation(self):
        for M, s in ((0.0, 0.5), (1.0, 1.0), (2.0, 2.5)):
            p = LogNormalParams(M, s)
            for x in (1.0, 2.5, 7.7):
                assert wrapped_lognormal_pdf(x, p, B10) == pytest.approx(
                    brute_wrapped_lognormal(x, M, s), abs=1e-11
                )

    def test_wide_scale_close_to_significand_law(self):
        p = LogNormalParams(0.0, 4.0)
        dist = NBDistribution(B10)
        for x in np.geomspace(1.0, 9.99, 64):
            x = float(x)
            assert abs(wrapped_lognormal_pdf(x, p, B10) - nb_pdf(x, dist)) < 2e-3

    def test_near_point_mass_concentrates(self):
        p = LogNormalParams(math.log(5.0), 1e-5)
        at_peak = wrapped_lognormal_pdf(5.0, p, B10)
        away = wrapped_lognormal_pdf(2.0, p, B10)
        assert at_peak > 1e3 * max(away, 1e-300)

    def test_domain(self):
        p = LogNormalParams(0.0, 1.0)
        with pytest.raises(DomainError):
            wrapped_lognormal_pdf(0.5, p, B10)
        with pytest.raises(DomainError):
            wrapped_lognormal_pdf(10.0, p, B10)

    def test_subnormal_tolerance(self):
        # 1/tol overflows; the Gaussian sum is certified from -ln(tol)
        x = log_grid(10, 64)
        p = LogNormalParams(0.0, 1.0)
        rho = wrapped_lognormal_pdf(x, p, B10, 1e-320)
        assert np.all(np.abs(rho - wrapped_lognormal_pdf(x, p, B10, 1e-13)) <= 1e-13)

    @pytest.mark.parametrize("M, s", [(0.0, 1e308), (1e308, 1e308), (-1e308, 1e300)])
    def test_absurd_scale_is_the_law(self, M, s):
        # s * z overflows: the Gaussian sum cannot start, the dual series
        # has no term past k = 0 and gives the law itself
        assert _lognormal_trunc(s, L10, 1e-9, K_MAX) is None
        x = log_grid(10, 64)
        p = LogNormalParams(M, s)
        assert np.array_equal(wrapped_lognormal_pdf(x, p, B10), nb_pdf(x, NBDistribution(B10)))
        assert distance_to_nb(p, B10) == (0.0, 0.0)


class TestEulerMaclaurinLeading:
    def test_equals_significand_law_bitwise(self):
        dist = NBDistribution(B10)
        p = LogNormalParams(0.7, 1.3)
        for i in range(256):
            x = 10.0 ** ((i + 0.5) / 256)
            assert euler_maclaurin_leading(x, p, B10) == nb_pdf(x, dist)

    @pytest.mark.parametrize("x", [10.0, 0.5])
    def test_domain_error_as_significand_law(self, x):
        p = LogNormalParams(0.7, 1.3)
        with pytest.raises(DomainError) as leading:
            euler_maclaurin_leading(x, p, B10)
        with pytest.raises(DomainError) as law:
            nb_pdf(x, NBDistribution(B10))
        assert str(leading.value) == str(law.value)

    def test_independent_of_parameters(self):
        a = euler_maclaurin_leading(3.3, LogNormalParams(0.0, 0.5), B10)
        b = euler_maclaurin_leading(3.3, LogNormalParams(-7.0, 42.0), B10)
        assert a == b

    def test_value_at_one(self):
        assert euler_maclaurin_leading(1.0, LogNormalParams(0.0, 1.0), B10) == (
            pytest.approx(0.43429448190325176, abs=1e-15)
        )

    def test_gaussian_integral_collapse(self):
        # quadrature cross-check: replacing the sum by an integral over the
        # index really does wipe out the location and scale dependence
        for M, s, x in ((0.0, 1.0, 2.5), (3.7, 0.4, 1.0), (-2.0, 2.5, 9.0)):
            val, _ = sint.quad(
                lambda u: math.exp(-((u + math.log(x) - M) ** 2) / (2 * s * s)),
                -np.inf,
                np.inf,
            )
            approx = val / (x * L10 * s * math.sqrt(2.0 * math.pi))
            assert approx == pytest.approx(
                euler_maclaurin_leading(x, LogNormalParams(M, s), B10), abs=1e-9
            )


class TestDistance:
    def test_decreasing_in_scale_and_small_at_four(self):
        tvs = []
        for s in (0.5, 1.0, 2.0, 4.0):
            sup, tv = distance_to_nb(LogNormalParams(0.0, s), B10)
            assert sup >= 0.0 and tv >= 0.0
            tvs.append(tv)
        assert tvs[0] > tvs[1] > tvs[2] > tvs[3]
        assert tvs[3] < 1e-3

    def test_matches_brute_oracle_at_unit_scale(self):
        # oracle value computed before the build on a 4096-point grid: 0.015381
        _, tv = distance_to_nb(LogNormalParams(0.0, 1.0), B10)
        assert tv == pytest.approx(0.0153809, abs=1e-4)

    def test_location_periodicity(self):
        a = distance_to_nb(LogNormalParams(0.25, 0.8), B10)
        b = distance_to_nb(LogNormalParams(0.25 + L10, 0.8), B10)
        assert a == b


class TestMixture:
    def test_single_component_equals_closed_form(self):
        p = LogNormalParams(0.4, 1.1)
        mix = MixtureParams(((1.0, p),))
        for x in (1.0, 3.0, 9.5):
            assert wrap_mixture_pdf(x, mix, B10) == wrapped_lognormal_pdf(x, p, B10)

    def test_equal_halves_of_same_component(self):
        p = LogNormalParams(0.4, 1.1)
        mix = MixtureParams(((0.5, p), (0.5, p)))
        for x in (1.5, 5.0):
            assert wrap_mixture_pdf(x, mix, B10) == pytest.approx(
                wrapped_lognormal_pdf(x, p, B10), rel=1e-15
            )

    def test_two_wide_components_close_to_law(self):
        mix = MixtureParams(
            ((0.5, LogNormalParams(0.0, 4.0)), (0.5, LogNormalParams(1.0, 4.0)))
        )
        dist = NBDistribution(B10)
        n = 2048
        tv = 0.0
        for i in range(n):
            x = 10.0 ** ((i + 0.5) / n)
            tv += abs(wrap_mixture_pdf(x, mix, B10) - nb_pdf(x, dist)) * x
        tv *= 0.5 * L10 / n
        assert tv < 1e-3

    def test_linearity_against_brute(self):
        mix = MixtureParams(
            ((0.3, LogNormalParams(0.0, 0.5)), (0.7, LogNormalParams(1.0, 1.5)))
        )
        for x in (1.2, 4.8):
            expected = 0.3 * brute_wrapped_lognormal(x, 0.0, 0.5) + (
                0.7 * brute_wrapped_lognormal(x, 1.0, 1.5)
            )
            assert wrap_mixture_pdf(x, mix, B10) == pytest.approx(expected, abs=1e-11)


class TestPoissonDual:
    """The direct Gaussian sum against its Poisson-summation dual, an
    independent series for the same density."""

    @pytest.mark.parametrize("b", BASES)
    def test_direct_sum_matches_dual(self, b):
        base, tol = Base(b), 1e-9
        x = log_grid(b)
        for j, s in enumerate(SCALES):
            M = -2.0 + 0.37 * j
            rho = wrapped_lognormal_pdf(x, LogNormalParams(M, float(s)), base, tol)
            dual = dual_wrapped_lognormal(x, M, s, base.ln)
            assert np.all(np.abs(rho - dual) <= 2 * tol * np.maximum(1.0, rho)), (b, s)

    @pytest.mark.parametrize("b", BASES)
    def test_production_dual_matches_direct_sum(self, b):
        # both production series, each truncated far below the difference
        # allowed: the direct tail below 1e-13, the dual tail below 1e-16,
        # and rounding within (2K + 1) epsilons of the positive direct terms
        L, tol = math.log(b), 1e-13
        x = log_grid(b)
        for j, s in enumerate(SCALES):
            s = float(s)
            m = (-2.0 + 0.37 * j) % L
            K = _lognormal_trunc(s, L, tol, K_MAX)
            direct = _wl_pdf_at(x, m, s, L, K, np.log(x))
            dual = _dual_at(x, m, s, L, _dual_order(s, L, 1e-16), np.log(x))
            slack = tol + 1e-16 + (2 * K + 8) * EPS * direct
            assert np.all(np.abs(direct - dual) <= slack), (b, s)

    @pytest.mark.parametrize("b", BASES)
    def test_dual_order_is_certified(self, b):
        L = math.log(b)
        for s in list(SCALES) + [1e-3, 20.0]:
            for target in (1e-9, 1e-16):
                J = _dual_order(float(s), L, target)
                _, q = dual_weights(float(s), L)
                assert (2.0 / L) * q[J:].sum() < target, (b, s, target)
                if s >= SCALES[0]:
                    # at most one term more than the least order that suffices
                    assert J <= 1 or (2.0 / L) * q[J - 2 :].sum() >= target, (b, s, target)

    @pytest.mark.parametrize("b", BASES)
    def test_series_choice_never_sums_more_terms(self, b):
        L = math.log(b)
        for s in list(SCALES) + [1e-5, 1e-3, 20.0, 1e3, 1e5, 1e300]:
            for tol in (1e-6, 1e-9, 1e-13):
                (c,) = _WrappedLogNormal.of(LogNormalParams(0.3, float(s)), Base(b), tol).series
                J = _dual_order(float(s), L, min(tol, 1e-16))
                terms = J + 1 if c.K is None else 2 * c.K + 1
                assert c.J == J and terms <= J + 1
                K = _lognormal_trunc(float(s), L, tol, K_MAX)
                if K is None:
                    assert c.K is None
                    continue
                assert terms <= 2 * K + 1
                assert c.K in (None, K)

    @pytest.mark.parametrize("b", BASES)
    def test_sup_distance_within_dual_bound(self, b):
        # acceptance criterion 3 as an analytic bound: for x >= 1 the dual gives
        # |rho - 1/(x L)| <= (2/L) sum_{k>=1} exp(-2 pi^2 k^2 s^2 / L^2)
        base, tol = Base(b), 1e-9
        for s in SCALES:
            sup, _ = distance_to_nb(LogNormalParams(0.3, float(s)), base, tol)
            _, q = dual_weights(s, base.ln)
            assert sup <= (2.0 / base.ln) * q.sum() + 2 * tol, (b, s)


class TestArrayContract:
    P = LogNormalParams(0.7, 0.9)
    MIX = MixtureParams(
        ((0.3, LogNormalParams(-1.0, 0.2)), (0.7, LogNormalParams(2.0, 3.0)))
    )

    @staticmethod
    def deep(base):
        """A mixture whose direct component sums 17 orders and whose dual
        one 19, at a tolerance of 1e-300, in every base of BASES: blocks of
        9 or more rows, which a pairwise sum would add in another order."""
        L = base.ln
        return MixtureParams(
            ((0.5, LogNormalParams(0.3, 0.15 * L)), (0.5, LogNormalParams(1.1, 0.3 * L)))
        )

    def densities(self, base):
        dist = NBDistribution(base)
        return [
            lambda x: nb_pdf(x, dist),
            lambda x: wrapped_lognormal_pdf(x, self.P, base),
            lambda x: wrap_mixture_pdf(x, self.MIX, base),
            lambda x: wrapped_lognormal_pdf(x, self.MIX, base),
            lambda x: wrapped_lognormal_pdf(x, self.deep(base), base, 1e-300),
        ]

    @pytest.mark.parametrize("b", BASES)
    def test_mixture_params_equal_wrap_mixture_pdf_bitwise(self, b):
        x = log_grid(b)
        got = wrapped_lognormal_pdf(x, self.MIX, Base(b))
        want = wrap_mixture_pdf(x, self.MIX, Base(b))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_blocks_of_direct_and_dual_equal_scalar_calls_bitwise(self):
        # 2^13 points leave _BLOCK / 2^13 = 4 orders per block, so both
        # series run over several blocks; a scalar call sums in one
        x = log_grid(10, 1 << 13)
        mix = MixtureParams(((0.4, LogNormalParams(0.3, 0.05)), (0.6, LogNormalParams(1.1, 0.36))))
        direct, dual = _WrappedLogNormal.of(mix, B10, 1e-9).series
        cols = _BLOCK // x.size
        assert direct.K is not None and 2 * direct.K + 1 > cols
        assert dual.K is None and dual.J > cols
        arr = wrapped_lognormal_pdf(x, mix, B10)
        for i in range(0, x.size, 97):
            assert arr[i] == wrapped_lognormal_pdf(float(x[i]), mix, B10)

    @pytest.mark.parametrize("b", BASES)
    def test_array_equals_scalar_calls_bitwise(self, b):
        direct, dual = _WrappedLogNormal.of(self.deep(Base(b)), Base(b), 1e-300).series
        assert direct.K is not None and 2 * direct.K + 1 >= 9
        assert dual.K is None and dual.J >= 9
        x = np.append(log_grid(b), [1.0, math.nextafter(float(b), 0.0)])
        for f in self.densities(Base(b)):
            arr = f(x)
            assert arr.dtype == np.float64 and arr.shape == x.shape
            scalars = np.array([f(v) for v in x.tolist()])
            assert np.array_equal(arr.view(np.int64), scalars.view(np.int64))

    def test_float_in_float_out(self):
        for f in self.densities(B10):
            assert type(f(2.0)) is float
            assert type(f(np.float64(2.0))) is float

    def test_empty_array_in_empty_array_out(self):
        for f in self.densities(B10):
            out = f(np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, 10.0, 11.0, math.inf, math.nan])
    def test_any_out_of_range_element_raises(self, bad):
        x = np.array([1.5, 2.0, bad, 3.0])
        for f in self.densities(B10):
            with pytest.raises(DomainError):
                f(x)

    def test_single_component_mixture_distance_equals_lognormal(self):
        for b in BASES:
            for s in (0.1, 1.0, 5.0):
                p = LogNormalParams(0.4, s)
                mix = MixtureParams(((1.0, p),))
                assert distance_to_nb(mix, Base(b)) == distance_to_nb(p, Base(b))

    def test_memory_bounded_for_large_truncation(self):
        # in base 2 the direct sum at s = 1000 needs K ~ 9300 and the dual at
        # s = 1e-4 needs J ~ 10200: a full term matrix on the 2048-point
        # distance grid would take about 300 MB and 170 MB
        x, u = _grid(2, 0)
        K = _lognormal_trunc(1000.0, B2.ln, 1e-9, K_MAX)
        J = _dual_order(1e-4, B2.ln, 1e-16)
        assert K > 9000 and J > 9000
        for series, s, order in ((_wl_pdf_at, 1000.0, K), (_dual_at, 1e-4, J)):
            tracemalloc.start()
            try:
                series(x, 0.3, s, B2.ln, order, u)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, series.__name__
        sup, tv = distance_to_nb(LogNormalParams(0.0, 1000.0), B2)
        assert sup < 1e-8 and tv < 1e-8


def point_major_direct(x, m, s, L, K):
    """_wl_pdf_at from the full (n, 2K + 1) matrix of its terms, the columns
    added left to right in increasing k."""
    k = np.arange(-K, K + 1)
    z = np.log(x)[:, None] + k * L - m
    z = np.exp(z * z / (-2.0 * s * s))
    total = np.zeros(x.size)
    for column in z.T:
        total = total + column
    return total / (x * s * math.sqrt(2.0 * math.pi))


def point_major_dual(x, m, s, L, J):
    """_dual_at from the full (n, J) matrix of its terms, the columns added
    left to right from k = J down to 1."""
    k = np.arange(J, 0, -1)
    theta = (np.log(x) - m) * (2.0 * math.pi / L)
    z = np.cos(theta[:, None] * k) * np.exp(-_dual_rate(s, L) * (k * k))
    total = np.zeros(x.size)
    for column in z.T:
        total = total + column
    return (1.0 + 2.0 * total) / (x * L)


class TestSummationOrder:
    """The block loop adds each point's terms in the order of the full term
    matrix's columns, wherever the block boundaries fall."""

    # one block holds _BLOCK // n orders: 32768, 16, 1, 2 and 3
    SIZES = (1, GRID, _BLOCK, _BLOCK // 2, _BLOCK // 3)

    @pytest.mark.parametrize("b", (2, 10))
    @pytest.mark.parametrize("n", SIZES)
    def test_direct_sum_equals_point_major_reference_bitwise(self, b, n):
        L = math.log(b)
        x = log_grid(b, n)
        K = _BLOCK // n + 1  # 2K + 1 terms fill more than two blocks
        s = max(0.3, K * L / 4.0)
        got = _wl_pdf_at(x, 0.3, s, L, K, np.log(x))
        want = point_major_direct(x, 0.3, s, L, K)
        assert np.all(want > 0.0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("b", (2, 10, 1000))
    @pytest.mark.parametrize("n", (1, 7, GRID))
    @pytest.mark.parametrize("s", (0.05, 0.3, 1.0))
    def test_orders_of_zeros_are_skipped_bitwise(self, b, n, s, monkeypatch):
        # at small s most orders are +0.0 at every point, and _wl_pdf_at
        # skips them; the sum must equal the one over every order, and a
        # point at either end of the cell makes the first and last u count
        L = math.log(b)
        x = np.concatenate([[1.0], log_grid(b, n)[1:-1], [math.nextafter(b, 0.0)]])[:n]
        K = 60
        orders = []

        def block_sum(n, ks, terms):
            orders.append(ks.size)
            return _block_sum(n, ks, terms)

        monkeypatch.setattr(wrapping, "_block_sum", block_sum)
        for m in (0.0, 0.3 * L, L - 1e-9):
            got = _wl_pdf_at(x, m, s, L, K, np.log(x))
            want = point_major_direct(x, m, s, L, K)
            assert orders.pop() < 2 * K + 1
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), m

    def test_exp_is_zero_at_and_below_the_skip_exponent(self):
        z = np.concatenate([np.linspace(-800.0, wrapping._EXP_ZERO, 200_001), [-1e300, -np.inf]])
        assert wrapping._EXP_ZERO == -745.2
        assert not np.exp(z).view(np.int64).any()  # +0.0 in every lane, no -0.0

    @pytest.mark.parametrize("b", (2, 10))
    @pytest.mark.parametrize("n", SIZES)
    def test_dual_sum_equals_point_major_reference_bitwise(self, b, n):
        L = math.log(b)
        x = log_grid(b, n)
        J = _BLOCK // n + 2  # J terms fill more than one block
        s = L * math.sqrt(23.0 / (2.0 * J * J)) / math.pi  # c_J = exp(-23)
        got = _dual_at(x, 0.3, s, L, J, np.log(x))
        want = point_major_dual(x, 0.3, s, L, J)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def row_by_row(n, ks, terms):
    """sum_k terms(k) at n points, one row added after another."""
    total = np.zeros(n)
    for row in terms(ks):
        total = total + row
    return total


class TestBlockSum:
    """_block_sum adds a block's rows in C in the order of a plain
    row-by-row sum, across blocks and at a single point."""

    # rows of 20 decades of magnitude and both signs, so that another
    # order of addition rounds differently
    ROWS = np.random.default_rng(7).standard_normal((70, 2304)) * 10.0 ** np.linspace(
        -10, 10, 70
    )[:, None]

    @pytest.mark.parametrize("n", [*range(1, 17), 256, 2048, 2304])
    @pytest.mark.parametrize("rows", [None, 1, 3, 8, 9, 32])  # None: the real _BLOCK
    def test_equals_row_by_row_sum_bitwise(self, n, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(wrapping, "_BLOCK", rows * n)
        rng = np.random.default_rng(n)
        terms = lambda k: self.ROWS[k, :n]  # noqa: E731  a new array per run
        for orders in range(71):
            ks = rng.permutation(70)[:orders]
            got = _block_sum(n, ks, terms)
            want = row_by_row(n, ks, terms)
            assert got.tobytes() == want.tobytes(), (n, rows, orders)


class TestLogGrid:
    @pytest.mark.parametrize(
        "b, n", [(2, 1), (10, 256), (16, GRID), (1000, 64), (10**6, 7), (10, 0)]
    )
    def test_equals_python_pow_and_is_shared(self, b, n):
        # the distance grid, then the table's n points
        grid = _grid(b, n)
        x = grid.x
        assert x.dtype == np.float64
        assert x.tolist() == log_grid(b, GRID).tolist() + log_grid(b, n).tolist()
        # the logs by numpy's log, and the law by nb_pdf, bit for bit
        assert grid.u.tobytes() == np.log(x).tobytes()
        assert _law(x, Base(b)).tobytes() == nb_pdf(x, NBDistribution(Base(b))).tobytes()
        for a in grid:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
        assert _grid(b, n) is grid

    def test_grid_larger_than_distance_grid_is_not_retained(self):
        # the smallest grid whose two arrays and record pass the table
        # cache's cap of _TABLE_BYTES // 16 bytes
        n = (significand._TABLE_BYTES // 16 - 56) // 16 + 1 - GRID
        assert _grid(10, n - 1) is _grid(10, n - 1)
        held = list(significand._table.entries), significand._table.held
        x = _grid(10, n)
        y = _grid(10, n)
        assert x is not y
        want = log_grid(10, GRID).tolist() + log_grid(10, n).tolist()
        assert x.x.tolist() == y.x.tolist() == want
        assert not any(a.flags.writeable for a in x)
        assert (list(significand._table.entries), significand._table.held) == held


def per_component_pdf(wl, x):
    """_WrappedLogNormal.pdf with each component's series taking ln x
    itself: the reference for the log the components share."""
    return sum(
        c.w
        * (
            _dual_at(x, c.m, c.s, wl.L, c.J, np.log(x))
            if c.K is None
            else _wl_pdf_at(x, c.m, c.s, wl.L, c.K, np.log(x))
        )
        for c in wl.series
    )


# weights, locations and scales of 1-3 components; in bases 2 to 1000, a
# scale of 0.02-0.1 takes the direct sum, one of 2-6 the dual series
_COMPONENTS = st.lists(
    st.tuples(
        st.floats(0.05, 1.0),
        st.floats(-20.0, 20.0),
        st.floats(0.02, 0.3) | st.floats(2.0, 6.0),
    ),
    min_size=1,
    max_size=3,
)


def _planned(b, comps):
    total = math.fsum(w for w, _, _ in comps)
    ws = [w / total for w, _, _ in comps]
    ws[-1] = 1.0 - math.fsum(ws[:-1])
    mix = MixtureParams(tuple((w, LogNormalParams(M, s)) for w, (_, M, s) in zip(ws, comps)))
    return _WrappedLogNormal.of(mix, Base(b), 1e-9)


class TestSharedLog:
    """The components of a mixture share one ln x, given or taken once,
    and give the density of each taking its own bit for bit."""

    @settings(deadline=None, max_examples=100)
    @given(
        b=st.sampled_from([2, 10, 16, 1000]),
        comps=_COMPONENTS,
        n=st.integers(1, _DISTANCE_GRID) | st.just(_DISTANCE_GRID),
        size=st.sampled_from([16, 64, 1024]),
        points=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40),
    )
    def test_equals_per_component_logs(self, b, comps, n, size, points):
        wl = _planned(b, comps)
        x, u = _grid(b, n)
        want = per_component_pdf(wl, x).tobytes()
        assert wl.pdf(x, u).tobytes() == wl.pdf(x).tobytes() == want
        x, ln_x = importlib.import_module("benford.entropy")._nodes(b, size)
        assert wl.pdf(x, ln_x).tobytes() == per_component_pdf(wl, x).tobytes()
        x = np.array([float(b) ** p for p in points])  # arbitrary points in [1, b)
        assert wl.pdf(x).tobytes() == per_component_pdf(wl, x).tobytes()

    @pytest.mark.parametrize("b", [2, 10, 1000])
    def test_direct_and_dual_components_in_one_mixture(self, b):
        wl = _planned(b, [(0.3, 0.4, 0.05), (0.3, -1.0, 4.0), (0.4, 2.0, 0.1)])
        assert [c.K is None for c in wl.series] == [False, True, False]
        x, u = _grid(b, _DISTANCE_GRID)
        assert wl.pdf(x, u).tobytes() == per_component_pdf(wl, x).tobytes()
