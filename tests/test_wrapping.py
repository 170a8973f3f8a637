import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate as sint

from benford import (
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
    source_from_cdf,
    uniform_source,
    wrap_cdf,
    wrap_density,
    wrap_mixture_pdf,
    wrap_pdf,
    wrapped_lognormal_pdf,
)
from benford.wrapping import _lognormal_trunc

B10 = Base(10)
B2 = Base(2)
L10 = math.log(10.0)


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

    def test_truncation_error_for_absurd_scale(self):
        # the closed form needs an order past the cap for scales this wide
        with pytest.raises(TruncationError):
            wrapped_lognormal_pdf(2.0, LogNormalParams(0.0, 1e5), B10)

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

    def test_generic_agrees_with_closed_form_on_grid(self):
        tol = 1e-9
        for M, s in ((0.0, 1.0), (1.7, 0.5), (-3.0, 2.0)):
            p = LogNormalParams(M, s)
            w = wrap_density(lognormal_source(p), B10, tol=tol)
            for i in range(256):
                x = 10.0 ** ((i + 0.5) / 256)
                assert abs(
                    wrap_pdf(w, x) - wrapped_lognormal_pdf(x, p, B10, tol)
                ) <= 2 * tol

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


class TestEulerMaclaurinLeading:
    def test_equals_significand_law_bitwise(self):
        dist = NBDistribution(B10)
        p = LogNormalParams(0.7, 1.3)
        for i in range(256):
            x = 10.0 ** ((i + 0.5) / 256)
            assert euler_maclaurin_leading(x, p, B10) == nb_pdf(x, dist)

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

    def densities(self, base):
        dist = NBDistribution(base)
        return [
            lambda x: nb_pdf(x, dist),
            lambda x: wrapped_lognormal_pdf(x, self.P, base),
            lambda x: wrap_mixture_pdf(x, self.MIX, base),
        ]

    @pytest.mark.parametrize("b", BASES)
    def test_array_equals_scalar_calls_bitwise(self, b):
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
        # base 2 at s = 1000 needs K ~ 9300: a full (2K+1) x 2048 term matrix
        # would take about 300 MB
        p = LogNormalParams(0.0, 1000.0)
        assert _lognormal_trunc(p.s, B2.ln, 1e-9) > 9000
        tracemalloc.start()
        try:
            sup, tv = distance_to_nb(p, B2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert sup < 1e-8 and tv < 1e-8
