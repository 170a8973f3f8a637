import importlib
import math

import numpy as np
import pytest
from scipy import integrate as sint

from benford import (
    Base,
    LogNormalParams,
    MixtureParams,
    NBDistribution,
    NotNormalized,
    analyze_entropy,
    entropy,
    mean_log,
    nb_entropy_closed,
    nb_pdf,
    wrap_mixture_pdf,
    wrapped_lognormal_pdf,
)
from benford import _quadrature
from benford._quadrature import integrate

entropy_module = importlib.import_module("benford.entropy")

B10 = Base(10)
D10 = NBDistribution(B10)
L10 = math.log(10.0)


def _nb10(x):
    return nb_pdf(x, D10)


def _uniform10(x):
    return 1.0 / 9.0


class TestClosedForm:
    def test_base10(self):
        # ln(ln 10) + (ln 10)/2, evaluated independently
        assert nb_entropy_closed(B10) == pytest.approx(1.985324991744979, abs=1e-12)

    def test_base2_is_negative(self):
        # densities above 1 can have negative differential entropy
        assert nb_entropy_closed(Base(2)) == pytest.approx(
            -0.019939330301691705, abs=1e-12
        )

    def test_matches_quadrature(self):
        for b in (2, 3, 10, 16):
            base = Base(b)
            dist = NBDistribution(base)
            assert entropy(lambda x: nb_pdf(x, dist), base) == pytest.approx(
                nb_entropy_closed(base), abs=1e-6
            )


class TestEntropy:
    def test_uniform_analytic(self):
        assert entropy(_uniform10, B10) == pytest.approx(math.log(9.0), abs=1e-9)

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            entropy(lambda x: 1.0, B10)
        with pytest.raises(NotNormalized):
            mean_log(lambda x: 0.5 / x, B10)

    def test_zero_regions_are_fine(self):
        # 0 ln 0 is taken as 0
        def patch(x):
            return np.where(x < 5.5, 2.0 / 9.0, 0.0)

        val = entropy(patch, B10)
        assert val == pytest.approx(-math.log(2.0 / 9.0), abs=1e-9)


class TestMeanLog:
    def test_significand_law_is_half_log_base(self):
        assert mean_log(_nb10, B10) == pytest.approx(0.5 * L10, abs=1e-9)
        assert 0.5 * L10 == pytest.approx(1.151292546497023, abs=1e-12)

    def test_uniform_analytic(self):
        # (b ln b - b + 1)/(b - 1), evaluated independently for b = 10
        assert mean_log(_uniform10, B10) == pytest.approx(1.5584278811044956, abs=1e-9)

    def test_concentrated_near_one_tends_to_zero(self):
        p = LogNormalParams(0.02, 0.01)
        ml = mean_log(lambda x: wrapped_lognormal_pdf(x, p, B10), B10)
        assert 0.0 <= ml < 0.1

    def test_periodic_in_location(self):
        for M in (0.0, 0.6, 2.0):
            p1 = LogNormalParams(M, 0.8)
            p2 = LogNormalParams(M + L10, 0.8)
            a = mean_log(lambda x: wrapped_lognormal_pdf(x, p1, B10), B10)
            b = mean_log(lambda x: wrapped_lognormal_pdf(x, p2, B10), B10)
            assert abs(a - b) < 1e-9


class TestAnalyze:
    def test_significand_law_hits_the_bound(self):
        rep = analyze_entropy(_nb10, B10)
        assert abs(rep.entropy - rep.gibbs_bound) <= rep.quadrature_error_estimate
        assert rep.constraint_met
        assert rep.gibbs_bound == math.log(L10) + rep.mean_log

    def test_uniform_report(self):
        rep = analyze_entropy(_uniform10, B10)
        assert rep.entropy == pytest.approx(2.19722, abs=1e-4)
        assert rep.gibbs_bound == pytest.approx(math.log(L10) + 1.5584278811, abs=1e-6)
        assert rep.entropy <= rep.gibbs_bound + rep.quadrature_error_estimate
        # mean log sits above (ln b)/2, so the max-entropy constraint fails
        assert not rep.constraint_met

    def test_wrapped_lognormal_obeys_bound(self):
        p = LogNormalParams(0.0, 1.0)
        rep = analyze_entropy(lambda x: wrapped_lognormal_pdf(x, p, B10), B10)
        assert rep.entropy <= rep.gibbs_bound + rep.quadrature_error_estimate
        assert rep.constraint_met

    def test_mixture_obeys_bound(self):
        mix = MixtureParams(
            ((0.5, LogNormalParams(0.0, 0.5)), (0.5, LogNormalParams(1.0, 0.5)))
        )
        rep = analyze_entropy(lambda x: wrap_mixture_pdf(x, mix, B10), B10)
        assert rep.entropy <= rep.gibbs_bound + rep.quadrature_error_estimate
        # well away from the law, so the bound is strict
        assert rep.gibbs_bound - rep.entropy > 1e-6


def _separate_integrals(pdf, base):
    """Normalization, H and <ln x> by three scalar integrate calls, each
    evaluating pdf itself; returns H and <ln x>."""
    b = float(base.b)
    norm, _ = integrate(pdf, 1.0, b, abs_tol=1e-9)
    assert abs(norm - 1.0) <= 1e-6

    def h_integrand(x):
        p = np.asarray(pdf(x), dtype=np.float64)
        positive = p > 0.0
        return np.where(positive, -p * np.log(np.where(positive, p, 1.0)), 0.0)

    h, _ = integrate(h_integrand, 1.0, b, abs_tol=1e-9)
    ml, _ = integrate(lambda x: pdf(x) * np.log(x), 1.0, b, abs_tol=1e-9)
    return h, ml


_SHARED_CASES = [
    ("nb_b10", B10, lambda x: nb_pdf(x, D10)),
    ("lognormal_b10", B10, lambda x: wrapped_lognormal_pdf(x, LogNormalParams(0.3, 0.4), B10)),
    ("lognormal_b2", Base(2), lambda x: wrapped_lognormal_pdf(x, LogNormalParams(0.1, 0.2), Base(2))),
    (
        "mixture_b16",
        Base(16),
        lambda x: wrap_mixture_pdf(
            x,
            MixtureParams(((0.3, LogNormalParams(0.0, 0.3)), (0.7, LogNormalParams(1.5, 0.6)))),
            Base(16),
        ),
    ),
]


class TestSharedEvaluations:
    """The three integrals of a report are the rows of one panel tree."""

    @pytest.mark.parametrize("name, base, pdf", _SHARED_CASES, ids=[c[0] for c in _SHARED_CASES])
    def test_one_evaluation_per_distinct_panel(self, name, base, pdf, monkeypatch):
        nodes = []
        panels = 0
        real_panel = _quadrature._panel

        def counting(*args):
            nonlocal panels
            panels += 1
            return real_panel(*args)

        def recording(x):
            nodes.append(x.tobytes())
            return pdf(x)

        monkeypatch.setattr(_quadrature, "_panel", counting)
        rep = analyze_entropy(recording, base)
        monkeypatch.undo()
        assert len(nodes) == panels
        assert len(set(nodes)) == len(nodes)
        h, ml = _separate_integrals(pdf, base)
        assert abs(rep.entropy - h) <= rep.quadrature_error_estimate
        assert abs(rep.mean_log - ml) <= rep.quadrature_error_estimate

    @pytest.mark.parametrize("entry", [entropy, mean_log, analyze_entropy])
    def test_one_integrate_call_per_entry_point(self, entry, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(entropy_module, "integrate", counting)
        entry(_nb10, B10)
        assert len(calls) == 1

    def test_entropy_and_mean_log_match_the_report(self):
        p = LogNormalParams(0.3, 0.4)
        pdf = lambda x: wrapped_lognormal_pdf(x, p, B10)
        rep = analyze_entropy(pdf, B10)
        assert entropy(pdf, B10) == rep.entropy
        assert mean_log(pdf, B10) == rep.mean_log


@pytest.mark.xfail(
    strict=True,
    reason="known quadrature defect (ROADMAP): the initial panels under-resolve a "
    "narrow peak, so the error estimate misses the true error by about 2500x",
)
def test_narrow_peak_entropy_within_reported_error():
    # benford entropy lognormal -0.2659741224283465 0.05 --base 1000: reports an
    # error of 2.8e-10 and is off by 6.8e-7 from scipy in u = ln x
    base = Base(1000)
    L, M, s = base.ln, -0.2659741224283465, 0.05
    p = LogNormalParams(M, s)
    rep = analyze_entropy(lambda x: wrapped_lognormal_pdf(x, p, base), base)
    m = M % L
    k = np.arange(-3, 4)

    def g(u):  # density of u = ln x on [0, L): a wrapped Gaussian
        return float(np.exp(-((u + k * L - m) ** 2) / (2 * s * s)).sum()) / (
            s * math.sqrt(2.0 * math.pi)
        )

    opts = dict(points=[m], epsabs=1e-13, epsrel=1e-12, limit=500)
    h_u, _ = sint.quad(lambda u: -g(u) * math.log(g(u)) if g(u) > 0 else 0.0, 0.0, L, **opts)
    mean_u, _ = sint.quad(lambda u: g(u) * u, 0.0, L, **opts)
    # H[rho] = H[g] + E[ln x]
    assert abs(rep.entropy - (h_u + mean_u)) <= rep.quadrature_error_estimate
