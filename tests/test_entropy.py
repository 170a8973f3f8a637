import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sint

from benford import (
    Base,
    DomainError,
    LogNormalParams,
    MixtureParams,
    NBDistribution,
    NotNormalized,
    QuadratureError,
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
wrapping_module = importlib.import_module("benford.wrapping")
sys.path.insert(0, str(Path(__file__).resolve().parent / "data"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import make_golden  # noqa: E402
import workloads  # noqa: E402

B10 = Base(10)
D10 = NBDistribution(B10)
L10 = math.log(10.0)
EPS = float(np.finfo(float).eps)


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


def _named_pdf(name, base):
    """The callable a named density stands for."""
    if name == "nb":
        dist = NBDistribution(base)
        return lambda x: nb_pdf(x, dist)
    return lambda x: 1.0 / (base.b - 1)


class TestNamedDensities:
    """"nb" and "uniform" are reported in closed form, with no integration."""

    @pytest.mark.parametrize("b", [2, 10, 16, 1000])
    @pytest.mark.parametrize("name", ["nb", "uniform"])
    def test_agree_with_the_callable_path(self, name, b):
        base = Base(b)
        closed = analyze_entropy(name, base)
        adaptive = analyze_entropy(_named_pdf(name, base), base)
        err = adaptive.quadrature_error_estimate
        assert abs(closed.entropy - adaptive.entropy) <= err
        assert abs(closed.mean_log - adaptive.mean_log) <= err
        assert closed.constraint_met == adaptive.constraint_met == (name == "nb")
        assert closed.quadrature_error_estimate == entropy_module._NOISE_FLOOR

    @pytest.mark.parametrize("b", [2, 3, 10, 16, 1000, 786432, 10**6])
    def test_against_mpmath(self, b):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            L = mp.log(b)
            want = {
                "nb": (mp.log(L) + L / 2, L / 2),
                "uniform": (mp.log(b - 1), (b * L - b + 1) / (b - 1)),
            }
        for name, (h, ml) in want.items():
            rep = analyze_entropy(name, Base(b))
            assert rep.entropy == pytest.approx(float(h), rel=4 * EPS, abs=4 * EPS)
            assert rep.mean_log == pytest.approx(float(ml), rel=4 * EPS)

    @pytest.mark.parametrize("name", ["", "NB", "lognormal", "mixture", "cauchy"])
    def test_unknown_name_is_a_domain_error(self, name):
        for entry in (entropy, mean_log, analyze_entropy):
            with pytest.raises(DomainError):
                entry(name, B10)


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


def _g_oracle(comps, L, u):
    """Density of u = ln x: wrapped Gaussians summed over every k within 40 s."""
    total = np.zeros_like(u)
    for w, M, s in comps:
        k = np.arange(math.floor((M - 40 * s - L) / L) - 1, math.ceil((M + 40 * s + L) / L) + 2)
        z = (u[:, None] + k * L - M) / s
        total += w * np.exp(-0.5 * z * z).sum(axis=1) / (s * math.sqrt(2.0 * math.pi))
    return total


def _dense_oracle(comps, b):
    """(H, <ln x>) by composite 24-point Gauss-Legendre in u = ln x on [0, ln b),
    with panels narrower than an eighth of the smallest scale."""
    L = math.log(b)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    panels = max(64, math.ceil(8 * L / min(s for _, _, s in comps)))
    half = 0.5 * L / panels
    u = ((np.arange(panels) * 2 + 1) * half)[:, None] + half * nodes
    wt = np.broadcast_to(half * weights, u.shape).ravel()
    g = _g_oracle(comps, L, u.ravel())
    mean = float(np.sum(wt * g * u.ravel()))
    return float(-np.sum(wt * g * np.log(g, where=g > 0, out=np.ones_like(g)))) + mean, mean


def _golden_params(tokens):
    vals = [float(t) for t in tokens[1:]]
    if tokens[0] == "lognormal":
        return LogNormalParams(*vals), [(1.0, *vals)]
    comps = [tuple(vals[i : i + 3]) for i in range(0, len(vals), 3)]
    return MixtureParams(tuple((w, LogNormalParams(M, s)) for w, M, s in comps)), comps


_ORACLE_CASES = [
    (f"{tag}_b{b}", b, *_golden_params(dist))
    for b in (2, 10, 16, 1000)
    for tag, dist in make_golden.DENSITY_DISTS
] + [
    (f"s{j}_M{M}_b{b}", b, LogNormalParams(M, float(s)), [(1.0, M, float(s))])
    for b in (2, 10, 16, 1000)
    for j, s in enumerate(np.geomspace(0.05, 6.0, 16))  # the density benchmark's scales
    for M in (-4.1, 0.0, 2.9)
]


class TestSpectralEntropy:
    """Wrapped log-normals and mixtures given by their parameters."""

    @pytest.mark.parametrize(
        "name, b, params, comps", _ORACLE_CASES, ids=[c[0] for c in _ORACLE_CASES]
    )
    def test_within_reported_error_of_dense_oracle(self, name, b, params, comps):
        rep = analyze_entropy(params, Base(b))
        h, mean = _dense_oracle(comps, b)
        assert abs(rep.entropy - h) <= rep.quadrature_error_estimate
        assert abs(rep.mean_log - mean) <= rep.quadrature_error_estimate

    @pytest.mark.parametrize("b", [2, 10, 16, 1000])
    def test_closed_form_mean_log_matches_quad(self, b):
        L = math.log(b)
        for M, s in ((-1.7, 0.8), (0.3, 0.05), (1.066357757671799, 0.05), (2.2, 0.2), (3.2, 1.5)):
            u0 = M % L
            g = lambda u: float(_g_oracle([(1.0, M, s)], L, np.array([u]))[0])
            want, err = sint.quad(lambda u: u * g(u), 0.0, L, points=[u0], epsabs=1e-14, limit=500)
            got = mean_log(LogNormalParams(M, s), Base(b))
            assert abs(got - want) <= err + 1e-13, (b, M, s)

    @pytest.mark.parametrize("b", [2, 10, 16, 1000])
    def test_centred_at_one_means_half_log_base_exactly(self, b):
        base = Base(b)
        for s in (0.05, 0.4, 1.0, 6.0, 1e5):
            rep = analyze_entropy(LogNormalParams(0.0, s), base)
            # on the constraint's boundary without the quadrature slack
            assert rep.mean_log == 0.5 * base.ln
            assert rep.constraint_met

    def test_matches_callable_within_both_errors(self):
        for base, p in ((B10, LogNormalParams(0.3, 0.4)), (Base(2), LogNormalParams(0.1, 0.2))):
            spectral = analyze_entropy(p, base)
            adaptive = analyze_entropy(lambda x: wrapped_lognormal_pdf(x, p, base), base)
            err = spectral.quadrature_error_estimate + adaptive.quadrature_error_estimate
            assert abs(spectral.entropy - adaptive.entropy) <= err
            assert abs(spectral.mean_log - adaptive.mean_log) <= err

    def test_no_panel_tree_for_parameters(self, monkeypatch):
        monkeypatch.setattr(entropy_module, "integrate", None)
        mix = MixtureParams(((0.5, LogNormalParams(0.0, 0.5)), (0.5, LogNormalParams(1.0, 3.0))))
        for density in (mix, "nb", "uniform"):
            for entry in (entropy, mean_log, analyze_entropy):
                entry(density, B10)

    def test_node_cap(self):
        # s / ln b near 1e-6 needs about 10^6 nodes
        with pytest.raises(QuadratureError):
            analyze_entropy(LogNormalParams(0.5, 2e-6), B10)

    @pytest.mark.parametrize("M, s", [(0.0, 1e308), (1e308, 1e308)])
    def test_absurd_scale_is_the_law(self, M, s):
        # s * z overflows; the dual series gives the law, whose entropy and
        # mean log are closed forms
        rep = analyze_entropy(LogNormalParams(M, s), B10)
        assert rep.mean_log == 0.5 * L10
        assert abs(rep.entropy - nb_entropy_closed(B10)) <= rep.quadrature_error_estimate

    def test_subnormal_tolerance(self):
        # 1/tol overflows; the Gaussian sum is certified from -ln(tol)
        p = LogNormalParams(0.0, 1.0)
        tiny, usual = analyze_entropy(p, B10, 1e-320), analyze_entropy(p, B10, 1e-13)
        err = tiny.quadrature_error_estimate + usual.quadrature_error_estimate
        assert abs(tiny.entropy - usual.entropy) <= err
        assert abs(tiny.mean_log - usual.mean_log) <= err

    def test_direct_series_tail_enters_the_error(self, monkeypatch):
        # in practice the direct sum's certified tail underflows wherever it
        # is the cheaper series, so pretend it were just under tol
        p = LogNormalParams(0.3, 0.3)
        exact = analyze_entropy(p, B10).quadrature_error_estimate
        monkeypatch.setattr(wrapping_module, "_direct_tail", lambda K, s, L: 5e-10)
        (c,) = wrapping_module._WrappedLogNormal.of(p, B10, 1e-9).series
        assert c.K is not None and c.tail == 5e-10
        rep = analyze_entropy(p, B10)
        assert rep.quadrature_error_estimate >= exact + L10 * 5e-10 * math.log(2e9)


def test_narrow_peak_entropy_within_reported_error():
    # benford entropy lognormal -0.2659741224283465 0.05 --base 1000: the
    # adaptive tree in x reported an error of 2.8e-10 and was off by 6.8e-7
    # from scipy in u = ln x
    base = Base(1000)
    L, M, s = base.ln, -0.2659741224283465, 0.05
    p = LogNormalParams(M, s)
    rep = analyze_entropy(p, base)
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


def _staged_trapezoid(params, base, tol):
    """The trapezoidal rule as one evaluation per stage: the eight first
    nodes, then the N midpoints of each doubling; the reference for the
    batch of _trapezoid_integrals."""
    E = entropy_module
    L = base.ln
    wl = wrapping_module._WrappedLogNormal.of(params, base, tol)
    rate = wl.alias_rate()

    def sums(u):
        x = np.exp(u)
        g = x * wl.pdf(x)
        return float(np.sum(g)), float(np.sum(E._neg_g_log_g(g)))

    n = E._FIRST_NODES
    sum_g, sum_h = sums(np.arange(n) * (L / n))
    h_prev = math.nan
    while True:
        h_u = sum_h * (L / n)
        q = math.exp(-rate * n * n)
        alias = 2.0 * q / -math.expm1(-rate * n * n)
        change = abs(h_u - h_prev)
        if alias < E._QUAD_TOL and change < E._QUAD_TOL:
            break
        if n >= E._MAX_NODES:
            raise QuadratureError(
                f"trapezoidal rule not converged with {n} nodes "
                f"(aliasing bound {alias:g}, last change {change:g})"
            )
        dg, dh = sums((np.arange(n) + 0.5) * (L / n))
        sum_g += dg
        sum_h += dh
        n *= 2
        h_prev = h_u
    norm = sum_g * (L / n)
    if abs(norm - 1.0) > E._NORM_TOL:
        raise NotNormalized(f"density integrates to {norm!r}, expected 1")
    ml, err_ml = wl.mean_log()
    err_h = alias + change + E._truncation_effect(wl) + err_ml
    return h_u + ml, ml, err_h, err_ml


def _outcome(f, *args):
    """f's four floats as hex, or the type and message of what it raised."""
    try:
        return [v.hex() for v in f(*args)]
    except (QuadratureError, NotNormalized) as exc:
        return [type(exc).__name__, str(exc)]


def _bench_entropy_params():
    """(params, base) of every parameter entropy call of the seed-3 density plan."""
    out = []
    for call in workloads.generate("density", 3, Path("."), False)["calls"]:
        argv = call["argv"]
        if argv[0] == "entropy" and argv[1] in ("lognormal", "mixture"):
            i = argv.index("--base")
            out.append((_golden_params(argv[1:i])[0], Base(int(argv[i + 1]))))
    return out


_COMPONENT = st.tuples(
    st.floats(0.05, 1.0), st.floats(-50.0, 50.0), st.floats(2e-6, 20.0) | st.floats(0.01, 3.0)
)


class TestTrapezoidBatch:
    """One batch of nodes gives the staged rule's four floats bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(
        b=st.integers(2, 10**6) | st.sampled_from([2, 10, 16, 1000]),
        comps=st.lists(_COMPONENT, min_size=1, max_size=3),
        tol=st.floats(1e-15, 1e-3) | st.just(1e-9),
    )
    def test_matches_the_staged_rule(self, b, comps, tol):
        total = math.fsum(w for w, _, _ in comps)
        ws = [w / total for w, _, _ in comps]
        ws[-1] = 1.0 - math.fsum(ws[:-1])
        params = MixtureParams(
            tuple((w, LogNormalParams(M, s)) for w, (_, M, s) in zip(ws, comps))
        )
        if len(comps) == 1:
            params = params.components[0][1]
        args = (params, Base(b), tol)
        assert _outcome(entropy_module._trapezoid_integrals, *args) == _outcome(
            _staged_trapezoid, *args
        )

    def test_matches_the_staged_rule_on_the_bench_plan(self, monkeypatch):
        cases = _bench_entropy_params()
        want = [_outcome(_staged_trapezoid, p, base, 1e-9) for p, base in cases]
        calls = []
        pdf = wrapping_module._WrappedLogNormal.pdf

        def counted(self, x, u=None):
            calls[-1] += 1
            return pdf(self, x, u)

        monkeypatch.setattr(wrapping_module._WrappedLogNormal, "pdf", counted)
        got = []
        for p, base in cases:
            calls.append(0)
            got.append(_outcome(entropy_module._trapezoid_integrals, p, base, 1e-9))
        assert len(cases) == 96 and got == want
        # every report stops at twice its least stage or one or two doublings past it
        assert max(calls) <= 3

    @pytest.mark.parametrize("M, s, b", [(0.0, 1e-5, 10**6), (0.0, 5e-6, 2)])
    def test_node_cap_raises_as_the_staged_rule(self, M, s, b):
        args = (LogNormalParams(M, s), Base(b), 1e-9)
        got = _outcome(entropy_module._trapezoid_integrals, *args)
        assert got[0] == "QuadratureError" and "65536 nodes" in got[1]
        assert got == _outcome(_staged_trapezoid, *args)

    def test_not_normalized_raises_as_the_staged_rule(self, monkeypatch):
        pdf = wrapping_module._WrappedLogNormal.pdf
        monkeypatch.setattr(
            wrapping_module._WrappedLogNormal,
            "pdf",
            lambda self, x, u=None: 1.001 * pdf(self, x, u),
        )
        for p in (LogNormalParams(0.3, 0.05), LogNormalParams(0.3, 2.0)):
            args = (p, B10, 1e-9)
            got = _outcome(entropy_module._trapezoid_integrals, *args)
            assert got[0] == "NotNormalized"
            assert got == _outcome(_staged_trapezoid, *args)
