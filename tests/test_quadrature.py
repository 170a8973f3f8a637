import math

import numpy as np
import pytest
from scipy import integrate as sint

from benford import QuadratureError
from benford import _quadrature
from benford._quadrature import integrate


CASES = [
    (lambda x: 1.0 / x, 1.0, 10.0, math.log(10.0)),
    (lambda x: np.sin(x), 0.0, math.pi, 2.0),
    (lambda x: x * x, -1.0, 2.0, 3.0),
    (lambda x: np.exp(-((x - 0.5) ** 2) / 0.002), 0.0, 1.0, None),  # narrow bump
    (lambda x: 1.0 / (x * math.log(10.0)), 1.0, 10.0, 1.0),
]


@pytest.mark.parametrize("f,a,b,exact", CASES)
def test_against_scipy(f, a, b, exact):
    val, err = integrate(f, a, b, abs_tol=1e-9)
    ref, _ = sint.quad(f, a, b, epsabs=1e-12, epsrel=1e-12)
    assert abs(val - ref) < 1e-9
    if exact is not None:
        assert abs(val - exact) <= err + 1e-12


def test_error_estimate_covers_true_error():
    val, err = integrate(lambda x: np.cos(7.0 * x), 0.0, 3.0, abs_tol=1e-9)
    exact = math.sin(21.0) / 7.0
    assert abs(val - exact) <= err + 1e-12
    assert err <= 1e-9


def test_unreachable_tolerance_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.sin(1000.0 * x) ** 2, 0.0, 50.0, abs_tol=1e-300,
                  max_panels=64)


def test_empty_interval_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: x, 2.0, 2.0)


def test_deterministic():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    assert integrate(f, 0.0, 5.0) == integrate(f, 0.0, 5.0)


def test_one_call_per_panel_on_the_nodes():
    calls = []

    def f(x):
        calls.append(x)
        return np.cos(x)

    integrate(f, 0.0, 3.0, abs_tol=1e-9)
    assert calls and all(x.dtype == np.float64 and x.shape == (15,) for x in calls)


def test_scalar_result_broadcasts():
    val, err = integrate(lambda x: 2.5, 1.0, 3.0)
    assert val == pytest.approx(5.0, abs=1e-12) and err <= 1e-9


# rows ordered from easiest to hardest, so a tree that stopped on the first
# row's error alone would leave the others short of the tolerance
ROWS = [
    (lambda x: x * x, -1.0, 2.0),
    (lambda x: np.cos(7.0 * x), -1.0, 2.0),
    (lambda x: np.exp(-((x - 0.3) ** 2) / 0.002), -1.0, 2.0),
]


def _rows(x):
    return np.stack([f(x) for f, _, _ in ROWS])


def test_rows_share_one_tree():
    vals, errs = integrate(_rows, -1.0, 2.0, abs_tol=1e-9)
    assert vals.shape == errs.shape == (len(ROWS),)
    for (f, a, b), val, err in zip(ROWS, vals.tolist(), errs.tolist()):
        ref, _ = sint.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(val - ref) <= err + 1e-15
        assert err <= 1e-9


def test_one_row_equals_the_scalar_call():
    f = lambda x: np.exp(-((x - 0.5) ** 2) / 0.002)
    val, err = integrate(f, 0.0, 1.0)
    vals, errs = integrate(lambda x: f(x)[None, :], 0.0, 1.0)
    assert (vals.tolist(), errs.tolist()) == ([val], [err])
    assert type(val) is float and type(err) is float


def _tree_size(monkeypatch, f):
    """Panels in the final tree of integrate(f, -1, 2): each bisection
    evaluates two panels and adds one to the 8 initial ones."""
    calls = 0
    real_panel = _quadrature._panel

    def counting(*args):
        nonlocal calls
        calls += 1
        return real_panel(*args)

    monkeypatch.setattr(_quadrature, "_panel", counting)
    integrate(f, -1.0, 2.0, abs_tol=1e-9)
    monkeypatch.undo()
    return 8 + (calls - 8) // 2


def test_panel_budget_is_shared_across_rows(monkeypatch):
    bumps = [lambda x, c=c: np.exp(-((x - c) ** 2) / 0.002) for c in (0.3, 1.1)]
    both = lambda x: np.stack([f(x) for f in bumps])
    alone = [_tree_size(monkeypatch, f) for f in bumps]
    budget = max(alone)
    for f in bumps:
        integrate(f, -1.0, 2.0, abs_tol=1e-9, max_panels=budget)
    with pytest.raises(QuadratureError):
        integrate(both, -1.0, 2.0, abs_tol=1e-9, max_panels=budget)
    # one tree refines both bumps: fewer panels than two trees, more than one
    assert budget < _tree_size(monkeypatch, both) < sum(alone)
