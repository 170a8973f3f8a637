import math
import sys

import numpy as np
import pytest
from scipy import special as ssp
from scipy import stats

from benford import DomainError
from benford._special import chi2_sf, reg_gamma_upper


def test_matches_scipy_over_grid():
    # absolute error must stay well under the 1e-10 contract
    for a in (0.5, 1.0, 2.5, 4.0, 10.0, 50.0):
        for x in np.geomspace(0.01, 250.0, 40):
            mine = reg_gamma_upper(a, float(x))
            ref = float(ssp.gammaincc(a, x))
            assert abs(mine - ref) < 1e-12, (a, x)


def test_boundaries():
    assert reg_gamma_upper(3.0, 0.0) == 1.0
    assert reg_gamma_upper(3.0, 1e6) == pytest.approx(0.0, abs=1e-15)


def test_domain():
    with pytest.raises(DomainError):
        reg_gamma_upper(0.0, 1.0)
    for x in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            reg_gamma_upper(2.0, x)
    with pytest.raises(DomainError):
        chi2_sf(-1.0, 4)
    with pytest.raises(DomainError):
        chi2_sf(1.0, -1)


def test_chi2_table_value():
    # 0.95 quantile of chi-square with 8 dof is 15.507 (standard table),
    # re-derived with scipy before the build: Q = 0.05000521928328078
    assert chi2_sf(15.507, 8) == pytest.approx(0.05000521928328078, abs=1e-12)
    assert abs(chi2_sf(15.507, 8) - 0.05) < 1e-4


def test_zero_dof_degenerates_to_point_mass():
    assert chi2_sf(0.0, 0) == 1.0
    assert chi2_sf(0.5, 0) == 0.0


def test_near_the_mean_of_99998_dof():
    # a statistic at its mean; mpmath at 40 digits gives
    # 0.4994052859480351114791093810577148206132
    assert chi2_sf(99998.0, 99998) == pytest.approx(0.4994052859480351, abs=1e-14)


def test_shape_must_be_a_multiple_of_one_half():
    with pytest.raises(DomainError):
        reg_gamma_upper(0.3, 1.0)


_ORACLE_DOFS = [*range(1, 16), 98, 99, 998, 999, 9998, 10766, 10767, 99998, 99999, 999997, 999998]
# z = (stat - dof) / sqrt(2 dof), from far below the mean to far above it
_ORACLE_Z = (-8, -6, -4, -3, -2, -1, 0, 0.5, 1, 2, 3, 4, 6, 8, 10, 13, 16, 20, 25, 30, 35, 40)


@pytest.mark.parametrize("dof", _ORACLE_DOFS)
def test_matches_mpmath(dof):
    mp = pytest.importorskip("mpmath")
    for z in _ORACLE_Z:
        stat = max(0.0, dof + z * math.sqrt(2 * dof))
        # 1 - P keeps 40 digits beyond the magnitude of Q (scipy's estimate of it);
        # the upper form gammainc(a, x, inf) fails to converge near the mean
        digits = min(-stats.chi2.logsf(stat, dof) / math.log(10), 330.0)
        with mp.workdps(40 + int(digits)):
            want = 1 - mp.gammainc(mp.mpf(dof) / 2, 0, mp.mpf(stat) / 2, regularized=True)
        got = chi2_sf(stat, dof)
        assert 0.0 <= got <= 1.0
        err = abs(got - want)
        assert err < 1e-12, (dof, z, got)
        if want >= sys.float_info.min:
            assert err < 1e-9 * want, (dof, z, got)
