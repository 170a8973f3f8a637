import numpy as np
import pytest
from scipy import special as ssp

from benford import BenfordError, DomainError
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
    with pytest.raises(DomainError):
        reg_gamma_upper(2.0, -1.0)
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


def test_failure_to_converge_is_a_benford_error():
    # near the mean of 99998 degrees of freedom the series needs more terms
    # than it is allowed; whatever happens, no other exception escapes
    try:
        chi2_sf(99998.0, 99998)
    except BenfordError:
        pass
