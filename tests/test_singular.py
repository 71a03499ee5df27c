import math

import numpy as np
import pytest

from oscigen import singular
from oscigen.errors import SingularEvaluationError, TableInvariantError
from oscigen.series import float_grid, lambda_value, singular_gf_value
from oscigen.singular import (
    adiabatic_diag,
    energy_level,
    ground_row,
    j_from_g,
    singular_prob_table,
)
from oscigen.verify import _slope_from_big_n


def test_energy_level_needs_a_positive_finite_omega():
    for omega in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^omega must be positive and finite$"):
            energy_level(1, omega, -0.5)


def test_weight_validation():
    assert energy_level(0, 1.0, -0.25) == 0.5
    assert energy_level(0, 1.0, singular.MIN_J) == -2.0 * singular.MIN_J
    for j in (0.0, 0.5, np.nextafter(singular.MIN_J, -math.inf), -1e160, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="weight j must be negative and at least -1e\\+15"):
            energy_level(0, 1.0, j)


@pytest.mark.parametrize("rho", [0.0, 1e-300, 5e-17, 2e-16, 1e-12, 1e-13, 5e-13, 0.5, 0.999999])
def test_lowest_weight_tables_validate_or_raise_the_invariant_error(rho):
    # 1 - rho rounds for rho below 1e-16 and drops rho from (1 - rho)^(-2j);
    # at MIN_J that costs digits, which validate may catch, but no overflow
    with np.errstate(all="raise", under="ignore"):
        try:
            singular_prob_table(rho, singular.MIN_J, size=64)
        except TableInvariantError:
            pass


def test_weight_from_barrier_strength():
    assert type(j_from_g(0.0)) is float
    assert j_from_g(0.0) == pytest.approx(-0.75, abs=1e-15)
    assert j_from_g(3.0) == pytest.approx(-1.0, abs=1e-15)
    assert j_from_g(-1.0 + 1e-12) == pytest.approx(-0.5, abs=1e-6)
    with pytest.raises(ValueError):
        j_from_g(-1.0)
    with pytest.raises(ValueError):
        j_from_g(-2.0)
    with pytest.raises(ValueError, match="at least -1e\\+15"):
        j_from_g(1e32)  # j = -2.5e15, below MIN_J


def test_energy_levels():
    assert energy_level(0, 1.0, -0.75) == pytest.approx(1.5)
    assert energy_level(2, 0.5, -1.0) == pytest.approx(3.0)
    for j in (-0.25, -0.9):
        for n in range(4):
            gap = energy_level(n + 1, 0.7, j) - energy_level(n, 0.7, j)
            assert gap == pytest.approx(1.4, rel=1e-14, abs=0.0)
    with pytest.raises(ValueError):
        energy_level(-1, 1.0, -0.75)
    with pytest.raises(ValueError):
        energy_level(0, 0.0, -0.75)


def test_lambda_kernel_values():
    for rho in (0.1, 0.5, 0.9):
        assert lambda_value(0.0, 0.0, rho) == pytest.approx(1.0 - rho)
    # u = 0 collapses the radicand to (1 - rho v)^2
    for v in (0.2, 0.4j, -0.3):
        lam = lambda_value(0.0, v, 0.3)
        assert lam == pytest.approx(0.7 / (1.0 - 0.3 * v), rel=1e-14, abs=0.0)
    a = lambda_value(0.2, 0.3, 0.5)
    b = lambda_value(0.3, 0.2, 0.5)
    assert a == pytest.approx(b, rel=1e-15, abs=0.0)


def test_gf_values():
    for rho, j in ((0.3, -0.5), (0.5, -0.25)):
        want = (1.0 - rho) ** (-2.0 * j)
        assert singular_gf_value(0.0, 0.0, rho, j) == pytest.approx(want)
    assert singular_gf_value(0.5, 0.5, 0.0, -0.25) == pytest.approx(4.0 / 3.0)
    assert singular_gf_value(0.0, 0.4, 0.3, -0.5) == pytest.approx(0.7 / 0.88)


def test_branch_guard_raises_on_cut():
    # at u = v = i the radicand is the real number 4(1-rho)^2 - 4 rho^2,
    # negative for rho > 1/2: squarely on the principal branch cut
    with pytest.raises(SingularEvaluationError):
        lambda_value(1j, 1j, 0.8)
    lambda_value(1j, 1j, 0.2)  # positive radicand: fine


def test_table_matches_vacuum_entry():
    table = singular_prob_table(0.5, -0.25, size=4)
    assert table.values[0][0] == pytest.approx(math.sqrt(0.5), rel=1e-14, abs=0.0)


def test_reductions_to_the_regular_oscillator():
    # the parametric series, independent of the kernel behind both tables
    for rho in (0.1, 0.5, 0.9):
        par = float_grid("parametric", (rho,), 14, 14)
        even = singular_prob_table(rho, -0.25, size=7).values
        odd = singular_prob_table(rho, -0.75, size=7).values
        for m in range(7):
            for n in range(7):
                assert even[m][n] == pytest.approx(par[2 * m][2 * n], abs=1e-10)
                assert odd[m][n] == pytest.approx(par[2 * m + 1][2 * n + 1], abs=1e-10)


def test_series_route_reduces_and_gives_the_vacuum_row():
    # the series of g(u, v), independent of the kernel behind the tables
    # and ground_row
    for rho in (0.1, 0.5, 0.9):
        par = float_grid("parametric", (rho,), 13, 13)
        even = float_grid("singular", (rho, -0.25), 6, 6)
        odd = float_grid("singular", (rho, -0.75), 6, 6)
        np.testing.assert_allclose(even, par[::2, ::2], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(odd, par[1::2, 1::2], rtol=0.0, atol=1e-14)
        for j in (-0.25, -0.75, -0.6, -1.3):
            row = float_grid("singular", (rho, j), 0, 12)[0]
            want = [ground_row(n, rho, j) for n in range(13)]
            np.testing.assert_allclose(row, want, rtol=1e-14, atol=0.0)


def test_series_route_keeps_rho_where_one_minus_rho_rounds():
    # (1 - rho)^k with k = 2e9 would raise the rounding of 1 - rho to that
    # power.  Only the vacuum row and column are compared: the interior
    # entries of the series route lose digits in t + sqrt(...) here.
    mpmath = pytest.importorskip("mpmath")
    rho, j = 3e-10, -1e9
    grid = float_grid("singular", (rho, j), 4, 4)
    with mpmath.workdps(40):
        r, k = mpmath.mpf(rho), -2 * mpmath.mpf(j)
        want = [float(mpmath.gamma(n + k) / (mpmath.factorial(n) * mpmath.gamma(k))
                      * r**n * (1 - r) ** k) for n in range(5)]
    np.testing.assert_allclose(grid[0], want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(grid[:, 0], want, rtol=1e-14, atol=0.0)


def test_ground_row_closed_form():
    assert ground_row(0, 0.4, -0.6) == pytest.approx(0.6 ** 1.2, rel=1e-14, abs=0.0)
    assert ground_row(1, 0.5, -0.25) == pytest.approx(
        0.5 * 0.5 * math.sqrt(0.5), rel=1e-14, abs=0.0
    )
    for rho in (0.1, 0.5, 0.9):
        for j in (-0.25, -0.75, -0.6, -1.3):
            table = singular_prob_table(rho, j, size=13)
            for n in range(13):
                want = (math.gamma(n - 2 * j) / (math.factorial(n) * math.gamma(-2 * j))
                        * rho**n * (1 - rho) ** (-2 * j))
                assert table.values[0][n] == pytest.approx(want, abs=1e-10)


def test_ground_row_normalizes():
    for rho in (0.3, 0.8):
        for j in (-0.25, -1.3):
            total = sum(ground_row(n, rho, j) for n in range(600))
            assert total == pytest.approx(1.0, abs=1e-8)


def test_adiabatic_slope_forms():
    assert adiabatic_diag(0, -0.25) == pytest.approx(0.5, abs=1e-15)
    # N = 0, 1 and 4 give (1/2)(N^2 + N + 1) = 1/2, 3/2 and 21/2
    assert _slope_from_big_n(0, -0.25) == pytest.approx(0.5, abs=1e-12)
    assert _slope_from_big_n(0, -0.75) == pytest.approx(1.5, abs=1e-12)
    assert _slope_from_big_n(2, -0.25) == pytest.approx(10.5, abs=1e-12)
    for n in range(5):
        for j in (-0.25, -0.75, -0.6, -1.3):
            assert adiabatic_diag(n, j) == 2 * (n * n - (2 * n + 1) * j)
            assert adiabatic_diag(n, j) == pytest.approx(_slope_from_big_n(n, j), abs=1e-12)


def test_adiabatic_slope_matches_small_rho_tables():
    for j in (-0.25, -0.75, -0.6):
        for n in range(5):
            want = adiabatic_diag(n, j)
            s = []
            for eps in (1e-4, 2e-4):
                w_nn = singular_prob_table(eps, j, size=n + 1).values[n][n]
                s.append((1.0 - w_nn) / eps)
            richardson = 2.0 * s[0] - s[1]
            assert richardson == pytest.approx(want, rel=1e-4, abs=0.0)


def test_adiabatic_rejects_negative_radicand():
    # the N form needs (n-j)^2 >= j(j+1) + 3/16; the slope itself does not
    with pytest.raises(ValueError):
        _slope_from_big_n(0, -0.1)
    assert adiabatic_diag(0, -0.1) == pytest.approx(0.2, rel=1e-15, abs=0.0)


def test_vacuum_slope_matches_sqrt_series():
    # w_00 at j = -1/4 is sqrt(1-rho); its slope at 0 is 1/2
    eps = 1e-6
    numeric = (1.0 - math.sqrt(1.0 - eps)) / eps
    assert adiabatic_diag(0, -0.25) == pytest.approx(numeric, rel=1e-5, abs=0.0)


def test_table_validation_and_symmetry():
    for rho, j in ((0.2, -0.6), (0.8, -1.3)):
        table = singular_prob_table(rho, j, size=9)
        table.validate()
        assert np.max(np.abs(table.values - table.values.T)) < 1e-13


def test_bad_arguments():
    with pytest.raises(ValueError):
        singular_prob_table(1.0, -0.25, size=4)  # rho = 1 diverges here
    with pytest.raises(ValueError):
        singular_prob_table(0.5, 0.25, size=4)
    with pytest.raises(ValueError):
        ground_row(-1, 0.5, -0.25)
