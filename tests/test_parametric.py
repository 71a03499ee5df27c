import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oscigen.amplitude import param_table
from oscigen.parametric import (
    param_dispersion,
    param_identity_eq6,
    param_j_offdiag,
    param_jnn,
    param_mean_n,
    param_prob_table,
    param_row_moments,
    param_sk,
    param_weighted_integrals,
)
from oscigen.series import MAX_WINDOW, param_gf_value
from oscigen.verify import _first_quad, _jnn_quad


def exact_beta_sqrt(k: int, sign: int) -> Fraction:
    """integral of rho^k (1-rho)^(sign/2) drho as an exact Beta value."""
    out = Fraction(2) if sign < 0 else Fraction(2, 3)
    for i in range(1, k + 1):
        out *= Fraction(2 * i, 2 * i + (1 if sign < 0 else 3))
    return out


def test_rho_param_validation():
    for rho in (0.0, 1.0):
        assert param_prob_table(rho, size=1).params == {"rho": rho}
    for rho in (-0.01, 1.01, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"rho must lie in \[0, 1\], got {rho}"):
            param_prob_table(rho, size=1)


def test_gf_origin_and_degenerate_cases():
    for rho in (0.0, 0.3, 0.9):
        assert param_gf_value(0.0, 0.0, rho) == pytest.approx(math.sqrt(1 - rho))
    assert param_gf_value(0.5, 1.0, 0.5) == pytest.approx(2.0)
    assert param_gf_value(0.25, 0.5, 0.0) == pytest.approx(1.0 / (1.0 - 0.125))


def test_table_low_entries():
    for rho in (0.2, 0.5, 0.8):
        t = param_prob_table(rho, size=4, mode="float")
        root = math.sqrt(1 - rho)
        assert t.values[0][0] == pytest.approx(root, rel=1e-14, abs=0.0)
        assert t.values[0][2] == pytest.approx(0.5 * rho * root, rel=1e-13, abs=0.0)
        assert t.values[1][1] == pytest.approx((1 - rho) * root, rel=1e-13, abs=0.0)


def test_parity_entries_vanish_exactly():
    exact = param_prob_table(0.5, size=13, mode="exact")
    flt = param_prob_table(0.37, size=13, mode="float")
    for m in range(13):
        for n in range(13):
            if (m + n) % 2 == 1:
                assert not exact.symbolic[m][n]
                assert flt.values[m][n] == 0.0


def test_structure_of_exact_polynomials():
    table = param_prob_table(0.5, size=13, mode="exact")
    for m in range(13):
        for n in range(13):
            if (m + n) % 2 == 1:
                continue
            q = table.symbolic[m][n]
            half = abs(m - n) // 2
            assert all(c == 0 for c in q.coeffs[:half])
            assert q.degree <= (m + n) // 2


def test_arctanh_identity_on_points():
    rec = param_identity_eq6(0.3, 0.1)
    assert rec.residual < 1e-9
    # equal arguments: analytic limit
    rec = param_identity_eq6(0.5, 0.5)
    assert rec.rhs == pytest.approx(8.0 / 3.0, rel=1e-14, abs=0.0)
    assert rec.residual < 1e-9
    # odd symmetry point
    rec = param_identity_eq6(0.3, -0.3)
    assert rec.rhs == pytest.approx(2.0 * math.atanh(0.3) / 0.3, rel=1e-14, abs=0.0)
    assert rec.residual < 1e-9
    with pytest.raises(ValueError):
        param_identity_eq6(1.0, 0.0)


def test_weighted_first_integral():
    r = param_weighted_integrals(0, 0)
    assert r.first == 2 and r.expected_first == 2
    r = param_weighted_integrals(1, 1)
    assert r.first == Fraction(2, 3) and r.expected_first == Fraction(2, 3)
    for m in range(7):
        for n in range(7):
            r = param_weighted_integrals(m, n)
            assert r.first == r.expected_first
            assert _first_quad(m, n) == pytest.approx(float(r.first), abs=1e-11)


def test_weighted_second_integral_disagrees_with_quoted_value():
    r = param_weighted_integrals(0, 2)
    assert r.second == Fraction(1, 2)
    assert r.expected_second == 1
    r = param_weighted_integrals(1, 3)
    assert r.second == Fraction(3, 4)
    assert r.expected_second == 1
    # diagonal: the second integral is undefined
    r = param_weighted_integrals(2, 2)
    assert r.second is None and r.expected_second is None


def test_diagonal_rho_integrals():
    assert param_jnn(0).closed_form == Fraction(2, 3)
    assert param_jnn(1).closed_form == Fraction(2, 5)
    assert param_jnn(2).closed_form == Fraction(22, 105)
    for n in range(7):
        r = param_jnn(n)
        assert r.symbolic == r.closed_form
        assert _jnn_quad(n) == pytest.approx(float(r.closed_form), abs=1e-11)


def test_offdiagonal_rho_integrals_match_beta_values():
    # w_02 = (1/2) rho sqrt(1-rho): Beta oracle gives (1/2) B(2, 3/2)
    want_02 = Fraction(1, 2) * exact_beta_sqrt(1, +1)
    assert want_02 == Fraction(2, 15)
    assert param_j_offdiag(0, 2) == pytest.approx(float(want_02), abs=1e-13)
    # w_13 = (3/2) rho (1-rho)^{3/2}
    want_13 = Fraction(3, 2) * (exact_beta_sqrt(1, +1) - exact_beta_sqrt(2, +1))
    assert want_13 == Fraction(6, 35)
    assert param_j_offdiag(1, 3) == pytest.approx(float(want_13), abs=1e-13)
    with pytest.raises(ValueError):
        param_j_offdiag(0, 1)
    with pytest.raises(ValueError):
        param_j_offdiag(2, 2)


@pytest.mark.parametrize("m, n", [(20, 30), (30, 40), (60, 80)])
def test_offdiagonal_rho_integrals_are_exact(m, n):
    # a float Gauss-Jacobi route gave -460857 at (30, 40) for 0.0138
    mpmath = pytest.importorskip("mpmath")
    from test_amplitude import _closed_form_mp

    got = param_j_offdiag(m, n)
    assert isinstance(got, Fraction) and 0 < got < 1
    with mpmath.workdps(40):
        want = mpmath.quad(
            lambda rho: _closed_form_mp(mpmath, "parametric", m, n, None, rho, None), [0, 1])
        assert abs(mpmath.mpf(got.numerator) / got.denominator - want) <= 1e-30 * want


def test_quadrature_confirmations_are_within_rounding():
    # each node value is exact before it is rounded, so no cancellation
    # grows with the degree
    for n in range(51):
        assert _jnn_quad(n) == pytest.approx(float(param_jnn(n).symbolic), rel=1e-13, abs=0.0)
    for total in (20, 50, 76, 100):
        for m in range(0, total + 1, 7):
            r = param_weighted_integrals(m, total - m)
            assert _first_quad(m, total - m) == pytest.approx(float(r.first), rel=1e-13, abs=0.0)


def test_antidiagonal_sums():
    assert param_sk(2, 0.19) == pytest.approx(0.9, rel=1e-15, abs=0.0)
    assert param_sk(3, 0.7) == 0.0
    assert param_sk(0, 0.0) == 1.0
    for rho in (0.19, 0.6):
        table = param_prob_table(rho, size=11, mode="float")
        for k in range(11):
            diag = sum(table.values[m][k - m] for m in range(k + 1))
            assert diag == pytest.approx(param_sk(k, rho), abs=1e-13)


def test_mean_quantum_number():
    for rho in (0.1, 0.5, 0.8):
        assert param_mean_n(0, rho) == pytest.approx(rho / (1 - rho), rel=1e-14, abs=0.0)
    assert param_mean_n(1, 1.0 / 3.0) == pytest.approx(2.5, rel=1e-14, abs=0.0)
    for m in range(4):
        assert param_mean_n(m, 0.0) == pytest.approx(float(m), abs=1e-15)
    with pytest.raises(ValueError):
        param_mean_n(0, 1.0)


@pytest.mark.parametrize("rho", [1e-12, 1e-8, 1e-4])
def test_mean_at_small_rho_keeps_its_digits(rho):
    for m in (0, 3):
        want = param_row_moments(m, rho, power=1)[1]
        assert param_mean_n(m, rho) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_mean_matches_row_moment():
    for rho in (0.1, 0.5, 0.8):
        for m in range(4):
            moments = param_row_moments(m, rho, power=1)
            want = param_mean_n(m, rho)
            assert moments[1] == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_dispersion_vacuum_closed_form():
    assert param_dispersion(0, 0.0) == 0.0
    assert param_dispersion(0, 0.5) == pytest.approx(4.0, rel=1e-10, abs=0.0)
    for rho in (0.1, 0.8):
        want = 2 * rho / (1 - rho) ** 2
        assert param_dispersion(0, rho) == pytest.approx(want, rel=1e-8, abs=0.0)


def test_row_moments_at_high_rho_are_the_closed_forms():
    rho = 0.97
    mean = rho / (1 - rho)
    want = [1.0, mean, 2 * rho / (1 - rho) ** 2 + mean**2]
    assert param_row_moments(0, rho) == pytest.approx(want, rel=1e-12, abs=0.0)
    # no window grows: only the u degree m meets the cap
    with pytest.raises(ValueError, match="cap"):
        param_row_moments(MAX_WINDOW + 1, rho)


def test_row_moments_reject_a_huge_row_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            param_row_moments(10**6, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.9, 0.99, 0.999])
def test_row_moments_closed_forms(rho):
    for m in [*range(9), 50, 200, 1000]:
        moments = param_row_moments(m, rho)
        var = 2 * rho * (m * m + m + 1) / (1 - rho) ** 2
        assert moments[0] == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert moments[1] == pytest.approx(param_mean_n(m, rho), rel=1e-12, abs=0.0)
        assert moments[2] - moments[1] ** 2 == pytest.approx(var, rel=1e-12, abs=0.0)
        assert param_dispersion(m, rho) == pytest.approx(var, rel=1e-12, abs=0.0)
        if rho == 0.0:
            assert moments[2] - moments[1] ** 2 == 0.0
            assert param_dispersion(m, rho) == 0.0


@pytest.mark.parametrize("rho", [1e-12, 1e-8, 1e-4])
def test_dispersion_at_small_rho_keeps_its_digits(rho):
    # the variance 2 rho (m^2+m+1) is far below the second moment ~ m^2
    for m in (10, 100, 1000):
        var = 2 * rho * (m * m + m + 1) / (1 - rho) ** 2
        assert param_dispersion(m, rho) == pytest.approx(var, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.8])
def test_row_moments_match_kernel_table(rho):
    # the entries fall like rho^(n/2): rows m <= 8 hold below 1e-84 past n = 2048
    table = param_table(rho, 9, 2049)
    ns = np.arange(2049.0)
    for m in range(9):
        want = [np.dot(ns**p, table[m]) for p in range(3)]
        assert param_row_moments(m, rho) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_row_moments_input_checks():
    with pytest.raises(ValueError):
        param_row_moments(-1, 0.5)
    with pytest.raises(ValueError):
        param_row_moments(0, 1.0)
    with pytest.raises(ValueError):
        param_dispersion(0, 1.0)
    assert param_row_moments(4, 0.5, power=0) == pytest.approx([1.0], rel=1e-14, abs=0.0)


def test_unitarity_and_validation():
    for rho in (0.1, 0.5):
        table = param_prob_table(rho, size=12, mode="float")
        table.validate()
        assert np.max(np.abs(table.values - table.values.T)) < 1e-14


def test_rho_one_gives_empty_float_table():
    table = param_prob_table(1.0, size=4, mode="float")
    assert np.all(table.values == 0.0)
    assert np.all(1.0 - table.values.sum(axis=1) == 1.0)
