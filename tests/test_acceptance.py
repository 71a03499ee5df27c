"""Acceptance gate: every criterion at its stated tolerance, one test per
criterion, each printing a pass line."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oscigen.forced as forced
import oscigen.parametric as parametric
import oscigen.series as series
import oscigen.singular as singular
from oscigen.excitation import bogoliubov_from_frequency, nu_from_force
from oscigen.profiles import ForceProfile, FrequencyProfile
from oscigen.series import dft_extract_table
from oscigen.verify import (_arctanh_closed_form, _arctanh_quad, _jnn_quad, _laguerre_moments,
                            _slope_from_big_n, run_suite)

NU_GRID = (0.3, 1.0, 3.0)
RHO_GRID = (0.1, 0.5, 0.9)
J_GRID = (-0.25, -0.75, -0.6, -1.3)


def report(cid: str, detail: str):
    print(f"ACCEPTANCE {cid}: PASS ({detail})")


def test_c01_exact_sum_rules():
    worst_quad = 0.0
    for m in range(9):
        for n in range(9):
            r = forced.forced_sum_rules(m, n)
            assert r.norm == Fraction(1)
            assert r.mean == Fraction(m + n + 1)
            assert r.variance == Fraction(2 * m * n + m + n + 1)
            for got, want in zip(_laguerre_moments(m, n),
                                 (1.0, m + n + 1.0, 2.0 * m * n + m + n + 1.0)):
                rel = abs(got - want) / want
                assert rel < 1e-12
                worst_quad = max(worst_quad, rel)
    report("C1", f"81 exact moment triples, quadrature residual {worst_quad:.1e}")


def test_c02_poisson_vacuum_row():
    worst = 0.0
    for nu in NU_GRID:
        table = forced.forced_prob_table(nu, size=13, mode="float")
        for n in range(13):
            want = math.exp(-nu) * nu**n / math.factorial(n)
            worst = max(worst, abs(table.values[0][n] - want))
    assert worst < 1e-12
    for n in range(13):
        r = forced.forced_sum_rules(0, n)
        assert r.variance == r.mean
    report("C2", f"row residual {worst:.1e}, variance == mean exact on row 0")


def test_c03_antidiagonal_sums():
    worst = 0.0
    for nu in NU_GRID:
        table = forced.forced_prob_table(nu, size=17, mode="float")
        for k in range(17):
            diag = sum(table.values[m][k - m] for m in range(k + 1))
            worst = max(worst, abs(forced.forced_sk(k, nu) - diag))
    assert worst < 1e-12
    for nu in NU_GRID:
        assert forced.forced_sk(0, nu) == pytest.approx(math.exp(-nu), abs=1e-12)
    assert forced.forced_sk(1, 1.0) == pytest.approx(2 * math.exp(-1.0), abs=1e-12)
    assert forced.forced_sk(3, 1.0) == pytest.approx(4 / 3 * math.exp(-1.0), abs=1e-12)
    report("C3", f"k <= 16 residual {worst:.1e}, spot values hold")


def test_c04_parametric_identities():
    worst6 = 0.0
    for u in np.linspace(-0.7, 0.7, 5):
        for v in np.linspace(-0.7, 0.7, 5):
            u, v = float(u), float(v)
            worst6 = max(worst6, abs(_arctanh_quad(u, v) - _arctanh_closed_form(u, v)))
    assert worst6 < 1e-9

    for m in range(11):
        for n in range(11):
            first, _ = parametric.param_weighted_integrals(m, n)
            assert first == Fraction(1 + (-1) ** (m + n), m + n + 1)

    worst8 = 0.0
    for n in range(7):
        closed_form = Fraction(1, 2 * n + 1) * (1 + Fraction(1, (2 * n + 3) * (2 * n - 1)))
        assert parametric.param_jmn(n, n) == closed_form
        worst8 = max(worst8, abs(float(closed_form) - _jnn_quad(n)))
    assert diagonal_integral_values_hold()
    assert worst8 < 1e-10

    worst9 = 0.0
    for rho in (0.1, 0.5, 0.8):
        table = parametric.param_prob_table(rho, size=13, mode="float")
        for k in range(13):
            diag = sum(table.values[m][k - m] for m in range(k + 1))
            worst9 = max(worst9, abs(diag - parametric.param_sk(k, rho)))
    assert worst9 < 1e-8

    worst10 = 0.0
    for rho in (0.1, 0.5, 0.8):
        for m in range(5):
            moments = parametric.param_row_moments(m, rho, power=1)
            want = parametric.param_mean_n(m, rho)
            worst10 = max(worst10, abs(moments[1] - want) / max(1.0, abs(want)))
    assert worst10 < 1e-8
    report(
        "C4",
        f"arctanh {worst6:.1e}, first integral exact (m,n<=10), "
        f"diagonal integrals {worst8:.1e}, sums {worst9:.1e}, means {worst10:.1e}",
    )


def diagonal_integral_values_hold() -> bool:
    return (
        parametric.param_jmn(0, 0) == Fraction(2, 3)
        and parametric.param_jmn(1, 1) == Fraction(2, 5)
        and parametric.param_jmn(2, 2) == Fraction(22, 105)
    )


def test_c05_second_integral_reported_only():
    # the quoted (1 + (-1)^(m+n)) / |m - n| is 1 at both points
    assert parametric.param_weighted_integrals(0, 2)[1] == Fraction(1, 2)
    assert parametric.param_weighted_integrals(1, 3)[1] == Fraction(3, 4)
    rep = run_suite("parametric")
    reported = [c for c in rep.checks if c.status == "reported-only"]
    assert len(reported) == 1
    assert "mismatch" in reported[0].note
    assert reported[0].expected == "quoted closed form gives 1 and 1"
    assert rep.exit_code == 0  # never gates the build
    report("C5", "computed 1/2 and 3/4 reported against quoted 1, no gating")


def test_c06_singular_reductions():
    worst = 0.0
    for rho in RHO_GRID:
        par = parametric.param_prob_table(rho, size=15, mode="float").values
        even = singular.singular_prob_table(rho, -0.25, size=7).values
        odd = singular.singular_prob_table(rho, -0.75, size=7).values
        for m in range(7):
            for n in range(7):
                worst = max(worst, abs(even[m][n] - par[2 * m][2 * n]))
                worst = max(worst, abs(odd[m][n] - par[2 * m + 1][2 * n + 1]))
    assert worst < 1e-10
    report("C6", f"even/odd sector reductions, worst {worst:.1e}")


def test_c07_ground_row():
    worst = 0.0
    for rho in RHO_GRID:
        for j in J_GRID:
            table = singular.singular_prob_table(rho, j, size=13)
            for n in range(13):
                worst = max(
                    worst, abs(table.values[0][n] - singular.ground_row(n, rho, j))
                )
    assert worst < 1e-10

    worst_norm = 0.0
    for rho in (0.5, 0.8):
        for j in J_GRID:
            total = sum(singular.ground_row(n, rho, j) for n in range(800))
            worst_norm = max(worst_norm, abs(1.0 - total))
    assert worst_norm < 1e-8
    report("C7", f"closed form {worst:.1e}, normalization deficit {worst_norm:.1e}")


def test_c08_adiabatic_expansion():
    worst_rich = worst_forms = 0.0
    for j in (-0.25, -0.75, -0.6):
        for n in range(5):
            slope = singular.adiabatic_diag(n, j)
            worst_forms = max(worst_forms, abs(slope - _slope_from_big_n(n, j)))
            s = []
            for eps in (1e-4, 2e-4):
                w_nn = singular.singular_prob_table(eps, j, size=n + 1).values[n][n]
                s.append((1.0 - w_nn) / eps)
            richardson = 2.0 * s[0] - s[1]
            worst_rich = max(worst_rich, abs(richardson - slope) / slope)
    assert worst_rich < 1e-4
    assert worst_forms < 1e-12
    report("C8", f"Richardson slope {worst_rich:.1e}, form agreement {worst_forms:.1e}")


def test_c09_oracle_equivalence():
    worst = 0.0
    for nu in NU_GRID:
        ser = series.float_grid("forced", (nu,), 10, 10)
        dft = dft_extract_table(
            lambda U, V, p=nu: series.forced_gf_value(U, V, p),
            10, 10, grid=256,
        )
        worst = max(worst, float(np.max(np.abs(ser - dft))))
    for rho in RHO_GRID:
        ser = series.float_grid("parametric", (rho,), 10, 10)
        dft = dft_extract_table(
            lambda U, V, p=rho: series.param_gf_value(U, V, p),
            10, 10, grid=256,
        )
        worst = max(worst, float(np.max(np.abs(ser - dft))))
    for rho in RHO_GRID:
        for j in J_GRID:
            ser = series.float_grid("singular", (rho, j), 10, 10)
            dft = dft_extract_table(
                lambda U, V, p=rho, q=j: series.singular_gf_value(U, V, p, q),
                10, 10, grid=256,
            )
            worst = max(worst, float(np.max(np.abs(ser - dft))))
    assert worst < 1e-9
    report("C9", f"series vs contour, 18 parameter points, worst {worst:.1e}")


def test_c10_excitation_extraction():
    wronskians = []

    nu = nu_from_force(ForceProfile.gaussian(1.0, 1.0, 0.0), 1.0)
    want_nu = math.pi * math.exp(-0.5) / 2.0
    assert abs(nu - want_nu) < 1e-10

    r = bogoliubov_from_frequency(FrequencyProfile.sudden_step(1.0, 2.0))
    wronskians.append(r.wronskian_residual)
    assert abs(r.rho - 1.0 / 9.0) < 1e-6

    r = bogoliubov_from_frequency(FrequencyProfile.tanh_ramp(1.0, 4.0, 1.0), tol=1e-10)
    wronskians.append(r.wronskian_residual)
    want = math.sinh(math.pi / 2) ** 2 / math.sinh(3 * math.pi / 2) ** 2
    assert r.rho == pytest.approx(want, rel=1e-6, abs=0.0)

    r = bogoliubov_from_frequency(
        FrequencyProfile.tanh_ramp(1.0, 4.0, 20.0 / 3.0), tol=1e-10
    )
    wronskians.append(r.wronskian_residual)
    assert r.rho < 1e-3

    assert max(wronskians) < 1e-9
    report(
        "C10",
        f"nu {abs(nu - want_nu):.1e} off closed form, sudden rho exact, "
        f"worst Wronskian {max(wronskians):.1e}",
    )
