"""Special-function values behind the public entry points, each against an
independent oracle: the alternating Laguerre partial sums of ``forced_sk``,
the gamma-ratio vacuum row of ``ground_row`` (its j = -1/4 sector is the
double-factorial row of the parametric family) and the arctanh closed form
the verifier checks the integral of G / (1 - rho) against."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscigen import forced_sk, ground_row
from oscigen.verify import _arctanh_closed_form


def exact_laguerre(s: int, x: Fraction) -> Fraction:
    # explicit alternating sum, evaluated in exact rationals
    total = Fraction(0)
    binom = 1
    for k in range(s + 1):
        total += Fraction(binom) * (-x) ** k / math.factorial(k)
        binom = binom * (s - k) // (k + 1)
    return total


def laguerre_step(k: int, nu: float) -> float:
    # S_k - S_{k-1} = e^-nu (-1)^k L_k(2 nu)
    return (-1) ** k * math.exp(nu) * (forced_sk(k, nu) - forced_sk(k - 1, nu))


def test_laguerre_low_orders():
    assert forced_sk(0, 17.3) == math.exp(-17.3)
    # 1 - L_1(1.4) = 1.4
    assert forced_sk(1, 0.7) == pytest.approx(1.4 * math.exp(-0.7), abs=1e-15)
    # 1 - L_1(2) + L_2(2) = 1 + 1 - 1
    assert forced_sk(2, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_laguerre_sequence_agrees_with_scalar():
    # each partial sum adds exactly one Laguerre polynomial, with its sign
    from numpy.polynomial import laguerre as npl

    for nu in (0.3, 1.85):
        for k in range(1, 13):
            want = float(npl.lagval(2.0 * nu, [0.0] * k + [1.0]))
            assert laguerre_step(k, nu) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_laguerre_recurrence_residual_small():
    for nu in np.linspace(0.0, 10.0, 6):
        x = 2.0 * float(nu)
        seq = [math.exp(nu) * forced_sk(0, float(nu))]
        seq += [laguerre_step(k, float(nu)) for k in range(1, 52)]
        for s in range(1, 50):
            lhs = (s + 1) * seq[s + 1]
            rhs = (2 * s + 1 - x) * seq[s] - s * seq[s - 1]
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) / scale < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=63),
    st.fractions(min_value=0, max_value=50, max_denominator=8),
)
def test_laguerre_matches_exact_sum(k, nu):
    partial = sum((-1) ** s * exact_laguerre(s, 2 * nu) for s in range(k + 1))
    want = math.exp(-float(nu)) * float(partial)
    assert forced_sk(k, float(nu)) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_laguerre_matches_numpy_oracle():
    # numpy's Clenshaw sum is an independent evaluation order
    from numpy.polynomial import laguerre as npl

    for k in (5, 17, 33):
        signs = [(-1.0) ** s for s in range(k + 1)]
        for x in (0.3, 4.0, 11.5):
            want = math.exp(-x / 2) * float(npl.lagval(x, signs))
            assert forced_sk(k, x / 2) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_forced_sk_matches_mpmath_up_to_nu_50():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for nu in (0.0, 0.01, 0.37, 1.0, 2.5, 7.9, 17.3, 33.3, 50.0):
        x = mpmath.mpf(2 * nu)
        partial = mpmath.mpf(0)
        for k in range(64):
            partial += (-1) ** k * mpmath.laguerre(k, 0, x)
            want = float(mpmath.exp(-mpmath.mpf(nu)) * partial)
            assert abs(forced_sk(k, nu) - want) < 1e-13


def test_laguerre_rejects_negative_order():
    with pytest.raises(ValueError):
        forced_sk(-1, 0.0)


def test_gamma_ratio_empty_product():
    assert ground_row(0, 0.0, -0.25) == 1.0
    assert ground_row(0, 0.4, -0.37) == pytest.approx(0.6**0.74, rel=1e-15, abs=0.0)


def test_gamma_ratio_quarter_weights():
    # double-factorial pattern of the even-sector vacuum row
    for rho in (0.5, 0.3, 0.9):
        for n in range(1, 9):
            dd = Fraction(1)
            for k in range(1, n + 1):
                dd *= Fraction(2 * k - 1, 2 * k)
            want = float(dd) * rho**n * math.sqrt(1.0 - rho)
            assert ground_row(n, rho, -0.25) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_gamma_ratio_matches_gamma_function():
    rho = 0.4
    for n in (1, 3, 7):
        for j in (-0.25, -0.6, -1.3):
            want = math.gamma(n - 2 * j) / (
                math.factorial(n) * math.gamma(-2 * j)
            ) * rho**n * (1.0 - rho) ** (-2 * j)
            assert ground_row(n, rho, j) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_gamma_ratio_successive_ratio_consistency():
    rho = 0.4
    for j in (-0.25, -0.6, -1.3):
        prev = ground_row(0, rho, j)
        for n in range(12):
            cur = ground_row(n + 1, rho, j)
            assert cur / prev == pytest.approx(rho * (n - 2 * j) / (n + 1), rel=1e-14, abs=0.0)
            prev = cur


def test_gamma_ratio_rejects_poles():
    with pytest.raises(ValueError):
        ground_row(2, 0.5, 0.0)  # Gamma(0)
    with pytest.raises(ValueError):
        ground_row(2, 0.5, 0.5)  # Gamma(-1)
    with pytest.raises(ValueError):
        ground_row(-1, 0.5, -0.25)


def test_arctanh_values_and_symmetry():
    assert _arctanh_closed_form(0.0, 0.0) == 2.0
    # 4 arctanh(1/2) = 2 ln 3
    assert _arctanh_closed_form(0.5, 0.0) == pytest.approx(2.0 * math.log(3.0), rel=1e-15, abs=0.0)
    assert _arctanh_closed_form(0.3, 0.1) == _arctanh_closed_form(-0.1, -0.3)


def test_arctanh_domain():
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            _arctanh_closed_form(bad, 0.0)
        with pytest.raises(ValueError):
            _arctanh_closed_form(0.0, bad)


_EQ6_POINTS = [
    # near the diagonal, where u - v cancels
    (0.3, 0.3 + 2e-12), (0.5, 0.5 + 1e-15), (-0.9, -0.9 + 1e-10), (0.1, 0.1 - 3e-9),
    (0.0, 5e-324), (0.7, 0.7), (-0.25, -0.25),
    # near -1 and +1, where atanh grows without bound
    (-1.0 + 2.4e-15, -1.0 + 4.6e-13), (1.0 - 1.1e-16, 1.0 - 3e-13), (1.0 - 1.1e-16, -1.0 + 1.1e-16),
    (0.999999, -0.999999), (-1.0 + 1.1e-16, -1.0 + 1.1e-16), (1.0 - 5e-12, 1.0 - 5e-12 - 1e-20),
    (0.3, -0.9999999999), (-0.6, 0.99999999),
]


@pytest.mark.parametrize("u, v", _EQ6_POINTS)
def test_arctanh_closed_form_against_mpmath(u, v):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        mu, mv = mpmath.mpf(u), mpmath.mpf(v)
        want = (2 / (1 - mu * mu) if u == v
                else 2 * (mpmath.atanh(mu) - mpmath.atanh(mv)) / (mu - mv))
        got = _arctanh_closed_form(u, v)
        assert abs(got - want) <= 1e-14 * want
    assert _arctanh_closed_form(-v, -u) == got
