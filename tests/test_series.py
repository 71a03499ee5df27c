"""Series engine tests against independent brute-force arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscigen.domains import FLOAT, POLY, RatPoly
from oscigen.errors import OracleFailureError, SingularSeriesError, WindowMismatchError
from oscigen.series import (
    MAX_WINDOW,
    Series2,
    _conv,
    dft_extract_table,
    forced_gf_value,
    param_gf_value,
    singular_gf_value,
)


# -- independent reference arithmetic on plain coefficient dicts ------------

def dict_of(s):
    return {
        (m, n): s.coeff(m, n)
        for m in range(s.max_deg_u + 1)
        for n in range(s.max_deg_v + 1)
    }


def ref_mul(a, b, mu, nv):
    out = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            m, n = m1 + m2, n1 + n2
            if m <= mu and n <= nv:
                out[m, n] = out.get((m, n), Fraction(0)) + c1 * c2
    return out


def ref_exp(x, mu, nv):
    out = {(0, 0): Fraction(1)}
    term = {(0, 0): Fraction(1)}
    for k in range(1, mu + nv + 1):
        term = ref_mul(term, x, mu, nv)
        term = {mn: c / k for mn, c in term.items()}
        for mn, c in term.items():
            out[mn] = out.get(mn, Fraction(0)) + c
    return out


def ref_pow(a, alpha, mu, nv):
    x = dict(a)
    x[0, 0] = x.get((0, 0), Fraction(0)) - 1
    out = {(0, 0): Fraction(1)}
    term = {(0, 0): Fraction(1)}
    binom = Fraction(1)
    for k in range(1, mu + nv + 1):
        term = ref_mul(term, x, mu, nv)
        binom *= Fraction(alpha - (k - 1), k)
        for mn, c in term.items():
            out[mn] = out.get(mn, Fraction(0)) + binom * c
    return out


def assert_matches(series, ref):
    got = dict_of(series)
    for mn in got:
        assert got[mn] == ref.get(mn, Fraction(0)), f"mismatch at {mn}"


# -- multiplication ----------------------------------------------------------

def test_mul_distributes_binomials():
    a = Series2.from_terms(POLY, 3, 3, {(0, 0): 1, (1, 0): 1})
    b = Series2.from_terms(POLY, 3, 3, {(0, 0): 1, (0, 1): 1})
    p = a * b
    assert p.coeff(0, 0) == 1
    assert p.coeff(1, 0) == 1
    assert p.coeff(0, 1) == 1
    assert p.coeff(1, 1) == 1
    assert p.coeff(2, 0) == 0 and p.coeff(2, 2) == 0


def test_mul_telescopes_geometric():
    K = 5
    geo = Series2.from_terms(POLY, K, K, {(k, k): 1 for k in range(K + 1)})
    fac = Series2.from_terms(POLY, K, K, {(0, 0): 1, (1, 1): -1})
    p = fac * geo
    for m in range(K + 1):
        for n in range(K + 1):
            want = 1 if m == n == 0 else 0
            assert p.coeff(m, n) == want


def test_mul_over_polynomial_domain():
    r = RatPoly((0, 1))
    a = Series2.from_terms(POLY, 3, 0, {(0, 0): 1, (1, 0): -r})
    b = Series2.from_terms(POLY, 3, 0, {(0, 0): 1, (1, 0): r})
    p = a * b
    assert p.coeff(0, 0) == RatPoly((1,))
    assert not p.coeff(1, 0)
    assert p.coeff(2, 0) == RatPoly((0, 0, -1))


def test_mul_window_mismatch_rejected():
    a = Series2.one(POLY, 2, 2)
    b = Series2.one(POLY, 3, 2)
    with pytest.raises(WindowMismatchError):
        a * b
    c = Series2.one(FLOAT, 2, 2)
    with pytest.raises(WindowMismatchError):
        a + c


# -- inverse -----------------------------------------------------------------

def test_inverse_of_one_minus_uv_is_geometric():
    inv = Series2.from_terms(POLY, 5, 5, {(0, 0): 1, (1, 1): -1}).inverse()
    for m in range(6):
        for n in range(6):
            assert inv.coeff(m, n) == (1 if m == n else 0)


def test_inverse_of_one():
    inv = Series2.one(POLY, 3, 3).inverse()
    assert dict_of(inv) == dict_of(Series2.one(POLY, 3, 3))


def test_inverse_two_plus_u_multiplies_back():
    a = Series2.from_terms(POLY, 6, 0, {(0, 0): 2, (1, 0): 1})
    inv = a.inverse()
    # multiply-back is the oracle
    assert_matches(a * inv, {(0, 0): Fraction(1)})
    # alternating halving pattern
    assert [inv.coeff(k, 0) for k in range(3)] == [
        Fraction(1, 2),
        Fraction(-1, 4),
        Fraction(1, 8),
    ]


def test_inverse_rejects_zero_constant():
    with pytest.raises(SingularSeriesError):
        Series2.from_terms(POLY, 2, 2, {(1, 0): 1}).inverse()


def test_inverse_rejects_nonconstant_unit_in_poly_domain():
    s = Series2.from_terms(POLY, 2, 2, {(0, 0): RatPoly((0, 1))})
    with pytest.raises(SingularSeriesError):
        s.inverse()


# -- exponential -------------------------------------------------------------

def test_exp_of_zero():
    e = Series2.from_terms(POLY, 3, 3, {}).exp()
    assert_matches(e, {(0, 0): Fraction(1)})


def test_exp_single_variable_over_poly_domain():
    nu = RatPoly((0, 1))
    e = Series2.from_terms(POLY, 5, 0, {(1, 0): nu}).exp()
    for k in range(6):
        want = RatPoly([0] * k + [Fraction(1, math.factorial(k))])
        assert e.coeff(k, 0) == want


def test_exp_u_plus_v_matches_reference():
    x = Series2.from_terms(POLY, 3, 3, {(1, 0): 1, (0, 1): 1})
    e = x.exp()
    assert e.coeff(1, 1) == 1  # from (u+v)^2/2
    assert_matches(e, ref_exp(dict_of(x), 3, 3))


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        Series2.one(POLY, 2, 2).exp()


# -- real powers -------------------------------------------------------------

def test_pow_binomial_row():
    r = RatPoly((0, 1))
    a = Series2.from_terms(POLY, 0, 6, {(0, 0): 1, (0, 2): -r})
    s = a.pow_real(Fraction(-1, 2))
    assert s.coeff(0, 0) == RatPoly((1,))
    assert s.coeff(0, 2) == RatPoly((0, Fraction(1, 2)))
    assert s.coeff(0, 4) == RatPoly((0, 0, Fraction(3, 8)))
    # squaring back is the independent check
    back = s * s
    assert_matches(back * a, {(0, 0): RatPoly((1,))})
    assert_matches(back, dict_of(a.inverse()))


def test_pow_of_one_is_one():
    one = Series2.one(POLY, 3, 3)
    assert dict_of(one.pow_real(Fraction(7, 3))) == dict_of(one)


def test_pow_of_squared_geometric_equals_inverse():
    base = Series2.from_terms(POLY, 5, 5, {(0, 0): 1, (1, 1): -1})
    s = (base * base).pow_real(Fraction(-1, 2))
    assert dict_of(s) == dict_of(base.inverse())


def test_pow_matches_reference_binomial_sum():
    a = Series2.from_terms(
        POLY, 4, 4,
        {(0, 0): 1, (1, 0): Fraction(1, 2), (1, 1): -1, (0, 2): Fraction(2, 3)},
    )
    for alpha in (Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-5, 2)):
        got = a.pow_real(alpha)
        assert_matches(got, ref_pow(dict_of(a), alpha, 4, 4))


def test_pow_rejects_nonunit_constant():
    with pytest.raises(ValueError):
        Series2.from_terms(POLY, 2, 2, {(0, 0): 2}).pow_real(Fraction(1, 2))
    with pytest.raises(ValueError):
        Series2.from_terms(FLOAT, 2, 2, {(0, 0): 2.0}).pow_real(0.5)


def test_pow_irrational_exponent_float_domain():
    a = Series2.from_terms(FLOAT, 0, 4, {(0, 0): 1.0, (0, 1): 1.0})
    alpha = math.sqrt(2)
    s = a.pow_real(alpha)
    binom = 1.0
    for k in range(5):
        assert s.coeff(0, k) == pytest.approx(binom, rel=1e-14, abs=0.0)
        binom *= (alpha - k) / (k + 1)
    with pytest.raises(TypeError):
        Series2.one(POLY, 2, 2).pow_real(alpha)


def test_pow_convolves_each_pair_of_rows_once(monkeypatch):
    # mu (mu + 1) / 2 products a_k * y_{m-k} plus mu products with the
    # inverse of the first row: 44 row convolutions at a u-degree of 8
    calls = []
    monkeypatch.setattr("oscigen.series._conv", lambda a, b: calls.append(1) or _conv(a, b))
    a = Series2.from_terms(FLOAT, 8, 8, {(0, 0): 1.0, (0, 1): 0.5, (1, 0): -0.3, (1, 1): 0.2})
    a.pow_real(-0.5)
    assert len(calls) == 44


# -- float and exact domains run the same code ------------------------------

_AGREE_TERMS = {
    (0, 0): 1, (1, 0): Fraction(1, 3), (1, 1): -2, (0, 2): Fraction(3, 4),
    (2, 1): Fraction(-1, 5),
}


@pytest.mark.parametrize("op", [
    pytest.param(lambda a: a * a, id="mul"),
    pytest.param(lambda a: a.inverse(), id="inverse"),
    pytest.param(
        lambda a: (a - Series2.one(a.domain, a.max_deg_u, a.max_deg_v)).exp(), id="exp"
    ),
    pytest.param(lambda a: a.pow_real(Fraction(-1, 2)), id="pow_real"),
])
def test_float_matches_exact(op):
    def run(dom, convert):
        terms = {mn: convert(c) for mn, c in _AGREE_TERMS.items()}
        return op(Series2.from_terms(dom, 4, 5, terms))

    exact = run(POLY, Fraction)
    flt = run(FLOAT, float)
    for m in range(5):
        for n in range(6):
            want = exact.coeff(m, n)
            assert type(want) is RatPoly and want.degree <= 0
            assert flt.coeff(m, n) == pytest.approx(float(want(0)), abs=1e-13)


@pytest.mark.parametrize("dom", [FLOAT, POLY], ids=["float", "poly"])
def test_constructor_checks_grid_and_freezes_rows(dom):
    row = [dom.zero] * 4
    for rows in ([row, row], [row, row, row[:3]], [row]):
        with pytest.raises(ValueError):
            Series2(dom, 2, 3, rows)
    s = Series2(dom, 2, 3, [row, row, row])
    for t in (s, s + s, s * s.one(dom, 2, 3)):
        with pytest.raises(ValueError, match="read-only"):
            t.rows[0, 0] = dom.one
        with pytest.raises(ValueError, match="read-only"):
            t.rows[1][2] = dom.one
    with pytest.raises(AttributeError):
        s.rows = None
    assert s == Series2.from_terms(dom, 2, 3, {})


# -- coefficient access ------------------------------------------------------

def test_coeff_accessor_and_range_errors():
    geo = Series2.from_terms(POLY, 3, 3, {(0, 0): 1, (1, 1): -1}).inverse()
    assert geo.coeff(3, 3) == 1
    assert geo.coeff(2, 3) == 0
    with pytest.raises(IndexError):
        geo.coeff(4, 0)
    with pytest.raises(IndexError):
        geo.coeff(0, -1)


def test_coeff_product_of_exponentials():
    nu = RatPoly((0, 1))
    eu = Series2.from_terms(POLY, 2, 2, {(1, 0): nu}).exp()
    ev = Series2.from_terms(POLY, 2, 2, {(0, 1): nu}).exp()
    assert (eu * ev).coeff(1, 1) == RatPoly((0, 0, 1))


# -- window cap --------------------------------------------------------------

def test_window_cap_from_environment(monkeypatch):
    # OSCIGEN_MAX_WINDOW is not read: the cap is the constant MAX_WINDOW
    monkeypatch.setenv("OSCIGEN_MAX_WINDOW", "8")
    with pytest.raises(ValueError, match="cap"):
        Series2.from_terms(FLOAT, MAX_WINDOW + 1, 2, {})
    assert Series2.from_terms(FLOAT, MAX_WINDOW, 0, {}).rows.shape == (MAX_WINDOW + 1, 1)


# -- contour oracle ----------------------------------------------------------

def test_dft_geometric_coefficient():
    table = dft_extract_table(lambda u, v: 1.0 / (1.0 - u * v), 3, 3, grid=32)
    assert abs(table[2, 2] - 1.0) < 1e-12
    assert abs(table[2, 3]) < 1e-12


def test_dft_vacuum_amplitude_of_driven_family():
    table = dft_extract_table(lambda u, v: forced_gf_value(u, v, 1.0), 0, 0, grid=16)
    assert abs(table[0, 0] - math.exp(-1.0)) < 1e-10


def test_dft_parity_zero_of_parametric_family():
    table = dft_extract_table(lambda u, v: param_gf_value(u, v, 0.5), 0, 1, grid=24)
    assert abs(table[0, 1]) < 1e-12


def test_dft_flags_imaginary_residue():
    with pytest.raises(OracleFailureError):
        dft_extract_table(lambda u, v: 1j / (1.0 - u * v), 1, 1, grid=16)


def test_dft_rejects_degenerate_grid():
    f = lambda u, v: 1.0 / (1.0 - u * v)
    with pytest.raises(ValueError):
        dft_extract_table(f, 5, 5, grid=4)
    with pytest.raises(ValueError, match="negative"):
        dft_extract_table(f, -1, 2, grid=16)


def test_dft_table_matches_single_extraction():
    f = lambda u, v: np.exp(u + v) / (1.0 - u * v)
    table = dft_extract_table(f, 3, 3, grid=32)
    # each coefficient on its own: the trapezoidal double contour sum
    theta = 2.0 * np.pi * np.arange(32) / 32
    z = 0.5 * np.exp(1j * theta)
    F = f(z[:, None], z[None, :])
    for m in range(4):
        for n in range(4):
            phase = np.exp(-1j * (m * theta[:, None] + n * theta[None, :]))
            single = np.sum(F * phase) / (32 * 32 * 0.5 ** (m + n))
            assert table[m, n] == pytest.approx(single.real, abs=1e-13)


def test_dft_evaluator_error_propagates_without_pointwise_retry():
    calls = []

    def vectorized_but_broken(u, v):
        calls.append(np.shape(u))
        raise ZeroDivisionError("pole on the contour")

    with pytest.raises(ZeroDivisionError):
        dft_extract_table(vectorized_but_broken, 2, 2, grid=8)
    assert calls == [(8, 8)]


def full_fft2_table(f, max_m, max_n, grid):
    """The oracle as one 2-D FFT over the whole torus, the reference the
    strip-wise evaluation must reproduce to rounding."""
    ua = 0.5 * np.exp(1j * (2.0 * np.pi * np.arange(grid) / grid))
    U, V = np.meshgrid(ua, ua, indexing="ij")
    C = np.fft.fft2(np.asarray(f(U, V), dtype=complex)) / (grid * grid)
    powers = 0.5 ** (np.arange(max_m + 1)[:, None] + np.arange(max_n + 1)[None, :])
    return (C[: max_m + 1, : max_n + 1] / powers).real


@pytest.mark.parametrize("grid, max_m, max_n", [(256, 10, 10), (40, 7, 3), (24, 2, 9)])
def test_dft_strips_match_full_fft2(grid, max_m, max_n):
    # 40 and 24 rows leave a partial last strip
    for f in (lambda u, v: forced_gf_value(u, v, 2.37),
              lambda u, v: singular_gf_value(u, v, 0.61, -1.3)):
        table = dft_extract_table(f, max_m, max_n, grid=grid)
        assert table.shape == (max_m + 1, max_n + 1)
        assert np.max(np.abs(table - full_fft2_table(f, max_m, max_n, grid))) <= 1e-13


def test_dft_peak_memory_is_a_strip_not_the_torus():
    import tracemalloc

    f = lambda u, v: forced_gf_value(u, v, 2.37)
    dft_extract_table(f, 10, 10, grid=256)  # first-use allocations of numpy's FFT
    tracemalloc.start()
    try:
        dft_extract_table(f, 10, 10, grid=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 256 x 256 complex grid alone is 1 MiB
    assert peak <= 1 << 20


def test_dft_flags_imaginary_coefficient_in_a_later_strip():
    # an imaginary u^9 v^2 term, 1e-6 in size: every strip sees it
    f = lambda u, v: 1.0 / (1.0 - u * v) + 1e-6j * u**9 * v**2
    with pytest.raises(OracleFailureError, match="imaginary residue"):
        dft_extract_table(f, 10, 10, grid=256)
    # outside the requested block it is not looked at
    assert dft_extract_table(f, 8, 10, grid=256)[8, 8] == pytest.approx(1.0, abs=1e-12)


# -- algebraic property tests ------------------------------------------------

small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def series_strategy(mu=2, nv=2):
    keys = [(m, n) for m in range(mu + 1) for n in range(nv + 1)]
    return st.lists(small_fraction, min_size=len(keys), max_size=len(keys)).map(
        lambda cs: Series2.from_terms(POLY, mu, nv, dict(zip(keys, cs)))
    )


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert dict_of(a * b) == dict_of(b * a)
    assert dict_of((a * b) * c) == dict_of(a * (b * c))
    assert dict_of((a + b) * c) == dict_of(a * c + b * c)
    assert_matches(a * b, ref_mul(dict_of(a), dict_of(b), 2, 2))


@settings(max_examples=30, deadline=None)
@given(series_strategy())
def test_inverse_multiplies_to_one(a):
    if a.coeff(0, 0) == 0:
        a = a + Series2.one(POLY, 2, 2)
    assert_matches(a * a.inverse(), {(0, 0): Fraction(1)})


@settings(max_examples=30, deadline=None)
@given(series_strategy())
def test_exp_of_negation_inverts(a):
    x = a - Series2.from_terms(POLY, 2, 2, {(0, 0): a.coeff(0, 0)})
    assert_matches(x.exp() * (-x).exp(), {(0, 0): Fraction(1)})
    assert_matches(x.exp(), ref_exp(dict_of(x), 2, 2))


@settings(max_examples=30, deadline=None)
@given(series_strategy())
def test_square_root_squares_back(a):
    unit = a - Series2.from_terms(
        POLY, 2, 2, {(0, 0): a.coeff(0, 0) - 1}
    )
    root = unit.pow_real(Fraction(1, 2))
    assert dict_of(root * root) == dict_of(unit)


def test_series_is_unhashable_as_equality_is_by_value():
    a, b = Series2.one(FLOAT, 2, 2), Series2.one(FLOAT, 2, 2)
    assert a == b
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_ratpoly_hash_agrees_with_equality():
    assert {3: 1}.get(RatPoly((3,))) == 1
    assert {Fraction(1, 2): 1}.get(RatPoly((Fraction(1, 2),))) == 1
    assert hash(RatPoly()) == hash(0) and RatPoly() == 0
    assert len({RatPoly((0, 1)), RatPoly((0, 1)), RatPoly((1,)), 1}) == 2
