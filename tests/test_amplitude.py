import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oscigen import errors, parametric, singular
from oscigen.amplitude import (
    MAX_EXACT_SIZE,
    MAX_WINDOW,
    forced_poly,
    forced_table,
    param_poly,
    param_table,
    poly_grid,
    singular_table,
)
from oscigen.errors import TableInvariantError
from oscigen.forced import forced_prob_table, forced_sum_rules
from oscigen.parametric import param_prob_table, param_row_moments, param_weighted_integrals
from oscigen.probtable import FAMILIES, make_table
from oscigen.quadrature import gauss_jacobi_half, gauss_laguerre, gauss_legendre
from oscigen.series import Series2, exact_grid, float_grid
from oscigen.singular import ground_row, singular_prob_table

M = 20
RHOS = (0.0, 1e-6, 0.1, 0.5, 0.9)
JS = (-0.25, -0.5, -0.75, -0.6, -1.3, -3.0, -10.0)


def _exact_values(table, x, prefactor):
    """Exact-mode polynomials evaluated in rationals, rounded once."""
    return prefactor * np.array(
        [[float(p(Fraction(x))) for p in row] for row in table.symbolic]
    )


# -- kernel vs series engine -------------------------------------------------

def test_forced_kernel_matches_series():
    # nu = 10 is left to the rational route below: the float series factors
    # out e^nu and loses about 1e-10 there
    for nu in (0.0, 1e-6, 0.3, 3.0):
        ser = float_grid("forced", (nu,), M - 1, M - 1)
        assert np.max(np.abs(forced_table(nu, M, M) - ser)) <= 1e-13


def test_singular_and_parametric_kernels_match_series():
    for rho in RHOS:
        ser = float_grid("parametric", (rho,), M - 1, M - 1)
        assert np.max(np.abs(param_table(rho, M, M) - ser)) <= 1e-13
        for j in JS:
            ser = float_grid("singular", (rho, j), M - 1, M - 1)
            assert np.max(np.abs(singular_table(rho, j, M, M) - ser)) <= 1e-13


def test_asymmetric_windows_are_slices_of_the_square_table():
    full = param_table(0.4, 40, 40)
    assert np.array_equal(param_table(0.4, 5, 40), full[:5])
    assert np.array_equal(param_table(0.4, 40, 7), full[:, :7])
    full = singular_table(0.3, -1.3, 30, 30)
    assert np.array_equal(singular_table(0.3, -1.3, 3, 30), full[:3])


# -- exact polynomials -------------------------------------------------------

def test_closed_form_polynomials_equal_the_series_ones():
    for grid, poly, size in (
        (exact_grid("forced", 15, 15), forced_poly, 16),
        (exact_grid("parametric", 23, 23), param_poly, 24),
    ):
        closed = poly_grid(poly, size)
        for m in range(size):
            for n in range(size):
                assert closed[m][n].coeffs == grid.coeff(m, n).coeffs, (poly, m, n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**300), min_size=1, max_size=40))
def test_alternating_square_is_the_signed_convolution(mags):
    from oscigen.amplitude import _alternating_square

    signed = [(-1) ** i * c for i, c in enumerate(mags)]
    want = [sum(signed[i] * signed[k - i] for i in range(len(mags)) if 0 <= k - i < len(mags))
            for k in range(2 * len(mags) - 1)]
    assert _alternating_square(mags) == want


def test_exact_paths_build_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact series built")

    monkeypatch.setattr(Series2, "exp", refuse)
    monkeypatch.setattr(Series2, "pow_real", refuse)
    assert forced_prob_table(1.5, size=20, mode="exact").symbolic[19][3] == forced_poly(3, 19)
    assert param_prob_table(0.4, size=20, mode="exact").symbolic[5][17] == param_poly(17, 5)
    r = forced_sum_rules(6, 9)
    assert (r.norm, r.mean, r.variance) == (1, 16, 124)
    assert param_weighted_integrals(4, 10)[0] == Fraction(2, 15)


def test_gauss_rules_are_cached_and_read_only():
    for build, n in ((gauss_legendre, 12), (gauss_laguerre, 9), (gauss_jacobi_half, 64)):
        rule = build(n)
        assert build(n) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.5
        with pytest.raises(ValueError):
            rule.weights[0] = 0.5


def test_row_moments_at_high_rho():
    moments = param_row_moments(3, 0.8)
    assert moments[1] == pytest.approx(parametric.param_mean_n(3, 0.8), rel=1e-10, abs=0.0)
    rho = 0.97
    mean = rho / (1 - rho)
    want = [1.0, mean, 2 * rho / (1 - rho) ** 2 + mean**2]
    assert param_row_moments(0, rho) == pytest.approx(want, rel=1e-12, abs=0.0)


# -- vacuum row --------------------------------------------------------------

def _negative_binomial_row(rho, k, size):
    """w_0n = Gamma(n+k) / (n! Gamma(k)) rho^n (1-rho)^k as a running product
    of the ratios rho (n+k) / (n+1), from (1-rho)^k with the rounding of
    1 - rho put back."""
    base, row = 1.0 - rho, []
    term = base**k * math.exp(k * math.log1p((1.0 - base - rho) / base))
    for n in range(size):
        row.append(term)
        term *= rho * (n + k) / (n + 1)
    return row


def test_vacuum_rows_are_the_closed_forms_bit_for_bit():
    for nu in (0.3, 1.0, 3.0, 12.0):
        row = forced_prob_table(nu, size=40).values[0]
        term = math.exp(-nu)
        for n in range(40):
            assert row[n] == term
            term *= nu / (n + 1)
    for rho in (0.1, 0.5, 0.9):
        for j in JS:
            row = singular_prob_table(rho, j, size=30).values[0]
            assert list(row) == _negative_binomial_row(rho, -2.0 * j, 30)
        par = param_prob_table(rho, size=30).values
        assert list(par[0, 0::2]) == _negative_binomial_row(rho, 0.5, 15)
        assert list(par[1, 1::2]) == _negative_binomial_row(rho, 1.5, 15)


# -- large tables and former defects -------------------------------------------

def test_each_family_validates_at_1024():
    forced_prob_table(25.0, size=1024)
    param_prob_table(0.7, size=1024)
    singular_prob_table(0.3, -2.5, size=1024)


def test_large_nu_tables_validate():
    for nu, size in ((12.0, 16), (20.0, 48), (40.0, 64), (50.0, 256)):
        table = forced_prob_table(nu, size=size)
        assert table.values.min() >= 0.0
        assert np.array_equal(table.values, table.values.T)


def test_singular_table_that_failed_validation():
    table = singular_prob_table(0.036862079557348715, -2.5719451095034307, size=256)
    assert np.all(1.0 - table.values[:128].sum(axis=1) < 1e-12)


def test_offsets_below_the_double_range_are_carried():
    # the vacuum amplitudes of offsets d >~ 470 underflow at rho = 0.05, but
    # rows near m = 1000 reach them; every row below is complete here
    w = singular_table(0.05, -0.25, 1001, 1700)
    assert np.max(np.abs(1.0 - w.sum(axis=1))) < 1e-12
    assert w[1000, 1500] == pytest.approx(0.0007698034016933339, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rows, cols", [
    (1, 1), (2, 2), (64, 64), (65, 65), (66, 3), (5, 130), (300, 300),
])
def test_blocked_steps_equal_one_degree_at_a_time(monkeypatch, rows, cols):
    # the step coefficients of 64 degrees at once are the per-degree ones
    # bit for bit, across block edges, at k = 1 (j = -1/2) where the a = 1
    # formula is 0/0, and on offsets carried scaled (rho = 0.05)
    import oscigen.amplitude

    def tables():
        return [
            forced_table(3.7, rows, cols),
            param_table(0.61, rows, cols),
            singular_table(0.61, -1.3, rows, cols),
            singular_table(0.3, -0.5, rows, cols),
            singular_table(0.05, -0.25, rows, 4 * cols),
        ]

    blocked = tables()
    monkeypatch.setattr(oscigen.amplitude, "_DEGREES", 1)
    for got, want in zip(blocked, tables()):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_exact_forced_values_match_rationals():
    table = forced_prob_table(10.0, size=16, mode="exact")
    exact = _exact_values(table, 10.0, math.exp(-10.0))
    assert np.max(np.abs(table.values - exact)) <= 1e-13


def test_exact_parametric_values_at_high_rho():
    for rho in (0.985, 0.99):
        table = param_prob_table(rho, size=24, mode="exact")
        exact = _exact_values(table, rho, math.sqrt(1.0 - rho))
        assert table.values.min() >= 0.0
        assert np.max(np.abs(table.values - exact)) <= 1e-13


# -- window cap and typed failures ---------------------------------------------

def test_kernel_enforces_the_window_cap():
    # the cap is checked before anything is allocated
    assert forced_table(1.0, MAX_WINDOW + 1, 1).shape == (MAX_WINDOW + 1, 1)
    for build in (
        lambda: forced_table(1.0, MAX_WINDOW + 2, MAX_WINDOW + 2),
        lambda: param_table(0.5, 1, MAX_WINDOW + 2),
        lambda: singular_table(0.5, -0.6, MAX_WINDOW + 2, 2),
    ):
        with pytest.raises(ValueError, match="cap"):
            build()


def test_exact_tables_enforce_the_size_cap():
    for build in (forced_prob_table, param_prob_table):
        with pytest.raises(ValueError, match="capped at size 128"):
            build(0.5, size=MAX_EXACT_SIZE + 1, mode="exact")


def test_invariant_failures_are_typed(monkeypatch):
    def kernel(values):
        return lambda nu, rows, cols: np.array(values)

    for values, match in (([[0.5, 0.2], [0.1, 0.5]], "asymmetry"), ([[-0.1]], "negative"),
                          ([[math.nan]], "NaN")):
        monkeypatch.setitem(FAMILIES, "forced",
                            dataclasses.replace(FAMILIES["forced"], kernel=kernel(values)))
        with pytest.raises(TableInvariantError, match=match):
            make_table("forced", {"nu": 1.0}, len(values), "float")


# -- certified closed forms --------------------------------------------------

def _closed_form_mp(mpmath, family, m, n, nu, rho, j):
    """w_mn from the Laguerre (forced) or Jacobi (singular, parametric)
    closed form at the current mpmath precision."""
    if family == "parametric":
        if (m - n) % 2:
            return mpmath.mpf(0)
        family, m, n, j = "singular", m // 2, n // 2, -0.25 - 0.5 * (m % 2)
    a, b = min(m, n), max(m, n)
    d = b - a
    if family == "forced":
        x = mpmath.mpf(nu)
        return (
            mpmath.exp(-x) * mpmath.factorial(a) / mpmath.factorial(b)
            * x**d * mpmath.laguerre(a, d, x) ** 2
        )
    r, k = mpmath.mpf(rho), -2 * mpmath.mpf(j)
    return (
        mpmath.factorial(a) * mpmath.gamma(b + k)
        / (mpmath.factorial(b) * mpmath.gamma(a + k))
        * r**d * (1 - r) ** k * mpmath.jacobi(a, d, k - 1, 1 - 2 * r) ** 2
    )


def test_kernel_against_mpmath_closed_forms_at_256():
    mpmath = pytest.importorskip("mpmath")
    size = 256
    spots = [(0, 255), (17, 17), (100, 200), (128, 131), (200, 255), (255, 255)]
    cases = [(forced_table(nu, size, size), "forced", nu, 0.0, 0.0)
             for nu in (1e-6, 2.5, 20.0, 50.0)]
    cases += [
        (singular_table(rho, j, size, size), "singular", 0.0, rho, j)
        for rho, j in ((1e-6, -0.25), (0.3, -0.6), (0.9, -3.0), (0.99, -10.0))
    ]
    with mpmath.workdps(40):
        for w, family, nu, rho, j in cases:
            peak = divmod(int(np.argmax(w[100:, 100:])), size - 100)
            for m, n in spots + [(peak[0] + 100, peak[1] + 100)]:
                want = float(_closed_form_mp(mpmath, family, m, n, nu, rho, j))
                assert abs(w[m, n] - want) <= 1e-14, (family, nu, rho, j, m, n)


def _amplitude_sign(mpmath, family, a, d, nu, rho, j):
    """Sign of L_a^(d)(nu) or P_a^(d,k-1)(1-2rho); 0 at an exact root, where
    mpmath's sum does not converge."""
    try:
        if family == "forced":
            return mpmath.sign(mpmath.laguerre(a, d, nu))
        return mpmath.sign(mpmath.jacobi(a, d, -2 * mpmath.mpf(j) - 1, 1 - 2 * mpmath.mpf(rho)))
    except ValueError:
        return 0


@pytest.mark.parametrize("family, nu, rho, j, rows, cols", [
    # e^-nu, or (1 - rho)^k with k = -2j, underflows
    pytest.param("forced", 800.0, 0.0, 0.0, 4, 1024, id="forced-nu-800"),
    pytest.param("forced", 1500.0, 0.0, 0.0, 4, 2048, id="forced-nu-1500"),
    pytest.param("singular", 0.0, 0.5, -1000.0, 3, 4097, id="singular-large-k"),
    pytest.param("singular", 0.0, 0.9, -400.0, 3, 4097, id="singular-large-k-rho-0.9"),
    # 1 - rho rounds
    pytest.param("singular", 0.0, 3e-10, -1e9, 4, 4, id="singular-tiny-rho"),
    pytest.param("singular", 0.0, 1e-17, -1e6, 4, 4, id="singular-rho-1e-17"),
    pytest.param("singular", 0.0, 1e-17, singular.MIN_J, 4, 4, id="singular-min-j"),
    # k << 1
    pytest.param("singular", 0.0, 0.9, -1e-8, 4, 4, id="singular-tiny-k"),
    pytest.param("singular", 0.0, 0.3, -1e-300, 3, 3, id="singular-k-2e-300"),
])
def test_edge_points_match_mpmath_closed_forms(family, nu, rho, j, rows, cols):
    """Tables past the tested box against the closed forms in mpmath, to
    1e-12 relative, on every row and on about 130 sampled columns; no row
    is all zeros.  An entry within three offsets of a root of its
    polynomial is skipped, since the relative error grows as the entry
    nears the root (2.5e-12 next to one at forced nu = 1500), and so is an
    entry below the double range; at least half the samples are checked."""
    mpmath = pytest.importorskip("mpmath")
    if family == "forced":
        w = forced_table(nu, rows, cols)
    else:
        w = singular_table(rho, j, rows, cols)
    assert w.any(axis=1).all()
    if j == -1e-300:
        assert w[0, 1] == pytest.approx(0.3 * 2e-300, rel=1e-15, abs=0.0)  # rho k
    columns, checked = range(0, cols, max(cols // 128, 1)), 0
    with mpmath.workdps(40):
        for m in range(rows):
            for n in columns:
                a, d = min(m, n), abs(m - n)
                signs = {_amplitude_sign(mpmath, family, a, e, nu, rho, j)
                         for e in (max(d - 3, 0), d, d + 3)}
                if len(signs) > 1 or 0 in signs:
                    continue
                want = _closed_form_mp(mpmath, family, m, n, nu, rho, j)
                if want < 1e-290:  # below the double range
                    continue
                assert abs(w[m, n] - want) <= 1e-12 * want, (m, n, float(want))
                checked += 1
    assert 2 * checked >= rows * len(columns)


# the errors a table outside the tested box may raise: every oscigen error
# except TableInvariantError, which make_table raises for a broken table
TYPED_ERRORS = tuple(
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
    and cls is not TableInvariantError
)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(("forced", "parametric", "singular")),
    nu=st.floats(0.0, 50.0),
    rho=st.floats(0.0, 0.999),
    j=st.floats(-10.0, -0.25),
    size=st.integers(1, 512),
)
def test_supported_domain_validates_or_fails_typed(family, nu, rho, j, size):
    """Every point of the stress grid returns a table, which make_table has
    validated; only outside the README's tested box (rho > 0.99) may a table
    raise one of oscigen's own errors instead.  `--hypothesis-show-statistics`
    reports how many examples raised which error."""
    try:
        if family == "forced":
            table = forced_prob_table(nu, size)
        elif family == "parametric":
            table = param_prob_table(rho, size)
        else:
            table = singular_prob_table(rho, j, size)
    except TYPED_ERRORS as exc:
        event(f"{family} raised {type(exc).__name__}")
        assert family != "forced" and rho > 0.99, exc
        return
    event(f"{family} validated")
    assert table.size == (size, size)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(("forced", "parametric", "singular")),
    nu=st.floats(0.0, 50.0),
    rho=st.floats(0.0, 0.99),
    j=st.floats(-10.0, -0.25),
    size=st.integers(1, 512),
    data=st.data(),
)
def test_supported_domain_matches_mpmath_closed_forms(family, nu, rho, j, size, data):
    """Sampled entries of stress-grid tables inside the tested box against
    the closed forms in mpmath, each certified by a second evaluation 30
    digits more precise: two uniform draws and the peak of a drawn row."""
    mpmath = pytest.importorskip("mpmath")
    if family == "forced":
        w = forced_prob_table(nu, size).values
    elif family == "parametric":
        w = param_prob_table(rho, size).values
    else:
        w = singular_prob_table(rho, j, size).values
    index = st.integers(0, size - 1)
    spots = [(data.draw(index), data.draw(index)) for _ in range(2)]
    row = data.draw(index)
    spots.append((row, int(np.argmax(w[row]))))
    for m, n in spots:
        with mpmath.workdps(40):
            want = _closed_form_mp(mpmath, family, m, n, nu, rho, j)
        with mpmath.workdps(70):
            sure = _closed_form_mp(mpmath, family, m, n, nu, rho, j)
        assert abs(want - sure) <= 1e-25, (family, m, n)
        assert abs(w[m, n] - float(sure)) <= 1e-10, (family, m, n, nu, rho, j)
