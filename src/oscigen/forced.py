"""Forced constant-frequency oscillator.

The generating function of the transition probabilities is

    G(u, v | nu) = (1 - uv)^{-1} exp(-nu (1-u)(1-v) / (1-uv)),

with nu the dimensionless excitation parameter.  Every w_mn(nu) is e^{-nu}
times a polynomial p_mn(nu) with rational coefficients, the squared
Laguerre amplitude (a!/b!) nu^d [L_a^(d)(nu)]^2.  Numeric tables come from
the amplitude kernel of :mod:`oscigen.amplitude`, and exact-mode tables
carry the polynomials, which :func:`oscigen.amplitude.forced_poly` builds in
integer arithmetic.  That polynomial form makes the moment integrals over
nu exact term by term (integral of nu^k e^{-nu} is k!).

The series engine is the independent route ``verify`` checks both against:
with e^{-nu} factored out,

    G = e^{-nu} (1-uv)^{-1} exp(nu (u + v - 2uv) / (1-uv)),

one builder expands the remaining series with polynomial coefficients
(``_exact_grid``) or, at a fixed nu, float ones (``_float_grid``, which
multiplies e^{-nu} back in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .amplitude import forced_poly, forced_table, poly_grid
from .domains import FLOAT, POLY, RatPoly
from .errors import SingularEvaluationError
from .probtable import ProbTable, SymbolicTable, make_table
from .quadrature import gauss_laguerre
from .series import Series2

__all__ = [
    "SumRuleRecord",
    "forced_gf_value",
    "forced_prob_table",
    "forced_sum_rules",
    "forced_sk",
]


def _nu_value(nu) -> float:
    """The excitation parameter as a float, finite and nu >= 0."""
    nu = float(nu)
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be nonnegative and finite, got {nu}")
    return nu


def forced_gf_value(u, v, nu) -> complex:
    """Evaluate G(u, v | nu); accepts scalars or numpy arrays.

    The only singularity is the simple pole at uv = 1.
    """
    nu_val = _nu_value(nu)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    w = 1.0 - u * v
    if np.any(np.abs(w) < 1e-13):
        raise SingularEvaluationError("uv = 1 pole of the generating function")
    out = np.exp(-nu_val * (1.0 - u) * (1.0 - v) / w) / w
    return complex(out) if out.ndim == 0 else out


def _series(dom, nu, max_m: int, max_n: int) -> Series2:
    """Series of e^{nu} G over ``dom``; ``nu`` is a float or the polynomial
    variable."""
    inv = Series2.from_terms(dom, max_m, max_n, {(0, 0): 1, (1, 1): -1}).inverse()
    lin = Series2.from_terms(dom, max_m, max_n, {(1, 0): 1, (0, 1): 1, (1, 1): -2})
    return inv * (lin * inv).scale(nu).exp()


def _exact_grid(max_m: int, max_n: int) -> Series2:
    """The p_mn polynomials: the cross-check of :func:`forced_poly`."""
    return _series(POLY, RatPoly((0, 1)), max_m, max_n)


def _float_grid(nu_val: float, max_m: int, max_n: int) -> np.ndarray:
    """w_mn at a fixed nu from the series."""
    return math.exp(-nu_val) * _series(FLOAT, nu_val, max_m, max_n).rows


def forced_prob_table(nu, size: int = 16, mode: str = "float") -> ProbTable:
    """Table of w_mn(nu) for 0 <= m, n < size.

    In exact mode the symbolic polynomials (the e^{nu}-free part of each
    entry) ride along with the numeric values.
    """
    nu_val = _nu_value(nu)
    if size < 1:
        raise ValueError("size must be positive")
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    values = forced_table(nu_val, size, size)
    symbolic = None
    if mode == "exact":
        symbolic = SymbolicTable("exp(-nu)", "nu", poly_grid(forced_poly, size))
    return make_table("forced", {"nu": nu_val}, mode, values, symbolic)


@dataclass(frozen=True)
class SumRuleRecord:
    """Moments of w_mn over nu: exact rational values plus the
    Gauss-Laguerre cross-check."""

    norm: Fraction
    mean: Fraction
    variance: Fraction
    norm_quad: float
    mean_quad: float
    variance_quad: float


def forced_sum_rules(m: int, n: int) -> SumRuleRecord:
    """Zeroth, first and central second moment of w_mn(nu) over [0, inf).

    Exact route: integrate the symbolic e^{-nu} * polynomial form term by
    term.  Numeric route: Gauss-Laguerre of matching degree.
    """
    poly = forced_poly(m, n)
    fact = [Fraction(math.factorial(k)) for k in range(poly.degree + 3)]
    norm = sum((c * fact[k] for k, c in enumerate(poly.coeffs)), Fraction(0))
    mean = sum((c * fact[k + 1] for k, c in enumerate(poly.coeffs)), Fraction(0))
    second = sum((c * fact[k + 2] for k, c in enumerate(poly.coeffs)), Fraction(0))
    mu = mean / norm
    variance = second - 2 * mu * mean + mu * mu * norm

    rule = gauss_laguerre((m + n) // 2 + 4)
    # rational Horner at the exact binary node value: the alternating-sign
    # polynomials are too ill-conditioned for float evaluation at large nodes
    px = np.array([float(poly(Fraction(x))) for x in rule.nodes])
    norm_q = float(np.dot(rule.weights, px))
    mean_q = float(np.dot(rule.weights, rule.nodes * px))
    mu_q = mean_q / norm_q
    var_q = float(np.dot(rule.weights, (rule.nodes - mu_q) ** 2 * px))
    return SumRuleRecord(norm, mean, variance, norm_q, mean_q, var_q)


def forced_sk(k: int, nu) -> float:
    """Anti-diagonal sum S_k(nu) = sum_{m+n=k} w_mn(nu).

    Closed form: e^{-nu} p_k(nu) with p_k the alternating partial sum of
    Laguerre polynomials at 2 nu.  Past nu ~ 705 the polynomials overflow
    the double range before e^{-nu} scales them down, and that raises
    ValueError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    from numpy.polynomial.laguerre import lagvander

    nu_val = _nu_value(nu)
    # L_0..L_k(2 nu) by the forward recurrence, summed in order: Clenshaw
    # (lagval) drifts by ~70 ulp near nu = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            ls = lagvander(2.0 * nu_val, k)[0]
            ls[1::2] *= -1.0
            total = float(np.cumsum(ls)[-1])
    except FloatingPointError:
        raise ValueError(
            f"Laguerre polynomials at 2 nu overflow the double range at nu = {nu_val:g}, k = {k}"
        ) from None
    return math.exp(-nu_val) * total
