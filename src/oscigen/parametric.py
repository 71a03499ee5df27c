"""Variable-frequency oscillator (no external force).

Generating function of the transition probabilities:

    G(u, v | rho) = sqrt((1 - rho) / ((1 - uv)^2 - rho (u - v)^2)),

with 0 <= rho <= 1 the excitation parameter.  Transitions connect only
states of equal parity, so w_mn vanishes for odd m + n.  Factoring out
sqrt(1 - rho), every entry has the form

    w_mn(rho) = sqrt(1 - rho) * q_mn(rho),

where q_mn is a polynomial with rational coefficients, divisible by
rho^{|m-n|/2}.  The exact-mode table carries those polynomials, which turns
the weighted integrals over rho into finite Beta-integral sums.  Numeric
tables come from the Jacobi amplitude kernel of :mod:`oscigen.amplitude`,
and the polynomials from the same closed form in integer arithmetic
(:func:`oscigen.amplitude.param_poly`).  The series engine is the
independent route ``verify`` checks both against: one builder expands
G / sqrt(1 - rho) over ``POLY`` (``_exact_grid``) or at a fixed rho
(``_float_grid``, which multiplies sqrt(1 - rho) back in).  The row
moments sum_n n^p w_mn are series coefficients of G(u, e^s), so no table
is summed or truncated for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .amplitude import param_poly, param_table, poly_grid
from .domains import FLOAT, POLY, RatPoly
from .errors import SingularEvaluationError
from .probtable import ProbTable, SymbolicTable, make_table
from .quadrature import gauss_jacobi_half, gauss_legendre
from .series import Series2

__all__ = [
    "param_gf_value",
    "param_prob_table",
    "param_identity_eq6",
    "param_weighted_integrals",
    "param_jnn",
    "param_j_offdiag",
    "param_sk",
    "param_mean_n",
    "param_dispersion",
    "param_row_moments",
]


def _rho_value(rho, open_top: bool = False) -> float:
    """The excitation parameter as a float in [0, 1], or in [0, 1) with
    ``open_top``."""
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if open_top and rho == 1.0:
        raise ValueError("rho = 1 excluded here (divergent quantity)")
    return rho


def _checked_sqrt(z: np.ndarray, what: str) -> np.ndarray:
    """Principal square root after verifying the argument stays off the
    branch cut (the nonpositive real axis)."""
    z = np.asarray(z, dtype=complex)
    on_cut = (z.real <= 0.0) & (np.abs(z.imag) <= 1e-13 * (np.abs(z) + 1.0))
    if np.any(on_cut):
        raise SingularEvaluationError(f"{what} touched the branch cut")
    return np.sqrt(z)


def param_gf_value(u, v, rho) -> complex:
    """Evaluate G(u, v | rho) on the principal branch (value +1 at the
    origin for rho = 0)."""
    rho_val = _rho_value(rho)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    den = (1.0 - u * v) ** 2 - rho_val * (u - v) ** 2
    out = math.sqrt(1.0 - rho_val) / _checked_sqrt(den, "parametric denominator")
    return complex(out) if out.ndim == 0 else out


# -- series extraction -------------------------------------------------------

def _series(dom, rho, max_m: int, max_n: int) -> Series2:
    """G / sqrt(1 - rho) = ((1-uv)^2 - rho (u-v)^2)^{-1/2} over ``dom``;
    ``rho`` is a float or the polynomial variable."""
    terms = {(0, 0): 1, (1, 1): 2 * rho - 2, (2, 2): 1, (2, 0): -rho, (0, 2): -rho}
    return Series2.from_terms(dom, max_m, max_n, terms).pow_real(Fraction(-1, 2))


def _exact_grid(max_m: int, max_n: int) -> Series2:
    """The q_mn polynomials: the cross-check of :func:`param_poly`."""
    return _series(POLY, RatPoly((0, 1)), max_m, max_n)


def _float_grid(rho_val: float, max_m: int, max_n: int) -> np.ndarray:
    """w_mn at a fixed rho from the series."""
    return math.sqrt(1.0 - rho_val) * _series(FLOAT, rho_val, max_m, max_n).rows


def param_prob_table(rho, size: int = 16, mode: str = "float") -> ProbTable:
    """Table of w_mn(rho); exact mode carries the q_mn polynomials."""
    rho_val = _rho_value(rho)
    if size < 1:
        raise ValueError("size must be positive")
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    values = param_table(rho_val, size, size)
    symbolic = None
    if mode == "exact":
        symbolic = SymbolicTable("sqrt(1-rho)", "rho", poly_grid(param_poly, size))
    return make_table("parametric", {"rho": rho_val}, mode, values, symbolic)


# -- closed-form identities --------------------------------------------------

@dataclass(frozen=True)
class Eq6Record:
    lhs: float
    rhs: float
    residual: float


def param_identity_eq6(u: float, v: float) -> Eq6Record:
    """Integral of G(u, v | rho)/(1 - rho) over rho in [0, 1] against its
    closed form 2 (arctanh u - arctanh v) / (u - v).

    The integrand equals (1-rho)^{-1/2} / sqrt((1-uv)^2 - rho (u-v)^2), so
    the 64-node Gauss-Jacobi rule handles the endpoint exactly.  At u = v
    the right side degenerates to the analytic limit 2 / (1 - u^2).
    """
    if not (-1.0 < u < 1.0 and -1.0 < v < 1.0):
        raise ValueError("u, v must lie in (-1, 1)")
    rule = gauss_jacobi_half(64)
    den = (1.0 - u * v) ** 2 - rule.nodes * (u - v) ** 2
    lhs = float(np.dot(rule.weights, 1.0 / np.sqrt(den)))
    if abs(u - v) < 1e-12:
        rhs = 2.0 / (1.0 - u * u)
    else:
        rhs = 2.0 * (math.atanh(u) - math.atanh(v)) / (u - v)
    return Eq6Record(lhs, rhs, abs(lhs - rhs))


def _beta_moments(a: Fraction, kmax: int) -> list[Fraction]:
    """Exact moments of (1-rho)^a: the integrals of rho^k (1-rho)^a over
    [0, 1] for k <= kmax, from 1/(a+1) by the ratio k/(k+a+1)."""
    out = [1 / (a + 1)]
    for k in range(1, kmax + 1):
        out.append(out[-1] * k / (k + a + 1))
    return out


@dataclass(frozen=True)
class WeightedIntegralRecord:
    """Both weighted integrals of one entry, their quadrature confirmations
    and the closed-form values they are usually quoted against.

    The first identity holds and is asserted elsewhere; the second is
    reported only (the computed value and the quoted formula disagree, see
    the verifier's note)."""

    first: Fraction
    first_quad: float
    expected_first: Fraction
    second: Fraction | None
    second_quad: float | None
    expected_second: Fraction | None


def param_weighted_integrals(m: int, n: int) -> WeightedIntegralRecord:
    """Integrals of w_mn/(1-rho) and w_mn/(rho sqrt(1-rho)) over [0, 1].

    Both reduce to exact finite sums through the polynomial form of w_mn;
    quadrature confirmations ride along.  The second integral is undefined
    for m = n (its fields come back None)."""
    poly = param_poly(m, n)
    b1 = _beta_moments(Fraction(-1, 2), max(poly.degree, 0))
    first = sum((c * b1[k] for k, c in enumerate(poly.coeffs)), Fraction(0))
    expected_first = Fraction(1 + (-1) ** (m + n), m + n + 1)

    rule = gauss_jacobi_half((m + n) // 2 + 2)
    qvals = np.array([poly(float(x)) for x in rule.nodes])
    first_quad = float(np.dot(rule.weights, qvals))

    if m == n:
        return WeightedIntegralRecord(first, first_quad, expected_first, None, None, None)

    if (m + n) % 2 == 0:
        reduced = poly.shift_down(1)
    else:
        reduced = poly  # zero polynomial
    second = sum(
        (c * Fraction(1, k + 1) for k, c in enumerate(reduced.coeffs)), Fraction(0)
    )
    lrule = gauss_legendre(max((m + n) // 2 + 1, 2))
    pvals = np.array([reduced(float(x)) for x in lrule.nodes])
    second_quad = float(np.dot(lrule.weights, pvals))
    expected_second = Fraction(1 + (-1) ** (m + n), abs(m - n))
    return WeightedIntegralRecord(
        first, first_quad, expected_first, second, second_quad, expected_second
    )


@dataclass(frozen=True)
class JnnRecord:
    closed_form: Fraction
    symbolic: Fraction
    quadrature: float


def param_jnn(n: int) -> JnnRecord:
    """Plain integral of the diagonal entry w_nn over rho in [0, 1].

    Closed form (1/(2n+1)) [1 + 1/((2n+3)(2n-1))]; the symbolic route sums
    exact sqrt-weight moments of q_nn, the numeric route applies the
    Gauss-Jacobi rule to (1-rho) q_nn(rho)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    closed = Fraction(1, 2 * n + 1) * (1 + Fraction(1, (2 * n + 3) * (2 * n - 1)))
    poly = param_poly(n, n)
    b3 = _beta_moments(Fraction(1, 2), max(poly.degree, 0))
    symbolic = sum((c * b3[k] for k, c in enumerate(poly.coeffs)), Fraction(0))
    rule = gauss_jacobi_half(n + 3)
    vals = np.array([(1.0 - float(x)) * poly(float(x)) for x in rule.nodes])
    quad = float(np.dot(rule.weights, vals))
    return JnnRecord(closed, symbolic, quad)


def param_j_offdiag(m: int, n: int) -> float:
    """Plain integral of an off-diagonal entry over rho (no simple closed
    form); Gauss-Jacobi on the factored polynomial."""
    if m == n:
        raise ValueError("use param_jnn for diagonal entries")
    if (m + n) % 2 == 1:
        raise ValueError("odd m + n entries vanish identically")
    poly = param_poly(m, n)
    rule = gauss_jacobi_half((m + n) // 2 + 3)
    vals = np.array([(1.0 - float(x)) * poly(float(x)) for x in rule.nodes])
    return float(np.dot(rule.weights, vals))


def param_sk(k: int, rho) -> float:
    """Anti-diagonal sum over m + n = k: sqrt(1 - rho) for even k, zero for
    odd k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    rho_val = _rho_value(rho)
    if k % 2 == 1:
        return 0.0
    return math.sqrt(1.0 - rho_val)


def param_mean_n(m: int, rho) -> float:
    """Mean final quantum number for initial state m:
    -1/2 + (m + 1/2)(1 + rho)/(1 - rho), written as m + (2m + 1) rho/(1 - rho)
    so that nothing cancels at small rho."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    rho_val = _rho_value(rho, open_top=True)
    return m + (2 * m + 1) * rho_val / (1.0 - rho_val)


def _shifted_coeffs(m: int, rho, power: int) -> np.ndarray:
    """[u^m s^p] of G(u e^{-s}, e^s) = (((1 - u)^2 - rho (u e^{-s} - e^s)^2)
    / (1 - rho))^{-1/2} for p <= power; p! times it is sum_n (n - m)^p w_mn,
    as [u^m] G(u, e^s) = sum_n w_mn e^{ns}.  Every s term carries a factor rho,
    so no moment is a difference of large ones.  s runs outer, u inner:
    O(power^2) row convolutions of length m + 1; nothing is truncated in n."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    rho_val = _rho_value(rho, open_top=True)
    terms = {(0, 0): 1.0, (0, 1): -2.0, (0, 2): 1.0}
    for k in range(1, power + 1):
        c = rho_val / (1.0 - rho_val) * 2.0**k / math.factorial(k)
        terms.update({(k, 0): -c, (k, 2): -c * (-1) ** k})
    return Series2.from_terms(FLOAT, power, m, terms).pow_real(-0.5).rows[:, m]


def param_row_moments(m: int, rho, power: int = 2) -> np.ndarray:
    """Row moments sum_n n^p w_mn for p = 0..power, from the generating
    function: e^{ms} times the series of :func:`_shifted_coeffs`."""
    fact = np.cumprod([1.0, *range(1, power + 1)])
    shift = float(m) ** np.arange(power + 1) / fact
    return np.convolve(_shifted_coeffs(m, rho, power), shift)[: power + 1] * fact


def param_dispersion(m: int, rho) -> float:
    """Variance of the final quantum number over row m, from the moments of n - m."""
    c = _shifted_coeffs(m, rho, 2)
    return 2.0 * c[2] - c[1] ** 2
