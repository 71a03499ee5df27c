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
(:func:`oscigen.amplitude.param_poly`).  The routes ``verify`` checks both
against, the series of G / sqrt(1 - rho) and the contour oracle of G, live
in :mod:`oscigen.series`.  Each integral here returns its value only: the
closed forms it is quoted against, their Gauss-Jacobi confirmations and
the arctanh identity of G / (1 - rho) are checked in :mod:`oscigen.verify`.
The row moments sum_n n^p w_mn are series coefficients of G(u, e^s), so no
table is summed or truncated for them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .amplitude import _rho_value, param_poly
from .domains import FLOAT, RatPoly
from .probtable import ProbTable, make_table

__all__ = [
    "param_prob_table",
    "param_weighted_integrals",
    "param_jmn",
    "param_sk",
    "param_mean_n",
    "param_dispersion",
    "param_row_moments",
]


def param_prob_table(rho, size: int = 16, mode: str = "float") -> ProbTable:
    """Table of w_mn(rho); exact mode carries the q_mn polynomials."""
    return make_table("parametric", {"rho": rho}, size, mode)


# -- rho-integrals -------------------------------------------------------------

def _rho_integral(poly: RatPoly, a) -> Fraction:
    """Exact integral of poly(rho) (1 - rho)^a over [0, 1] for rational
    a > -1: sum_k c_k B(k + 1, a + 1), each Beta value from the one before
    by the ratio (k + 1) / (k + a + 2)."""
    total, beta = Fraction(0), 1 / Fraction(a + 1)
    for k, c in enumerate(poly.coeffs):
        total += c * beta
        beta = beta * (k + 1) / (k + a + 2)
    return total


def param_weighted_integrals(m: int, n: int) -> tuple[Fraction, Fraction | None]:
    """Integrals of w_mn/(1-rho) and w_mn/(rho sqrt(1-rho)) over [0, 1],
    each an exact sum of Beta values over the polynomial form of w_mn.  The
    second integral is undefined for m = n (it comes back None)."""
    poly = param_poly(m, n)
    first = _rho_integral(poly, Fraction(-1, 2))
    if m == n:
        return first, None
    return first, _rho_integral(poly.shift_down(1), 0)  # zero for odd m + n


def param_jmn(m: int, n: int) -> Fraction:
    """Plain integral of w_mn over rho in [0, 1], exact: the Beta-value sum
    of sqrt(1-rho) q_mn, zero for odd m + n."""
    return _rho_integral(param_poly(m, n), Fraction(1, 2))


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
    from .series import Series2

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
