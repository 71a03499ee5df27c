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

The routes ``verify`` checks both against, the series of
e^{nu} G = (1-uv)^{-1} exp(nu (u + v - 2uv) / (1-uv)) and the contour
oracle of G, live in :mod:`oscigen.series`; the Gauss-Laguerre
confirmation of the moments lives in :mod:`oscigen.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .amplitude import _index, _nu_value, forced_poly
from .probtable import ProbTable, make_table

__all__ = [
    "SumRuleRecord",
    "forced_prob_table",
    "forced_sum_rules",
    "forced_sk",
]


def forced_prob_table(nu, size: int = 16, mode: str = "float") -> ProbTable:
    """Table of w_mn(nu) for 0 <= m, n < size.

    In exact mode the symbolic polynomials (the e^{nu}-free part of each
    entry) ride along with the numeric values.
    """
    return make_table("forced", {"nu": nu}, size, mode)


@dataclass(frozen=True)
class SumRuleRecord:
    """Moments of w_mn over nu, exact rational values."""

    norm: Fraction
    mean: Fraction
    variance: Fraction


def forced_sum_rules(m: int, n: int) -> SumRuleRecord:
    """Zeroth, first and central second moment of w_mn(nu) over [0, inf),
    integrating the symbolic e^{-nu} * polynomial form term by term."""
    poly = forced_poly(m, n)
    fact = [math.factorial(k) for k in range(poly.degree + 3)]
    norm, mean, second = (sum((c * fact[k + p] for k, c in enumerate(poly.coeffs)), Fraction(0))
                          for p in range(3))
    mu = mean / norm
    return SumRuleRecord(norm, mean, second - 2 * mu * mean + mu * mu * norm)


def forced_sk(k: int, nu) -> float:
    """Anti-diagonal sum S_k(nu) = sum_{m+n=k} w_mn(nu).

    Closed form: e^{-nu} p_k(nu) with p_k the alternating partial sum of
    Laguerre polynomials at 2 nu.  Past nu ~ 705 the polynomials overflow
    the double range before e^{-nu} scales them down, and that raises
    ValueError.
    """
    k = _index("k", k)
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
