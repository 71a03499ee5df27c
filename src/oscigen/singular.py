"""Singular oscillator: variable frequency plus an inverse-square barrier
g/(8 x^2) on the half-line.

The instantaneous spectrum is equidistant, E_n = 2 omega (n - j) with the
level weight j = -1/2 - (1/4) sqrt(1+g).  The generating function of the
transition probabilities is

    g(u, v) = lambda^{-2j} / (1 - uv lambda^2),

    lambda = 2 (1-rho) / (1 - rho(u+v) + uv
             + sqrt([1 - rho(u+v) + uv]^2 - 4 uv (1-rho)^2)),

principal branches pinned by lambda(0,0) = 1 - rho.  The weights j = -1/4
and j = -3/4 reproduce the even and odd sectors of the regular
variable-frequency oscillator; those reductions double as exact
cross-checks for this family, whose general tables are float-only (the
exponent -2j is irrational in general).  Tables come from the Jacobi
amplitude kernel of :mod:`oscigen.amplitude`; the float series of g(u, v)
and its contour oracle, the routes ``verify`` compares it against, live in
:mod:`oscigen.series`.  Each call here returns its one value; the second
algebraic form of the adiabatic slope is checked in :mod:`oscigen.verify`.
"""

from __future__ import annotations

import math

from .amplitude import MIN_J, _index, _j_value, _rho_value, singular_table
from .probtable import ProbTable, make_table

__all__ = [
    "MIN_J",
    "j_from_g",
    "energy_level",
    "singular_prob_table",
    "ground_row",
    "adiabatic_diag",
]


def j_from_g(g: float) -> float:
    """Level weight from the barrier strength: j = -1/2 - (1/4) sqrt(1+g),
    defined for g > -1."""
    if not g > -1.0:
        raise ValueError(f"barrier strength must exceed -1, got {g}")
    return _j_value(-0.5 - 0.25 * math.sqrt(1.0 + g))


def energy_level(n: int, omega: float, j) -> float:
    """Instantaneous level E_n = 2 omega (n - j); the spectrum is equidistant
    with spacing 2 omega."""
    n = _index("n", n)
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")
    return 2.0 * omega * (n - _j_value(j))


def singular_prob_table(rho, j, size: int = 16, mode: str = "float") -> ProbTable:
    """Table of w_mn for the singular family.  It has no exact mode: the
    general exponent -2j is irrational, and ``make_table`` refuses it."""
    return make_table("singular", {"rho": rho, "j": j}, size, mode)


def ground_row(n: int, rho, j) -> float:
    """Vacuum row entry, n <= 4096, as row 0 of the table kernel gives it:

        w_0n = Gamma(n-2j) / (n! Gamma(-2j)) * rho^n * (1-rho)^{-2j}.
    """
    n = _index("n", n)
    rho_val = _rho_value(rho, open_top=True)
    j_val = _j_value(j)
    return float(singular_table(rho_val, j_val, 1, n + 1)[0, n])


def adiabatic_diag(n: int, j) -> float:
    """Adiabatic slope of a diagonal entry, w_nn = 1 - slope * rho + O(rho^2):
    slope = 2 [n^2 - (2n+1) j]."""
    n = _index("n", n)
    return 2.0 * (n * n - (2 * n + 1) * _j_value(j))
