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
amplitude kernel of :mod:`oscigen.amplitude`; the float series of g(u, v) is
the independent route ``verify`` compares it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import MIN_J, _j_value, _one_minus_pow, _rho_value, singular_table
from .domains import FLOAT
from .errors import SingularEvaluationError
from .probtable import ProbTable, make_table
from .series import Series2, _checked_sqrt

__all__ = [
    "MIN_J",
    "AdiabaticRecord",
    "j_from_g",
    "energy_level",
    "lambda_value",
    "singular_gf_value",
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
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    return 2.0 * omega * (n - _j_value(j))


def _lambda_raw(u, v, rho_val: float):
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    t = 1.0 - rho_val * (u + v) + u * v
    rad = t * t - 4.0 * u * v * (1.0 - rho_val) ** 2
    den = t + _checked_sqrt(rad, "lambda radicand")
    if np.any(np.abs(den) < 1e-13):
        raise SingularEvaluationError("lambda denominator vanished")
    return 2.0 * (1.0 - rho_val) / den


def lambda_value(u, v, rho) -> complex:
    """The kernel lambda of the generating function, principal branch."""
    lam = _lambda_raw(u, v, _rho_value(rho))
    return complex(lam) if lam.ndim == 0 else lam


def singular_gf_value(u, v, rho, j) -> complex:
    """Evaluate lambda^{-2j} / (1 - uv lambda^2), principal power."""
    rho_val = _rho_value(rho)
    j_val = _j_value(j)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    lam = _lambda_raw(u, v, rho_val)
    den = 1.0 - u * v * lam * lam
    if np.any(np.abs(den) < 1e-13):
        raise SingularEvaluationError("pole of the generating function")
    out = lam ** (-2.0 * j_val) / den
    return complex(out) if out.ndim == 0 else out


def _float_grid(rho_val: float, j_val: float, max_m: int, max_n: int) -> np.ndarray:
    """w_mn from the series of g(u, v).

    lambda factors as (1-rho) * L with L(0,0) = 1; L comes from nested
    series square root and inversion, and the prefactor (1-rho)^{-2j} is
    multiplied in at the end, as the table kernel starts its vacuum row, so
    it keeps rho where 1 - rho rounds.
    """
    t = Series2.from_terms(
        FLOAT, max_m, max_n,
        {(0, 0): 1.0, (1, 0): -rho_val, (0, 1): -rho_val, (1, 1): 1.0},
    )
    uv = Series2.from_terms(FLOAT, max_m, max_n, {(1, 1): 1.0})
    root = (t * t - uv.scale(4.0 * (1.0 - rho_val) ** 2)).pow_real(0.5)
    lam_unit = (t + root).inverse().scale(2.0)  # lambda / (1 - rho)
    power = lam_unit.pow_real(-2.0 * j_val)
    geom = (
        Series2.one(FLOAT, max_m, max_n)
        - (uv * lam_unit * lam_unit).scale((1.0 - rho_val) ** 2)
    ).inverse()
    return _one_minus_pow(rho_val, -2.0 * j_val) * (power * geom).rows


def singular_prob_table(rho, j, size: int = 16, mode: str = "float") -> ProbTable:
    """Table of w_mn for the singular family.  It has no exact mode: the
    general exponent -2j is irrational."""
    if mode == "exact":
        raise ValueError("the singular family is float-only (irrational exponent -2j)")
    return make_table("singular", {"rho": rho, "j": j}, size, mode, singular_table)


def ground_row(n: int, rho, j) -> float:
    """Vacuum row entry, n <= 4096, as row 0 of the table kernel gives it:

        w_0n = Gamma(n-2j) / (n! Gamma(-2j)) * rho^n * (1-rho)^{-2j}.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rho_val = _rho_value(rho, open_top=True)
    j_val = _j_value(j)
    return float(singular_table(rho_val, j_val, 1, n + 1)[0, n])


@dataclass(frozen=True)
class AdiabaticRecord:
    """Leading small-rho behaviour of a diagonal entry,
    w_nn = 1 - slope * rho + O(rho^2), in two equivalent algebraic forms."""

    slope: float
    big_n: float
    slope_from_big_n: float


def adiabatic_diag(n: int, j) -> AdiabaticRecord:
    """Adiabatic slope 2 [n^2 - (2n+1) j] and its equivalent
    (1/2)(N^2 + N + 1) with N = 2 sqrt((n-j)^2 - (j(j+1) + 3/16)) - 1/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    j_val = _j_value(j)
    slope = 2.0 * (n * n - (2 * n + 1) * j_val)
    radicand = (n - j_val) ** 2 - (j_val * (j_val + 1.0) + 3.0 / 16.0)
    if radicand < 0.0:
        raise ValueError(f"negative radicand {radicand} in the N form")
    big_n = 2.0 * math.sqrt(radicand) - 0.5
    slope_from_n = 0.5 * (big_n * big_n + big_n + 1.0)
    return AdiabaticRecord(slope, big_n, slope_from_n)
