"""Closed-form reference values that never touch the series engine.

Table entries follow the matrix elements of the three families:

* forced (Husimi 1953):
  ``w_mn = e^-nu (a!/b!) nu^(b-a) [L_a^(b-a)(nu)]^2``;
* singular (Perelomov, *Generalized Coherent States*, 1986):
  ``w_mn = [a! G(b-2j) / (b! G(a-2j))] rho^(b-a) (1-rho)^(-2j)
  [P_a^(b-a, -2j-1)(1-2rho)]^2``;
* parametric: the j = -1/4 (even-even) and j = -3/4 (odd-odd) sectors of
  the singular formula, zero for odd m + n;

with a = min(m, n) and b = max(m, n).  Laguerre and Jacobi polynomials are
evaluated as explicit finite sums in mpmath at two working precisions 30
digits apart; an entry counts as certified once the two agree to 1e-25,
raising the precision while they do not.
The exact-mode polynomials are rebuilt from the same sums in rational
arithmetic and compared coefficient by coefficient.

Excitation parameters use the closed forms of each profile kind: the
Fourier transform of the gaussian, rectangular and damped-cosine forces,
the sudden-step matching ((w+ - w-)/(w+ + w-))^2 and the tanh-ramp ratio
sinh^2(pi (w+ - w-) T/2) / sinh^2(pi (w+ + w-) T/2).  Tabulated profiles are
checked against the closed form of the profile they were sampled from.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

CERT_TOL = 1e-25


class ReferenceError(RuntimeError):
    """The two working precisions disagreed: the reference is not certified."""


def _certified(fn, *args) -> float:
    for dps in (40, 80, 160):
        with mpmath.workdps(dps):
            lo = fn(*args)
        with mpmath.workdps(dps + 30):
            hi = fn(*args)
            if abs(hi - lo) <= CERT_TOL:
                return float(hi)
    raise ReferenceError(f"{fn.__name__}{args} not certified: {lo} vs {hi}")


def _forced_mp(a: int, b: int, nu: float):
    x = mpmath.mpf(nu)
    alpha = b - a
    term = mpmath.binomial(a + alpha, a)  # k = 0 term of the Laguerre sum
    lag = term
    for k in range(a):
        term = -term * (a - k) / (alpha + k + 1) * x / (k + 1)
        lag += term
    pref = mpmath.exp(-x) * x**alpha / mpmath.rf(a + 1, alpha)
    return pref * lag * lag


def _singular_mp(a: int, b: int, rho: float, j: float):
    r = mpmath.mpf(rho)
    jj = mpmath.mpf(j)
    alpha, beta = b - a, -2 * jj - 1
    one_m = 1 - r
    term = mpmath.binomial(a + alpha, a) * one_m**a  # k = 0 term of the Jacobi sum
    jac = term
    for k in range(a):
        term = term * (a - k) / (alpha + k + 1) * (a + beta - k) / (k + 1) * (-r / one_m)
        jac += term
    pref = mpmath.rf(a - 2 * jj, alpha) / mpmath.rf(a + 1, alpha)
    return pref * r**alpha * one_m ** (-2 * jj) * jac * jac


def forced_entry(m: int, n: int, nu: float) -> float:
    return _certified(_forced_mp, min(m, n), max(m, n), nu)


def singular_entry(m: int, n: int, rho: float, j: float) -> float:
    return _certified(_singular_mp, min(m, n), max(m, n), rho, j)


def parametric_entry(m: int, n: int, rho: float) -> float:
    if (m + n) % 2:
        return 0.0
    if m % 2 == 0:
        return singular_entry(m // 2, n // 2, rho, -0.25)
    return singular_entry(m // 2, n // 2, rho, -0.75)


def table_entry(family: str, m: int, n: int, params: dict) -> float:
    if family == "forced":
        return forced_entry(m, n, params["nu"])
    if family == "parametric":
        return parametric_entry(m, n, params["rho"])
    return singular_entry(m, n, params["rho"], params["j"])


# -- exact-mode polynomials ---------------------------------------------------

def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for k, y in enumerate(q):
                out[i + k] += x * y
    return out


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, y in enumerate(q):
        out[i] += y
    return out


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _rbinom(top: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out = out * (top - i) / (i + 1)
    return out


def forced_poly(m: int, n: int) -> list[Fraction]:
    """Coefficients of e^nu w_mn(nu), ascending powers of nu."""
    a, b = min(m, n), max(m, n)
    alpha = b - a
    lag = [
        (-1) ** k * _rbinom(Fraction(a + alpha), a - k) / math.factorial(k)
        for k in range(a + 1)
    ]
    sq = _pmul(lag, lag)
    scale = Fraction(math.factorial(a), math.factorial(b))
    return _trim([Fraction(0)] * alpha + [c * scale for c in sq])


def parametric_poly(m: int, n: int) -> list[Fraction]:
    """Coefficients of w_mn(rho) / sqrt(1 - rho), ascending powers of rho."""
    if (m + n) % 2:
        return []
    odd = m % 2
    a, b = min(m, n) // 2, max(m, n) // 2
    alpha = b - a
    two_j = Fraction(-3, 2) if odd else Fraction(-1, 2)
    beta = -two_j - 1
    jac = [Fraction(0)]
    for k in range(a + 1):
        coef = _rbinom(Fraction(a + alpha), a - k) * _rbinom(a + beta, k) * (-1) ** k
        # rho^k (1 - rho)^(a-k)
        piece = [Fraction(0)] * k + [
            _rbinom(Fraction(a - k), i) * (-1) ** i for i in range(a - k + 1)
        ]
        jac = _padd(jac, [coef * c for c in piece])
    pref = Fraction(1)
    for i in range(a, b):
        pref *= (i - two_j) / (i + 1)
    poly = [Fraction(0)] * alpha + [c * pref for c in _pmul(jac, jac)]
    if odd:  # (1 - rho)^(3/2) = sqrt(1 - rho) (1 - rho)
        poly = _pmul(poly, [Fraction(1), Fraction(-1)])
    return _trim(poly)


def exact_poly(family: str, m: int, n: int) -> list[Fraction]:
    return forced_poly(m, n) if family == "forced" else parametric_poly(m, n)


# -- excitation parameters ------------------------------------------------------

def _tanh_rho(w2m: float, w2p: float, T: float) -> float:
    with mpmath.workdps(40):
        wm, wp = mpmath.sqrt(w2m), mpmath.sqrt(w2p)
        x = mpmath.pi * T / 2
        return float(mpmath.sinh(x * abs(wp - wm)) ** 2 / mpmath.sinh(x * (wp + wm)) ** 2)


def _nu(spec: dict, omega: float) -> float:
    kind = spec["kind"]
    with mpmath.workdps(40):
        w = mpmath.mpf(omega)
        if kind == "gaussian":
            amp = spec["f0"] * spec["tau"] * mpmath.sqrt(mpmath.pi) * mpmath.exp(
                -((w * spec["tau"]) ** 2) / 4
            )
        elif kind == "rectangular":
            amp = 2 * spec["f0"] * mpmath.sin(w * (spec["t_off"] - spec["t_on"]) / 2) / w
        else:  # damped_cosine
            g, wd = mpmath.mpf(spec["gamma"]), mpmath.mpf(spec["omega_d"])
            amp = spec["f0"] * (g / (g * g + (w - wd) ** 2) + g / (g * g + (w + wd) ** 2))
        return float(amp * amp / (2 * w))


def excite_value(source: dict, omega: float | None) -> float:
    """Reference nu or rho for the closed-form profile ``source`` (the
    profile itself, or the one a tabulated profile was sampled from)."""
    kind = source["kind"]
    if kind == "sudden_step":
        wm, wp = source["omega_minus"], source["omega_plus"]
        return float((mpmath.mpf(wp) - wm) ** 2 / (mpmath.mpf(wp) + wm) ** 2)
    if kind == "tanh_ramp":
        return _tanh_rho(source["omega2_minus"], source["omega2_plus"], source["T"])
    return _nu(source, omega)
