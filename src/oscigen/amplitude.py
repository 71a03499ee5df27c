"""Probability tables of the three families as squared group matrix elements,
built by O(M^2) recurrences.

With a = min(m, n), b = max(m, n) and the offset d = b - a, every entry is
the square of an amplitude:

* forced, a Heisenberg-Weyl displacement (Husimi 1953):
  ``w_mn = e^-nu (a!/b!) nu^d [L_a^(d)(nu)]^2``;
* singular, an SU(1,1) squeeze with Bargmann index k = -2j (Perelomov,
  *Generalized Coherent States*, 1986):
  ``w_mn = [a! Gamma(b+k) / (b! Gamma(a+k))] rho^d (1-rho)^k [P_a^(d,k-1)(1-2rho)]^2``;
* parametric, the k = 1/2 (even m, n) and k = 3/2 (odd m, n) sectors of the
  singular family; entries with odd m + n vanish.

Each kernel steps the degree a by the three-term recurrence of the Laguerre
(resp. Jacobi) polynomials, vectorized over d.  It carries the normalized
amplitude ``A_a = h_a Q_a`` with ``Q_a = L_a / L_a(0)`` (resp.
``P_a / P_a(1)``) and ``h_a`` the factor that makes ``A_a`` the signed square
root of the entry, so ``|A_a| <= 1``, together with the scaled difference
``E_a = h_a (Q_a - Q_{a-1})``.  With ``r = h_a / h_{a-1}`` one step reads

    E_a = r (c1 A_{a-1} + c2 E_{a-1}),    A_a = r A_{a-1} + E_a.

The difference form keeps full accuracy as nu or rho goes to zero, where
Q_a and Q_{a-1} agree to many digits and the plain three-term form cancels.
The vacuum row w_0n (Poisson, resp. negative binomial) is built once, as
mantissas and binary exponents that do not underflow even where w_00 does:
it is row 0 and column 0, and its square roots start the amplitudes.  The
table is symmetric by construction.

``forced_poly`` and ``param_poly`` evaluate the same closed forms exactly:
the rational polynomial of one forced or parametric entry, with the
e^-nu resp. sqrt(1-rho) prefactor left out, which exact-mode tables and
the sum rules use.  The rules that admit nu, rho, j and the quantum numbers
live here too, so the family modules and the table records share them, as
does the window cap of the kernels and :class:`oscigen.series.Series2`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .domains import RatPoly

__all__ = [
    "MAX_EXACT_SIZE",
    "MAX_WINDOW",
    "check_window",
    "forced_poly",
    "forced_table",
    "param_poly",
    "param_table",
    "poly_grid",
    "singular_table",
]

_SHIFT = 600  # binary exponent step of the per-offset rescaling
# _SHIFT ln 2 split as fdlibm splits ln 2: q * _LOG_HI is exact for |q| < 2^14
_LOG_HI, _LOG_LO = _SHIFT * 6.93147180369123816490e-01, _SHIFT * 1.90821492927058770002e-10
_DEGREES = 64  # degrees per block of step coefficients in _sweep
# largest exact-mode table: an exact forced table takes about 14 s to build
# at M = 128 on two cores, and the cost grows like M^4.4
MAX_EXACT_SIZE = 128
MAX_WINDOW = 4096  # largest index of a kernel table or a Series2 window

# lowest admitted weight, the lowest one tested against the closed forms.
# The table kernel no longer loses rho where 1 - rho rounds.  No table from
# rho = 1e-300 to 1 - 1e-6, M <= 512, overflowed or summed above one down to
# j = -1e19; from j = -1e20 on, the 1 - rho rounding correction overflows.
MIN_J = -1e15


# -- window and parameter rules ------------------------------------------------


def check_window(max_deg_u: int, max_deg_v: int) -> None:
    """Reject a window beyond ``MAX_WINDOW`` before anything is allocated."""
    if max_deg_u > MAX_WINDOW or max_deg_v > MAX_WINDOW:
        raise ValueError(f"window ({max_deg_u},{max_deg_v}) exceeds cap {MAX_WINDOW}")


def _nu_value(nu) -> float:
    """The excitation parameter as a float, finite and nu >= 0."""
    nu = float(nu)
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be nonnegative and finite, got {nu}")
    return nu


def _rho_value(rho, open_top: bool = False) -> float:
    """The excitation parameter as a float in [0, 1], or in [0, 1) with
    ``open_top``."""
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if open_top and rho == 1.0:
        raise ValueError("rho = 1 excluded here (divergent quantity)")
    return rho


def _j_value(j) -> float:
    """The su(1,1) representation weight as a float, MIN_J <= j < 0.  Values
    above -1/2 (like -1/4) do not come from any barrier strength g but are
    admitted for the regular-oscillator sectors."""
    j = float(j)
    if not MIN_J <= j < 0.0:
        raise ValueError(f"weight j must be negative and at least {MIN_J:g}, got {j}")
    return j


def _index(name: str, n) -> int:
    """A quantum number or index: an int or numpy integer, not a bool, n >= 0."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    return int(n)


def _seed(w00: float, log_w00: float, ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vacuum row ``w_0n = w00 * ratios[0] * ... * ratios[n-1]`` as mantissas
    and binary exponents, multiples of _SHIFT: a product that leaves
    [2^-_SHIFT, 2^_SHIFT] is scaled by 2^-+_SHIFT instead, exactly.  Below
    log w00 = -700 the start is exp(log_w00), split the same way; below
    -1e18 it is 0, and no table entry comes out of it."""
    mant = np.empty(ratios.size + 1)
    ex = np.zeros(ratios.size + 1, dtype=int)
    x, e = w00, 0
    if -1e18 < log_w00 < -700.0:
        q = math.ceil(log_w00 / (_LOG_HI + _LOG_LO))
        x, e = math.exp(log_w00 - q * _LOG_HI - q * _LOG_LO), q * _SHIFT
    mant[0], ex[0] = x, e
    for i, f in enumerate(ratios.tolist()):
        if 0.0 < x < 2.0**-_SHIFT:
            x, e = x * 2.0**_SHIFT, e - _SHIFT
        elif x > 2.0**_SHIFT:
            x, e = x * 2.0**-_SHIFT, e + _SHIFT
        x *= f
        mant[i + 1], ex[i + 1] = x, e
    return mant, ex


def _sweep(w00, log_w00, ratios, rows: int, cols: int, step) -> np.ndarray:
    """Table w[m, n] for m < rows, n < cols.

    Row 0 and column 0 are the vacuum row of ``_seed(w00, log_w00, ratios)``,
    ``ratios[n] = w_0,n+1 / w_0n`` over max(rows, cols) offsets, and its
    square roots start the amplitudes.  ``step(a, d)`` returns r, c1 and c2
    of the degree-a step on the grid of a column of degrees ``a`` and a row
    of offsets ``d``; they are made for ``_DEGREES`` degrees at a time, so
    the loop over degrees runs only the recurrence.  An offset whose vacuum
    amplitude lies below 2^-_SHIFT can still reach O(1) at larger a; it is
    carried scaled by a power of two and brought back each time its
    amplitude has grown by 2^_SHIFT.
    """
    width = max(rows, cols)
    w = np.empty((rows, cols))
    mant, ex = _seed(w00, log_w00, ratios)
    w[0] = np.ldexp(mant[:cols], ex[:cols])
    w[:, 0] = np.ldexp(mant[:rows], ex[:rows])
    ex //= 2  # amplitudes above 2^-_SHIFT take their exponent into the mantissa
    amp = np.ldexp(np.sqrt(mant), np.where(ex > -_SHIFT, ex, 0))
    ex[ex > -_SHIFT] = 0
    scaled = bool(ex.any())
    d = np.arange(width, dtype=float)
    diff = np.zeros(width)
    top = min(rows, cols)
    for start in range(1, top, _DEGREES):
        degrees = np.arange(start, min(start + _DEGREES, top))
        grid = step(degrees[:, None].astype(float), d[None, : width - start])
        for a, r, c1, c2 in zip(degrees.tolist(), *grid):
            n = width - a
            r, c1, c2 = r[:n], c1[:n], c2[:n]
            diff = r * (c1 * amp[:n] + c2 * diff[:n])
            amp = r * amp[:n] + diff
            if scaled:
                big = np.abs(amp) > 2.0**_SHIFT
                amp[big] *= 2.0**-_SHIFT
                diff[big] *= 2.0**-_SHIFT
                ex[:n][big] += _SHIFT
                sq = np.ldexp(amp, ex[:n]) ** 2
            else:
                sq = amp * amp
            w[a, a:] = sq[: cols - a]
            w[a + 1 :, a] = sq[1 : rows - a]
    return w


def forced_table(nu: float, rows: int, cols: int) -> np.ndarray:
    """w_mn(nu) of the forced family for m < rows, n < cols."""
    check_window(rows - 1, cols - 1)

    def step(a, d):
        ad = a + d
        return np.sqrt(ad / a), -nu / ad, (a - 1) / ad

    return _sweep(math.exp(-nu), -nu, nu / np.arange(1, max(rows, cols)), rows, cols, step)


def _singular(rho: float, k: float, rows: int, cols: int) -> np.ndarray:
    # k is added last to each integer part, so no coefficient cancels for k << 1
    def step(a, d):
        ad = a + d
        t = ad + a
        q = (ad - 1.0) + k  # n + alpha + beta of the Jacobi recurrence
        s = (t - 1.0) + k  # 2n + alpha + beta
        adq = ad * q
        r = np.sqrt(adq / (a * ((a - 1.0) + k)))
        c1 = -rho * ((t - 2.0) + k) * s / adq  # t - 2 + k = s - 1, t - 3 + k = s - 2
        # the a = 1 step has no E_0 term; its formula is 0/0 at d = 0, k = 1
        c2 = np.zeros_like(ad)
        j = slice(int(a[0, 0] == 1.0), None)
        c2[j] = ((a[j] - 2.0) + k) * (a[j] - 1) * s[j] / (q[j] * ((t[j] - 3.0) + k) * ad[j])
        return r, c1, c2

    log_w00 = k * math.log1p(-rho) if rho < 1.0 else -math.inf  # log1p(-1) raises
    i = np.arange(max(rows, cols) - 1)
    return _sweep(_one_minus_pow(rho, k), log_w00, rho * (i + k) / (i + 1), rows, cols, step)


def _one_minus_pow(rho: float, k: float) -> float:
    """(1 - rho)^k, also where 1 - rho rounds: 1 - rho = base + ((1 - base)
    - rho) exactly, the second term 0 from rho = 1/2 on, and the power is
    base^k with that rounding put back."""
    base = 1.0 - rho
    return base**k * math.exp(k * math.log1p((1.0 - base - rho) / max(base, 0.5)))


def singular_table(rho: float, j: float, rows: int, cols: int) -> np.ndarray:
    """w_mn(rho) of the singular family with weight j < 0, m < rows, n < cols."""
    check_window(rows - 1, cols - 1)
    return _singular(rho, -2.0 * j, rows, cols)


def param_table(rho: float, rows: int, cols: int) -> np.ndarray:
    """w_mn(rho) of the variable-frequency family, m < rows, n < cols: the
    j = -1/4 sector on even (m, n), j = -3/4 on odd, zero elsewhere."""
    check_window(rows - 1, cols - 1)
    w = np.zeros((rows, cols))
    w[0::2, 0::2] = _singular(rho, 0.5, (rows + 1) // 2, (cols + 1) // 2)
    if rows > 1 and cols > 1:
        w[1::2, 1::2] = _singular(rho, 1.5, rows // 2, cols // 2)
    return w


# -- exact polynomials ---------------------------------------------------------
#
# The same closed forms in integer arithmetic: the Laguerre and Jacobi
# polynomials, scaled to integer coefficients, are squared as integers and
# divided once by the integer that collects every normalization.


def _alternating_square(mags: list[int]) -> list[int]:
    """Coefficients of P^2 for P(x) = sum (-1)^i mags[i] x^i, mags >= 0.

    The coefficients of P^2 alternate in sign the same way, and their
    magnitudes are the square of sum mags[i] x^i, taken as one integer
    product: the magnitudes are packed into a single integer with one
    ``width``-byte slot per power, wide enough that no slot of the square
    overflows into the next.  Whole-byte slots let both integers go through
    their little-endian bytes instead of one shift per slot, each of which
    would copy the whole integer.
    """
    width = (2 * max(mags).bit_length() + len(mags).bit_length() + 7) // 8
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in mags), "little")
    n = 2 * len(mags) - 1
    sq = (packed * packed).to_bytes(n * width, "little")
    out = [int.from_bytes(sq[k * width: (k + 1) * width], "little") for k in range(n)]
    out[1::2] = [-c for c in out[1::2]]
    return out


def _poly(shift: int, numer: int, coeffs: list[int], denom: int) -> RatPoly:
    """x^shift * (numer / denom) * sum coeffs[i] x^i."""
    return RatPoly([Fraction(0)] * shift + [Fraction(numer * c, denom) for c in coeffs])


def forced_poly(m: int, n: int) -> RatPoly:
    """p_mn(nu) = e^nu w_mn(nu) = (a!/b!) nu^d [L_a^(d)(nu)]^2 exactly.

    ``a! L_a^(d)(x) = sum_i (-1)^i C(a+d, a-i) a!/i! x^i`` has integer
    coefficients, so p_mn = nu^d [a! L_a^(d)]^2 / (a! b!).
    """
    m, n = _index("m", m), _index("n", n)
    a, b = min(m, n), max(m, n)
    d = b - a
    mags = [math.comb(b, a - i) * math.perm(a, a - i) for i in range(a + 1)]
    denom = math.factorial(a) * math.factorial(b)
    return _poly(d, 1, _alternating_square(mags), denom)


def param_poly(m: int, n: int) -> RatPoly:
    """q_mn(rho) = w_mn(rho) / sqrt(1 - rho) exactly; zero for odd m + n.

    The entry is the singular amplitude at k = 1/2 (even m, n) or k = 3/2
    (odd m, n) with a, b the halved quantum numbers, a <= b, and d = b - a:

        q_mn = [a! G(b+k) / (b! G(a+k))] rho^d (1-rho)^(k-1/2) [P_a^(d,k-1)(1-2rho)]^2.

    ``a! 2^a P_a^(d,k-1)(1-2rho) = sum_s (-rho)^s C(a,s) (a+d)!/(s+d)!
    2^(a-s) prod_{i<s} (2a+2d+2k+2i)`` has integer coefficients, and
    ``G(b+k)/G(a+k) = prod_{a<=i<b} (2i+2k) / 2^d``.
    """
    m, n = _index("m", m), _index("n", n)
    if (m + n) % 2:
        return RatPoly()
    odd = m % 2
    a, b = min(m, n) // 2, max(m, n) // 2
    d = b - a
    two_k = 2 * odd + 1
    mags, rising = [], 1
    for s in range(a + 1):
        mags.append(math.comb(a, s) * math.perm(a + d, a - s) * rising << (a - s))
        rising *= 2 * (a + d + s) + two_k
    coeffs = _alternating_square(mags)
    if odd:  # the extra (1 - rho) of the k = 3/2 sector
        coeffs = [c - p for c, p in zip(coeffs + [0], [0] + coeffs)]
    numer = math.prod(range(2 * a + two_k, 2 * b + two_k, 2))
    denom = math.factorial(a) * math.factorial(b) << (d + 2 * a)
    return _poly(d, numer, coeffs, denom)


def poly_grid(poly, size: int) -> tuple[tuple[RatPoly, ...], ...]:
    """Entries ``poly(m, n)`` for m, n < size <= ``MAX_EXACT_SIZE``; each
    symmetric pair is built once."""
    if size > MAX_EXACT_SIZE:
        raise ValueError(f"exact tables are capped at size {MAX_EXACT_SIZE}, got {size}")
    rows = [[None] * size for _ in range(size)]
    for m in range(size):
        for n in range(m, size):
            rows[m][n] = rows[n][m] = poly(m, n)
    return tuple(tuple(row) for row in rows)
