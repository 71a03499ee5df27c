"""Truncated bivariate power series and a contour-integral coefficient oracle.

A :class:`Series2` holds the coefficients of ``sum c[m,n] u^m v^n`` on a
dense rectangular window ``0 <= m <= max_deg_u``, ``0 <= n <= max_deg_v``
over one of the two coefficient domains of :mod:`oscigen.domains`.  All
operations truncate to the common window; because every operation here is
lower-triangular in total degree, the in-window coefficients of a product,
inverse, exponential or real power are exact (no truncation error leaks
below the window edge).

Multiplication is a straight truncated convolution.  Inverse, exp and real
powers run one coefficient recurrence, ``m a_0 y_m = sum_{k=1..m} (p k -
q (m - k)) a_k y_{m-k}``, along v within the first row and along u with rows
over v as the scalar ring.  ``y = a^alpha`` (``a y' = alpha a' y``) is
(p, q) = (alpha, 1), the inverse is (-1, 1) started from ``1 / a_00``, and
exp (``y' = x' y``) is (1, 0) with no ``a_0`` factor.  The results equal the
defining series (geometric, Taylor, binomial) term by term; the test suite
checks this against direct partial-sum evaluation.

There is one code path for both domains.  The coefficient grid is a
read-only numpy array: float64 for ``FLOAT``, and an object array of
``RatPoly`` elements for ``POLY``, on which ``np.convolve`` and ``np.dot``
run the element operators.

``dft_extract_table`` is an independent numeric oracle: it recovers the
coefficients of an analytic function on a bidisk by a double trapezoidal
contour average, touching none of the series arithmetic above; it
evaluates the torus a strip of rows at a time, so its memory does not grow
with the square of the grid.  ``_checked_sqrt`` is the principal square root
that the generating-function evaluators fed to it share.

Each family's generating function is here as the two routes ``verify``
checks the amplitude kernels against: its values (``*_gf_value``) for the
oracle, and its series (``float_grid``, times the prefactor of the family's
record, and ``exact_grid``).  No table command loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .amplitude import MAX_WINDOW, _j_value, _nu_value, _rho_value, check_window
from .domains import FLOAT, POLY, RatPoly
from .errors import OracleFailureError, SingularEvaluationError, WindowMismatchError
from .probtable import FAMILIES

__all__ = ["MAX_WINDOW", "Series2", "check_window", "dft_extract_table", "forced_gf_value",
           "param_gf_value", "lambda_value", "singular_gf_value"]

_RADIUS = 0.5  # of the torus dft_extract_table integrates on
_STRIP = 16     # u-rows of the torus dft_extract_table evaluates at once


# ---------------------------------------------------------------------------
# row primitives -- a "row" is the coefficient vector over v for one power
# of u: a float64 array, or an object array of RatPoly elements.

def _conv(a, b):
    """Truncated convolution of two rows of equal length."""
    return np.convolve(a, b)[: a.shape[0]]


def _row(a, p, q, y0, lead=None):
    """The recurrence ``m a_0 y_m = sum_{k=1..m} (p k - q (m - k)) a_k y_{m-k}``
    along one row, with scalar coefficients: ``y_0 = y0``, and ``lead`` is
    ``1 / a_0``, or None where ``a_0`` is one or the identity has no ``a_0``."""
    n = a.shape[0]
    out = np.empty_like(a)
    out[0] = y0
    pk, qk = p * np.arange(n), q * np.arange(n)
    for m in range(1, n):
        coef = pk[1 : m + 1] - qk[m - 1 :: -1]  # p k - q (m - k)
        y = np.dot(coef * a[1 : m + 1], out[m - 1 :: -1]) / m
        out[m] = y if lead is None else lead * y
    return out


class Series2:
    """Dense truncated power series in u and v over a coefficient domain.

    ``domain`` is ``FLOAT`` or ``POLY``; ``rows`` is a read-only
    ``(max_deg_u + 1, max_deg_v + 1)`` array of the domain's dtype,
    ``object`` for ``POLY``.
    """

    __slots__ = ("domain", "max_deg_u", "max_deg_v", "rows")

    def __init__(self, domain, max_deg_u: int, max_deg_v: int, rows):
        if max_deg_u < 0 or max_deg_v < 0:
            raise ValueError("truncation degrees must be nonnegative")
        check_window(max_deg_u, max_deg_v)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "max_deg_u", max_deg_u)
        object.__setattr__(self, "max_deg_v", max_deg_v)
        # a ragged grid fails in np.array, or (as objects) becomes a 1-D
        # array of rows that the shape test rejects
        arr = np.array(rows, dtype=domain.dtype or object)
        if arr.shape != (max_deg_u + 1, max_deg_v + 1):
            raise ValueError("coefficient grid does not match window")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Series2 is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, domain, max_deg_u: int, max_deg_v: int, terms) -> "Series2":
        """Series with the given ``{(m, n): coefficient}`` entries, m, n >= 0."""
        check_window(max_deg_u, max_deg_v)
        grid = np.full(
            (max_deg_u + 1, max_deg_v + 1), domain.zero, dtype=domain.dtype or object
        )
        for (m, n), c in terms.items():
            if m < 0 or n < 0:
                raise ValueError(f"negative power u^{m} v^{n}")
            if m <= max_deg_u and n <= max_deg_v:
                grid[m, n] = domain.coerce(c)
        return cls(domain, max_deg_u, max_deg_v, grid)

    @classmethod
    def one(cls, domain, max_deg_u: int, max_deg_v: int) -> "Series2":
        return cls.from_terms(domain, max_deg_u, max_deg_v, {(0, 0): domain.one})

    # -- accessors ---------------------------------------------------------

    def coeff(self, m: int, n: int):
        """Coefficient of ``u^m v^n``; raises IndexError outside the window."""
        if not (0 <= m <= self.max_deg_u and 0 <= n <= self.max_deg_v):
            raise IndexError(
                f"({m},{n}) outside window ({self.max_deg_u},{self.max_deg_v})"
            )
        return self.rows[m, n]

    @property
    def constant_term(self):
        return self.rows[0, 0]

    def _require_match(self, other: "Series2"):
        if not isinstance(other, Series2):
            raise TypeError("expected a Series2 operand")
        if self.domain is not other.domain or self.rows.shape != other.rows.shape:
            raise WindowMismatchError(
                f"operands disagree: {self.domain.name}"
                f"({self.max_deg_u},{self.max_deg_v}) vs "
                f"{other.domain.name}({other.max_deg_u},{other.max_deg_v})"
            )

    def __eq__(self, other):
        if not isinstance(other, Series2):
            return NotImplemented
        # array_equal also compares the shapes, i.e. the windows
        return self.domain is other.domain and bool(
            np.array_equal(self.rows, other.rows)
        )

    # -- ring operations ---------------------------------------------------

    def _with(self, grid) -> "Series2":
        return Series2(self.domain, self.max_deg_u, self.max_deg_v, grid)

    def __add__(self, other):
        self._require_match(other)
        return self._with(self.rows + other.rows)

    def __neg__(self):
        return self._with(-self.rows)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Series2":
        """Multiply every coefficient by a domain scalar."""
        return self._with(self.rows * self.domain.coerce(c))

    def __mul__(self, other):
        """Product truncated to the common window."""
        self._require_match(other)
        a, b = self.rows, other.rows
        grid = np.full_like(a, self.domain.zero)
        for m in range(self.max_deg_u + 1):
            acc = grid[m]
            for i in range(m + 1):
                acc += _conv(a[i], b[m - i])
        return self._with(grid)

    def _recur(self, p, q, row0, lead) -> "Series2":
        """:func:`_row` along u, over rows: ``row0`` is the result's first row,
        ``lead`` the inverse of the first row of ``self`` or None.  Each
        ``a_k * y_{m-k}`` is one convolution, summed in two passes (``p k``
        first) and then divided by m; one folded weight, or dividing first,
        rounds worse on the singular grids."""
        a = self.rows
        out = np.empty_like(a)
        out[0] = row0
        for m in range(1, self.max_deg_u + 1):
            convs = [_conv(a[k], out[m - k]) for k in range(1, m + 1)]
            acc = sum((p * k) * c for k, c in enumerate(convs, 1))
            if q:
                for k, c in enumerate(convs[:-1], 1):
                    acc -= (q * (m - k)) * c
            out[m] = (acc if lead is None else _conv(lead, acc)) / m
        return self._with(out)

    def inverse(self) -> "Series2":
        """Multiplicative inverse within the window.

        The constant term must be a unit of the domain; otherwise a
        SingularSeriesError is raised.
        """
        inv00 = self.domain.invert(self.constant_term)
        row0 = _row(self.rows[0], -1, 1, inv00, inv00)
        return self._recur(-1, 1, row0, row0)  # row0 is also 1 / a_0

    def exp(self) -> "Series2":
        """Exponential of a series with zero constant term.

        Equals the finite Taylor sum ``sum x^k / k!`` inside the window
        (x is nilpotent there); computed through the coefficient recurrence
        of ``y' = x' y``.
        """
        if self.constant_term:
            raise ValueError(
                "exp needs a zero constant term; factor the scalar exponential out"
            )
        return self._recur(1, 0, _row(self.rows[0], 1, 0, self.domain.one), None)

    def pow_real(self, alpha) -> "Series2":
        """Real power of a series with unit constant term.

        Equals the truncated binomial series ``sum C(alpha, k) (a - 1)^k``.
        ``POLY`` needs a rational exponent; ``FLOAT`` accepts any real.
        """
        dom = self.domain
        if self.constant_term != dom.one:
            raise ValueError("pow_real needs constant term 1; factor the scalar out")
        alpha = dom.exponent(alpha)
        a0 = self.rows[0]
        return self._recur(alpha, 1, _row(a0, alpha, 1, dom.one),
                           _row(a0, -1, 1, dom.one))

    def __repr__(self):
        return (
            f"Series2<{self.domain.name}, window=({self.max_deg_u},"
            f"{self.max_deg_v})>"
        )


# ---------------------------------------------------------------------------
# contour-integral oracle and the square root of its evaluators

def _checked_sqrt(z: np.ndarray, what: str) -> np.ndarray:
    """Principal square root after verifying the argument stays off the
    branch cut (the nonpositive real axis)."""
    z = np.asarray(z, dtype=complex)
    on_cut = (z.real <= 0.0) & (np.abs(z.imag) <= 1e-13 * (np.abs(z) + 1.0))
    if np.any(on_cut):
        raise SingularEvaluationError(f"{what} touched the branch cut")
    return np.sqrt(z)


def dft_extract_table(evaluator, max_m: int, max_n: int,
                      grid: int | None = None) -> np.ndarray:
    """Coefficients of ``u^m v^n`` for ``m <= max_m``, ``n <= max_n`` of an
    analytic function, as a real ``(max_m+1, max_n+1)`` array.

    Approximates the double Cauchy integral on the torus ``|u| = |v| =
    1/2`` with the trapezoidal rule on ``grid x grid`` points.  The torus is
    evaluated in strips of ``_STRIP`` u-rows: per strip, one FFT along v,
    of which the first ``max_n + 1`` columns are kept and summed over the
    strip's rows into the first ``max_m + 1`` u-frequencies with
    precomputed twiddles.  So memory is O(strip x grid), not O(grid^2), and
    the result is that of one 2-D FFT to rounding.  ``evaluator(U, V)``
    takes two complex arrays of the same shape, the nodes of one strip
    (at most ``_STRIP x grid``), and returns the values there.  For
    functions with real coefficients the imaginary parts are an error
    indicator; the largest must stay below 1e-10.
    """
    if max_m < 0 or max_n < 0:
        raise ValueError("negative coefficient index")
    if grid is None:
        grid = 4 * (max(max_m, max_n) + 1)
    if grid <= max(max_m, max_n):
        raise ValueError("grid must exceed the requested degrees")
    k = np.arange(grid)
    nodes = _RADIUS * np.exp(1j * (2.0 * np.pi * k / grid))
    m = np.arange(max_m + 1)
    # e^(-2 pi i m k / grid), the exponent reduced mod grid before rounding
    twiddle = np.exp(-2j * np.pi / grid * (np.outer(m, k) % grid))
    C = np.zeros((max_m + 1, max_n + 1), dtype=complex)
    for lo in range(0, grid, _STRIP):
        U, V = np.meshgrid(nodes[lo: lo + _STRIP], nodes, indexing="ij")
        F = np.fft.fft(np.asarray(evaluator(U, V), dtype=complex), axis=1)
        C += twiddle[:, lo: lo + _STRIP] @ F[:, : max_n + 1]
    powers = _RADIUS ** (m[:, None] + np.arange(max_n + 1)[None, :])
    block = C / (grid * grid * powers)
    worst = float(np.max(np.abs(block.imag)))
    if worst > 1e-10:
        raise OracleFailureError(f"imaginary residue {worst:.3e} above 1.0e-10")
    return block.real


# ---------------------------------------------------------------------------
# the generating function of each family, as values for the oracle and as a
# series for the engine: the two routes ``verify`` checks the kernels against

def forced_gf_value(u, v, nu) -> complex:
    """Evaluate the forced G(u, v | nu); accepts scalars or numpy arrays.
    The only singularity is the simple pole at uv = 1."""
    nu_val = _nu_value(nu)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    w = 1.0 - u * v
    if np.any(np.abs(w) < 1e-13):
        raise SingularEvaluationError("uv = 1 pole of the generating function")
    out = np.exp(-nu_val * (1.0 - u) * (1.0 - v) / w) / w
    return complex(out) if out.ndim == 0 else out


def param_gf_value(u, v, rho) -> complex:
    """Evaluate the parametric G(u, v | rho) on the principal branch (value
    +1 at the origin for rho = 0)."""
    rho_val = _rho_value(rho)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    den = (1.0 - u * v) ** 2 - rho_val * (u - v) ** 2
    out = math.sqrt(1.0 - rho_val) / _checked_sqrt(den, "parametric denominator")
    return complex(out) if out.ndim == 0 else out


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
    """The kernel lambda of the singular generating function, principal branch."""
    lam = _lambda_raw(u, v, _rho_value(rho))
    return complex(lam) if lam.ndim == 0 else lam


def singular_gf_value(u, v, rho, j) -> complex:
    """Evaluate the singular lambda^{-2j} / (1 - uv lambda^2), principal power."""
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


def _forced_series(dom, nu, max_m: int, max_n: int) -> Series2:
    """e^{nu} G = (1-uv)^{-1} exp(nu (u + v - 2uv) / (1-uv)) over ``dom``;
    ``nu`` is a float or the polynomial variable."""
    inv = Series2.from_terms(dom, max_m, max_n, {(0, 0): 1, (1, 1): -1}).inverse()
    lin = Series2.from_terms(dom, max_m, max_n, {(1, 0): 1, (0, 1): 1, (1, 1): -2})
    return inv * (lin * inv).scale(nu).exp()


def _param_series(dom, rho, max_m: int, max_n: int) -> Series2:
    """G / sqrt(1 - rho) = ((1-uv)^2 - rho (u-v)^2)^{-1/2} over ``dom``;
    ``rho`` is a float or the polynomial variable."""
    terms = {(0, 0): 1, (1, 1): 2 * rho - 2, (2, 2): 1, (2, 0): -rho, (0, 2): -rho}
    return Series2.from_terms(dom, max_m, max_n, terms).pow_real(Fraction(-1, 2))


def _singular_series(dom, rho, j, max_m: int, max_n: int) -> Series2:
    """g / (1-rho)^{-2j} over the float ``dom``.  lambda factors as (1-rho) L
    with L(0,0) = 1, and L comes from nested series square root and
    inversion; the prefactor, multiplied in last as the table kernel starts
    its vacuum row, keeps rho where 1 - rho rounds."""
    t = Series2.from_terms(dom, max_m, max_n,
                           {(0, 0): 1.0, (1, 0): -rho, (0, 1): -rho, (1, 1): 1.0})
    uv = Series2.from_terms(dom, max_m, max_n, {(1, 1): 1.0})
    root = (t * t - uv.scale(4.0 * (1.0 - rho) ** 2)).pow_real(0.5)
    lam_unit = (t + root).inverse().scale(2.0)  # lambda / (1 - rho)
    geom = (Series2.one(dom, max_m, max_n)
            - (uv * lam_unit * lam_unit).scale((1.0 - rho) ** 2)).inverse()
    return lam_unit.pow_real(-2.0 * j) * geom


_SERIES = {"forced": _forced_series, "parametric": _param_series, "singular": _singular_series}


def float_grid(family: str, params: tuple, max_m: int, max_n: int) -> np.ndarray:
    """w_mn for m <= max_m, n <= max_n at the float parameters ``params``, in
    kernel order, from the family's series times its prefactor."""
    return FAMILIES[family].prefactor(*params) * _SERIES[family](FLOAT, *params, max_m, max_n).rows


def exact_grid(family: str, max_m: int, max_n: int) -> Series2:
    """The polynomials of a forced or parametric table from its series: the
    cross-check of the family's closed-form ``poly``."""
    return _SERIES[family](POLY, RatPoly((0, 1)), max_m, max_n)
