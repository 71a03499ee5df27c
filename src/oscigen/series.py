"""Truncated bivariate power series and a contour-integral coefficient oracle.

A :class:`Series2` holds the coefficients of ``sum c[m,n] u^m v^n`` on a
dense rectangular window ``0 <= m <= max_deg_u``, ``0 <= n <= max_deg_v``
over one of the coefficient domains from :mod:`oscigen.domains`.  All
operations truncate to the common window; because every operation here is
lower-triangular in total degree, the in-window coefficients of a product,
inverse, exponential or real power are exact (no truncation error leaks
below the window edge).

Multiplication is a straight truncated convolution.  Inverse, exp and real
powers use the standard coefficient recurrences (the derivative identities
``y' = x' y`` for exp and ``a y' = alpha a' y`` for ``y = a^alpha``), applied
along u with rows over v as the scalar ring.  The results are identical to
the defining series (geometric, Taylor, binomial) term by term; the test
suite checks this against direct partial-sum evaluation.

``dft_extract_table`` is an independent numeric oracle: it recovers the
coefficients of an analytic function on a bidisk by a double trapezoidal
contour average (one 2-D FFT), touching none of the series arithmetic
above.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np

from .domains import Domain
from .errors import OracleFailureError, SingularSeriesError, WindowMismatchError

__all__ = ["Series2", "check_window", "dft_extract_table", "max_window"]

_DEFAULT_MAX_WINDOW = 4096


def max_window() -> int:
    """Window cap; override with the OSCIGEN_MAX_WINDOW environment variable,
    a positive integer."""
    raw = os.environ.get("OSCIGEN_MAX_WINDOW")
    if not raw:
        return _DEFAULT_MAX_WINDOW
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"OSCIGEN_MAX_WINDOW must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"OSCIGEN_MAX_WINDOW must be at least 1, got {cap}")
    return cap


def check_window(max_deg_u: int, max_deg_v: int) -> None:
    """Reject a window beyond the cap of :func:`max_window`."""
    cap = max_window()
    if max_deg_u > cap or max_deg_v > cap:
        raise ValueError(
            f"window ({max_deg_u},{max_deg_v}) exceeds cap {cap} (OSCIGEN_MAX_WINDOW)"
        )


# ---------------------------------------------------------------------------
# row primitives -- a "row" is the coefficient vector over v for one power
# of u.  Exact domains use plain lists, numeric domains numpy arrays.

def _oconv(a, b, zero):
    """Truncated convolution of two object rows of equal length."""
    n = len(a)
    out = [zero] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n - i):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def _orow_inv(a, dom):
    n = len(a)
    c0 = dom.invert(a[0])
    out = [dom.zero] * n
    out[0] = c0
    for k in range(1, n):
        acc = dom.zero
        for j in range(1, k + 1):
            if a[j] and out[k - j]:
                acc = acc + a[j] * out[k - j]
        out[k] = -(c0 * acc) if acc else dom.zero
    return out


def _orow_exp(a, dom):
    n = len(a)
    out = [dom.zero] * n
    out[0] = dom.one
    for k in range(1, n):
        acc = dom.zero
        for j in range(1, k + 1):
            if a[j] and out[k - j]:
                acc = acc + (a[j] * j) * out[k - j]
        out[k] = acc * Fraction(1, k) if acc else dom.zero
    return out


def _orow_pow(a, alpha, dom):
    # requires a[0] == 1
    n = len(a)
    out = [dom.zero] * n
    out[0] = dom.one
    for k in range(1, n):
        acc = dom.zero
        for j in range(1, k + 1):
            if a[j] and out[k - j]:
                acc = acc + (a[j] * (alpha * j + j - k)) * out[k - j]
        out[k] = acc * Fraction(1, k) if acc else dom.zero
    return out


def _nconv(a, b):
    return np.convolve(a, b)[: a.shape[0]]


def _nrow_inv(a, dom):
    n = a.shape[0]
    if a[0] == 0:
        raise SingularSeriesError("zero is not invertible")
    out = np.zeros(n, dtype=a.dtype)
    out[0] = 1.0 / a[0]
    for k in range(1, n):
        out[k] = -out[0] * np.dot(a[1 : k + 1], out[k - 1 :: -1])
    return out


def _nrow_exp(a, dom):
    n = a.shape[0]
    out = np.zeros(n, dtype=a.dtype)
    out[0] = 1.0
    ja = a * np.arange(n)
    for k in range(1, n):
        out[k] = np.dot(ja[1 : k + 1], out[k - 1 :: -1]) / k
    return out


def _nrow_pow(a, alpha, dom):
    n = a.shape[0]
    out = np.zeros(n, dtype=a.dtype)
    out[0] = 1.0
    ks = np.arange(n)
    for k in range(1, n):
        coef = (alpha + 1.0) * ks[1 : k + 1] - k
        out[k] = np.dot(coef * a[1 : k + 1], out[k - 1 :: -1]) / k
    return out


class Series2:
    """Dense truncated power series in u and v over a coefficient domain."""

    __slots__ = ("domain", "max_deg_u", "max_deg_v", "rows")

    def __init__(self, domain: Domain, max_deg_u: int, max_deg_v: int, rows):
        if max_deg_u < 0 or max_deg_v < 0:
            raise ValueError("truncation degrees must be nonnegative")
        check_window(max_deg_u, max_deg_v)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "max_deg_u", max_deg_u)
        object.__setattr__(self, "max_deg_v", max_deg_v)
        if domain.dtype is not None:
            arr = np.array(rows, dtype=domain.dtype)
            if arr.shape != (max_deg_u + 1, max_deg_v + 1):
                raise ValueError("coefficient grid does not match window")
            arr.setflags(write=False)
            object.__setattr__(self, "rows", arr)
        else:
            rows = tuple(tuple(r) for r in rows)
            if len(rows) != max_deg_u + 1 or any(
                len(r) != max_deg_v + 1 for r in rows
            ):
                raise ValueError("coefficient grid does not match window")
            object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Series2 is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, domain: Domain, max_deg_u: int, max_deg_v: int) -> "Series2":
        if domain.dtype is not None:
            grid = np.zeros((max_deg_u + 1, max_deg_v + 1), dtype=domain.dtype)
        else:
            grid = [[domain.zero] * (max_deg_v + 1) for _ in range(max_deg_u + 1)]
        return cls(domain, max_deg_u, max_deg_v, grid)

    @classmethod
    def from_terms(cls, domain: Domain, max_deg_u: int, max_deg_v: int, terms) -> "Series2":
        """Series with the given ``{(m, n): coefficient}`` entries."""
        if domain.dtype is not None:
            grid = np.zeros((max_deg_u + 1, max_deg_v + 1), dtype=domain.dtype)
            for (m, n), c in terms.items():
                if m <= max_deg_u and n <= max_deg_v:
                    grid[m, n] = domain.coerce(c)
        else:
            grid = [[domain.zero] * (max_deg_v + 1) for _ in range(max_deg_u + 1)]
            for (m, n), c in terms.items():
                if m <= max_deg_u and n <= max_deg_v:
                    grid[m][n] = domain.coerce(c)
        return cls(domain, max_deg_u, max_deg_v, grid)

    @classmethod
    def one(cls, domain: Domain, max_deg_u: int, max_deg_v: int) -> "Series2":
        return cls.from_terms(domain, max_deg_u, max_deg_v, {(0, 0): domain.one})

    # -- accessors ---------------------------------------------------------

    def coeff(self, m: int, n: int):
        """Coefficient of ``u^m v^n``; raises IndexError outside the window."""
        if not (0 <= m <= self.max_deg_u and 0 <= n <= self.max_deg_v):
            raise IndexError(
                f"({m},{n}) outside window ({self.max_deg_u},{self.max_deg_v})"
            )
        return self.rows[m][n]

    @property
    def constant_term(self):
        return self.rows[0][0]

    def window_matches(self, other: "Series2") -> bool:
        return (
            self.domain is other.domain
            and self.max_deg_u == other.max_deg_u
            and self.max_deg_v == other.max_deg_v
        )

    def _require_match(self, other: "Series2"):
        if not isinstance(other, Series2):
            raise TypeError("expected a Series2 operand")
        if not self.window_matches(other):
            raise WindowMismatchError(
                f"operands disagree: {self.domain.name}"
                f"({self.max_deg_u},{self.max_deg_v}) vs "
                f"{other.domain.name}({other.max_deg_u},{other.max_deg_v})"
            )

    def __eq__(self, other):
        if not isinstance(other, Series2):
            return NotImplemented
        if not self.window_matches(other):
            return False
        if self.domain.dtype is not None:
            return bool(np.array_equal(self.rows, other.rows))
        return self.rows == other.rows

    def __hash__(self):
        return object.__hash__(self)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._require_match(other)
        if self.domain.dtype is not None:
            grid = self.rows + other.rows
        else:
            grid = [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        return Series2(self.domain, self.max_deg_u, self.max_deg_v, grid)

    def __neg__(self):
        if self.domain.dtype is not None:
            grid = -self.rows
        else:
            grid = [[-c for c in r] for r in self.rows]
        return Series2(self.domain, self.max_deg_u, self.max_deg_v, grid)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Series2":
        """Multiply every coefficient by a domain scalar."""
        c = self.domain.coerce(c)
        if self.domain.dtype is not None:
            grid = self.rows * c
        else:
            grid = [[x * c if x else self.domain.zero for x in r] for r in self.rows]
        return Series2(self.domain, self.max_deg_u, self.max_deg_v, grid)

    def __mul__(self, other):
        """Product truncated to the common window."""
        self._require_match(other)
        mu = self.max_deg_u
        if self.domain.dtype is not None:
            a, b = self.rows, other.rows
            grid = np.zeros_like(a)
            for m in range(mu + 1):
                acc = grid[m]
                for i in range(m + 1):
                    acc += _nconv(a[i], b[m - i])
        else:
            zero = self.domain.zero
            nv = self.max_deg_v
            grid = []
            for m in range(mu + 1):
                acc = [zero] * (nv + 1)
                for i in range(m + 1):
                    ra, rb = self.rows[i], other.rows[m - i]
                    for p, ap in enumerate(ra):
                        if not ap:
                            continue
                        for q in range(nv + 1 - p):
                            bq = rb[q]
                            if bq:
                                acc[p + q] = acc[p + q] + ap * bq
                grid.append(acc)
        return Series2(self.domain, self.max_deg_u, self.max_deg_v, grid)

    def inverse(self) -> "Series2":
        """Multiplicative inverse within the window.

        The constant term must be a unit of the domain; otherwise a
        SingularSeriesError is raised.
        """
        dom = self.domain
        mu, nv = self.max_deg_u, self.max_deg_v
        if dom.dtype is not None:
            a = self.rows
            out = np.zeros_like(a)
            out[0] = _nrow_inv(a[0], dom)
            inv0 = out[0]
            for m in range(1, mu + 1):
                acc = np.zeros(nv + 1, dtype=a.dtype)
                for i in range(1, m + 1):
                    acc += _nconv(a[i], out[m - i])
                out[m] = -_nconv(inv0, acc)
        else:
            dom.invert(self.constant_term)  # raises if not a unit
            a = self.rows
            inv0 = _orow_inv(list(a[0]), dom)
            out = [inv0]
            zero = dom.zero
            for m in range(1, mu + 1):
                acc = [zero] * (nv + 1)
                for i in range(1, m + 1):
                    conv = _oconv(list(a[i]), out[m - i], zero)
                    acc = [x + y for x, y in zip(acc, conv)]
                row = _oconv(inv0, acc, zero)
                out.append([-x for x in row])
        return Series2(dom, mu, nv, out)

    def exp(self) -> "Series2":
        """Exponential of a series with zero constant term.

        Equals the finite Taylor sum ``sum x^k / k!`` inside the window
        (x is nilpotent there); computed through the coefficient recurrence
        of ``y' = x' y``.
        """
        dom = self.domain
        if not dom.is_zero(self.constant_term):
            raise ValueError(
                "exp needs a zero constant term; factor the scalar exponential out"
            )
        mu, nv = self.max_deg_u, self.max_deg_v
        if dom.dtype is not None:
            x = self.rows
            out = np.zeros_like(x)
            out[0] = _nrow_exp(x[0], dom)
            for m in range(1, mu + 1):
                acc = np.zeros(nv + 1, dtype=x.dtype)
                for k in range(1, m + 1):
                    acc += k * _nconv(x[k], out[m - k])
                out[m] = acc / m
        else:
            zero = dom.zero
            out = [_orow_exp(list(self.rows[0]), dom)]
            for m in range(1, mu + 1):
                acc = [zero] * (nv + 1)
                for k in range(1, m + 1):
                    xk = [c * k if c else zero for c in self.rows[k]]
                    conv = _oconv(xk, out[m - k], zero)
                    acc = [x + y for x, y in zip(acc, conv)]
                out.append([c * Fraction(1, m) if c else zero for c in acc])
        return Series2(dom, mu, nv, out)

    def pow_real(self, alpha) -> "Series2":
        """Real power of a series with unit constant term.

        Equals the truncated binomial series ``sum C(alpha, k) (a - 1)^k``.
        Exact domains need a rational exponent; numeric domains accept any
        real.
        """
        dom = self.domain
        mu, nv = self.max_deg_u, self.max_deg_v
        if dom.dtype is not None:
            a = self.rows
            if a[0][0] != 1.0:
                raise ValueError("pow_real needs constant term 1; factor the scalar out")
            alpha = float(alpha)
            out = np.zeros_like(a)
            out[0] = _nrow_pow(a[0], alpha, dom)
            inv0 = _nrow_inv(a[0], dom)
            for m in range(1, mu + 1):
                acc = np.zeros(nv + 1, dtype=a.dtype)
                for k in range(1, m + 1):
                    acc += (alpha * k) * _nconv(a[k], out[m - k])
                for i in range(1, m):
                    acc -= (m - i) * _nconv(a[i], out[m - i])
                out[m] = _nconv(inv0, acc) / m
        else:
            if self.constant_term != dom.one:
                raise ValueError("pow_real needs constant term 1; factor the scalar out")
            if isinstance(alpha, int):
                alpha = Fraction(alpha)
            if not isinstance(alpha, Fraction):
                raise TypeError("exact domains need a rational exponent")
            zero = dom.zero
            a = [list(r) for r in self.rows]
            out = [_orow_pow(a[0], alpha, dom)]
            inv0 = _orow_inv(a[0], dom)
            for m in range(1, mu + 1):
                acc = [zero] * (nv + 1)
                for k in range(1, m + 1):
                    ak = [c * (alpha * k) if c else zero for c in a[k]]
                    conv = _oconv(ak, out[m - k], zero)
                    acc = [x + y for x, y in zip(acc, conv)]
                for i in range(1, m):
                    ai = [c * (m - i) if c else zero for c in a[i]]
                    conv = _oconv(ai, out[m - i], zero)
                    acc = [x - y for x, y in zip(acc, conv)]
                row = _oconv(inv0, acc, zero)
                out.append([c * Fraction(1, m) if c else zero for c in row])
        return Series2(dom, mu, nv, out)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, u, v):
        """Horner evaluation at scalars; unavailable over polynomial domains."""
        rows = self.rows
        acc = None
        for r in reversed(rows):
            racc = None
            for c in reversed(r):
                racc = c if racc is None else racc * v + c
            acc = racc if acc is None else acc * u + racc
        return acc

    def __repr__(self):
        return (
            f"Series2<{self.domain.name}, window=({self.max_deg_u},"
            f"{self.max_deg_v})>"
        )


# ---------------------------------------------------------------------------
# contour-integral oracle

def dft_extract_table(evaluator, max_m: int, max_n: int, radius: float = 0.5,
                      grid: int | None = None,
                      imag_tol: float | None = 1e-10) -> np.ndarray:
    """Coefficients of ``u^m v^n`` for ``m <= max_m``, ``n <= max_n`` of an
    analytic function, as a real ``(max_m+1, max_n+1)`` array.

    Approximates the double Cauchy integral on the torus ``|u| = |v| =
    radius`` with the trapezoidal rule on ``grid x grid`` points, all
    coefficients in one FFT.  For functions with real coefficients the
    imaginary parts are an error indicator; the largest must stay below
    ``imag_tol`` (None skips the check).
    """
    if max_m < 0 or max_n < 0:
        raise ValueError("negative coefficient index")
    if grid is None:
        grid = 4 * (max(max_m, max_n) + 1)
    if grid <= max(max_m, max_n):
        raise ValueError("grid must exceed the requested degrees")
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must sit in (0, 1)")
    theta = 2.0 * np.pi * np.arange(grid) / grid
    ua = radius * np.exp(1j * theta)
    U, V = np.meshgrid(ua, ua, indexing="ij")
    # a scalar-only evaluator raises TypeError or ValueError on arrays and
    # is retried pointwise; any other error is the evaluator's own
    try:
        F = np.asarray(evaluator(U, V), dtype=complex)
        if F.shape != U.shape:
            raise ValueError
    except (TypeError, ValueError):
        F = np.empty((grid, grid), dtype=complex)
        for a in range(grid):
            for b in range(grid):
                F[a, b] = evaluator(complex(U[a, b]), complex(V[a, b]))
    C = np.fft.fft2(F) / (grid * grid)
    powers = radius ** (np.arange(max_m + 1)[:, None] + np.arange(max_n + 1)[None, :])
    block = C[: max_m + 1, : max_n + 1] / powers
    if imag_tol is not None:
        worst = float(np.max(np.abs(block.imag)))
        if worst > imag_tol:
            raise OracleFailureError(
                f"imaginary residue {worst:.3e} above {imag_tol:.1e}"
            )
    return block.real
