"""Truncated bivariate power series and a contour-integral coefficient oracle.

A :class:`Series2` holds the coefficients of ``sum c[m,n] u^m v^n`` on a
dense rectangular window ``0 <= m <= max_deg_u``, ``0 <= n <= max_deg_v``
over one of the two coefficient domains of :mod:`oscigen.domains`.  All
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

There is one code path for both domains.  The coefficient grid is a
read-only numpy array: float64 for ``FLOAT``, and an object array of
``RatPoly`` elements for ``POLY``, on which ``np.convolve`` and ``np.dot``
run the element operators.

``dft_extract_table`` is an independent numeric oracle: it recovers the
coefficients of an analytic function on a bidisk by a double trapezoidal
contour average (one 2-D FFT), touching none of the series arithmetic
above.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleFailureError, WindowMismatchError

__all__ = ["MAX_WINDOW", "Series2", "check_window", "dft_extract_table"]

MAX_WINDOW = 4096


def check_window(max_deg_u: int, max_deg_v: int) -> None:
    """Reject a window beyond ``MAX_WINDOW`` before anything is allocated."""
    if max_deg_u > MAX_WINDOW or max_deg_v > MAX_WINDOW:
        raise ValueError(
            f"window ({max_deg_u},{max_deg_v}) exceeds cap {MAX_WINDOW}"
        )


# ---------------------------------------------------------------------------
# row primitives -- a "row" is the coefficient vector over v for one power
# of u: a float64 array, or an object array of RatPoly elements.

def _conv(a, b):
    """Truncated convolution of two rows of equal length."""
    return np.convolve(a, b)[: a.shape[0]]


def _row_inv(a, dom):
    n = a.shape[0]
    out = np.full_like(a, dom.zero)
    out[0] = dom.invert(a[0])
    for k in range(1, n):
        out[k] = -out[0] * np.dot(a[1 : k + 1], out[k - 1 :: -1])
    return out


def _row_exp(a, dom):
    n = a.shape[0]
    out = np.full_like(a, dom.zero)
    out[0] = dom.one
    ja = a * np.arange(n)
    for k in range(1, n):
        out[k] = np.dot(ja[1 : k + 1], out[k - 1 :: -1]) / k
    return out


def _row_pow(a, alpha, dom):
    # requires a[0] == 1
    n = a.shape[0]
    out = np.full_like(a, dom.zero)
    out[0] = dom.one
    ks = np.arange(n)
    for k in range(1, n):
        coef = (alpha + 1) * ks[1 : k + 1] - k
        out[k] = np.dot(coef * a[1 : k + 1], out[k - 1 :: -1]) / k
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
    def zeros(cls, domain, max_deg_u: int, max_deg_v: int) -> "Series2":
        return cls.from_terms(domain, max_deg_u, max_deg_v, {})

    @classmethod
    def from_terms(cls, domain, max_deg_u: int, max_deg_v: int, terms) -> "Series2":
        """Series with the given ``{(m, n): coefficient}`` entries."""
        grid = np.full(
            (max_deg_u + 1, max_deg_v + 1), domain.zero, dtype=domain.dtype or object
        )
        for (m, n), c in terms.items():
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

    def __hash__(self):
        return object.__hash__(self)

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

    def inverse(self) -> "Series2":
        """Multiplicative inverse within the window.

        The constant term must be a unit of the domain; otherwise a
        SingularSeriesError is raised.
        """
        dom = self.domain
        a = self.rows
        out = np.full_like(a, dom.zero)
        out[0] = inv0 = _row_inv(a[0], dom)
        for m in range(1, self.max_deg_u + 1):
            acc = np.full_like(inv0, dom.zero)
            for i in range(1, m + 1):
                acc += _conv(a[i], out[m - i])
            out[m] = -_conv(inv0, acc)
        return self._with(out)

    def exp(self) -> "Series2":
        """Exponential of a series with zero constant term.

        Equals the finite Taylor sum ``sum x^k / k!`` inside the window
        (x is nilpotent there); computed through the coefficient recurrence
        of ``y' = x' y``.
        """
        dom = self.domain
        if self.constant_term:
            raise ValueError(
                "exp needs a zero constant term; factor the scalar exponential out"
            )
        x = self.rows
        out = np.full_like(x, dom.zero)
        out[0] = _row_exp(x[0], dom)
        for m in range(1, self.max_deg_u + 1):
            acc = np.full_like(x[0], dom.zero)
            for k in range(1, m + 1):
                acc += k * _conv(x[k], out[m - k])
            out[m] = acc / m
        return self._with(out)

    def pow_real(self, alpha) -> "Series2":
        """Real power of a series with unit constant term.

        Equals the truncated binomial series ``sum C(alpha, k) (a - 1)^k``.
        ``POLY`` needs a rational exponent; ``FLOAT`` accepts any real.
        """
        dom = self.domain
        if self.constant_term != dom.one:
            raise ValueError("pow_real needs constant term 1; factor the scalar out")
        alpha = dom.exponent(alpha)
        a = self.rows
        out = np.full_like(a, dom.zero)
        out[0] = _row_pow(a[0], alpha, dom)
        inv0 = _row_inv(a[0], dom)
        for m in range(1, self.max_deg_u + 1):
            acc = np.full_like(inv0, dom.zero)
            for k in range(1, m + 1):
                acc += (alpha * k) * _conv(a[k], out[m - k])
            for i in range(1, m):
                acc -= (m - i) * _conv(a[i], out[m - i])
            out[m] = _conv(inv0, acc) / m
        return self._with(out)

    def __repr__(self):
        return (
            f"Series2<{self.domain.name}, window=({self.max_deg_u},"
            f"{self.max_deg_v})>"
        )


# ---------------------------------------------------------------------------
# contour-integral oracle

def dft_extract_table(evaluator, max_m: int, max_n: int, radius: float = 0.5,
                      grid: int | None = None) -> np.ndarray:
    """Coefficients of ``u^m v^n`` for ``m <= max_m``, ``n <= max_n`` of an
    analytic function, as a real ``(max_m+1, max_n+1)`` array.

    Approximates the double Cauchy integral on the torus ``|u| = |v| =
    radius`` with the trapezoidal rule on ``grid x grid`` points, all
    coefficients in one FFT.  ``evaluator(U, V)`` takes the two complex
    ``grid x grid`` arrays of the nodes.  For functions with real
    coefficients the imaginary parts are an error indicator; the largest
    must stay below 1e-10.
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
    C = np.fft.fft2(np.asarray(evaluator(U, V), dtype=complex)) / (grid * grid)
    powers = radius ** (np.arange(max_m + 1)[:, None] + np.arange(max_n + 1)[None, :])
    block = C[: max_m + 1, : max_n + 1] / powers
    worst = float(np.max(np.abs(block.imag)))
    if worst > 1e-10:
        raise OracleFailureError(f"imaginary residue {worst:.3e} above 1.0e-10")
    return block.real
