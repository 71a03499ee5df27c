"""Coefficient domains for the truncated series engine.

A domain bundles the ring constants (``zero``, ``one``) with coercion,
inversion and the exponents ``pow_real`` accepts, for one kind of
coefficient.  There are two:

* ``FLOAT`` -- double-precision reals, kept in float64 arrays;
* ``POLY``  -- univariate polynomials with exact rational coefficients
               (:class:`RatPoly`), kept as the elements of object arrays.
               A rational constant is a degree-0 polynomial.

Elements themselves carry the arithmetic through the usual operators, so the
series code runs the same numpy code on both.  ``dtype`` is the float
domain's numpy dtype and None for ``POLY``.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .errors import SingularSeriesError

__all__ = ["RatPoly", "FLOAT", "POLY"]


class RatPoly:
    """Immutable univariate polynomial with Fraction coefficients.

    Coefficients are stored in ascending powers with no trailing zeros, so
    the zero polynomial has an empty coefficient tuple and equality is
    structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        # series rows are mostly zeros, so return a zero operand as it is;
        # RatPoly goes first because isinstance on Fraction is an ABC check
        if isinstance(other, RatPoly):
            if not self.coeffs:
                return self
            if not other.coeffs:
                return other
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] += a * b
            return RatPoly(out)
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return self
            if other == 0:
                return RatPoly()
            return RatPoly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        return NotImplemented

    def shift_down(self, k: int) -> "RatPoly":
        """Divide by the k-th power of the variable; the low coefficients must
        vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("polynomial not divisible by variable power")
        return RatPoly(self.coeffs[k:])

    def __call__(self, x):
        """Horner evaluation; exact for Fraction arguments."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def at_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Values at float nodes, each taken exactly at the node's binary
        value and rounded once: the alternating-sign polynomials of the
        transition probabilities are too ill-conditioned for float Horner at
        large nodes."""
        return np.array([float(self(Fraction(x))) for x in nodes.tolist()])

    def format(self, var: str) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"RatPoly({self.format('p')})"


def _as_poly(x):
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly((x,))
    return NotImplemented


def _coerce_float(x):
    if isinstance(x, complex):
        raise TypeError("complex value in real domain")
    return float(x)


def _invert_float(x):
    if x == 0.0:
        raise SingularSeriesError("zero is not invertible")
    return 1.0 / x


def _coerce_poly(x):
    p = _as_poly(x)
    if p is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} into rational polynomials")
    return p


def _invert_poly(x):
    # only nonzero constants are units, which is all the generating-function
    # factorizations need: non-constant prefactors are kept outside the series
    x = _coerce_poly(x)
    if x.degree != 0:
        raise SingularSeriesError(f"{x!r} is not a unit; only nonzero constants invert")
    return RatPoly((Fraction(1) / x.coeffs[0],))


def _rational_exponent(alpha):
    if isinstance(alpha, int):
        return Fraction(alpha)
    if not isinstance(alpha, Fraction):
        raise TypeError("exact coefficients need a rational exponent")
    return alpha


FLOAT = SimpleNamespace(
    name="float", zero=0.0, one=1.0, dtype=np.float64,
    coerce=_coerce_float, invert=_invert_float, exponent=float,
)
POLY = SimpleNamespace(
    name="poly", zero=RatPoly(), one=RatPoly((1,)), dtype=None,
    coerce=_coerce_poly, invert=_invert_poly, exponent=_rational_exponent,
)
