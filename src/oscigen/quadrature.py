"""Gaussian quadrature rules matched to the integrand families that appear
in the oscillator sum rules.

All rules are returned on their working interval:

* ``gauss_legendre``    -- plain integrals over [0, 1],
* ``gauss_laguerre``    -- integrals of e^{-x} * polynomial over [0, inf),
* ``gauss_jacobi_half`` -- integrals of (1-x)^{-1/2} * polynomial over [0, 1].

Legendre nodes come from vectorized Newton iteration on the recurrence
(numpy's ``leggauss`` misses the [0, 1] spot integrals by a few ulp).
Laguerre is numpy's ``laggauss``.  The Jacobi rule needs no code of its
own: x = 1 - s^2 turns (1-x)^{-1/2} dx into 2 ds, so the n negative nodes s
of the 2n-point Legendre rule, with weights 2 w_s, integrate every
polynomial of degree up to 2n - 1 exactly.

Each rule is built once per node count and cached; its arrays are
read-only, so callers share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadRule", "gauss_legendre", "gauss_laguerre", "gauss_jacobi_half"]


@dataclass(frozen=True)
class QuadRule:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, f) -> float:
        """Apply the rule to a vectorized callable."""
        return float(np.dot(self.weights, f(self.nodes)))


def _legendre_newton(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Chebyshev initial guess, then Newton on P_n evaluated by recurrence.
    def legendre(x):  # P_n(x) and P_n'(x)
        p_prev = np.zeros_like(x)
        p = np.ones_like(x)
        for s in range(n):
            p_prev, p = p, ((2 * s + 1) * x * p - s * p_prev) / (s + 1)
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre(x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Legendre node iteration failed to converge")
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadRule:
    """n-point rule for the plain integral over [0, 1]."""
    if not 1 <= n <= 256:
        raise ValueError("node count out of range 1..256")
    x, w = _legendre_newton(n)
    return QuadRule((x + 1.0) / 2.0, w / 2.0)


@lru_cache(maxsize=None)
def gauss_laguerre(n: int) -> QuadRule:
    """n-point rule for integrals of e^{-x} g(x) over [0, inf)."""
    if not 1 <= n <= 128:
        raise ValueError("node count out of range 1..128")
    from numpy.polynomial.laguerre import laggauss

    x, w = laggauss(n)
    return QuadRule(x, w)


@lru_cache(maxsize=None)
def gauss_jacobi_half(n: int) -> QuadRule:
    """n-point rule for integrals of (1-x)^{-1/2} g(x) over [0, 1]."""
    if not 1 <= n <= 128:
        raise ValueError("node count out of range 1..128")
    s, w = _legendre_newton(2 * n)
    return QuadRule(1.0 - s[:n] ** 2, 2.0 * w[:n])
