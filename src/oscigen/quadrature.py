"""Gaussian quadrature rules matched to the integrand families that appear
in the oscillator sum rules.

All rules are returned on their working interval:

* ``gauss_legendre``    -- plain integrals over [0, 1],
* ``gauss_laguerre``    -- integrals of e^{-x} * polynomial over [0, inf),
* ``gauss_jacobi_half`` -- integrals of (1-x)^{-1/2} * polynomial over [0, 1].

Legendre nodes come from vectorized Newton iteration on the recurrence;
Laguerre and Jacobi start from the symmetric tridiagonal (Golub-Welsch)
eigenproblem, with Laguerre nodes polished by Newton and its weights
recomputed from the derivative formula (raw eigenvector weights lose
relative accuracy in the tiny-weight tail).

Each rule is built once per node count and cached; its arrays are
read-only, so callers share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadRule", "gauss_legendre", "gauss_laguerre", "gauss_jacobi_half"]


@dataclass(frozen=True)
class QuadRule:
    kind: str
    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, f) -> float:
        """Apply the rule to a vectorized callable."""
        return float(np.dot(self.weights, f(self.nodes)))


def _legendre_newton(n: int, tol: float = 1e-15) -> tuple[np.ndarray, np.ndarray]:
    # Chebyshev initial guess, then Newton on P_n evaluated by recurrence.
    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        p_prev = np.zeros_like(x)
        p = np.ones_like(x)
        for s in range(n):
            p_prev, p = p, ((2 * s + 1) * x * p - s * p_prev) / (s + 1)
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < tol:
            break
    else:
        raise RuntimeError("Legendre node iteration failed to converge")
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    for s in range(n):
        p_prev, p = p, ((2 * s + 1) * x * p - s * p_prev) / (s + 1)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadRule:
    """n-point rule for the plain integral over [0, 1]."""
    if not 1 <= n <= 256:
        raise ValueError("node count out of range 1..256")
    if n == 1:
        return QuadRule("legendre", 1, np.array([0.5]), np.array([1.0]))
    x, w = _legendre_newton(n)
    return QuadRule("legendre", n, (x + 1.0) / 2.0, w / 2.0)


def _laguerre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # returns (L_n(x), L_{n-1}(x))
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for s in range(n):
        prev, cur = cur, ((2 * s + 1 - x) * cur - s * prev) / (s + 1)
    return cur, prev


@lru_cache(maxsize=None)
def gauss_laguerre(n: int) -> QuadRule:
    """n-point rule for integrals of e^{-x} g(x) over [0, inf)."""
    if not 1 <= n <= 128:
        raise ValueError("node count out of range 1..128")
    if n == 1:
        return QuadRule("laguerre", 1, np.array([1.0]), np.array([1.0]))
    diag = 2.0 * np.arange(n) + 1.0
    off = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1) + np.diag(off, 1))
    for _ in range(3):
        ln, lm = _laguerre_pair(n, x)
        x = x - ln * x / (n * (ln - lm))
    lnp1, _ = _laguerre_pair(n + 1, x)
    w = x / ((n + 1) * lnp1) ** 2
    return QuadRule("laguerre", n, x, w)


@lru_cache(maxsize=None)
def gauss_jacobi_half(n: int) -> QuadRule:
    """n-point rule for integrals of (1-x)^{-1/2} g(x) over [0, 1].

    Built from the Jacobi(alpha=-1/2, beta=0) rule on [-1, 1] by the affine
    map x -> (1+x)/2, which turns the canonical weight into the endpoint
    singularity above (weights pick up an overall 1/sqrt(2)).
    """
    if not 1 <= n <= 128:
        raise ValueError("node count out of range 1..128")
    a, b = -0.5, 0.0
    apb = a + b
    diag = np.zeros(n)
    offsq = np.zeros(n)  # offsq[k] = b_k, the squared off-diagonal entries
    diag[0] = (b - a) / (apb + 2.0)
    mu0 = 2.0 ** (apb + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(apb + 2.0)
    for k in range(1, n):
        den = (2.0 * k + apb) * (2.0 * k + apb + 2.0)
        diag[k] = (b * b - a * a) / den
        num = 4.0 * k * (k + a) * (k + b) * (k + apb)
        offsq[k] = num / (((2.0 * k + apb) ** 2 - 1.0) * (2.0 * k + apb) ** 2)
    J = np.diag(diag) + np.diag(np.sqrt(offsq[1:]), -1) + np.diag(np.sqrt(offsq[1:]), 1)
    vals, vecs = np.linalg.eigh(J)
    w = mu0 * vecs[0] ** 2
    return QuadRule("jacobi_half", n, (vals + 1.0) / 2.0, w / math.sqrt(2.0))
