import math
from fractions import Fraction

import numpy as np
import pytest

from oscigen.quadrature import gauss_jacobi_half, gauss_laguerre, gauss_legendre


def exact_sqrt_weight_moment(k: int) -> Fraction:
    # integral of x^k (1-x)^(-1/2) over [0,1] = k! 2^(k+1) / (2k+1)!!
    out = Fraction(2)
    for i in range(1, k + 1):
        out *= Fraction(2 * i, 2 * i + 1)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_legendre_monomial_exactness(n):
    rule = gauss_legendre(n)
    for k in range(2 * n):
        got = float(np.dot(rule.weights, rule.nodes**k))
        want = 1.0 / (k + 1)
        assert abs(got - want) / want < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 24, 32])
def test_laguerre_monomial_exactness(n):
    rule = gauss_laguerre(n)
    for k in range(2 * n):
        got = float(np.dot(rule.weights, rule.nodes**k))
        want = float(math.factorial(k))
        assert abs(got - want) / want < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_jacobi_monomial_exactness(n):
    rule = gauss_jacobi_half(n)
    for k in range(2 * n):
        got = float(np.dot(rule.weights, rule.nodes**k))
        want = float(exact_sqrt_weight_moment(k))
        assert abs(got - want) / want < 1e-13


@pytest.mark.parametrize(
    "factory,lo,hi",
    [
        (gauss_legendre, 0.0, 1.0),
        (gauss_laguerre, 0.0, math.inf),
        (gauss_jacobi_half, 0.0, 1.0),
    ],
)
def test_nodes_interior_sorted_weights_positive(factory, lo, hi):
    for n in (1, 7, 40):
        rule = factory(n)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > lo
        assert rule.nodes[-1] < hi


def test_legendre_spot_integrals():
    two = gauss_legendre(2)
    assert two.integrate(lambda x: x) == pytest.approx(0.5, abs=1e-15)
    assert two.integrate(lambda x: x**3) == pytest.approx(0.25, abs=1e-15)
    # sqrt endpoint singularity converges only algebraically here; the
    # Jacobi rule is the right tool and nails it at machine precision
    big = gauss_legendre(64)
    assert abs(big.integrate(lambda x: np.sqrt(1.0 - x)) - 2.0 / 3.0) < 1e-6
    jac = gauss_jacobi_half(4)
    assert jac.integrate(lambda x: 1.0 - x) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_laguerre_spot_integrals():
    rule = gauss_laguerre(4)
    assert rule.integrate(lambda x: np.ones_like(x)) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert rule.integrate(lambda x: x) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    three = gauss_laguerre(3)
    assert three.integrate(lambda x: x**5) == pytest.approx(120.0, rel=1e-13, abs=0.0)


def test_jacobi_spot_integrals():
    rule = gauss_jacobi_half(6)
    assert rule.integrate(lambda x: np.ones_like(x)) == pytest.approx(2.0, rel=1e-14, abs=0.0)
    assert rule.integrate(lambda x: x) == pytest.approx(4.0 / 3.0, rel=1e-14, abs=0.0)
    assert rule.integrate(lambda x: x**2) == pytest.approx(16.0 / 15.0, rel=1e-14, abs=0.0)


def test_node_count_bounds():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(257)
    with pytest.raises(ValueError):
        gauss_laguerre(129)
    with pytest.raises(ValueError):
        gauss_jacobi_half(0)


def test_rules_match_scipy_oracle():
    from scipy.special import roots_jacobi, roots_laguerre, roots_legendre

    x, w = roots_legendre(12)
    rule = gauss_legendre(12)
    assert np.allclose(rule.nodes, (x + 1) / 2, atol=1e-14)
    assert np.allclose(rule.weights, w / 2, atol=1e-14)

    x, w = roots_laguerre(12)
    rule = gauss_laguerre(12)
    assert np.allclose(rule.nodes, x, rtol=1e-12, atol=1e-13)
    assert np.allclose(rule.weights, w, rtol=1e-11, atol=1e-15)

    x, w = roots_jacobi(12, -0.5, 0.0)
    rule = gauss_jacobi_half(12)
    assert np.allclose(rule.nodes, (x + 1) / 2, atol=1e-13)
    assert np.allclose(rule.weights, w / math.sqrt(2), rtol=1e-12)
