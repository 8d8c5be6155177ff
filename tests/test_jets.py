"""Truncated Taylor jets and Lie-derivative chains.

The chain oracle is independent of the jet machinery: sample g along the
numerically integrated flow and read time derivatives off a centered
Vandermonde fit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import fd_along_flow

from nimreg import get_benchmark
from nimreg.dynsys import zero_dynamics_field
from nimreg.errors import CapabilityError
from nimreg.jets import Jet, cos, exp, gradient, lie_chain, sin


# jet arithmetic ---------------------------------------------------------------


def test_variable_and_constant_seeds():
    x = Jet.variable(2.0, 3)
    assert x.coeffs == [2.0, 1.0, 0.0, 0.0]
    c = Jet.constant(5.0, 3)
    assert c.coeffs == [5.0, 0.0, 0.0, 0.0]


def test_product_matches_series_convolution():
    # coefficients of sin and exp about x0 are known; their product jet must
    # equal the truncated Cauchy convolution computed with numpy directly
    x0, order = 0.7, 6
    x = Jet.variable(x0, order)
    prod = sin(x) * exp(x)
    sin_c = []
    for k in range(order + 1):
        cyc = [math.sin(x0), math.cos(x0), -math.sin(x0), -math.cos(x0)][k % 4]
        sin_c.append(cyc / math.factorial(k))
    exp_c = [math.exp(x0) / math.factorial(k) for k in range(order + 1)]
    conv = np.convolve(sin_c, exp_c)[: order + 1]
    assert np.allclose(prod.coeffs, conv, rtol=0, atol=1e-14)


def test_sin_cos_pythagorean_identity():
    x = Jet.variable(1.3, 5)
    s, c = sin(x), cos(x)
    total = s * s + c * c
    assert abs(total.coeffs[0] - 1.0) < 1e-14
    assert np.max(np.abs(total.coeffs[1:])) < 1e-14


def test_division_round_trip_and_pow():
    x = Jet.variable(0.4, 4)
    y = (x ** 3) / x / x
    assert np.allclose(y.coeffs, x.coeffs, atol=1e-14)
    r = 1.0 / (1.0 - x)
    # geometric series about 0.4: coefficients (1-x0)^-(k+1)
    expect = [(1.0 - 0.4) ** -(k + 1) for k in range(5)]
    assert np.allclose(r.coeffs, expect, atol=1e-12)


def test_derivative_value_scaling():
    x = Jet.variable(0.2, 4)
    j = exp(x)
    for k in range(5):
        assert abs(math.factorial(k) * j.coeffs[k] - math.exp(0.2)) < 1e-13


# lie chains -------------------------------------------------------------------


def _tau_seed(bench):
    n = bench.plant.n

    def g(x):
        return -bench.plant.q(x[:n], 0.0, x[n:])

    return g


@pytest.mark.parametrize("name", ["harmonic", "vdp", "static"])
def test_lie_chain_matches_flow_derivatives(name):
    bench = get_benchmark(name)
    field = zero_dynamics_field(bench.plant, bench.exo)
    g = _tau_seed(bench)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-0.8, 0.8, size=bench.plant.n + bench.exo.r)
    chain = lie_chain(g, field, 4, x0)
    oracle = fd_along_flow(g, field, 4, x0)
    rel = np.abs(chain - oracle) / np.maximum(np.abs(oracle), 1e-12)
    assert np.max(rel) < 1e-5


def test_lie_chain_harmonic_closed_form():
    # zero dynamics: z' = -z + w1, w1' = w2, w2' = -w1 with g = -w1; the
    # chain cycles (-w1, -w2, w1, w2)
    bench = get_benchmark("harmonic")
    field = zero_dynamics_field(bench.plant, bench.exo)
    x0 = np.array([0.3, 0.8, -0.6])
    chain = lie_chain(_tau_seed(bench), field, 4, x0)
    assert np.allclose(chain, [-0.8, 0.6, 0.8, -0.6], atol=1e-14)


def test_lie_chain_batch_matches_single_points():
    bench = get_benchmark("vdp")
    field = zero_dynamics_field(bench.plant, bench.exo)
    g = _tau_seed(bench)
    rng = np.random.default_rng(1)
    batch = rng.uniform(-1.0, 1.0, size=(3, 7))
    out = lie_chain(g, field, 3, batch)
    assert out.shape == (3, 7)
    for j in range(7):
        single = lie_chain(g, field, 3, batch[:, j])
        assert np.array_equal(out[:, j], single)


def test_lie_chain_constant_output_keeps_batch_axis():
    # a g returning a bare float must still produce (count, batch)
    bench = get_benchmark("static")
    field = zero_dynamics_field(bench.plant, bench.exo)
    batch = np.zeros((2, 5))
    out = lie_chain(_tau_seed(bench), field, 2, batch)
    assert out.shape == (2, 5)
    assert np.all(out == 0.0)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3),
       x=st.floats(-1, 1), y=st.floats(-1, 1), z=st.floats(-1, 1))
def test_lie_chain_linear_in_g(a, b, x, y, z):
    bench = get_benchmark("vdp")
    field = zero_dynamics_field(bench.plant, bench.exo)

    def g1(s):
        return s[0] * s[1]

    def g2(s):
        return s[2] + s[0]

    def combo(s):
        return a * g1(s) + b * g2(s)

    x0 = np.array([x, y, z])
    lhs = lie_chain(combo, field, 4, x0)
    rhs = a * lie_chain(g1, field, 4, x0) + b * lie_chain(g2, field, 4, x0)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_lie_chain_rejects_non_jet_field():
    def bad_field(x):
        return (math.sin(x[0]),)  # math.sin cannot take a Jet

    with pytest.raises(CapabilityError):
        lie_chain(lambda x: x[0], bad_field, 3, np.array([0.1]))


def test_lie_chain_count_validation():
    with pytest.raises(ValueError):
        lie_chain(lambda x: x[0], lambda x: (x[0],), 0, np.array([1.0]))


# gradients --------------------------------------------------------------------


def test_gradient_polynomial():
    def f(p):
        return p[0] * p[0] * p[1] + 3.0 * p[1]

    g = gradient(f, [2.0, -1.0])
    assert np.allclose(g, [2 * 2.0 * -1.0, 2.0 ** 2 + 3.0], atol=1e-14)


def test_gradient_batch_and_constant_components():
    def f(p):
        return p[0] * p[1]

    xs = np.array([1.0, 2.0, 3.0])
    g = gradient(f, [xs, 0.5])
    assert g.shape == (2, 3)
    assert np.allclose(g[0], 0.5)
    assert np.allclose(g[1], xs)


def test_gradient_constant_function_keeps_batch_axis():
    g = gradient(lambda p: 0.0, [np.ones(4), np.zeros(4)])
    assert g.shape == (2, 4)
    assert np.all(g == 0.0)
