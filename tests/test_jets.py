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
from nimreg.dynsys import ExosystemSpec, PlantSpec, zero_dynamics_field
from nimreg.errors import CapabilityError
from nimreg.internal_model import build_tau, saturate
from nimreg.jets import Jet, gradient, lie_chain


# jet arithmetic ---------------------------------------------------------------


def test_variable_and_constant_seeds():
    # a constant unit field seeds the identity signal t -> 2 + t
    x = lie_chain(lambda p: p[0], lambda p: (1.0,), 4, np.array([2.0]))
    assert x.tolist() == [2.0, 1.0, 0.0, 0.0]
    c = Jet.constant(5.0, 3)
    assert c.coeffs == [5.0, 0.0, 0.0, 0.0]


def test_product_matches_series_convolution():
    # the product jet is the truncated Cauchy product of the coefficient
    # lists; dyadic coefficients keep every product and sum exact
    a = [0.75, -1.5, 0.5, 2.0, -0.25, 0.125, 1.5]
    b = [1.25, 0.5, -0.75, 0.25, 3.0, -2.0, 0.625]
    assert np.array_equal((Jet(a) * Jet(b)).coeffs, np.convolve(a, b)[:7])
    assert np.array_equal((2.0 * Jet(a)).coeffs, 2.0 * np.array(a))


def test_pow_is_repeated_product():
    x = Jet([0.4, 1.0, 0.0, 0.0, 0.0])  # t -> 0.4 + t
    assert (x ** 3).coeffs == (x * x * x).coeffs
    # (0.4 + t)^3 expanded about t = 0
    assert np.allclose((x ** 3).coeffs, [0.4 ** 3, 3 * 0.4 ** 2, 3 * 0.4, 1.0, 0.0],
                       atol=1e-14)
    assert (x ** 0).coeffs == [1.0, 0.0, 0.0, 0.0, 0.0]
    for bad in (-1, 0.5):
        with pytest.raises(CapabilityError):
            x ** bad


def test_derivative_value_scaling():
    # k! coeffs[k] is the k-th derivative: of x^4 at 0.2, 4!/(4-k)! 0.2^(4-k)
    x0 = 0.2
    j = Jet([x0, 1.0, 0.0, 0.0, 0.0, 0.0]) ** 4
    for k in range(5):
        expect = math.factorial(4) / math.factorial(4 - k) * x0 ** (4 - k)
        assert abs(math.factorial(k) * j.coeffs[k] - expect) < 1e-13
    assert j.coeffs[5] == 0.0


def test_division_is_not_a_jet_operation():
    # tau of a plant whose output divides cannot be built from jets; a
    # driver that divides gets its Lipschitz constant from central differences
    exo = ExosystemSpec(r=1, s=lambda w: (-w[0],), w_box=[[-1.0, 1.0]])
    plant = PlantSpec(n=1, f0=lambda z, w: (-z[0] + w[0],),
                      f1=lambda z, e, w: (0.1,),
                      q=lambda z, e, w: w[0] / 2.0 + e * z[0])
    tau = build_tau(plant, exo, 2)
    with pytest.raises(CapabilityError):
        tau(np.array([0.3, 0.5]))

    def halve(eta):
        return eta[0] / 2.0

    with pytest.raises(CapabilityError):
        gradient(halve, [0.3])
    driver = saturate(halve, [[-1.0, 1.0]])
    assert abs(driver.L - 0.5) < 1e-9
    assert abs(driver.C - 0.5) < 1e-12


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
