"""Feedforward chain tau, saturated driver, and the identity residuals."""

import numpy as np
import pytest

from nimreg import build_tau, get_benchmark, saturate, verify_internal_model
from nimreg.analysis import tau_image_box
from nimreg.dynsys import as_array_rhs
from nimreg.errors import ConfigError, PreconditionError
from nimreg.internal_model import InternalModel


def test_tau_harmonic_closed_form():
    # q(z, 0, w) = w1, zero dynamics rotates w: tau = (-w1, -w2) exactly
    bench = get_benchmark("harmonic")
    tau = build_tau(bench.plant, bench.exo, 2)
    rng = np.random.default_rng(0)
    zw = rng.uniform(-1, 1, size=(3, 40))
    vals = tau(zw)
    assert np.allclose(vals[0], -zw[1], atol=1e-15)
    assert np.allclose(vals[1], -zw[2], atol=1e-15)


def test_tau_vdp_third_row_is_negative_wdot2():
    bench = get_benchmark("vdp")
    mu = bench.mu
    tau = build_tau(bench.plant, bench.exo, 3)
    rng = np.random.default_rng(1)
    zw = rng.uniform(-1.5, 1.5, size=(3, 25))
    w1, w2 = zw[1], zw[2]
    vals = tau(zw)
    assert np.allclose(vals[0], -w1, atol=1e-14)
    assert np.allclose(vals[1], -w2, atol=1e-14)
    assert np.allclose(vals[2], -(mu * (1 - w1 ** 2) * w2 - w1), atol=1e-12)


def test_tau_static_identically_zero():
    bench = get_benchmark("static")
    tau = build_tau(bench.plant, bench.exo, 1)
    zw = np.array([[0.5, -0.3], [0.0, 0.0]])
    assert np.all(tau(zw) == 0.0)


def test_build_tau_validates_order():
    bench = get_benchmark("harmonic")
    with pytest.raises(ConfigError):
        build_tau(bench.plant, bench.exo, 0)


def test_chain_satisfies_its_own_recursion():
    # row d must be the flow derivative of row d-1: compare chain(d+1)
    # against the chain of the benchmark driver applied to tau
    bench = get_benchmark("vdp")
    tau = build_tau(bench.plant, bench.exo, 2)
    rng = np.random.default_rng(2)
    zw = rng.uniform(-1, 1, size=(3, 30))
    rows = tau.chain(zw, 3)
    # tau_dot_2 = -f(tau) for the benchmark's driver
    f_vals = np.asarray(bench.f([rows[0], rows[1]]), dtype=float)
    assert np.allclose(rows[2], -f_vals, atol=1e-12)


# saturation -------------------------------------------------------------------


def test_saturate_constants_harmonic(stacks):
    # tau image on the unit circle is [-1, 1]^2, inflated to [-1.25, 1.25];
    # the driver eta -> eta_1 has sup 1.25 and gradient norm 1 on that box
    s = stacks("harmonic")
    assert abs(s.im.driver.C - 1.25) < 1e-9
    assert abs(s.im.driver.L - 1.0) < 1e-12


def test_saturate_clamps_outside_box():
    driver = saturate(lambda eta: eta[0] + 2.0 * eta[1], [[-1, 1], [-2, 2]])
    inside = driver([0.5, -1.0])
    assert abs(inside - (0.5 - 2.0)) < 1e-15
    clamped = driver([10.0, -5.0])
    assert abs(clamped - (1.0 - 4.0)) < 1e-15


def test_saturate_margin_violation():
    with pytest.raises(ConfigError):
        saturate(lambda eta: eta[0], [[-1, 1]], extent=[[-1, 1]])


def test_saturated_driver_constants_bound_samples():
    rng = np.random.default_rng(3)
    driver = saturate(lambda eta: np.sin(3.0 * eta[0]) * eta[1],
                      [[-1, 1], [-1, 1]])
    pts = rng.uniform(-3, 3, size=(2, 200))
    vals = np.abs(np.asarray(driver(list(pts))))
    assert np.all(vals <= driver.C + 1e-9)


# internal model ---------------------------------------------------------------


def test_phi_c_chain_structure():
    driver = saturate(lambda eta: eta[0] * eta[1], [[-2, 2], [-2, 2]])
    im = InternalModel(d=2, driver=driver)
    out = as_array_rhs(im.phi_c)(np.array([0.5, -1.0]))
    assert out.shape == (2,)
    assert out[0] == -1.0
    assert abs(out[1] - (-(0.5 * -1.0))) < 1e-15


def test_verify_residuals_on_benchmarks(stacks):
    for name in ("harmonic", "vdp", "static"):
        ver = stacks(name).ver
        assert ver.residual_flow < 1e-5, name
        assert ver.residual_output == 0.0, name
        assert ver.passed


def test_verify_detects_misspecified_order(stacks):
    # a d = 1 internal model cannot reproduce the harmonic feedforward
    s = stacks("harmonic")
    tau1 = build_tau(s.bench.plant, s.bench.exo, 1)
    box = tau_image_box(tau1, s.est)
    driver = saturate(lambda eta: eta[0], box, tau1.image_extent)
    im1 = InternalModel(d=1, driver=driver)
    ver = verify_internal_model(im1, tau1, s.est)
    assert ver.residual_flow > 1e-2
    assert not ver.passed


def test_verify_rejects_empty_cloud():
    bench = get_benchmark("harmonic")
    tau = build_tau(bench.plant, bench.exo, 2)
    driver = saturate(lambda eta: eta[0], [[-1, 1], [-1, 1]])
    im = InternalModel(d=2, driver=driver)
    with pytest.raises(PreconditionError):
        verify_internal_model(im, tau, np.empty((3, 0)))
