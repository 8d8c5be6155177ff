"""Pole placement, Lyapunov certificates, and the high-gain scaling.

Closed-form oracles, worked by hand for the default double pole at -1:
A_cl = [[-2, 1], [-1, 0]], P = [[0.5, -0.5], [-0.5, 1.5]],
|P|_2 = 1 + 1/sqrt(2), so the harmonic kappa bound 2 L |P| = 2 + sqrt(2).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nimreg import (build_gain, build_tau, design_gains, find_kappa_star,
                    kappa_lower_bound, place_poles, solve_lyapunov)
from nimreg.errors import ConfigError

from _oracles import matched_pole_error


def companion(G0):
    d = len(G0)
    A = np.eye(d, k=1)
    A[:, 0] -= np.asarray(G0, dtype=float)
    return A


def test_place_poles_default_double_pole():
    G0 = place_poles(2)
    assert np.allclose(G0, [2.0, 1.0], atol=1e-14)


def test_place_poles_companion_spectrum():
    poles = (-1.0, -3.0, -5.0)
    G0 = place_poles(3, poles)
    eig = np.sort(np.linalg.eigvals(companion(G0)).real)
    assert np.allclose(eig, sorted(poles), atol=1e-9)


def test_place_poles_complex_pair_gives_real_gains():
    G0 = place_poles(2, (-1 + 1j, -1 - 1j))
    assert G0.dtype == float
    assert np.allclose(G0, [2.0, 2.0], atol=1e-12)


def test_place_poles_rejects_unstable_and_unpaired():
    with pytest.raises(ConfigError):
        place_poles(1, (0.5,))
    with pytest.raises(ConfigError):
        place_poles(2, (-1 + 1j, -2 - 1j))


def test_matched_pole_error_defaults():
    for d in (1, 2, 3):
        G0 = place_poles(d)
        err = matched_pole_error(G0, tuple([-1.0] * d))
        assert err <= 1e-8, (d, err)


def test_lyapunov_closed_forms():
    p1 = solve_lyapunov(np.array([[-1.0]]))
    assert np.allclose(p1, [[0.5]], atol=1e-14)
    A = companion(place_poles(2))
    P = solve_lyapunov(A)
    assert np.allclose(P, [[0.5, -0.5], [-0.5, 1.5]], atol=1e-12)
    assert abs(np.linalg.norm(P, 2) - (1.0 + 1.0 / np.sqrt(2.0))) < 1e-12


def test_lyapunov_d3_against_kronecker_solve():
    A = companion(place_poles(3))
    P = solve_lyapunov(A)
    d = 3
    # independent route: vec(A'P + PA) = (I kron A' + A' kron I) vec(P)
    K = np.kron(np.eye(d), A.T) + np.kron(A.T, np.eye(d))
    vecP = np.linalg.solve(K, -np.eye(d).ravel())
    assert np.allclose(P, vecP.reshape(d, d), atol=1e-10)
    assert np.linalg.norm(A.T @ P + P @ A + np.eye(d)) < 1e-10


def test_spectral_norm_against_power_iteration():
    P = solve_lyapunov(companion(place_poles(2)))
    v = np.array([1.0, 0.3])
    for _ in range(200):
        v = P @ v
        v /= np.linalg.norm(v)
    lam = float(v @ P @ v)
    assert abs(np.linalg.norm(P, 2) - lam) < 1e-12


def test_lyapunov_rejects_unstable_matrix():
    with pytest.raises(Exception):
        solve_lyapunov(np.array([[1.0]]))


# separated poles: clusters of near-coincident roots are ill-conditioned for
# coefficient-based placement (root scatter ~eps^(1/m)) and would test the
# conditioning, not the solver
stable_poles = st.lists(
    st.floats(-10.0, -0.1), min_size=1, max_size=10, unique=True,
).filter(lambda ps: len(ps) == 1
         or min(abs(a - b) for i, a in enumerate(ps) for b in ps[:i]) >= 0.05)


@settings(max_examples=60, deadline=None)
@given(poles=stable_poles)
# eigenvalues of the placed matrix miss this set by 1.1e-6, yet its
# characteristic polynomial is exact to rounding
@example(poles=[-3.0, -6.0, -8.0, -9.0, -10.0, -8.5, -8.25, -8.625])
def test_lyapunov_residual_property(poles):
    G0 = place_poles(len(poles), tuple(poles))
    A = companion(G0)
    P = solve_lyapunov(A)
    resid = np.linalg.norm(A.T @ P + P @ A + np.eye(len(poles)))
    scale = 1.0 + np.linalg.norm(A) * np.linalg.norm(P)
    assert resid / scale < 1e-8
    assert np.all(np.linalg.eigvalsh(P) > 0)


def test_build_gain_scaling_and_validation():
    G = build_gain([2.0, 1.0], 3.0)
    assert np.allclose(G, [6.0, 9.0], atol=1e-14)  # kappa G0_1, kappa^2 G0_2
    with pytest.raises(ConfigError):
        build_gain([1.0], 1.0)


def test_kappa_lower_bound_harmonic_closed_form():
    P = solve_lyapunov(companion(place_poles(2)))
    assert abs(kappa_lower_bound(1.0, P) - (2.0 + np.sqrt(2.0))) < 1e-12


def test_design_gains_wiring():
    gd = design_gains(2, 4.0, lipschitz=1.0)
    assert gd.kappa == 4.0
    assert np.allclose(gd.G, [8.0, 16.0], atol=1e-13)
    assert abs(gd.kappa_lb - (2.0 + np.sqrt(2.0))) < 1e-12
    assert matched_pole_error(gd.G0, gd.poles) <= 1e-8


def test_find_kappa_star_harmonic_meets_bound(stacks, kappa_stars):
    search = kappa_stars("harmonic")
    # L = 1 exactly, so the analytic bound is 2 + sqrt(2); the empirical
    # search accepts it on the first probe
    assert abs(search.kappa_lb - (2.0 + np.sqrt(2.0))) < 1e-9
    assert search.kappa <= search.kappa_lb + 1e-6
    assert search.rate > 0.3
    assert search.history  # probes recorded


def test_find_kappa_star_accepts_explicit_xi_box(stacks):
    # a tau never given an image box is fine: the xi starts are drawn from
    # the box the internal model's driver saturates outside
    s = stacks("static")
    tau = build_tau(s.bench.plant, s.bench.exo, s.bench.d)
    assert tau.image_box is None
    search = find_kappa_star(dataclasses.replace(s, tau=tau))
    assert search.rate >= 0.3


def test_find_kappa_star_design_equals_design_gains(stacks, kappa_stars):
    s = stacks("harmonic")
    search = kappa_stars("harmonic")
    ref = design_gains(s.im.d, search.kappa, lipschitz=s.im.driver.L)
    got = search.design
    assert (got.d, got.poles, got.kappa, got.kappa_lb) == \
        (ref.d, ref.poles, ref.kappa, ref.kappa_lb)
    for name in ("G0", "G", "P"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
