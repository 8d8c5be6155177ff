"""Closed-loop assembly: effective gain, state layout, coordinate forms."""

import numpy as np
import pytest

from nimreg import ControllerConfig, design_gains, get_benchmark, saturate
from nimreg.errors import ConfigError
from nimreg.dynsys import PlantSpec, component_rhs, zero_dynamics_rhs
from nimreg.integrators import dopri5, rk4_fixed
from nimreg.internal_model import InternalModel
from nimreg.sim import (
    StateLayout,
    _closed_loop_rhs,
    run_closed_loop,
    run_observer_cascade,
)

from _oracles import (array_rhs, cascade_field, closed_loop_field,
                      closed_loop_field_eta, rk4_reference)


def _controller(d=2, kappa=2.0, k=9.0, f=None):
    if f is None:
        f = lambda eta: eta[0]
    driver = saturate(f, [[-2, 2]] * d)
    im = InternalModel(d=d, driver=driver)
    gd = design_gains(d, kappa, lipschitz=driver.L)
    return ControllerConfig(im=im, gd=gd, k=k)


def test_k_bar_subtracts_first_gain_entry():
    cc = _controller(kappa=2.0, k=9.0)
    # d = 2 defaults: G0 = (2, 1), G = (2 kappa, kappa^2) = (4, 4)
    assert np.allclose(cc.gd.G, [4.0, 4.0])
    assert abs(cc.k_bar - 5.0) < 1e-14


def test_state_layout_slices():
    layout = StateLayout(n=1, r=2, d=2, has_error=True)
    assert layout.m == 6
    assert layout.z == slice(0, 1)
    assert layout.e == 1
    assert layout.w == slice(2, 4)
    assert layout.xi == slice(4, 6)
    cascade = StateLayout(n=1, r=2, d=2, has_error=False)
    assert cascade.m == 5
    assert cascade.w == slice(1, 3)


def test_closed_loop_field_hand_value():
    bench = get_benchmark("harmonic")
    cc = _controller(k=9.0)
    rhs, layout = _closed_loop_rhs(bench.plant, bench.exo, cc)
    z, e, w1, w2, xi1, xi2 = 0.3, 0.2, 0.8, -0.6, 0.1, -0.4
    out = rhs(np.array([z, e, w1, w2, xi1, xi2]))
    v = -9.0 * e
    expect = [
        (-z + w1) + 0.1 * e,             # f0 + f1 e
        (w1 + e * z) + xi1 + v,          # q + xi_1 + v
        w2, -w1,                         # exosystem
        xi2 + 4.0 * v,                   # chain + G_1 v
        -xi1 + 4.0 * v,                  # -f_c(xi) + G_2 v
    ]
    assert np.allclose(out, expect, atol=1e-14)


def test_run_closed_loop_layout_and_shapes(monkeypatch):
    import nimreg.sim

    made = []
    original = nimreg.sim.integrate

    def recording(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(nimreg.sim, "integrate", recording)
    bench = get_benchmark("harmonic")
    cc = _controller()
    x0 = np.array([0.1, 0.05, 1.0, 0.0, 0.0, 0.0])
    traj = run_closed_loop(bench.plant, bench.exo, cc, x0, (0.0, 1.0),
                           h=1e-3, dt_out=0.1)
    assert traj.states.shape == (11, 6)
    assert traj.meta["layout"].m == 6
    # the layout goes into a copy; the integrator's record stays as built
    assert "layout" not in made[0].meta
    assert traj.meta == {**made[0].meta, "layout": traj.meta["layout"]}


def test_closed_loop_component_counts_checked_at_bind_time():
    # f1 returns two components for n = 1: binding raises before any step,
    # after one evaluation of the plant
    bench = get_benchmark("harmonic")
    calls = []

    def f1(z, zeta, w):
        calls.append(1)
        return (0.1, 0.0)

    plant = PlantSpec(n=1, f0=bench.plant.f0, f1=f1, q=bench.plant.q)
    x0 = np.zeros((6, 3))
    with pytest.raises(ConfigError, match="f1 returned 2 components, expected 1"):
        run_closed_loop(plant, bench.exo, _controller(), x0, (0.0, 1.0))
    assert len(calls) == 1


def test_run_closed_loop_rejects_wrong_state_size():
    bench = get_benchmark("harmonic")
    cc = _controller()
    with pytest.raises(ConfigError):
        run_closed_loop(bench.plant, bench.exo, cc, np.zeros(5), (0.0, 1.0))


def test_xi_and_eta_forms_agree_on_error_signal():
    # the eta form (the test oracle) is the xi form under an affine change
    # fixed by G; RK4 commutes with it, so e(t) agrees to rounding
    bench = get_benchmark("harmonic")
    cc = _controller(kappa=2.0, k=9.0)
    G = np.asarray(cc.gd.G, dtype=float)
    rng = np.random.default_rng(4)
    for _ in range(3):
        z0, e0 = rng.uniform(-1, 1, 2)
        w0 = rng.uniform(-1, 1, 2)
        xi0 = rng.uniform(-1, 1, 2)
        x_xi = np.array([z0, e0, *w0, *xi0])
        x_eta = np.array([z0, e0, *w0, *(xi0 - G * e0)])
        t_xi = run_closed_loop(bench.plant, bench.exo, cc, x_xi, (0.0, 5.0),
                               h=1e-3, dt_out=0.05)
        eta_rhs = component_rhs(closed_loop_field_eta(bench.plant, bench.exo, cc), 6)
        t_eta = rk4_fixed(eta_rhs, x_eta, (0.0, 5.0), h=1e-3, dt_out=0.05)
        e_gap = np.max(np.abs(t_xi.states[:, 1] - t_eta.states[:, 1]))
        assert e_gap < 1e-12


def test_observer_cascade_zw_block_is_autonomous():
    # the (z, w) slots of the cascade match a bare zero-dynamics run exactly
    bench = get_benchmark("harmonic")
    cc = _controller()
    zw0 = np.array([0.4, 0.9, -0.1])
    x0 = np.concatenate([zw0, [0.0, 0.0]])
    casc = run_observer_cascade(bench.plant, bench.exo, cc.im, cc.gd.G, x0,
                                (0.0, 2.0), h=1e-3, dt_out=0.1)
    bare = rk4_fixed(zero_dynamics_rhs(bench.plant, bench.exo),
                     zw0, (0.0, 2.0), h=1e-3, dt_out=0.1)
    assert np.array_equal(casc.states[:, :3], bare.states)


@pytest.mark.parametrize("name", ["harmonic", "vdp"])
def test_rk4_batch_columns_are_independent(stacks, name):
    # a column of a closed-loop batch is that column run alone, bit for bit,
    # as an (m,) or an (m, 1) state
    s = stacks(name)
    gd = design_gains(s.im.d, 4.0, lipschitz=s.im.driver.L)
    cc = ControllerConfig(im=s.im, gd=gd, k=float(gd.G[0]) + 5.0)
    rng = np.random.default_rng(7)
    z0, w0, xi0, e0 = s.sets.sample(s.bench.exo, rng, 4,
                                    w0_sampler=s.bench.w0_sampler,
                                    xi_box=s.im.driver.s_box)
    x0 = np.concatenate([z0, e0[None, :], w0, xi0], axis=0)

    def run(x):
        return run_closed_loop(s.bench.plant, s.bench.exo, cc, x, (0.0, 0.5),
                               h=1e-3).states

    batch = run(x0)
    for j in range(x0.shape[1]):
        assert np.array_equal(run(x0[:, j]), batch[:, :, j]), j
        assert np.array_equal(run(x0[:, j:j + 1]), batch[:, :, j:j + 1]), j


def _vdp_starts(s, cc, count, seed):
    rng = np.random.default_rng(seed)
    z0, w0, xi0, e0 = s.sets.sample(s.bench.exo, rng, count,
                                    w0_sampler=s.bench.w0_sampler,
                                    xi_box=s.im.driver.s_box)
    return z0, e0[None, :], w0, xi0


def test_bound_fields_equal_straight_line_rk4_on_vdp(stacks, kappa_stars):
    # the bound fields and the in-place RK4 stages are the allocating
    # formulas over component fields, bit for bit: 20 columns, 2,000 steps
    s = stacks("vdp")
    cc = ControllerConfig(im=s.im, gd=kappa_stars("vdp").design, k=127.9)
    z0, e0, w0, xi0 = _vdp_starts(s, cc, 20, 5)
    span = (0.0, 2.0)
    x_cl = np.concatenate([z0, e0, w0, xi0])
    loop = run_closed_loop(s.bench.plant, s.bench.exo, cc, x_cl, span, h=1e-3)
    assert loop.meta["n_steps"] == 2000
    ref = rk4_reference(closed_loop_field(s.bench.plant, s.bench.exo, cc), x_cl, span, 2000)
    assert np.array_equal(loop.final, ref)
    x_cas = np.concatenate([z0, w0, xi0])
    casc = run_observer_cascade(s.bench.plant, s.bench.exo, s.im, cc.gd.G, x_cas,
                                span, h=1e-3)
    ref = rk4_reference(cascade_field(s.bench.plant, s.bench.exo, s.im, cc.gd.G),
                        x_cas, span, 2000)
    assert np.array_equal(casc.final, ref)


def test_dopri5_bound_field_equals_plain_array_callable(stacks, kappa_stars):
    # one component field, bound and as an allocating array callable:
    # the same (m, B) run, step sequence included
    s = stacks("vdp")
    cc = ControllerConfig(im=s.im, gd=kappa_stars("vdp").design, k=127.9)
    x0 = np.concatenate(_vdp_starts(s, cc, 4, 6))
    field = closed_loop_field(s.bench.plant, s.bench.exo, cc)
    bound = dopri5(component_rhs(field, 6), x0, (0.0, 5.0), dt_out=0.01)
    plain = dopri5(array_rhs(field), x0, (0.0, 5.0), dt_out=0.01)
    assert np.array_equal(bound.states, plain.states)
    assert bound.meta == plain.meta
    sim = run_closed_loop(s.bench.plant, s.bench.exo, cc, x0, (0.0, 5.0),
                          method="dopri5", dt_out=0.01)
    assert np.array_equal(sim.states, plain.states)
