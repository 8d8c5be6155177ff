"""Fixed-step RK4 and the embedded 4(5) pair, against closed-form flows."""

import numpy as np
import pytest

from nimreg.dynsys import Field
from nimreg.errors import ConfigError, IntegrationError
from nimreg.integrators import dopri5, integrate, rk4_fixed


def decay(x):
    return -x


def rotation(x):
    return np.stack([x[1], -x[0]])


def test_rk4_matches_exp_and_shows_fourth_order():
    x0 = np.array([1.0])
    errs = []
    for h in (1e-2, 5e-3):
        traj = rk4_fixed(decay, x0, (0.0, 1.0), h=h)
        errs.append(abs(traj.final[0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0  # halving h divides the error by ~2^4
    assert errs[1] < 1e-11


def test_rk4_output_grid_lands_on_states():
    traj = rk4_fixed(decay, np.array([2.0]), (0.0, 1.0), h=1e-3, dt_out=0.1)
    assert traj.t.shape == (11,)
    assert np.allclose(traj.t, np.linspace(0, 1, 11), atol=1e-12)
    assert np.allclose(traj.states[:, 0], 2.0 * np.exp(-traj.t), atol=1e-10)


def test_rk4_batched_equals_percolumn():
    x0 = np.array([[1.0, 2.0, -0.5], [0.0, 1.0, 0.3]])
    batch = rk4_fixed(rotation, x0, (0.0, 3.0), h=1e-3, dt_out=0.5)
    for j in range(3):
        single = rk4_fixed(rotation, x0[:, j], (0.0, 3.0), h=1e-3, dt_out=0.5)
        assert np.array_equal(batch.states[:, :, j], single.states)


def test_rk4_deterministic_repeat():
    x0 = np.array([1.0, 0.0])
    a = rk4_fixed(rotation, x0, (0.0, 10.0), h=1e-3, dt_out=0.1)
    b = rk4_fixed(rotation, x0, (0.0, 10.0), h=1e-3, dt_out=0.1)
    assert np.array_equal(a.states, b.states)


def test_rk4_guard_raises_at_the_failing_sample():
    def blowup(x):
        return x * x

    with pytest.raises(IntegrationError) as exc_info:
        rk4_fixed(blowup, np.array([1.0]), (0.0, 2.0), h=1e-3, guard=100.0)
    err = exc_info.value
    assert err.t_fail is not None and 0.9 < err.t_fail < 1.1  # pole at t = 1


@pytest.mark.parametrize("h", [1.0, 0.1, 1e-3])
def test_rk4_binds_four_times_per_call(h):
    # one bind per stage buffer, whatever the step count; each call then
    # evaluates the field in place
    binds, calls = [], []

    def bind(x, out):
        binds.append(x.shape)

        def call():
            calls.append(1)
            np.negative(x, out=out)

        return call

    traj = rk4_fixed(Field(bind), np.ones((1, 3)), (0.0, 1.0), h=h)
    assert binds == [(1, 3)] * 4
    assert len(calls) == 4 * traj.meta["n_steps"]
    assert np.array_equal(traj.final, rk4_fixed(decay, np.ones((1, 3)), (0.0, 1.0), h=h).final)


def test_rk4_rejects_bad_step():
    with pytest.raises(ConfigError):
        rk4_fixed(decay, np.array([1.0]), (0.0, 1.0), h=-1e-3)


# dopri ------------------------------------------------------------------------


def test_dopri5_meets_tolerance_on_rotation():
    x0 = np.array([1.0, 0.0])
    traj = dopri5(rotation, x0, (0.0, 10.0), rtol=1e-9, atol=1e-12, dt_out=1.0)
    expect = np.array([np.cos(10.0), -np.sin(10.0)])
    assert np.max(np.abs(traj.final - expect)) < 1e-7


def test_dopri5_dense_output_between_steps():
    traj = dopri5(decay, np.array([1.0]), (0.0, 2.0), rtol=1e-9, atol=1e-12,
                  dt_out=0.05)
    assert np.allclose(traj.t, np.arange(0.0, 2.0 + 1e-12, 0.05), atol=1e-12)
    assert np.max(np.abs(traj.states[:, 0] - np.exp(-traj.t))) < 1e-7


def _record_hermite(monkeypatch):
    """Patch integrators._hermite to record each call's arguments and value;
    returns the list of records."""
    import nimreg.integrators

    calls = []
    original = nimreg.integrators._hermite

    def recording(y0, y1, f0, f1, h, theta):
        value = original(y0, y1, f0, f1, h, theta)
        # the stage buffers are reused by later steps: keep copies
        calls.append((y0.copy(), y1.copy(), f0.copy(), f1.copy(), h,
                      np.array(theta), value))
        return value

    monkeypatch.setattr(nimreg.integrators, "_hermite", recording)
    return calls


def test_dopri5_dense_output_equals_per_sample_hermite(monkeypatch):
    # one _hermite call per accepted step covers every sample inside it;
    # each row must equal the call made for that sample alone, bit for bit
    from nimreg.integrators import _hermite

    calls = _record_hermite(monkeypatch)
    x0 = np.array([[1.0, 0.5], [0.0, -2.0]])
    traj = dopri5(rotation, x0, (0.0, 3.0), dt_out=1e-3)
    rows = []
    for y0, y1, f0, f1, h, theta, value in calls:
        value = value.reshape((-1,) + x0.shape)
        assert theta.size == value.shape[0]
        for th, row in zip(theta.ravel(), value):
            assert np.array_equal(row, _hermite(y0, y1, f0, f1, h,
                                                min(max(float(th), 0.0), 1.0)))
        rows.append(value)
    assert len(calls) == traj.meta["n_steps"]
    assert np.array_equal(np.concatenate(rows), traj.states[1:])


def test_dopri5_one_sample_steps_take_the_scalar_call(monkeypatch):
    # decay's steps grow past dt_out: steps hold no sample, one sample or
    # several.  A step with one sample passes theta as a scalar; every row
    # but the last (the final state itself) equals the broadcast evaluation
    # of its step at its positions
    from nimreg.integrators import _hermite

    calls = _record_hermite(monkeypatch)
    x0 = np.array([[1.0, 2.0]])
    traj = dopri5(decay, x0, (0.0, 30.0), dt_out=0.5)
    sizes = [theta.size for *_, theta, _ in calls]
    assert len(calls) < traj.meta["n_steps"]
    assert 1 in sizes and max(sizes) > 1
    assert all(theta.ndim == (0 if theta.size == 1 else 3)
               for *_, theta, _ in calls)
    broadcast = [_hermite(y0, y1, f0, f1, h, theta.reshape(-1, 1, 1))
                 for y0, y1, f0, f1, h, theta, _ in calls]
    assert np.array_equal(np.concatenate(broadcast)[:-1], traj.states[1:-1])


def test_dopri5_guard():
    def blowup(x):
        return x * x

    with pytest.raises(IntegrationError):
        dopri5(blowup, np.array([1.0]), (0.0, 2.0), dt_out=0.1, guard=1e6)


@pytest.mark.parametrize("method", ["rk4", "dopri5"])
def test_guard_marks_only_the_diverging_column(method):
    def blowup(x):
        return x * x

    # poles at t = 10, 1 and 5: only column 1 passes the guard within the span
    with pytest.raises(IntegrationError) as exc_info:
        integrate(blowup, np.array([[0.1, 1.0, 0.2]]), (0.0, 2.0),
                  method=method, dt_out=1e-3, guard=1e6)
    assert exc_info.value.failed.tolist() == [False, True, False]


@pytest.mark.parametrize("method", ["rk4", "dopri5"])
@pytest.mark.parametrize("guard", [0.0, -1.0, float("nan")])
def test_guard_not_positive_is_a_config_error(method, guard):
    # no state is within a guard that is not > 0: that is a bad setting, not
    # a diverging run
    with pytest.raises(ConfigError, match="overflow guard must be > 0"):
        integrate(decay, np.array([0.0]), (0.0, 1.0), method=method, dt_out=0.1,
                  guard=guard)


def test_dopri5_single_column_batch_equals_vector_run():
    a = np.array([[-0.3, 1.0, 0.2], [-1.0, -0.2, 0.5], [0.1, -0.4, -0.6]])

    def field(x):
        return np.tanh(np.tensordot(a, x, axes=1)) - 0.1 * x ** 3

    x0 = np.array([1.0, -0.5, 2.0])
    vec = dopri5(field, x0, (0.0, 5.0), dt_out=0.1)
    col = dopri5(field, x0[:, None], (0.0, 5.0), dt_out=0.1)
    assert np.array_equal(vec.t, col.t)
    assert np.array_equal(vec.states, col.states[:, :, 0])
    assert vec.meta == col.meta


def test_dopri5_final_state_independent_of_output_grid():
    # the step sequence ignores dt_out, so a one-interval grid ends on the
    # same state as a fine one
    x0 = np.array([1.0, 0.0])
    coarse = dopri5(rotation, x0, (0.0, 10.0), dt_out=10.0)
    fine = dopri5(rotation, x0, (0.0, 10.0), dt_out=0.01)
    assert coarse.t.tolist() == [0.0, 10.0]
    assert np.array_equal(coarse.final, fine.final)
    assert coarse.meta == fine.meta


def test_dopri5_batch_meets_tolerance_in_every_column():
    rates = np.array([0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 50.0])
    traj = dopri5(lambda x: -rates * x, np.ones((1, rates.size)), (0.0, 2.0),
                  rtol=1e-9, atol=1e-12, dt_out=0.05)
    exact = np.exp(-np.outer(traj.t, rates))
    assert traj.states.shape == (traj.t.size, 1, rates.size)
    assert np.max(np.abs(traj.states[:, 0, :] - exact)) < 1e-7


def test_integrate_dispatch_and_unknown_method():
    traj = integrate(decay, np.array([1.0]), (0.0, 1.0), method="rk4", h=1e-3)
    assert abs(traj.final[0] - np.exp(-1.0)) < 1e-10
    with pytest.raises(ConfigError):
        integrate(decay, np.array([1.0]), (0.0, 1.0), method="euler")


def test_trajectory_final_row():
    traj = rk4_fixed(decay, np.array([1.0, 2.0]), (0.0, 0.5), h=1e-2, dt_out=0.25)
    assert np.array_equal(traj.final, traj.states[-1])
    assert traj.t[-1] == 0.5
