"""Fixed-step and adaptive Runge-Kutta integrators.

Right-hand sides are autonomous, over an (m,) state or an (m, batch) stack of
states sharing the same dynamics.  A right-hand side is either a plain
callable rhs(x) -> xdot or a field with a bind(x, out) -> call method (see
dynsys.Field): each call evaluates the field at the state buffer x and writes
the rates into out.  Each run allocates its stage buffers once, in the
state's shape, binds the field to them, and then computes every stage in
place, in the operation order of the textbook formulas, so no step allocates
an array.  A plain callable binds as out[...] = rhs(x).  Both integrators
advance whole batches at once and are bit-reproducible.  The adaptive one is a
Dormand-Prince 5(4) pair with PI step-size control whose columns share one
step sequence, accepted or rejected on the worst column.

Both abort with IntegrationError when the state magnitude passes the
overflow guard; the comparison is written so that NaN states also trigger
it, and the error marks the columns that tripped it and the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IntegrationError

__all__ = ["Trajectory", "rk4_fixed", "dopri5", "integrate"]

DEFAULT_GUARD = 1e9
_MAX_STEPS = 5_000_000  # attempted steps per dopri5 call


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid plus the states sampled on it.

    states has shape (n_pts, m) for a single run or (n_pts, m, batch) for a
    batch.  meta records the method and step statistics; sim's runs return
    a copy that also holds the state layout under meta["layout"].
    """

    t: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _guard_failed(x: np.ndarray, guard: float) -> np.ndarray:
    """Mask of the columns of x past guard or NaN (0-d for an (m,) state)."""
    return ~(np.abs(x) <= guard).all(axis=0)


def _binder(rhs):
    """The bind(x, out) -> call form of rhs: a field's own, or for a plain
    callable one that writes rhs(x) into out, so it sees the state buffer's
    shape and keeps its own arithmetic."""
    bind = getattr(rhs, "bind", None)
    if bind is not None:
        return bind

    def bind_plain(x, out):
        def call():
            out[...] = rhs(x)
        return call

    return bind_plain


def _span(t_span) -> tuple[float, float]:
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ConfigError(f"t_span must be increasing, got ({t0}, {t1})")
    return t0, t1


def _start(x0, t0: float, t1: float, n_out: int, guard: float):
    """(x, t_grid, out): the float copy of x0, n_out equal steps from t0 to
    exactly t1, and the output array with x in row 0.  A guard not > 0 raises
    ConfigError, an x0 past it IntegrationError."""
    if not guard > 0:
        raise ConfigError(f"overflow guard must be > 0, got {guard!r}")
    x = np.array(x0, dtype=float)
    failed = _guard_failed(x, guard)
    if failed.any():
        raise IntegrationError("initial state exceeds overflow guard",
                               failed=failed, t_fail=t0)
    t_grid = t0 + ((t1 - t0) / n_out) * np.arange(n_out + 1)
    t_grid[-1] = t1
    out = np.empty((n_out + 1,) + x.shape)
    out[0] = x
    return x, t_grid, out


def rk4_fixed(rhs, x0, t_span, h: float = 1e-3, dt_out: float | None = None,
              guard: float = DEFAULT_GUARD) -> Trajectory:
    """Classical fourth-order Runge-Kutta with a fixed step.

    The step is adjusted to the nearest value that divides the span into a
    whole number of steps and makes every output time land exactly on a
    computed state, so no interpolation happens and the sampled states are
    the integrator states themselves.
    """
    t0, t1 = _span(t_span)
    span = t1 - t0
    if not h > 0:
        raise ConfigError("step size must be positive")
    if dt_out is not None and not dt_out > 0:
        raise ConfigError("dt_out must be positive")
    stride = 1 if dt_out is None else max(1, round(dt_out / h))
    n_out = max(1, round(span / (stride * h)))
    n_steps = n_out * stride
    h_eff = span / n_steps

    x, t_grid, out = _start(x0, t0, t1, n_out, guard)
    # stage buffers; xs starts as x0, so a bind-time evaluation sees a state
    xs = x.copy()
    k1, k2, k3, k4, acc = (np.empty_like(x) for _ in range(5))
    bind = _binder(rhs)
    f1, f2, f3, f4 = bind(x, k1), bind(xs, k2), bind(xs, k3), bind(xs, k4)
    half, full, sixth, two = (np.array(v) for v in (0.5 * h_eff, h_eff, h_eff / 6.0, 2.0))
    mul, add = np.multiply, np.add
    j = 0
    # Divergence shows up as inf/NaN at the next retained sample and is
    # reported through the guard, so arithmetic warnings stay quiet here.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            f1()
            mul(k1, half, xs)
            add(x, xs, xs)
            f2()
            mul(k2, half, xs)
            add(x, xs, xs)
            f3()
            mul(k3, full, xs)
            add(x, xs, xs)
            f4()
            # x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            mul(k2, two, acc)
            add(k1, acc, acc)
            mul(k3, two, xs)
            add(acc, xs, acc)
            add(acc, k4, acc)
            mul(acc, sixth, acc)
            add(x, acc, x)
            if (step + 1) % stride != 0:
                continue
            j += 1
            out[j] = x
            failed = _guard_failed(x, guard)
            if failed.any():
                t_fail = t0 + (span / n_out) * j
                raise IntegrationError(f"state magnitude exceeded {guard:g} at t={t_fail:g}",
                                       failed=failed, t_fail=t_fail)
    return Trajectory(t_grid, out,
                      {"method": "rk4", "h": h_eff, "n_steps": n_steps,
                       "n_rejected": 0})


# Dormand-Prince 5(4) tableau; rhs is autonomous, so the nodes c are not needed.
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])


def _norm(v) -> float:
    """RMS over the components of the worst column.  Rounding is monotone,
    so dividing the largest sum by the component count gives the largest
    mean bit for bit."""
    return math.sqrt(float(np.add.reduce(v * v, axis=0).max()) / v.shape[0])


def _initial_step(x0, f0, x1, f1, eval_f1, t0, t1, rtol, atol):
    """Hairer's starting step; eval_f1 writes the field at the buffer x1
    into f1."""
    sc = atol + rtol * np.abs(x0)
    d0 = _norm(x0 / sc)
    d1 = _norm(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    np.multiply(f0, h0, out=x1)  # x1 = x0 + h0 * f0
    np.add(x0, x1, out=x1)
    eval_f1()
    d2 = _norm((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t1 - t0)


def _hermite(y0, y1, f0, f1, h, theta):
    """Cubic Hermite value at relative position theta of a step of length h
    from (y0, f0) to (y1, f1).  Arguments broadcast, so one call evaluates
    many steps at many positions."""
    d = y1 - y0
    a = 3.0 * d - h * (2.0 * f0 + f1)
    b = -2.0 * d + h * (f0 + f1)
    return y0 + theta * (h * f0 + theta * (a + theta * b))


def dopri5(rhs, x0, t_span, rtol: float = 1e-9, atol: float = 1e-12, *,
           dt_out: float, guard: float = DEFAULT_GUARD) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) for an (m,) state or an (m, batch) stack
    whose columns share one step sequence, so every column meets the
    tolerance.

    States are reported on the uniform dt_out grid via cubic Hermite
    interpolation inside each accepted step.  The step sequence does not
    depend on dt_out, so neither does the final state.  Tolerances that are
    not finite and >= 0, or both 0, raise ConfigError.
    """
    t0, t1 = _span(t_span)
    if not dt_out > 0:
        raise ConfigError("dt_out must be positive")
    if not (0 <= rtol < math.inf and 0 <= atol < math.inf and rtol + atol > 0):
        raise ConfigError(f"rtol and atol must be finite, >= 0 and not both 0, "
                          f"got {rtol!r} and {atol!r}")
    n_out = max(1, round((t1 - t0) / dt_out))
    x, t_grid, out = _start(x0, t0, t1, n_out, guard)
    next_out = 1

    # PI controller constants as in Hairer's dopri5.
    safe, beta = 0.9, 0.04
    expo1 = 0.2 - beta * 0.75
    facc1, facc2 = 1.0 / 0.2, 1.0 / 10.0

    # stage buffers: k[i] holds the field at stage i, xs a stage's input
    # (x0 at first, so a bind-time evaluation sees a state), stage the sum
    # of one tableau row on flat views (one BLAS call), x_new the step's
    # result; a and b hold the error norm's terms
    k = np.empty((7,) + x.shape)
    kf = k.reshape(7, -1)
    stage = np.empty(x.shape)
    sf = stage.reshape(-1)
    xs = x.copy()
    x_new, a, b = (np.empty_like(x) for _ in range(3))
    bind = _binder(rhs)
    eval_f0 = bind(x, k[0])
    stages = [None] + [bind(xs, k[i]) for i in range(1, 7)]
    eval_f0()
    h = _initial_step(x, k[0], xs, k[1], stages[1], t0, t1, rtol, atol)
    t = t0
    h_arr, rtol_arr, atol_arr = np.array(0.0), np.array(float(rtol)), np.array(float(atol))
    mul, add = np.multiply, np.add
    n_accepted = n_rejected = 0

    steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t1:
            steps += 1
            if steps > _MAX_STEPS:
                raise IntegrationError(f"exceeded {_MAX_STEPS} steps", t_fail=t)
            if not (h >= 1e-14 * max(1.0, abs(t))):
                raise IntegrationError(f"step size underflow at t={t:g}", t_fail=t)
            last = t + h >= t1
            if last:
                h = t1 - t
            h_arr[()] = h
            for i in range(1, 7):
                np.dot(_A[i], kf[:i], out=sf)
                mul(stage, h_arr, xs)  # xs = x + h * stage
                add(x, xs, xs)
                stages[i]()
            np.dot(_A[6], kf[:6], out=sf)
            mul(stage, h_arr, x_new)
            add(x, x_new, x_new)
            # sc = atol + rtol * max(|x|, |x_new|), into a
            np.abs(x, out=a)
            np.abs(x_new, out=b)
            np.maximum(a, b, out=a)
            mul(rtol_arr, a, a)
            add(atol_arr, a, a)
            np.dot(_E, kf, out=sf)
            mul(h_arr, stage, b)  # h * stage / sc
            np.divide(b, a, out=b)
            err = _norm(b)

            if not math.isfinite(err):
                n_rejected += 1
                h = 0.1 * h
                continue
            fac11 = err ** expo1 if err > 0 else 0.0
            if err <= 1.0:
                facold = max(err, 1e-4)
                fac = max(facc2, min(facc1, fac11 / (facold ** beta) / safe))
                t_new = t1 if last else t + h
                failed = _guard_failed(x_new, guard)
                if failed.any():
                    raise IntegrationError(
                        f"state magnitude exceeded {guard:g} at t={t_new:g}",
                        failed=failed, t_fail=t)
                reach = t_new + 1e-14 * max(1.0, abs(t_new))
                if next_out <= n_out and t_grid[next_out] <= reach:
                    stop = int(np.searchsorted(t_grid, reach, "right"))
                    if stop == next_out + 1:
                        # one sample: the scalar call costs less than a broadcast
                        theta = min(max((t_grid[next_out] - t) / h, 0.0), 1.0)
                        out[next_out] = _hermite(x, x_new, k[0], k[6], h, theta)
                    else:
                        theta = np.minimum(
                            np.maximum((t_grid[next_out:stop] - t) / h, 0.0), 1.0)
                        out[next_out:stop] = _hermite(x, x_new, k[0], k[6], h,
                                                      theta.reshape((-1,) + (1,) * x.ndim))
                    next_out = stop
                k[0] = k[6]
                x, x_new = x_new, x
                t = t_new
                n_accepted += 1
                h = h / fac
            else:
                n_rejected += 1
                h = h / min(facc1, fac11 / safe)

    meta = {"method": "dopri5", "rtol": rtol, "atol": atol,
            "n_steps": n_accepted, "n_rejected": n_rejected}
    out[n_out] = x
    return Trajectory(t_grid, out, meta)


# integrator name -> its function here, by name, so a wrapper in its place runs
INTEGRATORS = {"rk4": "rk4_fixed", "dopri5": "dopri5"}


def integrate(rhs, x0, t_span, method: str = "rk4", **kwargs) -> Trajectory:
    """Dispatch to the integrator INTEGRATORS names method."""
    if method not in INTEGRATORS:
        raise ConfigError(f"unknown integrator {method!r}")
    return globals()[INTEGRATORS[method]](rhs, x0, t_span, **kwargs)
