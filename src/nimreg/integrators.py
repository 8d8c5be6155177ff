"""Fixed-step and adaptive Runge-Kutta integrators.

Right-hand sides are autonomous: rhs(x) -> xdot, where x is an (m,) state or
an (m, batch) stack of states sharing the same dynamics.  Both integrators
advance whole batches at once and are bit-reproducible.  The adaptive one is a
Dormand-Prince 5(4) pair with PI step-size control whose columns share one
step sequence, accepted or rejected on the worst column.

Both abort with IntegrationError (carrying the partial trajectory) when the
state magnitude passes the overflow guard; the comparison is written so that
NaN states also trigger it, and the error marks the columns that tripped it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IntegrationError

__all__ = ["Trajectory", "rk4_fixed", "dopri5", "integrate"]

DEFAULT_GUARD = 1e9
_MAX_STEPS = 5_000_000  # attempted steps per dopri5 call


@dataclass
class Trajectory:
    """Time grid plus the states sampled on it.

    states has shape (n_pts, m) for a single run or (n_pts, m, batch) for a
    batch.  meta records the method and step statistics; sim attaches the
    state layout under meta["layout"].
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


def _span(t_span) -> tuple[float, float]:
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ConfigError(f"t_span must be increasing, got ({t0}, {t1})")
    return t0, t1


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
    if h <= 0:
        raise ConfigError("step size must be positive")
    if dt_out is None:
        stride = 1
        n_out = max(1, round(span / h))
    else:
        if dt_out <= 0:
            raise ConfigError("dt_out must be positive")
        stride = max(1, round(dt_out / h))
        n_out = max(1, round(span / (stride * h)))
    n_steps = n_out * stride
    h_eff = span / n_steps

    x = np.array(x0, dtype=float)
    out = np.empty((n_out + 1,) + x.shape)
    out[0] = x
    failed = _guard_failed(x, guard)
    if failed.any():
        raise IntegrationError("initial state exceeds overflow guard",
                               failed=failed, t_fail=t0)
    half = 0.5 * h_eff
    sixth = h_eff / 6.0
    j = 0
    # Divergence shows up as inf/NaN at the next retained sample and is
    # reported through the guard, so arithmetic warnings stay quiet here.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            k1 = rhs(x)
            k2 = rhs(x + half * k1)
            k3 = rhs(x + half * k2)
            k4 = rhs(x + h_eff * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (step + 1) % stride != 0:
                continue
            j += 1
            out[j] = x
            failed = _guard_failed(x, guard)
            if failed.any():
                t_grid = t0 + (span / n_out) * np.arange(j + 1)
                partial = Trajectory(t_grid, out[: j + 1],
                                     {"method": "rk4", "h": h_eff, "n_steps": step + 1})
                raise IntegrationError(
                    f"state magnitude exceeded {guard:g} at t={t_grid[-1]:g}",
                    partial=partial, failed=failed, t_fail=t_grid[-1])
    t_grid = t0 + (span / n_out) * np.arange(n_out + 1)
    t_grid[-1] = t1
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


def _norm(v) -> float:  # RMS over the components of the worst column
    return math.sqrt(float(np.mean(v ** 2, axis=0).max()))


def _initial_step(rhs, x0, f0, t0, t1, rtol, atol):
    sc = atol + rtol * np.abs(x0)
    d0 = _norm(x0 / sc)
    d1 = _norm(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    x1 = x0 + h0 * f0
    f1 = rhs(x1)
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
    depend on dt_out, so neither does the final state.
    """
    t0, t1 = _span(t_span)
    x = np.array(x0, dtype=float)
    failed = _guard_failed(x, guard)
    if failed.any():
        raise IntegrationError("initial state exceeds overflow guard",
                               failed=failed, t_fail=t0)

    if dt_out <= 0:
        raise ConfigError("dt_out must be positive")
    n_out = max(1, round((t1 - t0) / dt_out))
    t_grid = t0 + ((t1 - t0) / n_out) * np.arange(n_out + 1)
    t_grid[-1] = t1
    out = np.empty((n_out + 1,) + x.shape)
    out[0] = x
    next_out = 1

    # PI controller constants as in Hairer's dopri5.
    safe, beta = 0.9, 0.04
    expo1 = 0.2 - beta * 0.75
    facc1, facc2 = 1.0 / 0.2, 1.0 / 10.0
    facold = 1e-4

    f0 = rhs(x)
    h = _initial_step(rhs, x, f0, t0, t1, rtol, atol)
    t = t0
    k = np.empty((7,) + x.shape)
    k[0] = f0
    # stage sums: one BLAS call on flat views, into a state-shaped buffer
    kf = k.reshape(7, -1)
    stage = np.empty(x.shape)
    sf = stage.reshape(-1)
    n_accepted = n_rejected = 0

    def _fail(msg, failed=None):
        partial = Trajectory(t_grid[:next_out].copy(), out[:next_out].copy(),
                             {"method": "dopri5", "rtol": rtol, "atol": atol})
        return IntegrationError(msg, partial=partial, failed=failed, t_fail=t)

    steps = 0
    while t < t1:
        steps += 1
        if steps > _MAX_STEPS:
            raise _fail(f"exceeded {_MAX_STEPS} steps")
        if not (h >= 1e-14 * max(1.0, abs(t))):
            raise _fail(f"step size underflow at t={t:g}")
        last = t + h >= t1
        if last:
            h = t1 - t
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 7):
                np.dot(_A[i], kf[:i], out=sf)
                k[i] = rhs(x + h * stage)
            np.dot(_A[6], kf[:6], out=sf)
            x_new = x + h * stage
            sc = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
            np.dot(_E, kf, out=sf)
            err = _norm(h * stage / sc)

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
                raise _fail(f"state magnitude exceeded {guard:g} at t={t_new:g}",
                            failed)
            reach = t_new + 1e-14 * max(1.0, abs(t_new))
            if next_out <= n_out and t_grid[next_out] <= reach:
                stop = int(np.searchsorted(t_grid, reach, "right"))
                theta = np.minimum(np.maximum((t_grid[next_out:stop] - t) / h, 0.0), 1.0)
                out[next_out:stop] = _hermite(x, x_new, k[0], k[6], h,
                                              theta.reshape((-1,) + (1,) * x.ndim))
                next_out = stop
            k[0] = k[6].copy()
            x = x_new
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


def integrate(rhs, x0, t_span, method: str = "rk4", **kwargs) -> Trajectory:
    """Dispatch to the named integrator ("rk4" or "dopri5")."""
    if method == "rk4":
        return rk4_fixed(rhs, x0, t_span, **kwargs)
    if method == "dopri5":
        return dopri5(rhs, x0, t_span, **kwargs)
    raise ConfigError(f"unknown integrator {method!r}")
