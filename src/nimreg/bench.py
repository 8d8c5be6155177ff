"""Benchmark systems: plant, exosystem, driver, and sampling defaults.

All three share the scalar plant skeleton

    z' = f0(z, w) + f1 * e,    e' = q(z, e, w) + u,

and differ in the exosystem and the driver the internal model must realize.
The Van der Pol benchmark carries a cached reference limit cycle so initial
exosystem states can be placed on the attractor rather than near it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynsys import ExosystemSpec, PlantSpec, ScenarioSets, inflate_box
from .errors import ConfigError
from .integrators import _hermite, dopri5

__all__ = ["Benchmark", "registry", "get_benchmark", "reference_cycle"]


@dataclass(frozen=True, eq=False)
class Benchmark:
    name: str
    plant: PlantSpec
    exo: ExosystemSpec
    d: int
    f: Callable
    z_box: np.ndarray
    e_interval: np.ndarray
    exp_attractive: bool
    linear_baseline_pass: bool
    w0_sampler: Callable | None = None
    mu: float | None = None
    notes: str = ""

    def scenario_sets(self, n_samples: int = 50, seed: int = 0) -> ScenarioSets:
        return ScenarioSets(z_box=self.z_box, e_interval=self.e_interval,
                            n_samples=n_samples, seed=seed)


# Van der Pol reference cycle ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReferenceCycle:
    """One period of the Van der Pol limit cycle as dense samples: times t
    (n,), states (n, 2) and field values f (n, 2) at them, and the period."""

    t: np.ndarray
    states: np.ndarray
    f: np.ndarray
    period: float


_CYCLE_CACHE: dict = {}


def _vdp_rhs(mu: float):
    def rhs(x):
        return np.array([x[1], mu * (1.0 - x[0] ** 2) * x[1] - x[0]])
    return rhs


def reference_cycle(mu: float = 1.0) -> ReferenceCycle:
    """Limit cycle of w' = (w2, mu (1 - w1^2) w2 - w1) as dense samples over
    one period, cached per mu.

    Every caller gets the same record, so it is frozen and its arrays are
    read-only.
    Samples are accurate to roughly the integrator tolerance (1e-11), far
    inside the 1e-6 projection budget callers rely on.
    """
    key = round(float(mu), 12)
    if key in _CYCLE_CACHE:
        return _CYCLE_CACHE[key]
    rhs = _vdp_rhs(mu)
    settled = dopri5(rhs, np.array([2.0, 0.0]), (0.0, 30.0),
                     rtol=1e-11, atol=1e-13, dt_out=30.0).final
    dense = dopri5(rhs, settled, (0.0, 25.0), rtol=1e-11, atol=1e-13,
                   dt_out=1e-3)
    w1, w2 = dense.states[:, 0], dense.states[:, 1]
    # upward crossings of the section w2 = 0 on the w1 < 0 side
    hits = np.nonzero((w2[:-1] < 0.0) & (w2[1:] >= 0.0) & (w1[:-1] < 0.0))[0]
    if hits.size < 2:
        raise ConfigError(f"no limit cycle found for mu={mu:g}")

    def refine(i):
        y0, y1 = dense.states[i], dense.states[i + 1]
        f0, f1 = rhs(y0), rhs(y1)
        h = dense.t[i + 1] - dense.t[i]
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _hermite(y0, y1, f0, f1, h, mid)[1] < 0.0:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
        return dense.t[i] + theta * h, _hermite(y0, y1, f0, f1, h, theta)

    t_a, state_a = refine(hits[0])
    t_b, _ = refine(hits[1])
    period = t_b - t_a
    n = 8192
    loop = dopri5(rhs, state_a, (0.0, period), rtol=1e-11, atol=1e-13,
                  dt_out=period / n)
    fvals = np.stack([rhs(s) for s in loop.states])
    for shared in (loop.t, loop.states, fvals):
        shared.setflags(write=False)
    cycle = ReferenceCycle(t=loop.t, states=loop.states, f=fvals,
                           period=float(period))
    _CYCLE_CACHE[key] = cycle
    return cycle


def _cycle_sampler(mu: float):
    cycle = reference_cycle(mu)
    t, states, fvals = cycle.t, cycle.states, cycle.f

    def sample(count, rng):
        phases = rng.uniform(0.0, cycle.period, size=count)
        idx = np.clip(np.searchsorted(t, phases) - 1, 0, t.size - 2)
        h = t[idx + 1] - t[idx]
        theta = ((phases - t[idx]) / h)[:, None]
        return _hermite(states[idx], states[idx + 1], fvals[idx],
                        fvals[idx + 1], h[:, None], theta).T
    return sample


# benchmark definitions -----------------------------------------------------------


def _driven(name: str, exo: ExosystemSpec, f, **rest) -> Benchmark:
    """A d = 2 benchmark on the plant that harmonic and vdp share,
    z' = -z + w_1 + 0.1 e and e' = w_1 + e z + u, with z0 in [-2, 2] and e0
    in [-0.5, 0.5]."""
    plant = PlantSpec(n=1,
                      f0=lambda z, w: (-z[0] + w[0],),
                      f1=lambda z, zeta, w: (0.1,),
                      q=lambda z, zeta, w: w[0] + zeta * z[0])
    return Benchmark(name=name, plant=plant, exo=exo, d=2, f=f,
                     z_box=np.array([[-2.0, 2.0]]),
                     e_interval=np.array([[-0.5, 0.5]]),
                     exp_attractive=True, **rest)


def _harmonic() -> Benchmark:
    exo = ExosystemSpec(r=2, s=lambda w: (w[1], -w[0]),
                        w_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]))

    def sampler(count, rng):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return np.stack([np.cos(theta), np.sin(theta)])

    return _driven("harmonic", exo, lambda eta: eta[0],
                   linear_baseline_pass=True, w0_sampler=sampler,
                   notes="sinusoidal exogenous signal; driver is linear")


def _vdp(mu: float = 1.0) -> Benchmark:
    cycle = reference_cycle(mu)
    extent = np.column_stack([cycle.states.min(axis=0),
                              cycle.states.max(axis=0)])
    # constants as 0-d arrays: a ufunc takes them faster than Python floats,
    # with the same bits
    mu_, neg_mu, one = np.array(mu), np.array(-mu), np.array(1.0)
    exo = ExosystemSpec(r=2,
                        s=lambda w: (w[1], mu_ * (one - w[0] ** 2) * w[1] - w[0]),
                        w_box=inflate_box(extent, 0.05))

    def f(eta):
        a, b = eta[0], eta[1]
        return neg_mu * (one - a * a) * b + a

    return _driven("vdp", exo, f, linear_baseline_pass=False,
                   w0_sampler=_cycle_sampler(mu), mu=mu,
                   notes="relaxation oscillation; driver genuinely nonlinear")


def _static() -> Benchmark:
    exo = ExosystemSpec(r=1, s=lambda w: (0.0,), w_box=np.array([[0.0, 0.0]]))
    plant = PlantSpec(n=1,
                      f0=lambda z, w: (-z[0],),
                      f1=lambda z, zeta, w: (0.0,),
                      q=lambda z, zeta, w: zeta)

    return Benchmark(name="static", plant=plant, exo=exo, d=1,
                     f=lambda eta: 0.0,
                     z_box=np.array([[-1.0, 1.0]]),
                     e_interval=np.array([[-0.5, 0.5]]),
                     exp_attractive=False, linear_baseline_pass=True,
                     w0_sampler=lambda count, rng: np.zeros((1, count)),
                     notes="pure stabilization smoke test; tau is identically zero")


_BUILDERS = {"harmonic": _harmonic, "vdp": _vdp, "static": _static}


def registry() -> list:
    """All benchmarks, cheapest first."""
    return [build() for build in _BUILDERS.values()]


def get_benchmark(name: str, mu: float | None = None) -> Benchmark:
    if name not in _BUILDERS:
        raise ConfigError(f"unknown benchmark {name!r}; choose from {', '.join(_BUILDERS)}")
    return _vdp(mu) if name == "vdp" and mu is not None else _BUILDERS[name]()
