"""Controller assembly and closed-loop simulation.

The regulator is the internal-model copy xi' = Phi_c(xi) + G v with output
u = xi_1 + v and the static loop v = -k y.  The closed loop runs in the plain
xi coordinates, as the controller is deployed.  The shifted coordinates
eta = xi - G e, whose error equation exposes the effective gain
k_bar = k - Gamma G, serve only as an analysis form: their field is the
oracle of acceptance check 09 in tests/_oracles.py.

State layouts, by slot order:

    zero dynamics          [z (n), w (r)]
    observer cascade       [z (n), w (r), xi (d)]
    closed loop            [z (n), e, w (r), xi (d)]

Field builders return component fields (see dynsys); wrap with as_array_rhs
to integrate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .dynsys import ExosystemSpec, PlantSpec, as_array_rhs
from .errors import ConfigError
from .integrators import Trajectory, integrate

if TYPE_CHECKING:
    from .gain import GainDesign
    from .internal_model import InternalModel

__all__ = [
    "ControllerConfig",
    "StateLayout",
    "run_closed_loop",
    "run_observer_cascade",
]


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Internal model, gain design, and the output-feedback gain k.

    k = 0 is allowed for diagnostics; regulation entry points require
    k_bar = k - Gamma G > 0 and check it there.
    """

    im: "InternalModel"
    gd: "GainDesign"
    k: float

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError("feedback gain k must be >= 0")

    @property
    def k_bar(self) -> float:
        return self.k - float(self.gd.G[0])


@dataclass(frozen=True)
class StateLayout:
    """Slot bookkeeping for stacked state vectors."""

    n: int
    r: int
    d: int = 0
    has_error: bool = False

    @property
    def m(self) -> int:
        return self.n + self.r + self.d + (1 if self.has_error else 0)

    @property
    def z(self) -> slice:
        return slice(0, self.n)

    @property
    def e(self) -> int:
        if not self.has_error:
            raise ConfigError("layout has no error slot")
        return self.n

    @property
    def w(self) -> slice:
        off = self.n + (1 if self.has_error else 0)
        return slice(off, off + self.r)

    @property
    def xi(self) -> slice:
        off = self.n + (1 if self.has_error else 0) + self.r
        return slice(off, off + self.d)


def _closed_loop_field(plant: PlantSpec, exo: ExosystemSpec, cc: ControllerConfig):
    """Closed loop in plain coordinates [z, e, w, xi]:

        z' = f0 + f1 e,  e' = q + xi_1 + v,  w' = s,  xi' = Phi_c(xi) + G v,

    with v = -k e."""
    n, r, d = plant.n, exo.r, cc.im.d
    G = [float(g) for g in np.asarray(cc.gd.G, dtype=float).ravel()]
    k = float(cc.k)
    im = cc.im
    layout = StateLayout(n=n, r=r, d=d, has_error=True)

    def field(x):
        z, e, w, xi = x[:n], x[n], x[n + 1:n + 1 + r], x[n + 1 + r:]
        v = -k * e
        fz = plant.f0(z, w)
        f1v = plant.f1(z, e, w)
        zdot = tuple(a + b * e for a, b in zip(fz, f1v))
        edot = plant.q(z, e, w) + xi[0] + v
        phi = im.phi_c(xi)
        xidot = tuple(p + g * v for p, g in zip(phi, G))
        return zdot + (edot,) + tuple(exo.s(w)) + xidot

    return field, layout


def _cascade_field(plant: PlantSpec, exo: ExosystemSpec, im: "InternalModel", G):
    """Zero dynamics driving the internal-model copy, on [z, w, xi]:

        z' = f0,  w' = s,  xi' = Phi_c(xi) + G (-q(z, 0, w) - xi_1).

    The (z, w) block is autonomous, so its flow matches the bare zero
    dynamics slot for slot."""
    n, r, d = plant.n, exo.r, im.d
    G = [float(g) for g in np.asarray(G, dtype=float).ravel()]
    layout = StateLayout(n=n, r=r, d=d, has_error=False)

    def field(x):
        z, w, xi = x[:n], x[n:n + r], x[n + r:]
        innov = -plant.q(z, 0.0, w) - xi[0]
        phi = im.phi_c(xi)
        return tuple(plant.f0(z, w)) + tuple(exo.s(w)) + tuple(
            p + g * innov for p, g in zip(phi, G))

    return field, layout


def _run(field, layout, x0, t_span, method, **kwargs) -> Trajectory:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[0] != layout.m:
        raise ConfigError(f"initial state has {x0.shape[0]} slots, expected {layout.m}")
    traj = integrate(as_array_rhs(field), x0, t_span, method=method, **kwargs)
    return replace(traj, meta={**traj.meta, "layout": layout})


def run_closed_loop(plant, exo, cc, x0, t_span, method: str = "rk4",
                    **kwargs) -> Trajectory:
    """Integrate the closed loop from stacked [z, e, w, xi] states."""
    field, layout = _closed_loop_field(plant, exo, cc)
    return _run(field, layout, x0, t_span, method, **kwargs)


def run_observer_cascade(plant, exo, im, G, x0, t_span, **kwargs) -> Trajectory:
    """Integrate the zero-dynamics/observer cascade from [z, w, xi] states on
    the fixed RK4 grid, so a run from a matched-cloud start retraces the cloud."""
    field, layout = _cascade_field(plant, exo, im, G)
    return _run(field, layout, x0, t_span, "rk4", **kwargs)
