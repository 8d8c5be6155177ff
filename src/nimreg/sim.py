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

The closed loop and the cascade are bound fields (dynsys.Field): binding
takes the state buffer's rows once and checks the state size and the plant's
component counts once, and each call writes every rate row in place, with
the gains G and -k as 0-d arrays, in the operation order of the formulas
below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .dynsys import (ExosystemSpec, Field, PlantSpec, _check_len, _row_views,
                     zero_dynamics_rhs)
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


def _copy_rates(im: "InternalModel", G, xi, xidot, s):
    """Call writing xi' = Phi_c(xi) + G s into the rows xidot, for the row s
    its caller fills before it runs."""
    gains = [np.array(g) for g in np.asarray(G, dtype=float).ravel()]
    gs = np.empty_like(s)
    phi_c, mul, add = im.phi_c, np.multiply, np.add

    def call():
        for o, p, g in zip(xidot, phi_c(xi), gains):
            mul(g, s, gs)
            add(p, gs, o)

    return call


def _closed_loop_rhs(plant: PlantSpec, exo: ExosystemSpec, cc: ControllerConfig):
    """Closed loop in plain coordinates [z, e, w, xi]:

        z' = f0 + f1 e,  e' = q + xi_1 + v,  w' = s,  xi' = Phi_c(xi) + G v,

    with v = -k e, as a bound field and its layout."""
    n, r = plant.n, exo.r
    layout = StateLayout(n=n, r=r, d=cc.im.d, has_error=True)
    f0, f1, q, s = plant.f0, plant.f1, plant.q, exo.s
    neg_k = np.array(-float(cc.k))
    mul, add = np.multiply, np.add

    def bind(x, out):
        xs, outs = _row_views(x, layout.m, "closed-loop"), _row_views(out, layout.m, "closed-loop")
        z, e, w, xi = xs[:n], xs[n], xs[n + 1:n + 1 + r], xs[n + 1 + r:]
        zdot, edot, wdot = outs[:n], outs[n], outs[n + 1:n + 1 + r]
        _check_len(f0(z, w), n, "f0")
        _check_len(f1(z, e, w), n, "f1")
        _check_len(s(w), r, "s")
        v = np.empty_like(e)
        xi_rates = _copy_rates(cc.im, cc.gd.G, xi, outs[n + 1 + r:], v)

        def call():
            mul(neg_k, e, v)  # v = -k e
            for o, a, b in zip(zdot, f0(z, w), f1(z, e, w)):
                mul(b, e, o)  # f0 + f1 e
                add(a, o, o)
            add(q(z, e, w), xi[0], edot)  # q + xi_1 + v
            add(edot, v, edot)
            for o, c in zip(wdot, s(w)):
                o[...] = c
            xi_rates()

        return call

    return Field(bind), layout


def _cascade_rhs(plant: PlantSpec, exo: ExosystemSpec, im: "InternalModel", G):
    """Zero dynamics driving the internal-model copy, on [z, w, xi]:

        z' = f0,  w' = s,  xi' = Phi_c(xi) + G (-q(z, 0, w) - xi_1),

    as a bound field and its layout.  The (z, w) rows are the bare zero
    dynamics bound on them, so their flow matches it slot for slot."""
    n, r = plant.n, exo.r
    layout = StateLayout(n=n, r=r, d=im.d, has_error=False)
    zero_dynamics, q = zero_dynamics_rhs(plant, exo), plant.q
    zero = np.array(0.0)

    def bind(x, out):
        xs, outs = _row_views(x, layout.m, "cascade"), _row_views(out, layout.m, "cascade")
        z, w, xi = xs[:n], xs[n:n + r], xs[n + r:]
        zw_rates = zero_dynamics.bind(x[:n + r], out[:n + r])
        innov = np.empty_like(xi[0])
        xi_rates = _copy_rates(im, G, xi, outs[n + r:], innov)

        def call():
            np.negative(q(z, zero, w), innov)  # -q(z, 0, w) - xi_1
            np.subtract(innov, xi[0], innov)
            zw_rates()
            xi_rates()

        return call

    return Field(bind), layout


def _run(rhs, layout, x0, t_span, method, **kwargs) -> Trajectory:
    traj = integrate(rhs, x0, t_span, method=method, **kwargs)
    return replace(traj, meta={**traj.meta, "layout": layout})


def run_closed_loop(plant, exo, cc, x0, t_span, method: str = "rk4",
                    **kwargs) -> Trajectory:
    """Integrate the closed loop from stacked [z, e, w, xi] states."""
    rhs, layout = _closed_loop_rhs(plant, exo, cc)
    return _run(rhs, layout, x0, t_span, method, **kwargs)


def run_observer_cascade(plant, exo, im, G, x0, t_span, **kwargs) -> Trajectory:
    """Integrate the zero-dynamics/observer cascade from [z, w, xi] states on
    the fixed RK4 grid, so a run from a matched-cloud start retraces the cloud."""
    rhs, layout = _cascade_rhs(plant, exo, im, G)
    return _run(rhs, layout, x0, t_span, "rk4", **kwargs)
